// rmp_run — the scriptable front door to the whole pipeline: a RunSpec JSON
// in, a result JSON (front + fingerprint + mined candidates + timings) out.
//
//   rmp_run spec.json [--out result.json]   execute a spec
//   rmp_run --resume ckpt.json [--out ...]  finish a checkpointed run
//   rmp_run --list-problems                 registered problem names
//   rmp_run --list-optimizers               registered optimizer names
//   rmp_run --validate file.json            parse check (used by CI)
//
// Exit codes: 0 success, 1 bad usage/spec/input, 2 I/O failure.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/run.hpp"
#include "api/session.hpp"
#include "api/spec.hpp"
#include "core/json.hpp"

namespace {

int usage(std::FILE* to) {
  std::fprintf(to,
               "usage: rmp_run <spec.json> [--out result.json]\n"
               "       rmp_run --resume <checkpoint.json> [--out result.json]\n"
               "       rmp_run --list-problems | --list-optimizers\n"
               "       rmp_run --validate <file.json>\n"
               "\n"
               "A spec selects any registered problem and optimizer, e.g.:\n"
               "  {\"problem\": \"zdt1?n=30\", \"optimizer\": \"pmo2?islands=2\",\n"
               "   \"generations\": 100, \"seed\": 7}\n"
               "See examples/specs/ and docs/ARCHITECTURE.md (\"API layer\").\n");
  return to == stdout ? 0 : 1;
}

void print_listing(const std::vector<std::pair<std::string, std::string>>& entries) {
  for (const auto& [name, summary] : entries) {
    std::printf("%-16s %s\n", name.c_str(), summary.c_str());
  }
}

/// Distinguishes I/O trouble (exit 2, maybe transient — a batch driver may
/// retry) from malformed content (exit 1, fail hard).
bool readable(const std::string& path) {
  std::ifstream probe(path);
  return static_cast<bool>(probe);
}

int validate(const std::string& path) {
  if (!readable(path)) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 2;
  }
  try {
    (void)rmp::core::load_json_file(path);
  } catch (const rmp::core::JsonError& e) {
    std::fprintf(stderr, "invalid: %s\n", e.what());
    return 1;
  }
  std::printf("ok: %s is valid JSON\n", path.c_str());
  return 0;
}

int report(const rmp::api::RunResult& result, const std::string& out_path) {
  rmp::api::print_summary(result, std::cout);
  if (!out_path.empty()) {
    if (!rmp::core::write_json_file(out_path, rmp::api::result_to_json(result))) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int execute(const std::string& spec_path, const std::string& out_path) {
  if (!readable(spec_path)) {
    std::fprintf(stderr, "error: cannot open %s\n", spec_path.c_str());
    return 2;
  }
  rmp::api::RunSpec spec;
  try {
    spec = rmp::api::spec_from_json(rmp::core::load_json_file(spec_path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", spec_path.c_str(), e.what());
    return 1;
  }

  rmp::api::RunResult result;
  try {
    result = rmp::api::run(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return report(result, out_path);
}

/// Restores a Session::checkpoint() envelope and drives it to completion —
/// the same resume path rmp_serve uses, minus the spool.
int resume(const std::string& checkpoint_path, const std::string& out_path) {
  if (!readable(checkpoint_path)) {
    std::fprintf(stderr, "error: cannot open %s\n", checkpoint_path.c_str());
    return 2;
  }
  rmp::api::RunResult result;
  try {
    // load_checkpoint_file maps a torn/truncated file to a named SpecError
    // carrying the path and the parser's byte offset — never a raw
    // JsonError (the envelope checks in Session::resume do the rest).
    rmp::api::Session session = rmp::api::Session::resume(
        rmp::api::load_checkpoint_file(checkpoint_path));
    std::printf("resumed at epoch %zu/%zu\n", session.epoch(),
                session.total_epochs());
    result = session.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", checkpoint_path.c_str(), e.what());
    return 1;
  }
  return report(result, out_path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(stderr);
  if (args[0] == "--help" || args[0] == "-h") return usage(stdout);
  if (args[0] == "--list-problems") {
    if (args.size() != 1) return usage(stderr);
    print_listing(rmp::api::ProblemRegistry::global().list());
    return 0;
  }
  if (args[0] == "--list-optimizers") {
    if (args.size() != 1) return usage(stderr);
    print_listing(rmp::api::OptimizerRegistry::global().list());
    return 0;
  }
  if (args[0] == "--validate") {
    if (args.size() != 2) return usage(stderr);
    return validate(args[1]);
  }
  if (args[0] == "--resume") {
    std::string out_path;
    if (args.size() == 4 && args[2] == "--out") {
      out_path = args[3];
    } else if (args.size() != 2) {
      return usage(stderr);
    }
    return resume(args[1], out_path);
  }
  if (args[0].starts_with("--")) return usage(stderr);

  std::string out_path;
  if (args.size() == 3 && args[1] == "--out") {
    out_path = args[2];
  } else if (args.size() != 1) {
    return usage(stderr);
  }
  return execute(args[0], out_path);
}
