// pipeline_bench — drives the paper pipeline through the public rmp API and
// times it from outside, end to end and per layer (perfbench/README.md).
//
//   pipeline_bench --workload ph-search --seed 3 --seconds 20 --trace 0 --out-dir DIR
//   pipeline_bench --selftest --out-dir DIR
//
// After one untimed warm-up pass, a run repeats whole pipeline passes
// (Session construction, every step_epoch(), periodic checkpoint writes,
// finish()) for about --seconds.
// With --trace 1 every untraced pass is followed by a traced pass of the same
// spec; the traced passes give the per-layer metrics.  The last stdout line
// is one JSON document: metrics by name and unit, the checks that ran, and
// the build/host record.  Exit code 0 means every check passed.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "core/fsio.hpp"
#include "core/parallel.hpp"
#include "pareto/hypervolume.hpp"
#include "trace.hpp"
#include "traced_problem.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::ScopedSpan;
using perfbench::Span;
using rmp::api::RunResult;
using rmp::api::RunSpec;
using rmp::api::Session;

// lint: allow(wall-clock) benchmark timing only
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads (why each one exists: perfbench/README.md)

struct Workload {
  const char* name;
  const char* problem;    ///< traced-* reference (traced_problem.hpp)
  const char* optimizer;
  std::size_t generations;
  std::size_t threads;
  std::size_t trials;           ///< robustness trials; 0 = robustness off
  std::size_t surface_samples;
  std::size_t checkpoint_every; ///< 0 = no checkpoints
  std::size_t designs;          ///< optimizer seeds (designs) a run covers
  /// true: the designs are the fixed panel kDesignSeed + k, the same in every
  /// run, and --seed draws only the robustness ensembles and the order the
  /// panel is visited in.  false: each design's optimizer seed comes from --seed.
  bool fixed_designs;
  double hv_reference[2];       ///< fixed per-problem hypervolume reference
};

/// The first optimizer seed of a fixed design panel.
constexpr std::uint64_t kDesignSeed = 7;

// Hypervolume references: photosynthesis minimizes (-uptake, nitrogen) and
// is bounded by (0 uptake, 1e6 mg/l nitrogen, about twice the nitrogen of
// any front member seen); geobacter minimizes (-EP, -BP),
// bounded by (0, 0).
constexpr Workload kWorkloads[] = {
    {"ph-search", "traced-photosynthesis?scenario=present-high",
     "pmo2?islands=4&population=16", 2, 1, 0, 0, 0, 3, true, {0.0, 1.0e6}},
    {"pl-robust", "traced-photosynthesis?scenario=past-low",
     "pmo2?islands=4&population=16", 6, 4, 100, 5, 0, 1, true, {0.0, 1.0e6}},
    {"geo-checkpoint", "traced-geobacter",
     "pmo2?islands=4&population=40&archive_capacity=24", 100, 1, 0,
     0, 5, 1, false, {0.0, 0.0}},
};

/// The benchmark's self-test: two generations of ZDT1 with every stage on.
constexpr Workload kSmoke{"smoke", "traced-zdt1?n=30", "pmo2?islands=2&population=8",
                          2, 1, 16, 2, 1, 1, false, {11.0, 11.0}};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return name == kSmoke.name ? &kSmoke : nullptr;
}

/// The spec of design k of a run with seed `seed`.
RunSpec make_spec(const Workload& w, std::uint64_t seed, std::size_t k,
                  const fs::path& checkpoint) {
  const std::uint64_t derived = seed * 101 + k;
  RunSpec spec;
  spec.problem = w.problem;
  spec.optimizer = w.optimizer;
  spec.generations = w.generations;
  spec.seed = w.fixed_designs ? kDesignSeed + k : derived;
  spec.threads = w.threads;
  spec.robustness.enabled = w.trials > 0;
  spec.robustness.trials = w.trials;
  spec.robustness.surface_samples = w.surface_samples;
  spec.robustness.seed = derived + 99;
  spec.checkpoint_every = w.checkpoint_every;
  if (w.checkpoint_every > 0) spec.checkpoint_path = checkpoint.string();
  return spec;
}

// ---------------------------------------------------------------------------
// Metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"run_s", "s"},        {"setup_s", "s"},  {"optimize_s", "s"},
    {"robustness_s", "s"}, {"front_hv", "hv"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"kinetics.settled.count", "count"},
    {"kinetics.settled.busy_s", "s"},
    {"kinetics.settled.p50_ms", "ms"},
    {"kinetics.settled.p95_ms", "ms"},
    {"kinetics.cycle.count", "count"},
    {"kinetics.cycle.busy_s", "s"},
    {"kinetics.cycle.p50_ms", "ms"},
    {"kinetics.cycle.p95_ms", "ms"},
    {"kinetics.unconverged.count", "count"},
    {"kinetics.unconverged.busy_s", "s"},
    {"kinetics.unconverged.p50_ms", "ms"},
    {"kinetics.unconverged.p95_ms", "ms"},
    {"kinetics.cycle.opt.busy_s", "s"},
    {"kinetics.cycle.rob.busy_s", "s"},
    {"kinetics.pool_hits", "count"},
    {"kinetics.full_evals", "count"},
    {"moo.commit.count", "count"},
    {"moo.commit.busy_s", "s"},
    {"fba.repair.count", "count"},
    {"fba.repair.busy_s", "s"},
    {"fba.repair.p50_us", "us"},
    {"fba.evaluate.count", "count"},
    {"fba.evaluate.busy_s", "s"},
    {"moo.self_s", "s"},
    {"parallel.idle_core_s", "s"},
    {"api.setup.build_s", "s"},
    {"api.epoch.count", "count"},
    {"api.epoch.p50_s", "s"},
    {"api.epoch.max_s", "s"},
    {"robustness.evals", "count"},
    {"robustness.self_s", "s"},
    {"ckpt.count", "count"},
    {"ckpt.bytes", "bytes"},
    {"ckpt.serialize_s", "s"},
    {"ckpt.dump_s", "s"},
    {"ckpt.write_s", "s"},
    {"ckpt.resume_s", "s"},
    {"trace.overhead_frac", "frac"},
};

using Metrics = std::map<std::string, double>;

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Span tree: nesting by layer, self times

/// Layer depth of a span name: the run, then the api stages, then the
/// sub-steps the benchmark times inside a stage, then calls into the
/// problem layer.  A child must sit strictly deeper than its parent.
int layer_rank(std::string_view name) {
  if (name == "run") return 0;
  if (name == "api.setup.build" || name.starts_with("ckpt.")) return 2;
  if (name.starts_with("api.")) return 1;
  return 3;
}

bool is_problem_call(const Span& s) { return layer_rank(s.name) == 3; }

/// Problem calls that are evaluations (not repair or commit_epoch).
bool is_evaluation(const Span& s) {
  const std::string_view name = s.name;
  return is_problem_call(s) && !name.ends_with(".repair") && name != "moo.commit";
}

struct SpanTree {
  std::vector<Span> spans;
  std::map<std::uint64_t, std::size_t> index;
  std::vector<std::vector<std::size_t>> children;
  std::vector<std::int64_t> self_ns;
  std::size_t nesting_violations = 0;

  explicit SpanTree(std::vector<Span> all) : spans(std::move(all)) {
    const std::size_t n = spans.size();
    for (std::size_t i = 0; i < n; ++i) index.emplace(spans[i].id, i);
    children.resize(n);
    std::size_t roots = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      if (s.parent == 0) {
        ++roots;
        continue;
      }
      const auto it = index.find(s.parent);
      if (it == index.end()) {
        ++nesting_violations;
        continue;
      }
      const Span& p = spans[it->second];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns ||
          layer_rank(s.name) <= layer_rank(p.name)) {
        ++nesting_violations;
      }
      children[it->second].push_back(i);  // spans are start-ordered
    }
    if (roots != 1) nesting_violations += roots == 0 ? 1 : roots - 1;
    self_ns.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Self time = duration minus the part of the interval its children
      // cover (children on several threads may overlap; count the union).
      std::int64_t covered = 0;
      std::int64_t reach = spans[i].start_ns;
      for (const std::size_t c : children[i]) {
        const std::int64_t lo = std::max(spans[c].start_ns, reach);
        const std::int64_t hi = std::min(spans[c].end_ns, spans[i].end_ns);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, std::min(spans[c].end_ns, spans[i].end_ns));
      }
      self_ns[i] = spans[i].duration_ns() - covered;
    }
  }

  /// The api stage (rank-1 span) a span runs under, or "" at the root.
  [[nodiscard]] std::string_view stage_of(std::size_t i) const {
    while (true) {
      if (layer_rank(spans[i].name) == 1) return spans[i].name;
      const auto it = index.find(spans[i].parent);
      if (it == index.end()) return "";
      i = it->second;
    }
  }

  /// Sum of self times over the subtree rooted at i.
  [[nodiscard]] std::int64_t subtree_self_ns(std::size_t i) const {
    std::int64_t total = self_ns[i];
    for (const std::size_t c : children[i]) total += subtree_self_ns(c);
    return total;
  }
};

constexpr double kNs = 1e-9;

/// Per-layer metrics of one traced pass.  `threads` is the pass's
/// parallelism width (the denominator of idle core time).
Metrics layer_metrics(const SpanTree& tree, std::size_t threads) {
  std::map<std::string, std::vector<double>> durations;  // seconds, by span name
  double cycle_opt = 0.0, cycle_rob = 0.0, moo_self = 0.0, idle = 0.0;
  double robustness_self = 0.0, robustness_evals = 0.0, evaluations = 0.0;
  std::vector<double> epochs;
  for (std::size_t i = 0; i < tree.spans.size(); ++i) {
    const Span& s = tree.spans[i];
    const double d = static_cast<double>(s.duration_ns()) * kNs;
    durations[s.name].push_back(d);
    const std::string_view name = s.name;
    if (name == "kinetics.cycle") {
      const std::string_view stage = tree.stage_of(i);
      if (stage == "api.epoch") cycle_opt += d;
      if (stage == "api.finish") cycle_rob += d;
    }
    if (name == "api.epoch" || name == "api.finish") {
      double busy = 0.0;
      for (const std::size_t c : tree.children[i]) {
        if (is_problem_call(tree.spans[c])) {
          busy += static_cast<double>(tree.spans[c].duration_ns()) * kNs;
        }
      }
      idle += static_cast<double>(threads) * d - busy;
    }
    if (name == "api.epoch") {
      moo_self += static_cast<double>(tree.self_ns[i]) * kNs;
      epochs.push_back(d);
    }
    if (name == "api.finish") {
      robustness_self += static_cast<double>(tree.self_ns[i]) * kNs;
      for (const std::size_t c : tree.children[i]) {
        if (is_evaluation(tree.spans[c])) robustness_evals += 1.0;
      }
    }
    if (is_evaluation(s)) evaluations += 1.0;
  }
  const auto count = [&](const char* n) {
    const auto it = durations.find(n);
    return it == durations.end() ? 0.0 : static_cast<double>(it->second.size());
  };
  const auto busy = [&](const char* n) {
    const auto it = durations.find(n);
    double total = 0.0;
    if (it != durations.end()) {
      for (const double d : it->second) total += d;
    }
    return total;
  };
  const auto q = [&](const char* n, double p, double scale) {
    const auto it = durations.find(n);
    return it == durations.end() ? 0.0 : scale * quantile(it->second, p);
  };

  Metrics m;
  for (const char* cls : {"settled", "cycle", "unconverged"}) {
    const std::string span = std::string("kinetics.") + cls;
    m[span + ".count"] = count(span.c_str());
    m[span + ".busy_s"] = busy(span.c_str());
    m[span + ".p50_ms"] = q(span.c_str(), 0.50, 1e3);
    m[span + ".p95_ms"] = q(span.c_str(), 0.95, 1e3);
  }
  m["kinetics.cycle.opt.busy_s"] = cycle_opt;
  m["kinetics.cycle.rob.busy_s"] = cycle_rob;
  m["moo.commit.count"] = count("moo.commit");
  m["moo.commit.busy_s"] = busy("moo.commit");
  m["fba.repair.count"] = count("fba.repair");
  m["fba.repair.busy_s"] = busy("fba.repair");
  m["fba.repair.p50_us"] = q("fba.repair", 0.50, 1e6);
  m["fba.evaluate.count"] = count("fba.evaluate");
  m["fba.evaluate.busy_s"] = busy("fba.evaluate");
  m["moo.self_s"] = moo_self;
  m["parallel.idle_core_s"] = idle;
  m["api.setup.build_s"] = busy("api.setup.build");
  m["api.epoch.count"] = static_cast<double>(epochs.size());
  m["api.epoch.p50_s"] = median(epochs);
  m["api.epoch.max_s"] = epochs.empty() ? 0.0 : *std::max_element(epochs.begin(), epochs.end());
  m["robustness.evals"] = robustness_evals;
  m["robustness.self_s"] = robustness_self;
  m["ckpt.count"] = count("api.checkpoint");
  m["ckpt.serialize_s"] = busy("ckpt.serialize");
  m["ckpt.dump_s"] = busy("ckpt.dump");
  m["ckpt.write_s"] = busy("ckpt.write");
  m["evaluations"] = evaluations;  // cross-check only, not reported
  return m;
}

// ---------------------------------------------------------------------------
// One pipeline pass

/// Peak resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across execve, so it would report the
/// launching process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // KiB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// CPU seconds of this process, all threads (pass-log diagnostic: CPU time
/// that grows with wall time on the same spec points at a busy host).
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Pass {
  std::size_t design = 0;
  bool traced = false;
  bool warmup = false;  ///< checked, but left out of every metric
  double setup_s = 0.0, optimize_s = 0.0, robustness_s = 0.0, run_s = 0.0;
  double checkpoint_s = 0.0;  ///< part of optimize_s spent writing checkpoints
  double front_hv = 0.0;
  double cpu_s = 0.0;
  std::uint64_t fingerprint = 0;
  perfbench::CallCounts counts;
  std::size_t checkpoint_bytes = 0;
  std::size_t front_size = 0;
  rmp::num::Vec front_min, front_max;  ///< the front's extent per objective
  Metrics layer;             ///< traced passes only
  std::vector<Span> spans;   ///< traced passes only
  std::vector<std::string> failures;
};

void check_result(const Workload& w, const RunResult& result, Pass& pass) {
  if (result.front.empty()) pass.failures.push_back("the final front is empty");
  for (const auto& member : result.front.members()) {
    bool finite = member.f.size() == 2;
    for (const double v : member.f) finite = finite && std::isfinite(v);
    if (!member.feasible() || !finite) {
      pass.failures.push_back("a front member is infeasible or non-finite");
      break;
    }
  }
  if (!(pass.front_hv > 0.0) || !std::isfinite(pass.front_hv)) {
    pass.failures.push_back("front hypervolume is not positive");
  }
  if (w.trials > 0) {
    if (result.mined.empty()) pass.failures.push_back("no mined candidates");
    for (const auto& c : result.mined) {
      if (!c.yield || !(c.yield->gamma >= 0.0 && c.yield->gamma <= 1.0)) {
        pass.failures.push_back("mined candidate \"" + c.selection +
                                "\" has no yield in [0,1]");
      }
    }
    if (w.surface_samples > 0 && result.surface.empty()) {
      pass.failures.push_back("the robustness surface is empty");
    }
    for (const auto& p : result.surface) {
      if (!(p.gamma >= 0.0 && p.gamma <= 1.0)) {
        pass.failures.push_back("a surface yield is outside [0,1]");
        break;
      }
    }
  }
}

/// Writes one checkpoint exactly as api::run does, timing the three steps.
std::size_t write_checkpoint(const Session& session, const RunSpec& spec) {
  ScopedSpan span("api.checkpoint", true);
  rmp::core::Json doc;
  {
    ScopedSpan step("ckpt.serialize");
    doc = session.checkpoint();
  }
  std::string text;
  {
    ScopedSpan step("ckpt.dump");
    text = doc.dump(2) + "\n";
  }
  {
    ScopedSpan step("ckpt.write");
    rmp::core::atomic_write_file(spec.checkpoint_path, text, "checkpoint.write");
  }
  return text.size();
}

Pass run_pass(const Workload& w, const RunSpec& spec, std::size_t design, bool traced) {
  Pass pass;
  pass.design = design;
  pass.traced = traced;
  perfbench::trace::clear();
  perfbench::trace::set_enabled(traced);
  RunResult result;
  std::shared_ptr<const perfbench::TracedProblem> problem;
  {
    ScopedSpan run_span("run", true);
    const double cpu_start = process_cpu_s();
    const auto start = Clock::now();
    std::optional<Session> session;
    {
      ScopedSpan stage("api.setup", true);
      session.emplace(spec);
    }
    pass.setup_s = seconds_since(start);
    problem = perfbench::last_traced_problem();
    const auto optimize_start = Clock::now();
    while (!session->done()) {
      {
        ScopedSpan stage("api.epoch", true);
        session->step_epoch();
      }
      const std::size_t epoch = session->epoch();
      if (spec.checkpoint_every > 0 &&
          (epoch % spec.checkpoint_every == 0 || epoch == session->total_epochs())) {
        const auto checkpoint_start = Clock::now();
        pass.checkpoint_bytes += write_checkpoint(*session, spec);
        pass.checkpoint_s += seconds_since(checkpoint_start);
      }
    }
    pass.optimize_s = seconds_since(optimize_start);
    const auto finish_start = Clock::now();
    {
      ScopedSpan stage("api.finish", true);
      result = session->finish();
    }
    pass.robustness_s = seconds_since(finish_start);
    pass.run_s = seconds_since(start);
    pass.cpu_s = process_cpu_s() - cpu_start;
  }
  perfbench::trace::set_enabled(false);

  pass.fingerprint = result.fingerprint;
  pass.counts = problem->counts();
  pass.front_size = result.front.size();
  if (!result.front.empty()) {
    pass.front_min = result.front.relative_minimum();
    pass.front_max = result.front.relative_maximum();
  }
  pass.front_hv = rmp::pareto::hypervolume(
      result.front, rmp::num::Vec{w.hv_reference[0], w.hv_reference[1]});
  check_result(w, result, pass);

  if (traced) {
    SpanTree tree(perfbench::trace::collect());
    const std::size_t threads = rmp::core::resolve_threads(spec.threads);
    pass.layer = layer_metrics(tree, threads);
    pass.layer["kinetics.pool_hits"] = static_cast<double>(result.eval_stats.pool_hits);
    pass.layer["kinetics.full_evals"] =
        static_cast<double>(result.eval_stats.full_evaluations);
    pass.layer["ckpt.bytes"] = static_cast<double>(pass.checkpoint_bytes);
    if (tree.nesting_violations > 0) {
      pass.failures.push_back(std::to_string(tree.nesting_violations) +
                              " spans do not nest by layer");
    }
    // Serial passes: children never overlap, so the self times of every
    // stage's subtree add up to the stage's wall exactly.
    if (threads == 1) {
      for (std::size_t i = 0; i < tree.spans.size(); ++i) {
        if (layer_rank(tree.spans[i].name) <= 1 &&
            tree.subtree_self_ns(i) != tree.spans[i].duration_ns()) {
          pass.failures.push_back(std::string("self times under ") + tree.spans[i].name +
                                  " do not add up to its wall");
          break;
        }
      }
    }
    const auto& c = pass.counts;
    if (pass.layer["evaluations"] !=
        static_cast<double>(c.settled + c.cycle + c.unconverged + c.plain)) {
      pass.failures.push_back("evaluate spans disagree with the decorator's counts");
    }
    pass.spans = std::move(tree.spans);
  }
  return pass;
}

/// Loads the last checkpoint through the public resume path and checks that
/// it re-derives the run's fingerprint.  Returns the load+resume seconds.
double resume_check(const RunSpec& spec, std::uint64_t expected,
                    std::vector<std::string>& failures) {
  const auto start = Clock::now();
  Session resumed = Session::resume(rmp::api::load_checkpoint_file(spec.checkpoint_path));
  const double seconds = seconds_since(start);
  if (!resumed.done()) failures.push_back("the last checkpoint is not at the final epoch");
  if (resumed.finish().fingerprint != expected) {
    failures.push_back("the resumed checkpoint does not re-derive the run's fingerprint");
  }
  return seconds;
}

// ---------------------------------------------------------------------------
// Build guard and output

bool build_guard(std::string& why) {
#ifndef NDEBUG
  why = "assertions are enabled (NDEBUG is not defined)";
  return false;
#endif
#ifdef RMP_SENTINELS
  why = "the runtime sentinels are compiled in (RMP_SENTINELS)";
  return false;
#endif
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    why = std::string("build type is \"") + PERFBENCH_BUILD_TYPE + "\", not Release";
    return false;
  }
  return true;
}

void write_spans(const fs::path& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << rmp::core::Json::object()
               .set("name", s.name)
               .set("id", s.id)
               .set("parent", s.parent)
               .set("thread", static_cast<std::uint64_t>(s.thread))
               .set("start_ns", static_cast<std::int64_t>(s.start_ns))
               .set("end_ns", static_cast<std::int64_t>(s.end_ns))
               .dump(0)
        << "\n";
  }
}

rmp::core::Json metrics_json(const Metrics& values, std::span<const MetricDef> defs) {
  rmp::core::Json out = rmp::core::Json::object();
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    out.set(d.name, rmp::core::Json::object()
                        .set("value", it == values.end() ? 0.0 : it->second)
                        .set("unit", d.unit));
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  fs::path out_dir = ".";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(std::string(arg) + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--selftest") {
      o.selftest = true;
    } else {
      throw std::invalid_argument("unknown argument " + std::string(arg));
    }
  }
  if (o.selftest) {
    o.workload = kSmoke.name;
    o.trace = true;
    o.seconds = 0.0;
  }
  return o;
}

int run(const Options& opt) {
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) throw std::invalid_argument("unknown workload \"" + opt.workload + "\"");
  fs::create_directories(opt.out_dir);
  perfbench::register_traced_problems();

  const std::size_t designs = w->designs;
  const fs::path checkpoint = opt.out_dir / (std::string(w->name) + ".ckpt.json");
  std::vector<RunSpec> specs;
  for (std::size_t k = 0; k < designs; ++k) {
    specs.push_back(make_spec(*w, opt.seed, k, checkpoint));
  }
  std::vector<Pass> passes;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto record = [&](Pass pass) {
    ++attempted;
    // Every pass of one spec, traced or not, must reproduce the first one.
    const auto first = std::find_if(passes.begin(), passes.end(), [&](const Pass& p) {
      return p.design == pass.design;
    });
    if (first != passes.end() &&
        (pass.fingerprint != first->fingerprint || !(pass.counts == first->counts))) {
      pass.failures.push_back(
          std::string(pass.traced ? "traced" : "untraced") +
          " pass disagrees with the first pass on fingerprint or class counts");
    }
    if (!pass.failures.empty()) ++failed;
    for (const auto& f : pass.failures) failures.push_back(f);
    passes.push_back(std::move(pass));
  };

  // One untimed warm-up pass of the first design to visit, so that no
  // measured pass pays the process's cold start.  Then passes cycle through
  // the designs, starting at one --seed picks (with --trace 1, an untraced
  // and a traced pass per step), until another step would end past
  // --seconds; every design runs at least once.
  const std::size_t first_design = opt.seed % designs;
  if (!opt.selftest) {
    Pass warmup = run_pass(*w, specs[first_design], first_design, false);
    warmup.warmup = true;
    record(std::move(warmup));
  }
  const auto start = Clock::now();
  for (std::size_t i = 0; failed == 0; ++i) {
    const std::size_t k = (first_design + i) % designs;
    const auto step_start = Clock::now();
    // With tracing, alternate which of the pair runs first so neither side
    // always pays for a cold start.
    const bool traced_first = opt.trace && i % 2 == 1;
    record(run_pass(*w, specs[k], k, traced_first));
    if (opt.trace && failed == 0) record(run_pass(*w, specs[k], k, !traced_first));
    if (i + 1 >= designs && seconds_since(start) + seconds_since(step_start) > opt.seconds) {
      break;
    }
  }

  double resume_s = 0.0;
  if (w->checkpoint_every > 0 && failed == 0) {
    ++attempted;
    std::vector<std::string> resume_failures;
    resume_s = resume_check(specs[passes.back().design], passes.back().fingerprint,
                            resume_failures);
    if (!resume_failures.empty()) ++failed;
    for (const auto& f : resume_failures) failures.push_back(f);
  }

  // Each metric: the median over a design's measured passes, averaged over
  // the designs.
  const auto aggregate = [&](bool traced, auto field) {
    double total = 0.0;
    for (std::size_t k = 0; k < designs; ++k) {
      std::vector<double> v;
      for (const Pass& p : passes) {
        if (p.traced == traced && !p.warmup && p.design == k) v.push_back(field(p));
      }
      total += median(v);
    }
    return total / static_cast<double>(designs);
  };
  Metrics end_to_end;
  end_to_end["run_s"] = aggregate(false, [](const Pass& p) { return p.run_s; });
  end_to_end["setup_s"] = aggregate(false, [](const Pass& p) { return p.setup_s; });
  end_to_end["optimize_s"] = aggregate(false, [](const Pass& p) { return p.optimize_s; });
  end_to_end["robustness_s"] =
      aggregate(false, [](const Pass& p) { return p.robustness_s; });
  end_to_end["front_hv"] = aggregate(false, [](const Pass& p) { return p.front_hv; });
  end_to_end["peak_rss_mb"] = peak_rss_mb();

  Metrics per_layer;
  const Pass* last_traced = nullptr;
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) {
      per_layer[d.name] = aggregate(true, [&](const Pass& p) {
        const auto it = p.layer.find(d.name);
        return it == p.layer.end() ? 0.0 : it->second;
      });
    }
    per_layer["ckpt.resume_s"] = resume_s;
    per_layer["trace.overhead_frac"] =
        aggregate(true, [](const Pass& p) { return p.run_s; }) / end_to_end["run_s"] - 1.0;
    for (const Pass& p : passes) {
      if (p.traced) last_traced = &p;
    }
  }
  if (last_traced != nullptr) {
    write_spans(opt.out_dir / (std::string(w->name) + "-seed" + std::to_string(opt.seed) +
                               ".spans.jsonl"),
                last_traced->spans);
  }

  using rmp::core::Json;
  const auto vec_json = [](const rmp::num::Vec& v) {
    Json out = Json::array();
    for (const double x : v) out.push_back(x);
    return out;
  };
  Json pass_log = Json::array();
  for (const Pass& p : passes) {
    pass_log.push_back(Json::object()
                           .set("design", static_cast<std::uint64_t>(p.design))
                           .set("traced", p.traced)
                           .set("warmup", p.warmup)
                           .set("run_s", p.run_s)
                           .set("setup_s", p.setup_s)
                           .set("optimize_s", p.optimize_s)
                           .set("checkpoint_s", p.checkpoint_s)
                           .set("robustness_s", p.robustness_s)
                           .set("cpu_s", p.cpu_s));
  }
  const Pass& first = passes.front();
  Json failure_list = Json::array();
  for (const auto& f : failures) failure_list.push_back(f);
  Json metrics = opt.selftest ? Json::object()
                                    .set("end_to_end", metrics_json(end_to_end, kEndToEnd))
                                    .set("per_layer", metrics_json(per_layer, kPerLayer))
                              : opt.trace ? metrics_json(per_layer, kPerLayer)
                                          : metrics_json(end_to_end, kEndToEnd);
  const Json report =
      Json::object()
          .set("workload", w->name)
          .set("seed", opt.seed)
          .set("trace", opt.trace)
          .set("passes", static_cast<std::uint64_t>(passes.size()))
          .set("attempted", static_cast<std::uint64_t>(attempted))
          .set("failed", static_cast<std::uint64_t>(failed))
          .set("failures", std::move(failure_list))
          .set("env", Json::object()
                          .set("build_type", PERFBENCH_BUILD_TYPE)
                          .set("compiler", PERFBENCH_COMPILER)
                          .set("nproc", static_cast<std::uint64_t>(
                                            std::thread::hardware_concurrency()))
                          .set("designs", static_cast<std::uint64_t>(designs))
                          .set("spec", rmp::api::spec_to_json(specs.front()))
                          .set("fingerprint", Json::hex(first.fingerprint))
                          .set("front", Json::object()
                                            .set("size", static_cast<std::uint64_t>(
                                                             first.front_size))
                                            .set("min", vec_json(first.front_min))
                                            .set("max", vec_json(first.front_max))))
          .set("pass_log", std::move(pass_log))
          .set("metrics", std::move(metrics));
  std::cout << report.dump(0) << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string why;
  if (!build_guard(why)) {
    std::cerr << "pipeline_bench: refusing to measure: " << why << "\n";
    return 2;
  }
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: " << e.what() << "\n";
    return 2;
  }
}
