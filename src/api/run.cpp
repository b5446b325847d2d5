#include "api/run.hpp"

#include <ostream>
#include <utility>

#include "api/session.hpp"
#include "core/fsio.hpp"
#include "core/report.hpp"

namespace rmp::api {

RunResult run(const RunSpec& spec) { return run(spec, Session::Observer{}); }

RunResult run(const RunSpec& spec, const Session::Observer& observer) {
  if (spec.checkpoint_every > 0 && spec.checkpoint_path.empty()) {
    throw SpecError(
        "spec \"checkpoint_every\" > 0 requires \"checkpoint_path\" under "
        "api::run (rmp_serve supplies its own spool path)");
  }
  Session session(spec);
  if (spec.checkpoint_every == 0) {
    session.set_observer(observer);
    return session.finish();
  }
  // Periodic checkpointing wraps the caller's observer so the cadence counts
  // committed epochs exactly — including the ones finish() drives.
  session.set_observer([&](const SessionProgress& progress) {
    if (observer) observer(progress);
    const bool due = progress.epoch % spec.checkpoint_every == 0 ||
                     progress.epoch == progress.total_epochs;
    if (!due) return;
    try {
      core::atomic_write_file(spec.checkpoint_path,
                              session.checkpoint().dump(2) + "\n",
                              "checkpoint.write");
    } catch (const core::IoError& e) {
      throw SpecError("cannot write checkpoint to \"" + spec.checkpoint_path +
                      "\": " + e.what());
    }
  });
  return session.finish();
}

namespace {

core::Json candidate_to_json(const MinedCandidate& candidate) {
  core::Json doc = core::Json::object()
                       .set("selection", candidate.selection)
                       .set("front_index", candidate.front_index)
                       .set("f", core::to_json(candidate.objectives))
                       .set("x", core::to_json(candidate.x));
  if (candidate.yield) doc.set("yield", core::to_json(*candidate.yield));
  return doc;
}

}  // namespace

core::Json result_to_json(const RunResult& result) {
  using core::Json;
  Json mined = Json::array();
  for (const auto& c : result.mined) mined.push_back(candidate_to_json(c));
  Json surface = Json::array();
  for (const auto& p : result.surface) surface.push_back(core::to_json(p));
  return Json::object()
      .set("schema_version", 1)
      .set("spec", spec_to_json(result.spec))
      .set("problem", result.problem_name)
      .set("optimizer", result.optimizer_name)
      .set("evaluations", result.evaluations)
      .set("eval_stats",
           Json::object()
               .set("evaluations", result.eval_stats.evaluations)
               .set("prescreen_skips", result.eval_stats.prescreen_skips)
               .set("pool_hits", result.eval_stats.pool_hits)
               .set("full_evaluations", result.eval_stats.full_evaluations))
      .set("fingerprint", Json::hex(result.fingerprint))
      .set("front", core::to_json(result.front, result.spec.include_decision_vectors))
      .set("mined", std::move(mined))
      .set("surface", std::move(surface))
      .set("timings_seconds", Json::object()
                                  .set("optimize", result.optimize_seconds)
                                  .set("mining", result.mining_seconds)
                                  .set("robustness", result.robustness_seconds));
}

void print_summary(const RunResult& result, std::ostream& os) {
  using core::TextTable;
  os << "problem:     " << result.problem_name << "\n"
     << "optimizer:   " << result.optimizer_name << "\n"
     << "front:       " << result.front.size() << " points from "
     << result.evaluations << " evaluations\n"
     << "fingerprint: " << core::Json::hex(result.fingerprint).as_string() << "\n";
  for (const auto& c : result.mined) {
    os << "  [" << c.selection << "] f = (";
    for (std::size_t j = 0; j < c.objectives.size(); ++j) {
      os << (j == 0 ? "" : ", ") << TextTable::num(c.objectives[j]);
    }
    os << ")";
    if (c.yield) {
      os << "  yield = " << TextTable::fixed(100.0 * c.yield->gamma, 1) << "%";
    }
    os << "\n";
  }
  os << "timings:     optimize " << TextTable::fixed(result.optimize_seconds, 3)
     << "s, mining " << TextTable::fixed(result.mining_seconds, 3)
     << "s, robustness " << TextTable::fixed(result.robustness_seconds, 3)
     << "s\n";
}

}  // namespace rmp::api
