// PMO2 — Parallel Multi-Objective Optimization (the paper's contribution).
//
// An archipelago of islands, each evolving its own population with its own
// algorithm instance (NSGA-II by default, heterogeneous engines allowed),
// periodically exchanging candidate solutions along a topology.  The paper's
// adopted configuration — reproduced by Pmo2Options defaults — is:
//   two islands, two distinct NSGA-II instances, migration every 200
//   generations, all-to-all (broadcast) scheme, migration probability 0.5.
// A global non-dominated archive accumulates every island's population; its
// content is the Pareto front the paper analyses and mines.
//
// Concurrency and determinism contract
// ------------------------------------
// Every epoch (initialize() and each step()) runs in three phases on the
// shared core::parallel pool, each `Pmo2Options::island_threads` wide:
//   1. stage — one task per island runs its variation
//      (Optimizer::begin_step / begin_initialize) into the island's own
//      staging storage;
//   2. evaluate — ONE flat, dynamically scheduled core::evaluate_batch over
//      every island's staged individuals, on this archipelago's problem,
//      so no thread idles at an island's tail while another island still
//      has candidates to score;
//   3. commit — one task per island commits (end_step / end_initialize):
//      counters, the problem's commit_epoch (a deferred no-op inside the
//      region) and survivor selection.  Engines that cannot split a
//      generation (MOEA/D) keep the default hooks and run their whole
//      step() here, their nested batches inline.
// Each island owns a private RNG stream derived from (seed, island_index) —
// the island_index-th splitmix64 output rooted at the run seed — consumed
// only by its own phase-1 and phase-3 tasks, so no task reads another
// task's random state; and Problem::evaluate is thread-safe by contract and
// a pure function of (candidate, committed snapshot) inside the region.
// With island_threads = 1 the flat batch evaluates island after island, in
// the order a serial loop of island step() calls would (default-hook
// islands evaluate later, in phase 3 — the order cannot move results).
//
// Every generation ends at an epoch barrier where shared state is committed
// serially in a fixed order:
//   1. archive merge — islands offer their populations in island-index
//      order (identical to the serial schedule);
//   2. migration (on migration epochs) — migration_edges() returns the
//      canonical (from, to)-sorted edge list, the migration RNG stream is
//      consumed in exactly that order, migrants are selected from the epoch
//      snapshot of every source population (an edge never re-exports
//      candidates that arrived earlier in the same epoch), then injected in
//      the same canonical order.
// The archive (and the whole run) is therefore bit-identical for any
// island_threads value; parallelism trades wall-clock only.  Enforced by
// tests/moo/pmo2_test.cpp and by bench/pmo2_scaling (BENCH_pmo2.json).
//
// Exception safety: step() offers the strong guarantee on all committed
// state.  The archive, generation counter and migration bookkeeping are
// only touched after all three phases returned, so whatever throws, the
// exception propagates with them unchanged — an Observer can never see a
// partially-updated epoch.  A throw in phase 1 or 2 (a variation, a repair,
// an evaluate() in the flat batch) also leaves every island's committed
// population and evaluations() as they were, since no island has committed
// yet.  A throw in phase 3 may leave other islands' populations advanced;
// call initialize() to restart the run after a failure.
#pragma once

#include <functional>
#include <memory>

#include "moo/algorithm.hpp"
#include "moo/archive.hpp"
#include "moo/topology.hpp"
#include "numeric/rng.hpp"

namespace rmp::moo {

struct Pmo2Options {
  std::size_t islands = 2;
  std::size_t migration_interval = 200;    ///< generations between migrations
  double migration_probability = 0.5;      ///< per-edge chance a migration happens
  std::size_t migrants_per_edge = 5;       ///< candidates copied along one edge
  TopologyKind topology = TopologyKind::kAllToAll;
  /// Out-degree for TopologyKind::kRandom.
  static constexpr std::size_t random_topology_degree = 1;
  std::size_t archive_capacity = 0;        ///< 0 = unbounded
  std::uint64_t seed = 7;
  /// Width of every epoch phase: the per-island staging and commit tasks
  /// and the flat evaluation batch over all islands' offspring (0 = one
  /// thread per hardware context, 1 = serial).  The hosted engines'
  /// eval_threads are not used for that batch.  The archive is
  /// bit-identical for any value — see the determinism contract above;
  /// the thread-count tuning table lives in docs/ARCHITECTURE.md.
  std::size_t island_threads = 0;
};

/// PMO2 is itself an Optimizer: population() exposes the global archive
/// view, inject() spreads immigrants across the islands round-robin, and the
/// base-class run(generations, observer) drives whole epochs — so the
/// archipelago composes through the same polymorphic seam as the engines it
/// hosts (registry lookups, nested archipelagos, spec-driven runs).
class Pmo2 final : public Optimizer {
 public:
  /// Builds the algorithm for one island; island_index allows "different
  /// settings of the same optimization algorithm" per the paper.  The seed
  /// passed in is the island's private stream — the island_index-th
  /// splitmix64 output rooted at options.seed — so island streams do not
  /// depend on construction order, never alias across nearby run seeds,
  /// and are independent of the migration stream.  The engine must be
  /// built on the `problem` passed in: the flat epoch batch scores staged
  /// offspring on that same problem, not on one the engine holds itself.
  using AlgorithmFactory = std::function<std::unique_ptr<Optimizer>(
      const Problem& problem, std::uint64_t seed, std::size_t island_index)>;

  /// Default factory: NSGA-II with 100 individuals per island.
  [[nodiscard]] static AlgorithmFactory default_nsga2_factory(
      std::size_t population_per_island = 100);

  Pmo2(const Problem& problem, Pmo2Options options,
       AlgorithmFactory factory = nullptr);

  /// Step-wise API (used by the convergence ablation): one generation on
  /// every island (the three phases above), then the epoch barrier.
  void initialize() override;
  void step() override;
  [[nodiscard]] std::size_t generation() const { return generation_; }

  /// The global archive view — what the paper reports as the algorithm's
  /// Pareto front.  Identical contents to archive().solutions().
  [[nodiscard]] std::span<const Individual> population() const override {
    return archive_.solutions();
  }

  /// The view above is the cumulative run archive, not a working set.
  [[nodiscard]] bool population_is_archive() const override { return true; }

  /// Distributes immigrants across the islands round-robin (immigrant k goes
  /// to island k mod num_islands) and offers them to the global archive —
  /// deterministic, so archipelagos composing archipelagos stay reproducible.
  void inject(std::span<const Individual> immigrants) override;

  [[nodiscard]] std::string name() const override { return "PMO2"; }

  /// Recursive checkpoint: the migration RNG stream, epoch index, migration
  /// counter, the global archive (fingerprint cross-checked on load) and
  /// every island engine's own save_state, in island-index order.  Must be
  /// called at an epoch boundary (after a committed step()).
  void save_state(core::Json& out) const override;

  /// Restores into freshly constructed islands (same factory, same spec),
  /// replacing initialize(); step() then continues the original run —
  /// bit-exactly, for any island_threads value, because all serialized
  /// state moves only at the serial barriers.
  void load_state(const core::Json& doc) override;

  [[nodiscard]] const Archive& archive() const { return archive_; }
  [[nodiscard]] std::size_t evaluations() const override;
  [[nodiscard]] std::size_t num_islands() const { return islands_.size(); }
  [[nodiscard]] const Optimizer& island(std::size_t i) const { return *islands_[i]; }
  [[nodiscard]] std::size_t migrations_performed() const { return migrations_; }

 private:
  /// Phases 1-3 of an epoch over every island: the initialize() hooks when
  /// `initial`, the step() hooks otherwise.
  void evolve_islands(bool initial);
  void migrate();

  const Problem& problem_;
  Pmo2Options opts_;
  num::Rng rng_;  ///< migration stream (edge draws, migrant picks) — barrier-only
  std::vector<std::unique_ptr<Optimizer>> islands_;
  Archive archive_;
  std::size_t generation_ = 0;
  std::size_t migrations_ = 0;
};

}  // namespace rmp::moo
