#include "moo/pmo2.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "moo/dominance.hpp"
#include "moo/nsga2.hpp"

namespace rmp::moo {

namespace {
/// Tag XORed into the migration stream's seed so it never collides with an
/// island's private stream.
constexpr std::uint64_t kMigrationStreamTag = 0xA02ED1C5B6F7A893ULL;

/// Private stream seed for island i: the i-th output of a splitmix64
/// sequence rooted at the run seed (the xoshiro authors' recommended
/// stream-derivation scheme).  Index-addressable like a bare `seed ^ i` —
/// island streams stay independent of construction order — but, unlike
/// XOR, never aliases streams across nearby run seeds (with `seed ^ i`,
/// run 12's island-1 stream would equal run 13's island-0 stream,
/// correlating the "independent" replicates that multi-seed aggregations
/// in the tests and ablations average over).
std::uint64_t island_stream_seed(std::uint64_t seed, std::size_t island) {
  std::uint64_t z =
      seed + (static_cast<std::uint64_t>(island) + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Pmo2::AlgorithmFactory Pmo2::default_nsga2_factory(std::size_t population_per_island) {
  return [population_per_island](const Problem& problem, std::uint64_t seed,
                                 std::size_t island_index) {
    Nsga2Options o;
    o.population_size = population_per_island;
    o.seed = seed;
    // "Different settings of the same optimization algorithm": odd islands
    // explore more aggressively (coarser SBX / stronger mutation), even
    // islands exploit.
    if (island_index % 2 == 1) {
      o.variation.crossover_eta = 5.0;
      o.variation.mutation_eta = 10.0;
    }
    return std::make_unique<Nsga2>(problem, o);
  };
}

Pmo2::Pmo2(const Problem& problem, Pmo2Options options, AlgorithmFactory factory)
    : problem_(problem),
      opts_(options),
      rng_(options.seed ^ kMigrationStreamTag),
      archive_(options.archive_capacity) {
  assert(opts_.islands >= 1);
  if (!(opts_.migration_probability >= 0.0 && opts_.migration_probability <= 1.0)) {
    throw std::invalid_argument("Pmo2: migration_probability must be in [0, 1], got " +
                                std::to_string(opts_.migration_probability));
  }
  if (!factory) factory = default_nsga2_factory();
  islands_.reserve(opts_.islands);
  for (std::size_t i = 0; i < opts_.islands; ++i) {
    islands_.push_back(factory(problem_, island_stream_seed(opts_.seed, i), i));
  }
}

void Pmo2::initialize() {
  generation_ = 0;
  migrations_ = 0;
  archive_.clear();
  evolve_islands(/*initial=*/true);
  // Epoch barrier: archive merge in fixed island-index order — identical to
  // the serial schedule for any island_threads — then the problem's epoch
  // commit (e.g. the kinetic warm-start pool folds this epoch's steady
  // states into the snapshot the next epoch's evaluations read; the
  // islands' own in-region commit_epoch calls were deferred no-ops).
  for (auto& island : islands_) archive_.offer_all(island->population());
  problem_.commit_epoch();
}

void Pmo2::step() {
  evolve_islands(/*initial=*/false);

  // Epoch barrier (serial): nothing below runs unless all three phases
  // returned cleanly, so a throw leaves the archive, generation counter and
  // migration bookkeeping exactly as they were.  problem_.commit_epoch() is
  // the same barrier seen from the evaluation side — the kinetic warm-start
  // pool snapshots here, which is what keeps the archive bit-identical
  // across island_threads (every evaluation of this epoch read the
  // PREVIOUS snapshot).
  for (auto& island : islands_) archive_.offer_all(island->population());
  problem_.commit_epoch();
  ++generation_;
  if (opts_.migration_interval > 0 && generation_ % opts_.migration_interval == 0) {
    migrate();
  }
}

void Pmo2::evolve_islands(bool initial) {
  const std::size_t n = islands_.size();
  // Phase 1 — stage: every island runs its variation on its private RNG
  // stream into its own staging storage (no shared mutable state).
  std::vector<std::span<Individual>> staged(n);
  core::parallel_for(n, opts_.island_threads, [&](std::size_t i) {
    staged[i] = initial ? islands_[i]->begin_initialize() : islands_[i]->begin_step();
  });
  // Phase 2 — evaluate: one flat, dynamically scheduled batch over every
  // island's staged individuals, on this archipelago's problem so caching
  // and tracing decorators see every call.  Evaluation is a pure function
  // of (candidate, committed snapshot), so the schedule cannot move bits.
  core::evaluate_batch(problem_, staged, opts_.island_threads);
  // Phase 3 — commit: survivor selection per island (their commit_epoch
  // calls are deferred no-ops inside the region).  Engines that keep the
  // default hooks (MOEA/D) run their whole generation here.
  core::parallel_for(n, opts_.island_threads, [&](std::size_t i) {
    if (initial) {
      islands_[i]->end_initialize(staged[i].size());
    } else {
      islands_[i]->end_step(staged[i].size());
    }
  });
}

void Pmo2::migrate() {
  // Canonical epoch schedule: edges arrive (from, to)-sorted and the
  // migration stream is consumed in exactly that order on the barrier
  // thread, so the epoch is deterministic for any island_threads.
  const auto edges = migration_edges(opts_.topology, islands_.size(), rng_,
                                     Pmo2Options::random_topology_degree);

  // Phase 1 — select: migrants are drawn from the epoch snapshot of every
  // source population, so an edge never re-exports candidates that arrived
  // along an earlier edge of the same epoch.
  std::vector<std::vector<Individual>> outgoing(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!rng_.bernoulli(opts_.migration_probability)) continue;

    const auto pop = islands_[edges[e].first]->population();
    if (pop.empty()) continue;

    // Migrants: random picks among the source island's non-dominated set,
    // spreading its building blocks into the target niche.
    const std::vector<std::size_t> front = nondominated_indices(pop);
    if (front.empty()) continue;

    const std::size_t count = std::min(opts_.migrants_per_edge, front.size());
    std::vector<std::size_t> picks(front.begin(), front.end());
    rng_.shuffle(picks);
    outgoing[e].reserve(count);
    for (std::size_t k = 0; k < count; ++k) outgoing[e].push_back(pop[picks[k]]);
  }

  // Phase 2 — inject, in the same canonical edge order.
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (outgoing[e].empty()) continue;
    islands_[edges[e].second]->inject(outgoing[e]);
    ++migrations_;
  }
}

void Pmo2::inject(std::span<const Individual> immigrants) {
  if (immigrants.empty()) return;
  std::vector<std::vector<Individual>> buckets(islands_.size());
  for (std::size_t k = 0; k < immigrants.size(); ++k) {
    buckets[k % islands_.size()].push_back(immigrants[k]);
  }
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    if (!buckets[i].empty()) islands_[i]->inject(buckets[i]);
  }
  archive_.offer_all(immigrants);
}

std::size_t Pmo2::evaluations() const {
  std::size_t total = 0;
  for (const auto& island : islands_) total += island->evaluations();
  return total;
}

void Pmo2::save_state(core::Json& out) const {
  out.set("engine", "pmo2");
  out.set("rng", state::rng_to_json(rng_));
  out.set("generation", static_cast<std::uint64_t>(generation_));
  out.set("migrations", static_cast<std::uint64_t>(migrations_));
  core::Json archive = core::Json::object();
  archive_.save_state(archive);
  out.set("archive", std::move(archive));
  core::Json islands = core::Json::array();
  for (const auto& island : islands_) {
    core::Json island_state = core::Json::object();
    island->save_state(island_state);
    islands.push_back(std::move(island_state));
  }
  out.set("islands", std::move(islands));
}

void Pmo2::load_state(const core::Json& doc) {
  state::require_tag(doc, "engine", "pmo2");
  const core::Json& islands = state::require(doc, "islands");
  if (!islands.is_array() || islands.size() != islands_.size()) {
    throw StateError("checkpoint: pmo2 saved " +
                     std::to_string(islands.size()) +
                     " islands but the configuration has " +
                     std::to_string(islands_.size()));
  }
  // Restore the archive first: its fingerprint cross-check is the cheapest
  // corruption detector, and a failure leaves the islands untouched.
  archive_.load_state(state::require(doc, "archive"));
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    islands_[i]->load_state(islands.at(i));
  }
  state::rng_from_json(state::require(doc, "rng"), rng_);
  generation_ = state::require(doc, "generation").as_size();
  migrations_ = state::require(doc, "migrations").as_size();
}

}  // namespace rmp::moo
