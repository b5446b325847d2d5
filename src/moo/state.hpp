// Checkpoint serialization helpers for the moo layer.
//
// The determinism contract makes a run fully described by its state at an
// epoch boundary: all mutable state (populations, archives, warm-pool
// snapshots, RNG stream positions) moves only at serial commit points, so
// serializing at a barrier and restoring into a freshly constructed engine
// reproduces the uninterrupted run bit-exactly.  These helpers are the
// shared vocabulary of every save_state/load_state implementation
// (moo::Optimizer, moo::Archive, kinetics::WarmStartPool, api::Session):
//
//   * Doubles travel as IEEE-754 bit patterns (core::Json::bits hex strings),
//     never as decimal text: the round-trip must preserve NaN/Inf (crowding
//     distances are +inf at front extremes) and the sign of -0.0 (bitwise
//     warm-pool keys distinguish it).
//   * Individuals serialize ALL five members including the rank/crowding
//     scratch fields — NSGA-II's binary tournament reads them between steps
//     and crowding is computed over the merged 2N population, so it cannot
//     be re-derived from the survivors alone.
//   * The RNG round-trip captures the full stream position including the
//     banked Marsaglia polar normal (num::Rng::State).
//
// Restoration failures throw StateError — the named error the api layer
// rewraps into SpecError with envelope context, so a checkpoint from a
// different spec/seed/version is rejected, never silently resumed.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "moo/individual.hpp"
#include "numeric/rng.hpp"
#include "numeric/vec.hpp"

namespace rmp::moo {

/// Thrown when a checkpoint document cannot be restored into the object it
/// claims to describe: structural mismatch, wrong engine kind, dimension
/// mismatch against the constructed configuration, fingerprint cross-check
/// failure.
class StateError : public std::runtime_error {
 public:
  explicit StateError(const std::string& what) : std::runtime_error(what) {}
};

namespace state {

/// A double vector as a JSON array of bit-exact hex strings.
[[nodiscard]] core::Json doubles_to_json(std::span<const double> values);
[[nodiscard]] num::Vec doubles_from_json(const core::Json& doc);

/// All five Individual members (x, f, violation, rank, crowding).
[[nodiscard]] core::Json individual_to_json(const Individual& ind);
[[nodiscard]] Individual individual_from_json(const core::Json& doc);

[[nodiscard]] core::Json population_to_json(std::span<const Individual> pop);
[[nodiscard]] std::vector<Individual> population_from_json(const core::Json& doc);

/// Full num::Rng stream position (xoshiro words + banked polar normal).
[[nodiscard]] core::Json rng_to_json(const num::Rng& rng);
void rng_from_json(const core::Json& doc, num::Rng& rng);

/// Reads `key` from an object document, throwing StateError (not JsonError)
/// with the key path when absent — checkpoint structure errors must surface
/// as restoration failures.
[[nodiscard]] const core::Json& require(const core::Json& doc,
                                        std::string_view key);

/// Checks the "engine"/"kind" discriminator tag of a state object.
void require_tag(const core::Json& doc, std::string_view key,
                 std::string_view expected);

}  // namespace state

/// FNV-1a over every member's decision vector, objectives and violation (raw
/// IEEE-754 bits, rank/crowding excluded) in member order — the identity
/// Archive::fingerprint() reports for its canonical order, exposed as a free
/// function so progress events can fingerprint any population view (e.g.
/// PMO2's archive span) without copying it into an Archive.
[[nodiscard]] std::uint64_t fingerprint(std::span<const Individual> members);

}  // namespace rmp::moo
