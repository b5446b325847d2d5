// Report emitters used by the examples, the table/figure benches and the run
// API: fixed-width tables and the JSON serialization of fronts and yields
// (schema notes in docs/BENCHMARKS.md).  The run-level emitters (mined
// candidates, surface points, the whole result) live with api::RunResult in
// api/run.hpp.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "pareto/front.hpp"
#include "robustness/yield.hpp"

namespace rmp::core {

/// Fixed-width table with a header row; column widths adapt to content.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  /// Formats a double compactly (%.6g-style).
  [[nodiscard]] static std::string num(double v);
  /// Fixed-decimals formatting.
  [[nodiscard]] static std::string fixed(double v, int decimals);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// -- JSON serialization -------------------------------------------------------

/// A number array.
[[nodiscard]] Json to_json(std::span<const double> values);
[[nodiscard]] Json to_json(const robustness::YieldResult& yield);
/// Front members as {"f": [...], "violation": v} objects; include_x adds the
/// decision vectors (off by default — a Geobacter front would serialize 608
/// doubles per member).
[[nodiscard]] Json to_json(const pareto::Front& front, bool include_x = false);

}  // namespace rmp::core
