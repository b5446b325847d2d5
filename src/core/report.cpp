#include "core/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace rmp::core {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << row[c];
      for (std::size_t pad = row[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << "\n";
  };
  print_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  for (std::size_t i = 0; i + 2 < total; ++i) os << '-';
  os << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string TextTable::num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string TextTable::fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

Json to_json(std::span<const double> values) {
  Json arr = Json::array();
  for (const double x : values) arr.push_back(x);
  return arr;
}

Json to_json(const robustness::YieldResult& yield) {
  return Json::object()
      .set("gamma", yield.gamma)
      .set("nominal_value", yield.nominal_value)
      .set("absolute_threshold", yield.absolute_threshold)
      .set("robust_trials", yield.robust_trials)
      .set("total_trials", yield.total_trials)
      .set("max_deviation", yield.max_deviation);
}

Json to_json(const pareto::Front& front, bool include_x) {
  Json members = Json::array();
  for (const auto& m : front.members()) {
    Json member = Json::object().set("f", to_json(m.f)).set("violation", m.violation);
    if (include_x) member.set("x", to_json(m.x));
    members.push_back(std::move(member));
  }
  return Json::object().set("size", front.size()).set("members", std::move(members));
}

}  // namespace rmp::core
