// Rewrites a current checkpoint envelope into the state_version 2 layout,
// in which every double of a vector was its own core::Json::bits hex string:
// the document an rmp build from before packed vectors would have written
// for the same run.  session_test and serve_test use it to show that such a
// checkpoint is refused by name, never half-read.  It rewrites individuals'
// "x" and "f", which are all the double vectors an NSGA-II checkpoint of an
// analytic problem holds.
#pragma once

#include <cstdint>

#include "core/json.hpp"
#include "moo/state.hpp"

namespace rmp::testing {

namespace detail {

inline core::Json unpack(const core::Json& doc) {
  if (doc.is_array()) {
    core::Json out = core::Json::array();
    for (const core::Json& item : doc.items()) out.push_back(unpack(item));
    return out;
  }
  if (!doc.is_object()) return doc;
  core::Json out = core::Json::object();
  for (const auto& [key, value] : doc.entries()) {
    if (value.is_string() && (key == "x" || key == "f")) {
      core::Json hex = core::Json::array();
      for (const double v : moo::state::doubles_from_json(value)) {
        hex.push_back(core::Json::bits(v));
      }
      out.set(key, std::move(hex));
    } else {
      out.set(key, unpack(value));
    }
  }
  return out;
}

}  // namespace detail

inline core::Json as_version2(const core::Json& checkpoint) {
  core::Json out = detail::unpack(checkpoint);
  out.set("state_version", std::int64_t{2});
  return out;
}

}  // namespace rmp::testing
