// moo::state's packed double-vector codec: bit-exact round trips over every
// IEEE-754 class and every base64 padding case, the pinned text of one
// vector, the rejection of each malformed input class, and the dimension
// check a short packed vector meets on load.
#include "moo/state.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "moo/nsga2.hpp"
#include "moo/testproblems.hpp"

namespace rmp::moo {
namespace {

/// Every awkward double: signed zeros and infinities, quiet and signalling
/// NaNs with payloads, subnormals, and the extremes of the normal range.
std::vector<double> special_values() {
  return {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000000}),  // quiet NaN
      std::bit_cast<double>(std::uint64_t{0xfff80000deadbeef}),  // -qNaN, payload
      std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),  // sNaN
      std::bit_cast<double>(std::uint64_t{0x7ff4000000c0ffee}),  // sNaN, payload
      std::numeric_limits<double>::denorm_min(),
      -std::bit_cast<double>(std::uint64_t{0x000fffffffffffff}),  // largest subnormal
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      1.0,
      -2.5,
      3.141592653589793,
      1e-300,
  };
}

std::vector<std::uint64_t> bits_of(const num::Vec& v) {
  std::vector<std::uint64_t> out;
  for (const double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

num::Vec decode(const std::string& text) {
  return state::doubles_from_json(core::Json(text));
}

TEST(PackedDoublesTest, RoundTripsEveryClassAtEveryPaddingLength) {
  const std::vector<double> all = special_values();
  ASSERT_GE(all.size(), 17u);
  for (std::size_t n = 0; n <= 17; ++n) {
    const num::Vec values(all.begin(), all.begin() + static_cast<long>(n));
    const core::Json packed = state::doubles_to_json(values);
    ASSERT_TRUE(packed.is_string());
    // 8n bytes -> 4 * ceil(8n / 3) characters, "=" padded.
    EXPECT_EQ(packed.as_string().size(), (8 * n + 2) / 3 * 4) << "n = " << n;
    // Through text too, as a checkpoint travels.
    const core::Json reparsed = core::Json::parse(packed.dump(0));
    EXPECT_EQ(bits_of(state::doubles_from_json(reparsed)), bits_of(values))
        << "n = " << n;
  }
}

TEST(PackedDoublesTest, EncodingIsPinned) {
  // 1.0 = 0x3ff0000000000000 and -0.0 = 0x8000000000000000, each as eight
  // little-endian bytes: 00 00 00 00 00 00 f0 3f | 00 00 00 00 00 00 00 80.
  const num::Vec values{1.0, -0.0};
  EXPECT_EQ(state::doubles_to_json(values).as_string(), "AAAAAAAA8D8AAAAAAAAAgA==");
  EXPECT_EQ(bits_of(decode("AAAAAAAA8D8AAAAAAAAAgA==")), bits_of(values));
  EXPECT_EQ(state::doubles_to_json(num::Vec{}).as_string(), "");
  EXPECT_TRUE(decode("").empty());
}

void expect_rejected(const std::string& text) {
  EXPECT_THROW((void)decode(text), StateError) << "\"" << text << "\"";
}

TEST(PackedDoublesTest, RejectsMalformedText) {
  const std::string one = "AAAAAAAA8D8=";   // {1.0}: one padding character
  const std::string two = "AAAAAAAA8D8AAAAAAAAAgA==";  // two padding characters
  ASSERT_EQ(decode(one).size(), 1u);
  ASSERT_EQ(decode(two).size(), 2u);

  // A character outside the alphabet, including base64url's and whitespace.
  expect_rejected("AAAA*AAA8D8=");
  expect_rejected("AAAAAAAA8D-=");
  expect_rejected("AAAAAAA_8D8=");
  expect_rejected(std::string("AAAA\0AAA8D8=", 12));
  expect_rejected("AAAA\xff" "AAA8D8=");
  // Embedded whitespace, length-preserving and not.
  expect_rejected("AAAA AAA8D8=");
  expect_rejected("AAAAAAAA\n8D8=");
  expect_rejected(" AAAAAAAA8D8=");
  expect_rejected("AAAAAAAA8D8=\n");
  // A length that is not a multiple of 4.
  expect_rejected("AAAAAAAA8D8");
  expect_rejected("AAAAAAAA8D8=A");
  expect_rejected("A");
  // Bad or misplaced padding.
  expect_rejected("AAAA=AAA8D8=");   // padding in an inner group
  expect_rejected("AAAAAAAA8D8AAAA=AAAAgA==");
  expect_rejected("AAAAAAAA8=D=");   // padding before a data character
  expect_rejected("AAAAAAAA8D=A");
  expect_rejected("AAAAAAAA8===");   // three padding characters
  expect_rejected("AAAAAAAA====");
  expect_rejected("====");
  expect_rejected("AAAAAAAA8D9=");   // nonzero bits under one "="
  expect_rejected("AAAAAAAA8D8AAAAAAAAAgB==");  // nonzero bits under "=="
  // A byte count that is not a multiple of 8.
  expect_rejected("AAAA");          // 3 bytes
  expect_rejected("AAAAAAA=");      // 5 bytes
  expect_rejected("AAAAAAAAAA==");  // 7 bytes
  expect_rejected("AAAAAAAAAAAA");  // 9 bytes
  // Anything but a string: the per-double hex array of state_version 2
  // included.
  core::Json hex_array = core::Json::array();
  hex_array.push_back(core::Json::bits(1.0));
  EXPECT_THROW((void)state::doubles_from_json(hex_array), StateError);
  EXPECT_THROW((void)state::doubles_from_json(core::Json(1.0)), StateError);
}

TEST(PackedDoublesTest, ShortDecisionVectorIsRejectedOnLoad) {
  const Zdt1 problem(6);
  Nsga2Options o;
  o.population_size = 8;
  Nsga2 saved(problem, o);
  saved.initialize();
  core::Json doc = core::Json::object();
  saved.save_state(doc);

  // The unmodified state loads; one double short of n = 6 does not.
  Nsga2 intact(problem, o);
  intact.load_state(core::Json::parse(doc.dump(0)));

  core::Json population = doc.at("population");
  core::Json first = population.at(0);
  num::Vec x = state::doubles_from_json(first.at("x"));
  ASSERT_EQ(x.size(), 6u);
  x.pop_back();
  first.set("x", state::doubles_to_json(x));
  core::Json shortened = core::Json::array();
  shortened.push_back(std::move(first));
  for (std::size_t i = 1; i < population.size(); ++i) {
    shortened.push_back(population.at(i));
  }
  doc.set("population", std::move(shortened));

  Nsga2 target(problem, o);
  EXPECT_THROW(target.load_state(core::Json::parse(doc.dump(0))), StateError);
}

}  // namespace
}  // namespace rmp::moo
