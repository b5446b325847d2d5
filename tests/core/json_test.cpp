// core::Json — writer/reader round-trips, strict RFC 8259 rejection of
// malformed input, and the typed accessors the spec layer leans on.
#include "core/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace rmp::core {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-7").as_int(), -7);
  EXPECT_TRUE(Json::parse("42").is_int());
  EXPECT_DOUBLE_EQ(Json::parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json::parse("-1e-3").as_double(), -1e-3);
  EXPECT_DOUBLE_EQ(Json::parse("0.125E2").as_double(), 12.5);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(Json::parse("  [1, 2]  ").size(), 2u);
}

TEST(JsonTest, IntsStayExactDoublesStayDouble) {
  EXPECT_TRUE(Json::parse("9007199254740993").is_int());  // 2^53 + 1
  EXPECT_EQ(Json::parse("9007199254740993").as_int(), 9007199254740993LL);
  EXPECT_TRUE(Json::parse("1.0").is_double());
  EXPECT_TRUE(Json::parse("1e2").is_double());
  // Beyond int64: falls back to double rather than failing.
  EXPECT_TRUE(Json::parse("99999999999999999999").is_double());
}

TEST(JsonTest, ParsesStringsWithEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(Json::parse(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600 (4-byte UTF-8).
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, EscapesAtEveryPositionKeepTheirBytes) {
  // The writer copies runs of plain characters whole and the reader does the
  // same between escapes; escapes at the start, middle and end of a string
  // and next to each other keep the exact bytes of a per-character writer.
  const struct {
    std::string value;
    std::string text;
  } cases[] = {
      {"\"lead", R"("\"lead")"},
      {"mid\\dle", R"("mid\\dle")"},
      {"tail\n", R"("tail\n")"},
      {"\ttab\x01mid\x1f" "end\"", R"("\ttab\u0001mid\u001fend\"")"},
      {"\b\f\r", R"("\b\f\r")"},
      {"caf\xc3\xa9 /\x7f", "\"caf\xc3\xa9 /\x7f\""},
      {"plain", R"("plain")"},
      {"", R"("")"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Json(c.value).dump(), c.text);
    EXPECT_EQ(Json::parse(c.text).as_string(), c.value) << c.text;
    // Keys take the same path as values.
    const Json obj = Json::object().set(c.value, c.value);
    EXPECT_EQ(obj.dump(0), "{" + c.text + ":" + c.text + "}");
    EXPECT_EQ(Json::parse(obj.dump(2)).at(c.value).as_string(), c.value);
  }
  // A control character inside a plain run is still refused, at its offset.
  try {
    (void)Json::parse("\"abc\x01" "def\"");
    FAIL() << "accepted an unescaped control character";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 5"), std::string::npos) << e.what();
  }
}

TEST(JsonTest, ParsesNestedDocuments) {
  const Json doc = Json::parse(R"({
    "name": "run",
    "sizes": [1, 2, 3],
    "nested": {"pi": 3.25, "flag": true, "none": null}
  })");
  EXPECT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc.at("name").as_string(), "run");
  EXPECT_EQ(doc.at("sizes").at(2).as_int(), 3);
  EXPECT_DOUBLE_EQ(doc.at("nested").at("pi").as_double(), 3.25);
  EXPECT_TRUE(doc.at("nested").at("none").is_null());
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_THROW((void)doc.at("absent"), JsonError);
  EXPECT_THROW((void)doc.at("sizes").at(3), JsonError);
}

TEST(JsonTest, WriterReaderRoundTrip) {
  Json doc = Json::object()
                 .set("int", 17)
                 .set("neg", -3)
                 .set("dbl", 0.1)
                 .set("str", std::string("quote \" backslash \\ newline \n"))
                 .set("flag", true)
                 .set("null", Json())
                 .set("arr", Json::array().push_back(1).push_back("two").push_back(
                     Json::object().set("deep", 2.5)));
  for (const int indent : {0, 2}) {
    const Json back = Json::parse(doc.dump(indent));
    EXPECT_EQ(back.at("int").as_int(), 17);
    EXPECT_EQ(back.at("neg").as_int(), -3);
    EXPECT_DOUBLE_EQ(back.at("dbl").as_double(), 0.1);
    EXPECT_EQ(back.at("str").as_string(), "quote \" backslash \\ newline \n");
    EXPECT_TRUE(back.at("flag").as_bool());
    EXPECT_TRUE(back.at("null").is_null());
    EXPECT_EQ(back.at("arr").at(1).as_string(), "two");
    EXPECT_DOUBLE_EQ(back.at("arr").at(2).at("deep").as_double(), 2.5);
    // Insertion order survives the round trip (dump is canonical).
    EXPECT_EQ(back.dump(indent), doc.dump(indent));
  }
}

TEST(JsonTest, DoubleRoundTripIsBitExact) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-308, 6.02214076e23, -0.0}) {
    const Json back = Json::parse(Json(v).dump());
    EXPECT_EQ(back.as_double(), v);
  }
  // Non-finite values serialize as null (JSON has no NaN/Inf).
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(JsonTest, HexU64RoundTrip) {
  const std::uint64_t big = 0xdeadbeefcafef00dULL;  // above INT64_MAX
  EXPECT_EQ(Json::parse(Json::hex(big).dump()).as_u64(), big);
  EXPECT_EQ(Json::parse(Json(big).dump()).as_u64(), big);  // auto-hex fallback
  const std::uint64_t small = 1234;
  EXPECT_EQ(Json::parse(Json(small).dump()).as_u64(), small);
  EXPECT_THROW((void)Json::parse("\"0xnope\"").as_u64(), JsonError);
  EXPECT_THROW((void)Json::parse("-1").as_u64(), JsonError);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                       // empty input
      "{\"a\": 1",              // truncated object
      "[1, 2",                  // truncated array
      "{} trailing",            // trailing garbage
      "[1, 2,]",                // trailing comma
      "{\"a\" 1}",              // missing colon
      "{a: 1}",                 // unquoted key
      "\"unterminated",         // unterminated string
      "\"bad \\q escape\"",     // unknown escape
      "\"\\ud83d\"",            // unpaired surrogate
      "01",                     // leading zero
      "1.",                     // digits required after '.'
      ".5",                     // no leading digit
      "1e",                     // empty exponent
      "+1",                     // plus sign
      "nul",                    // truncated literal
      "True",                   // wrong case
      "'single'",               // single quotes
      "{\"a\": 1, \"a\": 2}",   // duplicate key
      "\"tab\tinside\"",        // unescaped control character
      "1e999",                  // beyond double range
      "-1e999",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)Json::parse(text), JsonError) << "accepted: " << text;
  }
}

TEST(JsonTest, RejectsAbsurdNesting) {
  std::string deep(400, '[');
  deep += std::string(400, ']');
  EXPECT_THROW((void)Json::parse(deep), JsonError);
}

TEST(JsonTest, TypedAccessorsThrowOnMismatch) {
  const Json doc = Json::parse(R"({"s": "x", "i": -1, "d": 1.5, "a": []})");
  EXPECT_THROW((void)doc.at("s").as_int(), JsonError);
  EXPECT_THROW((void)doc.at("i").as_size(), JsonError);   // negative
  EXPECT_THROW((void)doc.at("d").as_size(), JsonError);   // double, not int
  EXPECT_THROW((void)doc.at("a").as_double(), JsonError);
  EXPECT_THROW((void)doc.at("s").items(), JsonError);
  EXPECT_THROW((void)doc.at("a").entries(), JsonError);
  EXPECT_THROW((void)doc.at("i").at("k"), JsonError);
  EXPECT_DOUBLE_EQ(doc.at("i").as_double(), -1.0);  // int widens to double
}

TEST(JsonTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/json_test_roundtrip.json";
  const Json doc = Json::object().set("k", Json::array().push_back(1).push_back(2));
  ASSERT_TRUE(write_json_file(path, doc));
  EXPECT_EQ(load_json_file(path).dump(), doc.dump());
  EXPECT_THROW((void)load_json_file(path + ".does-not-exist"), JsonError);
}

}  // namespace
}  // namespace rmp::core
