#include "moo/state.hpp"

#include <array>
#include <bit>
#include <cstdint>

namespace rmp::moo {

namespace state {

namespace {

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Sextet value of each byte, or -1 for a byte outside the alphabet.
constexpr std::array<std::int8_t, 256> kBase64Sextet = [] {
  std::array<std::int8_t, 256> table{};
  table.fill(-1);
  for (int i = 0; i < 64; ++i) {
    table[static_cast<unsigned char>(kBase64Alphabet[i])] =
        static_cast<std::int8_t>(i);
  }
  return table;
}();

[[noreturn]] void reject_packed(const std::string& what) {
  throw StateError("checkpoint: malformed packed double vector: " + what);
}

}  // namespace

core::Json doubles_to_json(std::span<const double> values) {
  const std::size_t bytes = values.size() * 8;
  std::string out;
  out.reserve((bytes + 2) / 3 * 4);
  const auto emit = [&out](std::uint32_t group, int chars) {
    for (int k = 0; k < chars; ++k) {
      out += kBase64Alphabet[(group >> (18 - 6 * k)) & 0x3f];
    }
  };
  std::uint32_t group = 0;  // up to three pending bytes, first byte highest
  int held = 0;
  for (const double v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int k = 0; k < 8; ++k) {  // little-endian byte order, by shifts
      group = (group << 8) | static_cast<std::uint32_t>((bits >> (8 * k)) & 0xff);
      if (++held == 3) {
        emit(group, 4);
        group = 0;
        held = 0;
      }
    }
  }
  if (held == 1) {
    emit(group << 16, 2);
    out += "==";
  } else if (held == 2) {
    emit(group << 8, 3);
    out += '=';
  }
  return core::Json(std::move(out));
}

num::Vec doubles_from_json(const core::Json& doc) {
  if (!doc.is_string()) {
    throw StateError("checkpoint: expected a packed double vector (base64 "
                     "string), got " + std::string(doc.kind_name()));
  }
  const std::string& text = doc.as_string();
  const std::size_t n = text.size();
  if (n % 4 != 0) {
    reject_packed("length " + std::to_string(n) + " is not a multiple of 4");
  }
  std::size_t pad = 0;
  if (n > 0 && text[n - 1] == '=') pad = text[n - 2] == '=' ? 2 : 1;
  const std::size_t bytes = n / 4 * 3 - pad;
  if (bytes % 8 != 0) {
    reject_packed(std::to_string(bytes) + " bytes is not a whole number of "
                  "doubles");
  }
  num::Vec out;
  out.reserve(bytes / 8);
  std::uint64_t bits = 0;
  int filled = 0;  // bytes of `bits` already placed, lowest first
  const auto put = [&](std::uint32_t byte) {
    bits |= static_cast<std::uint64_t>(byte) << (8 * filled);
    if (++filled == 8) {
      out.push_back(std::bit_cast<double>(bits));
      bits = 0;
      filled = 0;
    }
  };
  // Canonical form only: the low bits a padded last group drops must be 0.
  const std::uint32_t dropped = pad == 0 ? 0 : pad == 1 ? 0xff : 0xffff;
  for (std::size_t i = 0; i < n; i += 4) {
    const bool last = i + 4 == n;
    const std::size_t data = last ? 4 - pad : 4;  // non-padding characters
    std::uint32_t group = 0;
    for (std::size_t k = 0; k < data; ++k) {
      const char c = text[i + k];
      const std::int8_t sextet = kBase64Sextet[static_cast<unsigned char>(c)];
      if (sextet < 0) {
        reject_packed("offset " + std::to_string(i + k) + ": " +
                      (c == '=' ? "padding before the end"
                                : "a byte outside the base64 alphabet"));
      }
      group |= static_cast<std::uint32_t>(sextet) << (18 - 6 * k);
    }
    if (last && (group & dropped) != 0) {
      reject_packed("nonzero bits under the padding");
    }
    put(group >> 16);
    if (data > 2) put((group >> 8) & 0xff);
    if (data > 3) put(group & 0xff);
  }
  return out;
}

core::Json individual_to_json(const Individual& ind) {
  core::Json obj = core::Json::object();
  obj.set("x", doubles_to_json(ind.x));
  obj.set("f", doubles_to_json(ind.f));
  obj.set("violation", core::Json::bits(ind.violation));
  obj.set("rank", static_cast<std::uint64_t>(ind.rank));
  obj.set("crowding", core::Json::bits(ind.crowding));
  return obj;
}

Individual individual_from_json(const core::Json& doc) {
  Individual ind;
  ind.x = doubles_from_json(require(doc, "x"));
  ind.f = doubles_from_json(require(doc, "f"));
  ind.violation = require(doc, "violation").as_double_bits();
  ind.rank = require(doc, "rank").as_size();
  ind.crowding = require(doc, "crowding").as_double_bits();
  return ind;
}

core::Json population_to_json(std::span<const Individual> pop) {
  core::Json arr = core::Json::array();
  for (const Individual& ind : pop) arr.push_back(individual_to_json(ind));
  return arr;
}

std::vector<Individual> population_from_json(const core::Json& doc) {
  if (!doc.is_array()) {
    throw StateError("checkpoint: expected population array, got " +
                     std::string(doc.kind_name()));
  }
  std::vector<Individual> pop;
  pop.reserve(doc.size());
  for (const core::Json& item : doc.items()) {
    pop.push_back(individual_from_json(item));
  }
  return pop;
}

core::Json rng_to_json(const num::Rng& rng) {
  const num::Rng::State s = rng.state();
  core::Json obj = core::Json::object();
  core::Json words = core::Json::array();
  for (const std::uint64_t w : s.words) words.push_back(core::Json::hex(w));
  obj.set("words", std::move(words));
  obj.set("has_cached_normal", s.has_cached_normal);
  obj.set("cached_normal", core::Json::bits(s.cached_normal));
  return obj;
}

void rng_from_json(const core::Json& doc, num::Rng& rng) {
  num::Rng::State s;
  const core::Json& words = require(doc, "words");
  if (!words.is_array() || words.size() != s.words.size()) {
    throw StateError("checkpoint: rng state needs exactly 4 words");
  }
  for (std::size_t i = 0; i < s.words.size(); ++i) {
    s.words[i] = words.at(i).as_u64();
  }
  s.has_cached_normal = require(doc, "has_cached_normal").as_bool();
  s.cached_normal = require(doc, "cached_normal").as_double_bits();
  rng.set_state(s);
}

const core::Json& require(const core::Json& doc, std::string_view key) {
  if (!doc.is_object()) {
    throw StateError("checkpoint: expected object holding \"" +
                     std::string(key) + "\", got " +
                     std::string(doc.kind_name()));
  }
  const core::Json* found = doc.find(key);
  if (found == nullptr) {
    throw StateError("checkpoint: missing key \"" + std::string(key) + "\"");
  }
  return *found;
}

void require_tag(const core::Json& doc, std::string_view key,
                 std::string_view expected) {
  const std::string& got = require(doc, key).as_string();
  if (got != expected) {
    throw StateError("checkpoint: " + std::string(key) + " mismatch: saved \"" +
                     got + "\", restoring \"" + std::string(expected) + "\"");
  }
}

}  // namespace state

std::uint64_t fingerprint(std::span<const Individual> members) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](double value) {
    std::uint64_t v = std::bit_cast<std::uint64_t>(value);
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  };
  for (const Individual& m : members) {
    for (const double d : m.x) mix(d);
    for (const double d : m.f) mix(d);
    mix(m.violation);
  }
  return h;
}

}  // namespace rmp::moo
