#include "tests/fuzz/fuzz_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "server/protocol.hpp"
#include "tests/server/server_test_util.hpp"

namespace memstress::fuzz {

// ---------------------------------------------------------------------------
// Dictionary.

const std::vector<std::string>& dictionary() {
  static const std::vector<std::string> words = {
      // Envelope structure.
      "{\"v\":1,", "\"v\":", "\"id\":", "\"type\":", "\"params\":",
      // Every request type, including the hidden one.
      "\"coverage\"", "\"dpm\"", "\"schedule\"", "\"detectability\"",
      "\"metrics\"", "\"health\"", "\"sleep\"",
      // Handler parameter keys.
      "\"yield\":", "\"defect_coverage\":", "\"geometry\":", "\"x_rows\":",
      "\"y_columns\":", "\"bits_per_word\":", "\"cells\":",
      "\"monte_carlo_defects\":", "\"seed\":", "\"kind\":", "\"category\":",
      "\"resistance\":", "\"vdd\":", "\"period\":", "\"ms\":",
      "\"bridge\"", "\"open\"", "\"cell-node-bitline\"",
      // Technology backend selection and its parameter packs.
      "\"technology\":", "\"sram6t\"", "\"stt_mram\"", "\"undervolt\"",
      "\"mtj\"", "\"mtj\":", "\"undervolt\":", "\"resistances\":",
      "\"r_parallel\":", "\"tmr\":", "\"delta_nominal\":", "\"v_c0\":",
      "\"retention_time\":", "\"v_safe\":", "\"v_cliff\":",
      "\"margin_nominal\":", "\"retention\"", "\"transition\"",
      "\"read-disturb\"",
      // Literals and boundary values the parser special-cases.
      "true", "false", "null", "0", "-1", "1e309", "-1e309", "1e-309",
      "9007199254740993", "2147483648", "0.5", "1000000", "\\u0000",
      "\\ud800", "\\udc00", "\\\"", "\\\\", "{}", "[]", "[[[[", "]]]]",
      ",", ":", "\"", "\\",
  };
  return words;
}

// ---------------------------------------------------------------------------
// Mutator.

namespace {

constexpr std::size_t kMaxInputBytes = 8192;
constexpr int kMaxOps = 6;

void op_bit_flip(std::string& data, Rng& rng) {
  if (data.empty()) return;
  const std::size_t i = rng.below(data.size());
  data[i] = static_cast<char>(data[i] ^ (1u << rng.below(8)));
}

void op_byte_set(std::string& data, Rng& rng) {
  if (data.empty()) return;
  data[rng.below(data.size())] = static_cast<char>(rng.below(256));
}

void op_insert_dictionary(std::string& data, Rng& rng) {
  const auto& words = dictionary();
  const std::string& word = words[rng.below(words.size())];
  data.insert(rng.below(data.size() + 1), word);
}

void op_delete_range(std::string& data, Rng& rng) {
  if (data.empty()) return;
  const std::size_t start = rng.below(data.size());
  const std::size_t len = 1 + rng.below(std::min<std::size_t>(
                                  data.size() - start, 16));
  data.erase(start, len);
}

void op_duplicate_range(std::string& data, Rng& rng) {
  if (data.empty()) return;
  const std::size_t start = rng.below(data.size());
  const std::size_t len = 1 + rng.below(std::min<std::size_t>(
                                  data.size() - start, 32));
  data.insert(rng.below(data.size() + 1), data.substr(start, len));
}

void op_splice_donor(std::string& data, const std::string& donor, Rng& rng) {
  if (donor.empty()) return;
  const std::size_t start = rng.below(donor.size());
  const std::size_t len = 1 + rng.below(std::min<std::size_t>(
                                  donor.size() - start, 64));
  data.insert(rng.below(data.size() + 1), donor.substr(start, len));
}

void op_truncate(std::string& data, Rng& rng) {
  if (data.empty()) return;
  data.resize(rng.below(data.size()));
}

void op_number_tweak(std::string& data, Rng& rng) {
  // Find a digit run (scanning from a random start) and replace it with a
  // boundary value — the cheapest way to probe overflow edges.
  static const char* kBoundaries[] = {"0",          "-1",
                                      "2147483648", "9007199254740993",
                                      "1e309",      "999999999999999999999"};
  if (data.empty()) return;
  const std::size_t from = rng.below(data.size());
  for (std::size_t i = from; i < data.size(); ++i) {
    if (data[i] < '0' || data[i] > '9') continue;
    std::size_t end = i;
    while (end < data.size() && data[end] >= '0' && data[end] <= '9') ++end;
    data.replace(i, end - i,
                 kBoundaries[rng.below(std::size(kBoundaries))]);
    return;
  }
}

}  // namespace

std::string mutate(const std::string& input, const std::string& corpus_donor,
                   Rng& rng) {
  std::string data = input;
  const int ops = 1 + static_cast<int>(rng.below(kMaxOps));
  for (int i = 0; i < ops; ++i) {
    switch (rng.below(8)) {
      case 0: op_bit_flip(data, rng); break;
      case 1: op_byte_set(data, rng); break;
      case 2: op_insert_dictionary(data, rng); break;
      case 3: op_delete_range(data, rng); break;
      case 4: op_duplicate_range(data, rng); break;
      case 5: op_splice_donor(data, corpus_donor, rng); break;
      case 6: op_truncate(data, rng); break;
      default: op_number_tweak(data, rng); break;
    }
  }
  if (data.size() > kMaxInputBytes) data.resize(kMaxInputBytes);
  return data;
}

// ---------------------------------------------------------------------------
// Coverage plumbing.

std::size_t CoverageMap::merge_new() {
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < kSlots; ++i) {
    if (current_[i] && !accumulated_[i]) {
      accumulated_[i] = 1;
      ++fresh;
    }
    current_[i] = 0;
  }
  covered_ += fresh;
  return fresh;
}

namespace {
CoverageMap* g_sink = nullptr;
}

CoverageMap* coverage_sink() { return g_sink; }
void set_coverage_sink(CoverageMap* map) { g_sink = map; }

namespace {

/// Fallback coverage: parser state transitions bucketed by log2 position.
/// Edges (previous event -> event) approximate branch coverage well enough
/// to steer mutation when no SanitizerCoverage instrumentation exists.
server::ParseEvent g_prev_event = server::ParseEvent::Object;

void parse_trace_to_sink(server::ParseEvent event, std::size_t pos) {
  CoverageMap* sink = g_sink;
  if (sink == nullptr) return;
  std::uint32_t bucket = 0;
  while (pos != 0) {
    ++bucket;
    pos >>= 1;
  }
  const auto from = static_cast<std::uint32_t>(g_prev_event);
  const auto to = static_cast<std::uint32_t>(event);
  g_prev_event = event;
  // Slots 0x8000+ are reserved for the fallback so they never collide with
  // the (small) guard ids SanitizerCoverage hands out.
  sink->hit(0x8000u + ((from * 16u + to) * 16u + bucket));
}

}  // namespace

// SanitizerCoverage callbacks: live in every binary linking the engine, fire
// only when the build adds -fsanitize-coverage=trace-pc-guard. Guard ids are
// assigned densely from 1, so they map onto the low CoverageMap slots.
extern "C" void __sanitizer_cov_trace_pc_guard_init(std::uint32_t* start,
                                                    std::uint32_t* stop) {
  static std::uint32_t next_id = 1;
  for (std::uint32_t* guard = start; guard < stop; ++guard)
    if (*guard == 0) *guard = next_id++;
}

extern "C" void __sanitizer_cov_trace_pc_guard(std::uint32_t* guard) {
  CoverageMap* sink = g_sink;
  if (sink != nullptr) sink->hit(*guard);
}

// GCC's spelling (-fsanitize-coverage=trace-pc) calls this one with no
// guard id; hash the call site's address into the slot space instead.
// Collisions with guard/fallback slots only under-count coverage — safe
// for steering mutation, which is all the map is for.
extern "C" void __sanitizer_cov_trace_pc() {
  CoverageMap* sink = g_sink;
  if (sink == nullptr) return;
  const auto pc =
      reinterpret_cast<std::uintptr_t>(__builtin_return_address(0));
  sink->hit(static_cast<std::uint32_t>((pc >> 4) ^ (pc >> 17)));
}

// ---------------------------------------------------------------------------
// Harness + oracle.

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::Ok: return "ok";
    case Verdict::BadResponse: return "badresp";
    case Verdict::Hang: return "hang";
    case Verdict::Crash: return "crash";
  }
  return "unknown";
}

std::string clamp_cost(const std::string& input) {
  static const std::string kKey = "monte_carlo_defects";
  std::string out = input;
  std::size_t at = 0;
  while ((at = out.find(kKey, at)) != std::string::npos) {
    std::size_t i = at + kKey.size();
    // Skip the little syntax between key and value (quote, colon, spaces).
    while (i < out.size() && i < at + kKey.size() + 8 &&
           (out[i] == '"' || out[i] == ':' || out[i] == ' '))
      ++i;
    std::size_t end = i;
    while (end < out.size() && out[end] >= '0' && out[end] <= '9') ++end;
    const std::size_t digits = end - i;
    if (digits >= 5 && digits <= 7) out.replace(i, digits, "2000");
    at += kKey.size();
  }
  return out;
}

RunOutcome run_one(const server::MemstressService& service,
                   const std::string& input, CoverageMap& map, int hang_ms) {
  RunOutcome outcome;
  map.clear_current();
  set_coverage_sink(&map);
  server::set_parse_trace(&parse_trace_to_sink);
  const auto start = std::chrono::steady_clock::now();
  bool threw = false;
  try {
    outcome.response =
        server::handle_line_inprocess(service, input, hang_ms);
  } catch (const std::exception& e) {
    threw = true;
    outcome.detail = std::string("escaped exception: ") + e.what();
  } catch (...) {
    threw = true;
    outcome.detail = "escaped non-standard exception";
  }
  outcome.elapsed_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  server::set_parse_trace(nullptr);
  set_coverage_sink(nullptr);

  if (threw) {
    outcome.verdict = Verdict::Crash;
  } else if (outcome.elapsed_s * 1e3 > hang_ms) {
    outcome.verdict = Verdict::Hang;
    outcome.detail = "exceeded the hang budget";
  } else {
    // The serving oracle: exactly one line of parseable JSON with the
    // ok/error envelope.
    outcome.verdict = Verdict::BadResponse;
    if (outcome.response.empty()) {
      outcome.detail = "empty response";
    } else if (outcome.response.find('\n') != std::string::npos) {
      outcome.detail = "response contains a newline";
    } else {
      try {
        const server::Json doc = server::Json::parse(outcome.response);
        const server::Json* ok = doc.is_object() ? doc.find("ok") : nullptr;
        const server::Json* error =
            doc.is_object() ? doc.find("error") : nullptr;
        if (!doc.is_object()) {
          outcome.detail = "response is not an object";
        } else if (ok == nullptr || !ok->is_bool()) {
          outcome.detail = "response lacks a boolean \"ok\"";
        } else if (!ok->as_bool() &&
                   !(error != nullptr && error->is_object() &&
                     error->find("code") != nullptr)) {
          outcome.detail = "error response lacks a structured code";
        } else {
          outcome.verdict = Verdict::Ok;
        }
      } catch (const std::exception& e) {
        outcome.detail = std::string("unparseable response: ") + e.what();
      }
    }
  }

  // Outcome features widen the fallback signal beyond the parser: distinct
  // verdicts and error codes count as coverage too.
  map.hit(0xF000u + static_cast<std::uint32_t>(outcome.verdict));
  if (!outcome.response.empty()) {
    const std::size_t code_at = outcome.response.find("\"code\":\"");
    if (code_at != std::string::npos) {
      std::uint32_t h = 2166136261u;
      for (std::size_t i = code_at + 8;
           i < outcome.response.size() && outcome.response[i] != '"'; ++i)
        h = (h ^ static_cast<std::uint8_t>(outcome.response[i])) * 16777619u;
      map.hit(0xF100u + (h & 0xFFu));
    }
  }
  return outcome;
}

std::string minimize(const server::MemstressService& service,
                     const std::string& input, Verdict verdict,
                     CoverageMap& map, int hang_ms) {
  std::string best = input;
  int budget = 512;  // executions, not bytes — minimization stays bounded
  for (std::size_t chunk = std::max<std::size_t>(best.size() / 2, 1);
       chunk >= 1 && budget > 0; chunk /= 2) {
    bool shrunk = true;
    while (shrunk && budget > 0) {
      shrunk = false;
      for (std::size_t at = 0; at + chunk <= best.size() && budget > 0;
           at += chunk) {
        std::string candidate = best;
        candidate.erase(at, chunk);
        --budget;
        if (run_one(service, candidate, map, hang_ms).verdict == verdict) {
          best = std::move(candidate);
          shrunk = true;
          break;  // restart the scan on the shorter input
        }
      }
    }
    if (chunk == 1) break;
  }
  return best;
}

std::string content_hash(const std::string& data) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

std::vector<std::string> builtin_seeds() {
  return {
      "{\"v\":1,\"id\":1,\"type\":\"health\"}",
      "{\"v\":1,\"id\":2,\"type\":\"metrics\"}",
      "{\"v\":1,\"id\":3,\"type\":\"dpm\",\"params\":"
      "{\"yield\":0.95,\"defect_coverage\":0.99}}",
      "{\"v\":1,\"id\":4,\"type\":\"coverage\",\"params\":"
      "{\"geometry\":{\"x_rows\":128,\"y_columns\":32,"
      "\"bits_per_word\":4}}}",
      "{\"v\":1,\"id\":5,\"type\":\"detectability\",\"params\":"
      "{\"kind\":\"bridge\",\"category\":\"cell-node-bitline\","
      "\"resistance\":1000,\"vdd\":1.0,\"period\":1e-07}}",
      "{\"v\":1,\"id\":6,\"type\":\"schedule\",\"params\":"
      "{\"cells\":4096,\"monte_carlo_defects\":300,\"seed\":42}}",
      "{\"v\":1,\"id\":7,\"type\":\"sleep\",\"params\":{\"ms\":1}}",
      // Technology-qualified requests: a matching assertion and the
      // cross-technology mismatch (the test service serves sram6t).
      "{\"v\":1,\"id\":9,\"type\":\"coverage\",\"params\":"
      "{\"technology\":\"sram6t\"}}",
      "{\"v\":1,\"id\":10,\"type\":\"detectability\",\"params\":"
      "{\"technology\":\"stt_mram\",\"kind\":\"mtj\","
      "\"category\":\"retention\",\"resistance\":1300,\"vdd\":1.0,"
      "\"period\":1e-07}}",
      // Structured near-misses: valid JSON, wrong envelope.
      "{\"v\":2,\"id\":1,\"type\":\"health\"}",
      "{\"id\":1,\"type\":\"health\"}",
      "{\"v\":1,\"id\":\"one\",\"type\":\"health\"}",
      "[\"not\",\"an\",\"object\"]",
  };
}

}  // namespace memstress::fuzz
