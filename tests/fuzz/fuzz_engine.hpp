// Coverage-guided mutation engine for the memstressd protocol fuzzer.
//
// The pieces, AFL-style but self-contained (no external fuzzing runtime):
//   * Dictionary — protocol keywords (envelope keys, request types,
//     boundary literals) the mutator splices in, so mutated inputs keep
//     hitting the deep handler paths instead of dying at byte 0.
//   * Mutator — seeded stack of byte-level operations: bit flips, byte
//     sets, range deletion/duplication, cross-input splice, truncation,
//     dictionary insertion and number boundary tweaks.
//   * CoverageMap — a 64 KiB hit map. Fed from two sources: real edge
//     coverage via SanitizerCoverage's trace_pc_guard callbacks when the
//     build has -fsanitize-coverage=trace-pc-guard (the fuzz binary defines
//     the callbacks; they simply never fire otherwise), and an always-on
//     fallback: parser state events (server/protocol.hpp's parse-trace
//     seam) plus outcome features. Inputs that light new slots join the
//     corpus — that is the "guided" in coverage-guided.
//   * run_one — the execution harness + oracle. An input passes when the
//     serving path answers with one line of valid-envelope JSON within the
//     hang budget; anything else (escaped exception, unparseable or
//     multi-line response, overrun) is a finding.
//   * minimize — greedy chunk removal preserving the verdict, so
//     regression artifacts are readable.
//
// Everything is deterministic for a given seed: the 10k-iteration ctest
// smoke explores the same inputs on every machine.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "server/service.hpp"
#include "util/rng.hpp"

namespace memstress::fuzz {

/// Protocol keywords worth splicing into mutated inputs.
const std::vector<std::string>& dictionary();

/// One seeded mutation stack (1..kMaxOps operations) applied to `input`.
/// `corpus_donor` (possibly empty) is a second input for splice ops.
std::string mutate(const std::string& input, const std::string& corpus_donor,
                   Rng& rng);

/// AFL-style hit map. hit() is called from the SanitizerCoverage callbacks
/// and the parser-trace fallback, so it must stay cheap and lock-free
/// (single-threaded fuzz loop; plain writes).
class CoverageMap {
 public:
  static constexpr std::size_t kSlots = 1 << 16;

  void hit(std::uint32_t id) { current_[id & (kSlots - 1)] = 1; }

  /// Fold the current execution's hits into the accumulated map and return
  /// how many slots were newly lit. Clears the current map for the next
  /// run.
  std::size_t merge_new();

  /// Total slots ever lit (the coverage figure reported by FUZZ_JSON).
  std::size_t covered() const { return covered_; }

  void clear_current() { current_.fill(0); }

 private:
  std::array<std::uint8_t, kSlots> current_{};
  std::array<std::uint8_t, kSlots> accumulated_{};
  std::size_t covered_ = 0;
};

/// The process-wide sink the instrumentation callbacks feed. Installed by
/// the harness around each execution; null outside of runs.
CoverageMap* coverage_sink();
void set_coverage_sink(CoverageMap* map);

enum class Verdict {
  Ok,           ///< structured one-line response in time
  BadResponse,  ///< empty / multi-line / unparseable / envelope-less
  Hang,         ///< exceeded the hang budget
  Crash,        ///< an exception escaped the serving path
};

const char* verdict_name(Verdict verdict);

struct RunOutcome {
  Verdict verdict = Verdict::Ok;
  std::string detail;    ///< what the oracle saw (for triage)
  std::string response;  ///< raw response line when one was produced
  double elapsed_s = 0.0;
};

/// Rewrite runaway Monte-Carlo budgets (5-7 digit monte_carlo_defects
/// values — legal, but thousands of times slower than the smoke budget
/// allows) down to 2000. 8+ digit values stay: they exercise the fast
/// validation-reject path. Applied before execution AND before artifacts
/// are written, so replay cost stays bounded too.
std::string clamp_cost(const std::string& input);

/// Execute one (already cost-clamped) input through the in-process serving
/// path with the coverage sink armed, and judge it against the oracle.
RunOutcome run_one(const server::MemstressService& service,
                   const std::string& input, CoverageMap& map,
                   int hang_ms = 2000);

/// Greedy minimization: repeatedly drop chunks while the verdict (by kind)
/// is preserved. Bounded work — meant for artifact readability, not
/// optimality.
std::string minimize(const server::MemstressService& service,
                     const std::string& input, Verdict verdict,
                     CoverageMap& map, int hang_ms = 2000);

/// FNV-1a content hash, used to name artifacts (crash-<hash>.txt).
std::string content_hash(const std::string& data);

/// Built-in seed corpus: one well-formed request of every client-facing
/// protocol type plus the hidden sleep, and a few structured near-miss
/// frames.
std::vector<std::string> builtin_seeds();

}  // namespace memstress::fuzz
