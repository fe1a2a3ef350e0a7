// Shared pieces of the benchmark harness: options, the result record, the
// reference database, request generation and the per-layer probes that
// time public library calls from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "estimator/detectability.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"
#include "spans.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Set-ups per run; setup_s is their median. They are kSetupPause apart: on
/// a shared host one vCPU at a time runs up to 1.7x slower for stretches of
/// a fraction of a second to several seconds. Back-to-back set-ups all land
/// in one stretch, which made a run's median one of two values; spread over
/// four seconds they sample several.
inline constexpr int kSetups = 21;
inline constexpr std::chrono::milliseconds kSetupPause{200};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_dir = "perfbench/reference";
  std::string out_dir = ".bench_build/perfbench/out";
  int threads = 1;  ///< nproc: characterization, study and server workers
};

struct Metric {
  const char* name;
  const char* unit;
  double value = 0.0;
};

/// The metrics every workload reports, in output order: end-to-end ones in
/// untraced runs, per-layer ones in traced runs (BENCHMARK.json lists the
/// same names). A layer a workload does not exercise reports 0.
const std::vector<Metric>& end_to_end_metrics();
const std::vector<Metric>& per_layer_metrics();

struct RunResult {
  explicit RunResult(bool traced)
      : metrics(traced ? per_layer_metrics() : end_to_end_metrics()) {}

  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;

  /// Sets a metric of this run's list; an unknown name is a harness bug.
  void set(const std::string& name, double value);
  /// Marks the run incorrect and prints why (to stdout, before the result).
  void fail(const std::string& why);
};

/// Keeps a computed value alive so a timed loop is not optimized away.
void keep(long long value);

/// Process CPU time (all threads), seconds.
double cpu_seconds();

/// Cumulative steal time of this machine's CPUs (s, 10 ms resolution), or
/// -1 when unknown: time the hypervisor ran another guest while this one
/// had work to run. A measurement window with much of it measured the
/// host, not the program.
double steal_seconds();
double seconds_between(Clock::time_point a, Clock::time_point b);

/// Whole file contents; throws Error when it cannot be read.
std::string read_file(const std::string& path);

/// Configuration of the paper flow as memstressd and full_evaluation run
/// it: the default sram6t grid on the 2x1 block. `spec_of` returns the
/// CharacterizeSpec the pipeline finalizes from a config.
memstress::core::PipelineConfig flow_config();
memstress::estimator::CharacterizeSpec spec_of(
    const memstress::core::PipelineConfig& config);

/// The reference default-grid database kept with the benchmark, checked
/// against the default spec's fingerprint, plus its CSV text and Table 1.
struct Reference {
  std::string csv;
  std::string table1_csv;
  std::shared_ptr<const memstress::estimator::DetectabilityDb> db;
};
Reference load_reference(const std::string& dir);

/// The rows of `full` whose condition is on `spec`'s grid, in order and
/// stamped with `spec`'s fingerprint: exactly what characterize(spec) must
/// produce when `spec` cuts whole conditions from the full grid.
memstress::estimator::DetectabilityDb restrict_to(
    const memstress::estimator::DetectabilityDb& full,
    const memstress::estimator::CharacterizeSpec& spec);

/// Table 1 of the paper (512 x 64 x 8) over a database, as CSV.
std::string table1_csv(std::shared_ptr<const memstress::estimator::DetectabilityDb> db);

/// A service over `db` exactly as memstressd builds it.
std::shared_ptr<const memstress::server::MemstressService> make_service(
    std::shared_ptr<const memstress::estimator::DetectabilityDb> db,
    const memstress::server::ServiceInfo& info);

/// One request the load generator can send: a type and its params, both
/// already serialized, and the payload MemstressService::handle returns for
/// it (filled before or after the run).
struct Item {
  std::string type;
  std::string params;  ///< Json::dump() of the params object
  std::string expected;
  bool has_expected = false;
};

memstress::server::Request to_request(const Item& item, long long id);
std::string request_line(const Item& item, long long id);

/// Fills `expected` for every item via MemstressService::handle (no cache,
/// no sockets), in parallel over `threads`.
void compute_expected(const memstress::server::MemstressService& service,
                      std::vector<Item>& items, int threads);

/// Request generators. Everything derives from the caller's Rng, so a
/// workload seed fixes every request the program sees.
Item detectability_item(const memstress::estimator::DetectabilityDb& db,
                        memstress::Rng& rng);
Item coverage_item(int x_rows, int y_columns, int bits_per_word, int z_blocks);
Item random_coverage_item(memstress::Rng& rng);
Item schedule_item(std::uint64_t seed);
Item dpm_item(double yield, double defect_coverage);
Item study_shard_item(std::uint64_t study_seed, int shard, const std::string& db_crc);

/// `count` kinds (indices into `shares`) in exact proportion to `shares`,
/// shuffled with `rng`: a mix whose composition does not vary with the seed.
std::vector<std::size_t> shuffled_deck(const std::vector<double>& shares,
                                       std::size_t count, memstress::Rng& rng);

/// The serve_cold mix: every coverage geometry and schedule seed unique
/// within the run (`used` carries what earlier phases already drew).
struct ColdMix {
  std::string db_crc;
  std::uint64_t study_seed = 0;
  std::map<std::string, int> used;  ///< canonical params already drawn
};
std::vector<Item> cold_items(const memstress::estimator::DetectabilityDb& db,
                             ColdMix& mix, memstress::Rng& rng,
                             std::size_t count);

/// Per-layer probes timed from outside, over a workload's own requests:
/// estimator lookups, service handlers without sockets, the DB CRC, and the
/// protocol parse/serialize calls. Appends the named per-layer metrics.
void probe_layers(const memstress::server::MemstressService& service,
                  const std::vector<Item>& items, SpanRecorder& spans,
                  RunResult& result);

/// The layers the library itself accounts for, read from a RunReport
/// collected over the traced phase: characterization fan-out (busy from the
/// tester.run_march_analog_batch span, idle = threads x database_s - busy),
/// the analog kernel's counters, and the tester/robustness counters.
void set_library_layers(const memstress::metrics::RunReport& report, int threads,
                        double database_s, RunResult& result);

/// CRC32 of the database CSV as the coordinator sends it ("%08x").
std::string db_crc_of(const memstress::estimator::DetectabilityDb& db);

// Workloads (evaluate.cpp, serve.cpp).
RunResult run_evaluate_cold(const Options& options);
RunResult run_serve(const Options& options);

/// One cold evaluation of `spec` (tested on a tiny grid by the selftest):
/// returns the wall/CPU/time-to-verdict figures and gates the CSV against
/// `expected_csv` and Table 1 against `expected_table1` (skipped if empty).
struct EvaluationRep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double database_s = 0.0;
  std::vector<double> verdict_ms;  ///< time to each grid point's verdict
  long long points = 0;
  long long quarantined = 0;
  bool correct = true;
  std::string mismatch;
};
EvaluationRep evaluate_once(const memstress::estimator::CharacterizeSpec& spec,
                            const std::string& expected_csv,
                            const std::string& expected_table1,
                            std::uint64_t seed, int threads,
                            SpanRecorder& spans);

}  // namespace perfbench
