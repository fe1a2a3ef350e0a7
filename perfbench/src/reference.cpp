#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "estimator/coverage.hpp"
#include "server/shard_codec.hpp"
#include "stats.hpp"
#include "tech/model.hpp"
#include "util/checkpoint.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using memstress::Rng;
using memstress::estimator::CharacterizeSpec;
using memstress::estimator::DetectabilityDb;
using memstress::server::Json;

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics = {
      {"setup_s", "s"}, {"wall_s", "s"},  {"cpu_s", "s"},
      {"p50_ms", "ms"}, {"p99_ms", "ms"}, {"sustained_rps", "1/s"}};
  return metrics;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = {
      {"core.database_s", "s"},
      {"core.table1_s", "s"},
      {"core.study_s", "s"},
      {"core.schedule_s", "s"},
      {"characterize.busy_s", "s"},
      {"characterize.idle_s", "s"},
      {"characterize.groups", "count"},
      {"characterize.lanes_per_group", "count"},
      {"analog.steps", "count"},
      {"analog.newton_iterations", "count"},
      {"analog.newton_per_step", "count"},
      {"analog.refactorizations", "count"},
      {"analog.refactor_avoided_rate", "ratio"},
      {"analog.halvings", "count"},
      {"analog.lane_ejections", "count"},
      {"analog.us_per_newton", "us"},
      {"tester.analog_cycles", "count"},
      {"tester.rescue_runs", "count"},
      {"robust.retries", "count"},
      {"robust.quarantined_points", "count"},
      {"estimator.lookup_ns", "ns"},
      {"estimator.db_lookups_per_req", "count"},
      {"service.schedule_ms", "ms"},
      {"service.coverage_ms", "ms"},
      {"service.study_shard_ms", "ms"},
      {"study.crc_ms", "ms"},
      {"cache.hit_ratio", "ratio"},
      {"cache.misses", "count"},
      {"cache.evictions", "count"},
      {"cache.coalesced", "count"},
      {"protocol.parse_us", "us"},
      {"protocol.serialize_us", "us"},
      {"server.request_p50_ms", "ms"},
      {"server.request_p99_ms", "ms"},
      {"server.transport_p50_ms", "ms"},
      {"server.busy_rejections", "count"},
      {"server.errors", "count"},
      {"gen.late_p99_ms", "ms"},
      {"gen.max_behind_ms", "ms"},
      {"trace.overhead_pct", "%"}};
  return metrics;
}

void RunResult::set(const std::string& name, double value) {
  for (Metric& m : metrics)
    if (name == m.name) {
      m.value = value;
      return;
    }
  throw memstress::Error("perfbench: unknown metric " + name);
}

namespace {
volatile long long g_sink = 0;
}

void keep(long long value) { g_sink = g_sink + value; }

void RunResult::fail(const std::string& why) {
  correct = false;
  std::printf("MISMATCH %s\n", why.c_str());
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double steal_seconds() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (!stat) return -1.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(stat);
  return got == 8 ? static_cast<double>(v[7]) / 100.0 : -1.0;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

memstress::core::PipelineConfig flow_config() {
  memstress::core::PipelineConfig config;
  config.characterization =
      memstress::tech::default_characterize_spec(memstress::tech::Technology::Sram6T);
  config.test = config.characterization.test;
  config.block.rows = 2;
  config.block.cols = 1;
  return config;
}

CharacterizeSpec spec_of(const memstress::core::PipelineConfig& config) {
  return memstress::core::StressEvaluationPipeline(config).config().characterization;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw memstress::Error("perfbench: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

namespace {

bool on_axis(const std::vector<double>& axis, double value) {
  for (const double a : axis)
    if (std::abs(a - value) <= 1e-9 * std::abs(a)) return true;
  return false;
}

}  // namespace

Reference load_reference(const std::string& dir) {
  Reference ref;
  ref.csv = read_file(dir + "/default_grid.csv");
  const std::string fingerprint =
      memstress::estimator::spec_fingerprint(spec_of(flow_config()));
  ref.db = std::make_shared<const DetectabilityDb>(
      DetectabilityDb::from_csv(ref.csv, fingerprint));
  if (ref.db->to_csv() != ref.csv)
    throw memstress::Error("perfbench: reference CSV does not round-trip");
  ref.table1_csv = read_file(dir + "/table1.csv");
  if (table1_csv(ref.db) != ref.table1_csv)
    throw memstress::Error(
        "perfbench: Table 1 over the reference database differs from "
        "reference/table1.csv");
  return ref;
}

DetectabilityDb restrict_to(const DetectabilityDb& full,
                            const CharacterizeSpec& spec) {
  DetectabilityDb out;
  for (const auto& e : full.entries())
    if (on_axis(spec.vdds, e.vdd) && on_axis(spec.periods, e.period)) out.add(e);
  out.set_fingerprint(memstress::estimator::spec_fingerprint(spec));
  out.set_technology(full.technology());
  return out;
}

std::string table1_csv(std::shared_ptr<const DetectabilityDb> db) {
  const memstress::core::PipelineConfig config = flow_config();
  const memstress::estimator::FaultCoverageEstimator estimator(
      std::move(db),
      memstress::estimator::PopulationModel::calibrate(config.layout_rows,
                                                       config.layout_cols),
      config.fab, config.mtj_fab);
  return estimator.table1({512, 64, 8, 1}).to_csv();
}

std::shared_ptr<const memstress::server::MemstressService> make_service(
    std::shared_ptr<const DetectabilityDb> db,
    const memstress::server::ServiceInfo& info) {
  const memstress::core::PipelineConfig config = flow_config();
  const memstress::core::StressEvaluationPipeline pipeline(config);
  return std::make_shared<const memstress::server::MemstressService>(
      std::move(db),
      memstress::estimator::PopulationModel::calibrate(config.layout_rows,
                                                       config.layout_cols),
      config.fab, pipeline.make_sampler(), info, config.mtj_fab);
}

memstress::server::Request to_request(const Item& item, long long id) {
  memstress::server::Request request;
  request.id = id;
  request.type = item.type;
  request.params = Json::parse(item.params);
  return request;
}

std::string request_line(const Item& item, long long id) {
  std::string line = "{\"v\":1,\"id\":";
  line += std::to_string(id);
  line += ",\"type\":\"";
  line += item.type;
  line += "\",\"params\":";
  line += item.params;
  line += '}';
  return line;
}

void compute_expected(const memstress::server::MemstressService& service,
                      std::vector<Item>& items, int threads) {
  // Identical requests (serve_cold's study shards repeat) are computed once.
  std::map<std::string, std::size_t> first;
  std::vector<std::size_t> unique;
  for (std::size_t i = 0; i < items.size(); ++i)
    if (!items[i].has_expected &&
        first.emplace(items[i].type + items[i].params, i).second)
      unique.push_back(i);
  const memstress::server::RequestContext context;
  memstress::parallel_for(
      unique.size(),
      [&](std::size_t u) {
        Item& item = items[unique[u]];
        item.expected = service.handle(to_request(item, 0), context).dump();
        item.has_expected = true;
      },
      threads);
  for (Item& item : items)
    if (!item.has_expected) {
      item.expected = items[first.at(item.type + item.params)].expected;
      item.has_expected = true;
    }
}

Item detectability_item(const DetectabilityDb& db, Rng& rng) {
  const auto& entries = db.entries();
  const auto& e = entries[rng.below(entries.size())];
  Json params = Json::object();
  params.set("kind", Json(e.kind == memstress::defects::DefectKind::Open ? "open"
                                                                         : "bridge"));
  params.set("category", Json(e.category));
  params.set("resistance", Json(e.resistance * rng.uniform(0.5, 2.0)));
  params.set("vdd", Json(e.vdd));
  params.set("period", Json(e.period));
  if (e.vbd > 0.0) params.set("vbd", Json(e.vbd));
  return Item{"detectability", params.dump(), "", false};
}

Item coverage_item(int x_rows, int y_columns, int bits_per_word, int z_blocks) {
  Json geometry = Json::object();
  geometry.set("x_rows", Json(x_rows));
  geometry.set("y_columns", Json(y_columns));
  geometry.set("bits_per_word", Json(bits_per_word));
  geometry.set("z_blocks", Json(z_blocks));
  Json params = Json::object();
  params.set("geometry", std::move(geometry));
  return Item{"coverage", params.dump(), "", false};
}

Item random_coverage_item(Rng& rng) {
  return coverage_item(static_cast<int>(4 + rng.below(4093)),
                       static_cast<int>(1 + rng.below(1024)),
                       static_cast<int>(1 + rng.below(64)),
                       static_cast<int>(1 + rng.below(16)));
}

Item schedule_item(std::uint64_t seed) {
  // 1000 Monte-Carlo defects instead of the default 4000: a quarter of the
  // default cost, so one schedule does not stall a worker for 140 ms.
  Json params = Json::object();
  params.set("monte_carlo_defects", Json(1000));
  params.set("seed", Json(static_cast<long long>(seed)));
  return Item{"schedule", params.dump(), "", false};
}

Item dpm_item(double yield, double defect_coverage) {
  Json params = Json::object();
  params.set("yield", Json(yield));
  params.set("defect_coverage", Json(defect_coverage));
  return Item{"dpm", params.dump(), "", false};
}

Item study_shard_item(std::uint64_t study_seed, int shard,
                      const std::string& db_crc) {
  // Shaped like the coordinator's shards: 11000 devices cut into 2048-device
  // ranges, serial workers, the database CRC attached.
  memstress::study::StudyConfig config;
  config.device_count = 11000;
  config.seed = study_seed;
  config.threads = 1;
  const long begin = 2048L * shard;
  Json params = Json::object();
  params.set("config", memstress::server::study_config_to_json(config));
  params.set("begin", Json(begin));
  params.set("end", Json(std::min(begin + 2048L, config.device_count)));
  params.set("db_crc", Json(db_crc));
  return Item{"study_shard", params.dump(), "", false};
}

std::string db_crc_of(const DetectabilityDb& db) {
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", memstress::checkpoint::crc32(db.to_csv()));
  return crc;
}

std::vector<std::size_t> shuffled_deck(const std::vector<double>& shares,
                                       std::size_t count, Rng& rng) {
  std::vector<std::size_t> deck;
  deck.reserve(count);
  double cumulative = 0.0;
  for (std::size_t kind = 0; kind < shares.size(); ++kind) {
    cumulative += shares[kind];
    const std::size_t until =
        kind + 1 == shares.size()
            ? count
            : static_cast<std::size_t>(std::llround(cumulative * static_cast<double>(count)));
    while (deck.size() < std::min(until, count)) deck.push_back(kind);
  }
  for (std::size_t i = deck.size(); i > 1; --i) std::swap(deck[i - 1], deck[rng.below(i)]);
  return deck;
}

std::vector<Item> cold_items(const DetectabilityDb& db, ColdMix& mix, Rng& rng,
                             std::size_t count) {
  // Exactly 25% detectability, 15% coverage, 55% study_shard and 5%
  // schedule requests, in seeded random order. The schedule share is
  // bench_soak's share of never-repeated schedules; the others put the
  // median on study_shard and p99 on schedule (perfbench/README.md gives
  // the reasons). Coverage geometries and schedule seeds never repeat, so
  // every cacheable request misses the result cache.
  std::vector<Item> items;
  items.reserve(count);
  for (const std::size_t kind : shuffled_deck({0.25, 0.15, 0.55, 0.05}, count, rng)) {
    Item item;
    do {
      switch (kind) {
        case 0: item = detectability_item(db, rng); break;
        case 1: item = random_coverage_item(rng); break;
        case 2:
          item = study_shard_item(mix.study_seed, static_cast<int>(rng.below(6)),
                                  mix.db_crc);
          break;
        default: item = schedule_item(rng.below(1ULL << 52)); break;
      }
    } while ((kind == 1 || kind == 3) && !mix.used.emplace(item.type + item.params, 1).second);
    items.push_back(std::move(item));
  }
  return items;
}

namespace {

long long report_counter(const memstress::metrics::RunReport& report,
                         const std::string& name) {
  for (const auto& c : report.counters)
    if (c.name == name) return c.value;
  return 0;
}

double span_total(const std::vector<memstress::metrics::SpanValue>& spans,
                  const char* name) {
  double total = 0.0;
  for (const auto& s : spans) {
    if (s.name == name) total += s.total_s;
    total += span_total(s.children, name);
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void set_library_layers(const memstress::metrics::RunReport& report, int threads,
                        double database_s, RunResult& result) {
  const auto count = [&report](const char* name) {
    return static_cast<double>(report_counter(report, name));
  };
  const double busy = span_total(report.spans, "tester.run_march_analog_batch");
  const double groups = count("analog.batch_groups");
  const double newton = count("analog.newton_iterations");
  const double steps = count("analog.steps");
  const double refactor = count("analog.refactorizations");
  const double avoided = count("analog.refactor_avoided");
  result.set("characterize.busy_s", busy);
  result.set("characterize.idle_s", threads * database_s - busy);
  result.set("characterize.groups", groups);
  result.set("characterize.lanes_per_group", ratio(count("analog.batch_lanes"), groups));
  result.set("analog.steps", steps);
  result.set("analog.newton_iterations", newton);
  result.set("analog.newton_per_step", ratio(newton, steps));
  result.set("analog.refactorizations", refactor);
  result.set("analog.refactor_avoided_rate", ratio(avoided, avoided + refactor));
  result.set("analog.halvings", count("analog.halvings"));
  result.set("analog.lane_ejections", count("analog.lane_ejections"));
  result.set("analog.us_per_newton", 1e6 * ratio(busy, newton));
  result.set("tester.analog_cycles", count("tester.analog_cycles"));
  result.set("tester.rescue_runs", count("tester.rescue_runs"));
  result.set("robust.retries", count("robust.retries"));
  result.set("robust.quarantined_points", count("robust.quarantined_points"));
}

namespace {

struct Lookup {
  memstress::defects::DefectKind kind;
  int category;
  double resistance, vdd, period, vbd;
};

/// Median wall time of handle() over the first `limit` items of `type`.
double handle_ms(const memstress::server::MemstressService& service,
                 const std::vector<Item>& items, const std::string& type,
                 std::size_t limit, SpanRecorder& spans, std::int64_t parent) {
  const memstress::server::RequestContext context;
  std::vector<double> ms;
  for (std::size_t i = 0; i < items.size() && ms.size() < limit; ++i) {
    if (items[i].type != type) continue;
    const memstress::server::Request request =
        to_request(items[i], static_cast<long long>(i));
    const Clock::time_point t0 = Clock::now();
    const Json result = service.handle(request, context);
    const Clock::time_point t1 = Clock::now();
    spans.add("replay." + type, parent, static_cast<std::int64_t>(i), t0, t1);
    ms.push_back(1e3 * seconds_between(t0, t1));
  }
  return median(ms);
}

}  // namespace

void probe_layers(const memstress::server::MemstressService& service,
                  const std::vector<Item>& items, SpanRecorder& spans,
                  RunResult& result) {
  const ScopedSpan probe(spans, "probe_layers");
  const DetectabilityDb& db = service.db();

  // estimator: DetectabilityDb::detected over the workload's lookups.
  std::vector<Lookup> lookups;
  for (const Item& item : items) {
    if (item.type != "detectability") continue;
    const Json p = Json::parse(item.params);
    lookups.push_back({p.at("kind").as_string() == "open"
                           ? memstress::defects::DefectKind::Open
                           : memstress::defects::DefectKind::Bridge,
                       static_cast<int>(p.at("category").as_number()),
                       p.at("resistance").as_number(), p.at("vdd").as_number(),
                       p.at("period").as_number(), p.number_or("vbd", 0.0)});
  }
  double lookup_ns = 0.0;
  if (!lookups.empty()) {
    const ScopedSpan span(spans, "estimator.detected", probe.index());
    long long calls = 0, detected = 0;
    const Clock::time_point t0 = Clock::now();
    while (calls < 20000 || seconds_between(t0, Clock::now()) < 0.02) {
      for (const Lookup& q : lookups)
        detected += db.detected(q.kind, q.category, q.resistance, q.vdd,
                                q.period, q.vbd);
      calls += static_cast<long long>(lookups.size());
    }
    lookup_ns = 1e9 * seconds_between(t0, Clock::now()) / static_cast<double>(calls);
    keep(detected);
  }
  result.set("estimator.lookup_ns", lookup_ns);

  // service handlers, one request at a time, no sockets and no cache.
  result.set("service.schedule_ms", handle_ms(service, items, "schedule", 8, spans, probe.index()));
  result.set("service.coverage_ms", handle_ms(service, items, "coverage", 64, spans, probe.index()));
  result.set("service.study_shard_ms", handle_ms(service, items, "study_shard", 16, spans, probe.index()));

  // study: the db_crc check recomputes the CRC of the whole CSV per shard.
  {
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      const ScopedSpan span(spans, "study.crc", probe.index());
      const Clock::time_point t0 = Clock::now();
      const std::string crc = db_crc_of(db);
      ms.push_back(1e3 * seconds_between(t0, Clock::now()));
      keep(static_cast<long long>(crc.size()));
    }
    result.set("study.crc_ms", median(ms));
  }

  // protocol: parse_request on the workload's lines, and the response
  // envelope around its payloads.
  {
    std::vector<std::string> lines;
    std::vector<const std::string*> payloads;
    for (std::size_t i = 0; i < items.size() && lines.size() < 4096; ++i) {
      lines.push_back(request_line(items[i], static_cast<long long>(i + 1)));
      if (items[i].has_expected) payloads.push_back(&items[i].expected);
    }
    const ScopedSpan span(spans, "protocol", probe.index());
    long long parsed = 0;
    const Clock::time_point t0 = Clock::now();
    while (parsed < 2000 || seconds_between(t0, Clock::now()) < 0.02) {
      for (const std::string& line : lines)
        parsed += memstress::server::parse_request(line).id > 0;
    }
    result.set("protocol.parse_us", 1e6 * seconds_between(t0, Clock::now()) / static_cast<double>(parsed));
    double serialize_us = 0.0;
    if (!payloads.empty()) {
      long long made = 0;
      std::size_t bytes = 0;
      const Clock::time_point t1 = Clock::now();
      while (made < 2000 || seconds_between(t1, Clock::now()) < 0.02) {
        for (const std::string* payload : payloads)
          bytes += memstress::server::make_response_from_payload(++made, *payload)
                       .size();
      }
      serialize_us =
          1e6 * seconds_between(t1, Clock::now()) / static_cast<double>(made);
      keep(static_cast<long long>(bytes));
    }
    result.set("protocol.serialize_us", serialize_us);
  }
}

}  // namespace perfbench
