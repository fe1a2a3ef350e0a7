#include "server/service.hpp"

#include <cmath>
#include <cstdio>
#include <thread>

#include "estimator/dpm.hpp"
#include "estimator/schedule.hpp"
#include "layout/critical_area.hpp"
#include "server/shard_codec.hpp"
#include "study/study.hpp"
#include "util/checkpoint.hpp"
#include "util/metrics.hpp"

namespace memstress::server {

using estimator::EstimatorReport;
using estimator::MemoryGeometry;

MemstressService::MemstressService(
    std::shared_ptr<const estimator::DetectabilityDb> db,
    estimator::PopulationModel population, defects::FabModel fab,
    defects::DefectSampler sampler, ServiceInfo info,
    defects::MtjFabModel mtj_fab)
    : db_(std::move(db)),
      estimator_(db_, std::move(population), fab, mtj_fab),
      sampler_(std::move(sampler)),
      info_(info),
      cache_(info.cache_entries > 0
                 ? static_cast<std::size_t>(info.cache_entries)
                 : 0,
             /*shards=*/0, "server.cache") {}

namespace {

MemoryGeometry parse_geometry(const Json& params) {
  MemoryGeometry geometry;
  if (const Json* g = params.find("geometry")) {
    geometry.x_rows = static_cast<int>(g->int_or("x_rows", geometry.x_rows));
    geometry.y_columns =
        static_cast<int>(g->int_or("y_columns", geometry.y_columns));
    geometry.bits_per_word =
        static_cast<int>(g->int_or("bits_per_word", geometry.bits_per_word));
    geometry.z_blocks =
        static_cast<int>(g->int_or("z_blocks", geometry.z_blocks));
  }
  if (geometry.x_rows < 4 || geometry.y_columns < 1 ||
      geometry.bits_per_word < 1 || geometry.z_blocks < 1)
    throw ProtocolError("geometry out of range (need x_rows >= 4 and "
                        "positive y_columns/bits_per_word/z_blocks)");
  return geometry;
}

Json geometry_to_json(const MemoryGeometry& geometry) {
  Json out = Json::object();
  out.set("x_rows", Json(geometry.x_rows));
  out.set("y_columns", Json(geometry.y_columns));
  out.set("bits_per_word", Json(geometry.bits_per_word));
  out.set("z_blocks", Json(geometry.z_blocks));
  return out;
}

Json report_to_json(const EstimatorReport& report) {
  Json bins = Json::array();
  for (const double r : report.resistance_bins) bins.push_back(Json(r));
  Json rows = Json::array();
  for (const auto& row : report.rows) {
    Json r = Json::object();
    r.set("label", Json(row.label));
    r.set("vdd", Json(row.vdd));
    Json fc = Json::array();
    for (const double value : row.fc_by_resistance) fc.push_back(Json(value));
    r.set("fc_by_resistance", std::move(fc));
    r.set("defect_coverage", Json(row.defect_coverage));
    r.set("dpm", Json(row.dpm_value));
    r.set("dpm_ratio", Json(row.dpm_ratio));
    r.set("defect_coverage_lo", Json(row.defect_coverage_lo));
    r.set("defect_coverage_hi", Json(row.defect_coverage_hi));
    r.set("dpm_lo", Json(row.dpm_lo));
    r.set("dpm_hi", Json(row.dpm_hi));
    rows.push_back(std::move(r));
  }
  Json out = Json::object();
  out.set("yield", Json(report.yield));
  out.set("quarantined", Json(report.quarantined));
  out.set("resistance_bins", std::move(bins));
  out.set("rows", std::move(rows));
  return out;
}

defects::DefectKind parse_kind(const Json& params) {
  const std::string kind = params.at("kind").as_string();
  if (kind == "bridge") return defects::DefectKind::Bridge;
  if (kind == "open") return defects::DefectKind::Open;
  if (kind == "mtj") return defects::DefectKind::Mtj;
  throw ProtocolError("\"kind\" must be \"bridge\", \"open\" or \"mtj\"");
}

}  // namespace

void MemstressService::require_technology(const Json& params) const {
  const Json* technology = params.find("technology");
  if (!technology) return;
  tech::Technology requested;
  try {
    requested = tech::parse_technology(technology->as_string());
  } catch (const Error& e) {
    throw ProtocolError(std::string("bad \"technology\": ") + e.what());
  }
  if (requested != db_->technology())
    throw ProtocolError(
        "this node serves a \"" +
        std::string(tech::technology_name(db_->technology())) +
        "\" detectability database, request asked for \"" +
        std::string(tech::technology_name(requested)) + "\"");
}

Json MemstressService::coverage(const Json& params) const {
  require_technology(params);
  const MemoryGeometry geometry = parse_geometry(params);
  const double vlv_period = params.number_or("vlv_period", 100e-9);
  const double production_period =
      params.number_or("production_period", 25e-9);
  if (vlv_period <= 0.0 || production_period <= 0.0)
    throw ProtocolError("periods must be positive");
  const EstimatorReport report =
      estimator_.table1(geometry, vlv_period, production_period);
  Json out = report_to_json(report);
  out.set("geometry", geometry_to_json(geometry));
  return out;
}

Json MemstressService::dpm(const Json& params) const {
  const double yield = params.at("yield").as_number();
  const double defect_coverage = params.at("defect_coverage").as_number();
  if (yield <= 0.0 || yield > 1.0)
    throw ProtocolError("\"yield\" must be in (0, 1]");
  if (defect_coverage < 0.0 || defect_coverage > 1.0)
    throw ProtocolError("\"defect_coverage\" must be in [0, 1]");
  Json out = Json::object();
  out.set("yield", Json(yield));
  out.set("defect_coverage", Json(defect_coverage));
  out.set("escape_fraction",
          Json(estimator::williams_brown_escape(yield, defect_coverage)));
  out.set("dpm", Json(estimator::dpm(yield, defect_coverage)));
  return out;
}

Json MemstressService::schedule(const Json& params) const {
  require_technology(params);
  estimator::ScheduleSpec spec;
  spec.cells = params.int_or("cells", spec.cells);
  spec.yield = params.number_or("yield", spec.yield);
  spec.target_dpm = params.number_or("target_dpm", spec.target_dpm);
  spec.monte_carlo_defects = static_cast<int>(
      params.int_or("monte_carlo_defects", spec.monte_carlo_defects));
  spec.seed = static_cast<std::uint64_t>(
      params.int_or("seed", static_cast<long long>(spec.seed)));
  if (spec.cells <= 0 || spec.yield <= 0.0 || spec.yield > 1.0 ||
      spec.monte_carlo_defects <= 0 || spec.monte_carlo_defects > 1000000)
    throw ProtocolError("schedule spec out of range");
  const estimator::Schedule best = estimator::optimize_schedule(
      estimator::standard_legs(), *db_, sampler_, spec);
  Json legs = Json::array();
  for (const auto& leg : best.legs) {
    Json l = Json::object();
    l.set("name", Json(leg.name));
    l.set("vdd", Json(leg.at.vdd));
    l.set("period", Json(leg.at.period));
    l.set("march_complexity", Json(leg.march_complexity));
    legs.push_back(std::move(l));
  }
  Json out = Json::object();
  out.set("legs", std::move(legs));
  out.set("escape_fraction", Json(best.escape_fraction));
  out.set("dpm", Json(best.dpm));
  out.set("test_time_per_cell", Json(best.test_time_per_cell));
  out.set("description", Json(best.describe()));
  return out;
}

namespace {

/// "category" is either the enum index or the enum name the CSV cache and
/// run reports print (e.g. "CellTrueFalse", "Wordline").
int parse_category(const Json& params, defects::DefectKind kind) {
  const Json& value = params.at("category");
  if (value.type() != Json::Type::String)
    return static_cast<int>(value.as_number());
  const std::string& name = value.as_string();
  int count = 0;
  switch (kind) {
    case defects::DefectKind::Bridge:
      count = static_cast<int>(layout::BridgeCategory::Other) + 1;
      break;
    case defects::DefectKind::Open:
      count = static_cast<int>(layout::OpenCategory::Other) + 1;
      break;
    case defects::DefectKind::Mtj:
      count = static_cast<int>(defects::MtjFaultCategory::ReadDisturb) + 1;
      break;
  }
  for (int i = 0; i < count; ++i) {
    const char* candidate = nullptr;
    switch (kind) {
      case defects::DefectKind::Bridge:
        candidate =
            layout::bridge_category_name(static_cast<layout::BridgeCategory>(i));
        break;
      case defects::DefectKind::Open:
        candidate =
            layout::open_category_name(static_cast<layout::OpenCategory>(i));
        break;
      case defects::DefectKind::Mtj:
        candidate =
            defects::mtj_category_name(static_cast<defects::MtjFaultCategory>(i));
        break;
    }
    if (name == candidate) return i;
  }
  throw ProtocolError("unknown category \"" + name + "\"");
}

}  // namespace

Json MemstressService::detectability(const Json& params) const {
  require_technology(params);
  const defects::DefectKind kind = parse_kind(params);
  const int category = parse_category(params, kind);
  const double resistance = params.at("resistance").as_number();
  const double vdd = params.at("vdd").as_number();
  const double period = params.at("period").as_number();
  const double vbd = params.number_or("vbd", 0.0);
  if (resistance <= 0.0 || vdd <= 0.0 || period <= 0.0)
    throw ProtocolError("resistance/vdd/period must be positive");
  Json out = Json::object();
  out.set("detected",
          Json(db_->detected(kind, category, resistance, vdd, period, vbd)));
  return out;
}

Json MemstressService::metrics() const {
  // RunReport already serializes itself; round-trip through the parser so
  // the payload is a structured result object, not a quoted string.
  return Json::parse(memstress::metrics::collect().to_json());
}

Json MemstressService::health() const {
  Json out = Json::object();
  out.set("status", Json("ok"));
  out.set("protocol_version", Json(kProtocolVersion));
  out.set("technology", Json(tech::technology_name(db_->technology())));
  out.set("db_entries", Json(db_->size()));
  out.set("quarantined", Json(db_->quarantine().size()));
  out.set("conditions", Json(db_->conditions().size()));
  out.set("workers", Json(info_.workers));
  out.set("queue_depth", Json(info_.queue_depth));
  // Static serving knobs only: live cache occupancy/stats would make two
  // health responses differ byte-for-byte across time, breaking the
  // byte-identity invariant the tests pin. Live numbers go through the
  // `metrics` request instead (server.cache_* counters).
  out.set("cache_entries", Json(cache_.capacity()));
  return out;
}

Json MemstressService::sleep_ms(const Json& params,
                                const RequestContext& context) const {
  const long long ms = params.int_or("ms", 0);
  if (ms < 0 || ms > 60000) throw ProtocolError("\"ms\" must be in [0, 60000]");
  const auto start = std::chrono::steady_clock::now();
  const auto until = start + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
    if (context.cancelled() || context.past_deadline()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Json out = Json::object();
  out.set("slept_ms",
          Json(std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count()));
  return out;
}

namespace {

/// Validate the "begin"/"end" fields of a shard request against the size of
/// the sharded domain. Both must be non-negative integers with
/// begin <= end <= limit; anything else is a structured bad_request.
std::pair<std::size_t, std::size_t> shard_bounds(const Json& params,
                                                 std::size_t limit,
                                                 const char* what) {
  const double begin_raw = params.at("begin").as_number();
  const double end_raw = params.at("end").as_number();
  if (begin_raw < 0.0 || end_raw < begin_raw ||
      begin_raw != std::floor(begin_raw) || end_raw != std::floor(end_raw))
    throw ProtocolError(
        "\"begin\"/\"end\" must be integers with 0 <= begin <= end");
  if (end_raw > static_cast<double>(limit))
    throw ProtocolError("shard [" + format_number(begin_raw) + ", " +
                        format_number(end_raw) + ") out of bounds for " +
                        std::to_string(limit) + " " + what);
  return {static_cast<std::size_t>(begin_raw),
          static_cast<std::size_t>(end_raw)};
}

}  // namespace

Json MemstressService::characterize_range(const Json& params,
                                          const RequestContext& context) const {
  static metrics::Counter& shards =
      metrics::counter("server.characterize_shards");
  shards.add(1);
  estimator::CharacterizeSpec spec =
      characterize_spec_from_json(params.at("spec"));
  spec.cancel = context.cancel;
  // Enumerating the grid is cheap (no simulation); it bounds-checks the
  // shard and lets the response echo the grid size so the coordinator can
  // cross-check its own enumeration.
  const std::vector<estimator::GridPoint> grid =
      estimator::characterize_grid(spec);
  const auto [begin, end] = shard_bounds(params, grid.size(), "grid points");
  const std::vector<estimator::PointVerdict> verdicts =
      estimator::characterize_range(spec, begin, end);
  // Positional verdict codes (0 escape / 1 detected / 2 quarantined) keep
  // the frame compact; quarantined points carry their reason separately.
  Json verdict_list = Json::array();
  Json quarantine = Json::array();
  for (const estimator::PointVerdict& v : verdicts) {
    verdict_list.push_back(Json(v.quarantined ? 2 : (v.detected ? 1 : 0)));
    if (v.quarantined) {
      Json q = Json::object();
      q.set("index", Json(v.index));
      q.set("attempts", Json(v.attempts));
      q.set("reason", Json(v.reason));
      quarantine.push_back(std::move(q));
    }
  }
  Json out = Json::object();
  out.set("begin", Json(begin));
  out.set("end", Json(end));
  out.set("grid", Json(grid.size()));
  out.set("verdicts", std::move(verdict_list));
  out.set("quarantine", std::move(quarantine));
  return out;
}

Json MemstressService::study_shard(const Json& params,
                                   const RequestContext& context) const {
  static metrics::Counter& shards = metrics::counter("server.study_shards");
  shards.add(1);
  require_technology(params);
  study::StudyConfig config = study_config_from_json(params.at("config"));
  config.cancel = context.cancel;
  const std::string expected = params.string_or("db_crc", "");
  if (!expected.empty()) {
    char actual[16];
    std::snprintf(actual, sizeof actual, "%08x",
                  checkpoint::crc32(db_->to_csv()));
    if (expected != actual)
      throw ProtocolError("database mismatch: this worker serves db_crc " +
                          std::string(actual) + ", coordinator expected " +
                          expected);
  }
  const auto [begin, end] = shard_bounds(
      params, static_cast<std::size_t>(config.device_count), "devices");
  const std::vector<int> masks =
      study::run_study_range(config, *db_, sampler_, begin, end);
  Json mask_list = Json::array();
  for (const int m : masks) mask_list.push_back(Json(m));
  Json out = Json::object();
  out.set("begin", Json(begin));
  out.set("end", Json(end));
  out.set("masks", std::move(mask_list));
  return out;
}

Json MemstressService::handle(const Request& request,
                              const RequestContext& context) const {
  if (request.type == "coverage") return coverage(request.params);
  if (request.type == "dpm") return dpm(request.params);
  if (request.type == "schedule") return schedule(request.params);
  if (request.type == "detectability") return detectability(request.params);
  if (request.type == "metrics") return metrics();
  if (request.type == "health") return health();
  if (request.type == "sleep") return sleep_ms(request.params, context);
  if (request.type == "characterize_range")
    return characterize_range(request.params, context);
  if (request.type == "study_shard")
    return study_shard(request.params, context);
  throw ProtocolError("unknown request type \"" + request.type + "\"");
}

std::string MemstressService::handle_serialized(
    const Request& request, const RequestContext& context) const {
  // Only the pure, deterministic request types are cacheable. metrics and
  // health report live state; sleep exists to be slow; detectability is
  // already a single indexed lookup — caching it would only duplicate the
  // index.
  const bool cacheable = request.type == "coverage" ||
                         request.type == "dpm" || request.type == "schedule";
  if (!cacheable || !cache_.cache_enabled())
    return handle(request, context).dump();
  // Canonical key: the type plus the params exactly as serialized by the
  // deterministic dump(). Two semantically equal requests with different
  // key order hash differently — that only costs a duplicate entry, never
  // a wrong answer.
  std::string key = request.type;
  key += '\0';
  key += request.params.dump();
  return cache_
      .get_or_compute(key, [&] { return handle(request, context).dump(); })
      .value;
}

}  // namespace memstress::server
