// MemstressService: the request handlers behind memstressd, with no
// sockets in sight.
//
// One service instance is shared by every worker thread. That is safe
// because everything it holds is immutable after construction: the
// detectability database (lookups go through the lazily built index, which
// is thread-safe), the population model, the fab model and the defect
// sampler are all const-queried. Handlers that need randomness (schedule)
// seed a local Rng from the request, so two identical requests — or the
// same request served by different workers — produce byte-identical
// payloads. Tests lean on that: they call handle() directly and compare
// the serialized result against what came over the wire.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "defects/sampler.hpp"
#include "estimator/coverage.hpp"
#include "estimator/detectability.hpp"
#include "server/protocol.hpp"
#include "util/cancel.hpp"
#include "util/lru.hpp"

namespace memstress::server {

/// Static facts reported by the `health` handler (the service cannot know
/// them itself; the server passes its resolved configuration in), plus the
/// serving knob the service owns: the result-cache capacity.
struct ServiceInfo {
  int workers = 0;
  int queue_depth = 0;
  /// Result-cache entries across all shards (MEMSTRESS_CACHE_ENTRIES);
  /// 0 disables caching entirely.
  int cache_entries = 1024;
};

/// Per-request execution context: cooperative cancellation (server
/// shutdown / SIGINT) and the request deadline. Handlers that can run long
/// check both; the server reports a `timeout` error when the deadline was
/// exceeded by the time the handler returns.
struct RequestContext {
  const CancelToken* cancel = nullptr;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  bool cancelled() const { return cancel::requested(cancel); }
  bool past_deadline() const {
    return std::chrono::steady_clock::now() >= deadline;
  }
};

class MemstressService {
 public:
  /// mtj_fab feeds the estimator's MTJ columns when `db` was characterized
  /// by the stt_mram backend; the default model matches the library default,
  /// so sram6t/undervolt deployments never need to pass it.
  MemstressService(std::shared_ptr<const estimator::DetectabilityDb> db,
                   estimator::PopulationModel population,
                   defects::FabModel fab, defects::DefectSampler sampler,
                   ServiceInfo info = {}, defects::MtjFabModel mtj_fab = {});

  /// Dispatch one request to its handler and return the result document.
  /// Throws ProtocolError for unknown types / bad params (-> "bad_request")
  /// and Error for library failures (-> "internal"). Always computes
  /// directly — the result cache lives in handle_serialized(); tests use
  /// this as the cache-independent ground truth.
  Json handle(const Request& request, const RequestContext& context) const;

  /// The serving path: returns handle(request, context).dump(), serving
  /// `coverage`/`dpm`/`schedule` through the result cache (keyed by the
  /// canonical serialized params, single-flight on concurrent misses). The
  /// returned payload is byte-identical to direct computation whether it was
  /// a hit, a miss or a coalesced wait.
  std::string handle_serialized(const Request& request,
                                const RequestContext& context) const;

  const estimator::DetectabilityDb& db() const { return *db_; }

  /// The result cache (read-only view for tests, the bench and `health`).
  const ShardedLruCache& cache() const { return cache_; }

  // Individual handlers (public so tests can pin each one).
  Json coverage(const Json& params) const;
  Json dpm(const Json& params) const;
  Json schedule(const Json& params) const;
  Json detectability(const Json& params) const;
  Json metrics() const;
  Json health() const;
  /// Distributed worker half: characterize grid points [begin, end) of the
  /// canonical grid for the spec in params ("spec"/"begin"/"end") and
  /// return positional verdicts. Honours the request context so a draining
  /// server cancels the sweep. Never cached — a shard is executed work, not
  /// a lookup.
  Json characterize_range(const Json& params,
                          const RequestContext& context) const;
  /// Distributed worker half of the Monte-Carlo study: evaluate devices
  /// [begin, end) against this service's database and return packed
  /// outcome masks. params carries "config"/"begin"/"end" and optionally
  /// "db_crc" — the CRC32 of the coordinator's DetectabilityDb CSV; a
  /// mismatch is a bad_request, catching a worker loaded with the wrong
  /// database before it silently skews the tallies.
  Json study_shard(const Json& params, const RequestContext& context) const;
  /// Test/diagnostic helper: sleeps up to params.ms milliseconds in small
  /// slices, stopping early at cancellation or the deadline. Exists so the
  /// backpressure, timeout and drain paths are testable without a slow
  /// "real" request; not part of the documented API.
  Json sleep_ms(const Json& params, const RequestContext& context) const;

 private:
  /// Enforce the optional "technology" request field: when present it must
  /// name the technology of the database this node serves, otherwise the
  /// request is a bad_request. Absent = caller takes whatever the node has
  /// (the pre-technology protocol), so old clients keep working.
  void require_technology(const Json& params) const;

  std::shared_ptr<const estimator::DetectabilityDb> db_;
  estimator::FaultCoverageEstimator estimator_;
  defects::DefectSampler sampler_;
  ServiceInfo info_;
  /// Result cache for the pure request types. Logically const: a cache
  /// never changes what the service answers, only how fast — the service is
  /// shared as shared_ptr<const> across workers and handle() stays const.
  mutable ShardedLruCache cache_;
};

}  // namespace memstress::server
