// Serving-layer result cache: repeat traffic must come back byte-identical
// to direct computation (hit, miss or coalesced), and the single-flight
// path must compute exactly once under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server_test_util.hpp"
#include "util/metrics.hpp"

namespace memstress::server {
namespace {

const char* kScheduleLine =
    "{\"v\":1,\"id\":1,\"type\":\"schedule\",\"params\":"
    "{\"cells\":4096,\"monte_carlo_defects\":500,\"seed\":42}}";

TEST(ServerCache, RepeatRequestIsServedFromCacheByteIdentical) {
  TestServer fixture;
  const std::string expected = fixture.expected_response(kScheduleLine);
  Client client(fixture.client_config());

  EXPECT_EQ(client.roundtrip(kScheduleLine), expected);  // cold: computes
  EXPECT_EQ(client.roundtrip(kScheduleLine), expected);  // hot: cache hit

  const auto stats = fixture.service->cache().stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  fixture.server.stop();
}

TEST(ServerCache, AllCacheableTypesAreCached) {
  TestServer fixture;
  const std::vector<std::string> lines = {
      "{\"v\":1,\"id\":1,\"type\":\"coverage\",\"params\":"
      "{\"geometry\":{\"x_rows\":128,\"y_columns\":32,\"bits_per_word\":4}}}",
      "{\"v\":1,\"id\":2,\"type\":\"dpm\",\"params\":"
      "{\"yield\":0.95,\"defect_coverage\":0.99}}",
      kScheduleLine,
  };
  Client client(fixture.client_config());
  for (const auto& line : lines) {
    const std::string expected = fixture.expected_response(line);
    EXPECT_EQ(client.roundtrip(line), expected);
    EXPECT_EQ(client.roundtrip(line), expected);
  }
  const auto stats = fixture.service->cache().stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.hits, 3);
  fixture.server.stop();
}

TEST(ServerCache, NonCacheableTypesBypassTheCache) {
  TestServer fixture;
  Client client(fixture.client_config());
  const std::string health = "{\"v\":1,\"id\":1,\"type\":\"health\"}";
  EXPECT_EQ(client.roundtrip(health), fixture.expected_response(health));
  EXPECT_EQ(client.roundtrip(health), fixture.expected_response(health));
  const auto stats = fixture.service->cache().stats();
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.hits, 0);
  fixture.server.stop();
}

TEST(ServerCache, CacheEntriesZeroDisablesCachingButStaysCorrect) {
  ServerConfig config;
  config.cache_entries = 0;
  TestServer fixture(config);
  EXPECT_FALSE(fixture.service->cache().cache_enabled());
  const std::string expected = fixture.expected_response(kScheduleLine);
  Client client(fixture.client_config());
  EXPECT_EQ(client.roundtrip(kScheduleLine), expected);
  EXPECT_EQ(client.roundtrip(kScheduleLine), expected);
  const auto stats = fixture.service->cache().stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  fixture.server.stop();
}

TEST(ServerCache, TinyCapacityEvictsButNeverAnswersWrong) {
  ServerConfig config;
  config.cache_entries = 1;
  TestServer fixture(config);
  const std::string a =
      "{\"v\":1,\"id\":1,\"type\":\"dpm\",\"params\":"
      "{\"yield\":0.95,\"defect_coverage\":0.99}}";
  const std::string b =
      "{\"v\":1,\"id\":2,\"type\":\"dpm\",\"params\":"
      "{\"yield\":0.9,\"defect_coverage\":0.95}}";
  const std::string expected_a = fixture.expected_response(a);
  const std::string expected_b = fixture.expected_response(b);
  Client client(fixture.client_config());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.roundtrip(a), expected_a);
    EXPECT_EQ(client.roundtrip(b), expected_b);
  }
  const auto stats = fixture.service->cache().stats();
  EXPECT_GE(stats.evictions, 1);
  EXPECT_EQ(stats.hits, 0);  // each miss evicted the other entry
  EXPECT_EQ(stats.misses, 8);
  fixture.server.stop();
}

TEST(ServerCache, SingleFlightComputesOnceAcrossThreads) {
  // Service-level, no sockets: K threads ask for the identical schedule
  // concurrently; the cache must run the optimizer exactly once.
  auto service = make_test_service(ServiceInfo{4, 64, 1024});
  const Request request = parse_request(kScheduleLine);
  const std::string expected = service->handle(request, {}).dump();

  constexpr int kThreads = 8;
  std::atomic<int> started{0};
  std::atomic<long> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      if (service->handle_serialized(request, {}) != expected)
        wrong.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0);
  const auto stats = service->cache().stats();
  EXPECT_EQ(stats.misses, 1) << "exactly one compute for K identical requests";
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
}

TEST(ServerCache, MetricsRequestSurfacesCacheCounters) {
  memstress::metrics::set_enabled(true);
  memstress::metrics::reset();
  {
    TestServer fixture;
    Client client(fixture.client_config());
    client.roundtrip(kScheduleLine);
    client.roundtrip(kScheduleLine);
    const Json result = client.request("metrics");
    const Json& counters = result.at("counters");
    ASSERT_NE(counters.find("server.cache_misses"), nullptr);
    EXPECT_EQ(counters.at("server.cache_misses").as_number(), 1.0);
    ASSERT_NE(counters.find("server.cache_hits"), nullptr);
    EXPECT_EQ(counters.at("server.cache_hits").as_number(), 1.0);
    fixture.server.stop();
  }
  memstress::metrics::reset();
  memstress::metrics::set_enabled(false);
}

TEST(ServerCache, HealthReportsCacheConfiguration) {
  TestServer fixture;
  Client client(fixture.client_config());
  const Json health = client.request("health");
  EXPECT_EQ(health.at("cache_entries").as_number(), 1024.0);
  fixture.server.stop();
}

// ---------------------------------------------------------------------------
// CacheParallel: the TSan gate. Many clients, repeat + distinct traffic,
// worker pools of 1 / 2 / 8 — every response byte-identical, stats
// conserved.

class CacheParallel : public ::testing::TestWithParam<int> {};

TEST_P(CacheParallel, CachedTrafficIsByteIdenticalAtEveryWorkerCount) {
  ServerConfig config;
  config.workers = GetParam();
  TestServer fixture(config);

  const std::vector<std::string> lines = {
      kScheduleLine,
      "{\"v\":1,\"id\":2,\"type\":\"dpm\",\"params\":"
      "{\"yield\":0.95,\"defect_coverage\":0.99}}",
      "{\"v\":1,\"id\":3,\"type\":\"health\"}",
      "{\"v\":1,\"id\":4,\"type\":\"coverage\",\"params\":"
      "{\"geometry\":{\"x_rows\":128,\"y_columns\":32,\"bits_per_word\":4}}}",
  };
  std::vector<std::string> expected;
  for (const auto& line : lines)
    expected.push_back(fixture.expected_response(line));

  constexpr int kClients = 6;
  constexpr int kRounds = 8;
  std::atomic<long> mismatches{0};
  std::atomic<long> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client(fixture.client_config());
        for (int r = 0; r < kRounds; ++r) {
          const std::size_t pick =
              static_cast<std::size_t>(c + r) % lines.size();
          if (client.roundtrip(lines[pick]) != expected[pick])
            mismatches.fetch_add(1);
        }
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  const auto stats = fixture.service->cache().stats();
  // Three distinct cacheable lines in the mix (schedule, dpm, coverage):
  // at most a compute per key — coalescing may fold concurrent cold calls
  // into fewer misses, never more than one per key once warmed.
  EXPECT_GE(stats.misses, 1);
  EXPECT_LE(stats.misses, 3);
  EXPECT_GT(stats.hits + stats.coalesced, 0);
  fixture.server.stop();
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, CacheParallel,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace memstress::server
