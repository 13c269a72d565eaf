// Observability layer tests (ctest label: faults): the metrics registry
// (counter/gauge/histogram snapshots, deterministic JSON), the per-RPC trace
// ring, and end-to-end Testbed runs proving a single xid-keyed span crosses
// client -> proxy -> server and that metrics_json() carries the derived
// figures the benches embed in BENCH_*.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "blob/blob.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "gvfs/testbed.h"
#include "nfs/nfs_client.h"

namespace gvfs {
namespace {

// ---- Registry ---------------------------------------------------------------

TEST(MetricsRegistry, SnapshotIsSortedAcrossInstrumentKinds) {
  metrics::Counter c;
  metrics::Gauge g;
  metrics::Histogram h;
  c.inc(3);
  g.set(7);
  h.observe(1.0);
  h.observe(3.0);

  metrics::Registry r;
  // Registered out of order and across kinds; the snapshot interleaves them
  // sorted by id.
  r.register_histogram("b.hist", &h);
  r.register_counter("c.count", &c);
  r.register_gauge("a.gauge", &g);
  ASSERT_EQ(r.size(), 3u);

  auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "a.gauge");
  EXPECT_EQ(snap[0].second, "7");
  EXPECT_EQ(snap[1].first, "b.hist");
  EXPECT_EQ(snap[2].first, "c.count");
  EXPECT_EQ(snap[2].second, "3");
}

TEST(MetricsRegistry, RenderJsonIsDeterministic) {
  metrics::Counter c;
  c.inc(41);
  c.inc();
  metrics::Registry r;
  r.register_counter("nfs.calls", &c);
  EXPECT_EQ(r.to_json(), "{\"nfs.calls\": 42}");
  // A registry is a live view: bumping the instrument changes the next read.
  c.inc();
  EXPECT_EQ(r.to_json(), "{\"nfs.calls\": 43}");
}

TEST(MetricsRegistry, HistogramJsonCarriesMoments) {
  metrics::Histogram h;
  h.observe(2.0);
  h.observe(4.0);
  std::string j = metrics::histogram_json(h.stat());
  EXPECT_NE(j.find("\"count\": 2"), std::string::npos) << j;
  EXPECT_NE(j.find("\"sum\": 6"), std::string::npos) << j;
  EXPECT_NE(j.find("\"mean\": 3"), std::string::npos) << j;
  EXPECT_NE(j.find("\"min\": 2"), std::string::npos) << j;
  EXPECT_NE(j.find("\"max\": 4"), std::string::npos) << j;
  h.reset();
  EXPECT_EQ(h.stat().count(), 0u);
}

TEST(MetricsRegistry, GaugeTracksLevelNotEvents) {
  metrics::Gauge g;
  g.add(10);
  g.sub(4);
  EXPECT_EQ(g.value(), 6u);
  g.set(100);
  EXPECT_EQ(g.value(), 100u);
  g.reset();
  EXPECT_EQ(g.value(), 0u);
}

// ---- RpcTracer --------------------------------------------------------------

TEST(RpcTracer, NestedSpansCloseInnermostFirst) {
  trace::RpcTracer t(8);
  int ctx = 0;
  t.begin(&ctx, 1, 6, "READ", 100);
  t.annotate(&ctx, "proxy", "block_cache_miss", 150);
  // A nested RPC issued mid-call (e.g. a writeback) stacks on the same
  // process and must not steal the outer span's events.
  t.begin(&ctx, 2, 7, "WRITE", 200);
  t.annotate(&ctx, "server", "drc_insert", 250);
  t.end(&ctx, 300, true);
  t.annotate(&ctx, "proxy", "forward", 350);
  t.end(&ctx, 400, true);

  ASSERT_EQ(t.spans().size(), 2u);
  const auto& inner = t.spans()[0];
  const auto& outer = t.spans()[1];
  EXPECT_EQ(inner.xid, 2u);
  ASSERT_EQ(inner.events.size(), 1u);
  EXPECT_EQ(inner.events[0].tag, "drc_insert");
  EXPECT_EQ(outer.xid, 1u);
  EXPECT_EQ(outer.start, 100);
  EXPECT_EQ(outer.end, 400);
  ASSERT_EQ(outer.events.size(), 2u);
  EXPECT_EQ(outer.events[0].tag, "block_cache_miss");
  EXPECT_EQ(outer.events[1].tag, "forward");
}

TEST(RpcTracer, RingEvictsOldestAndCountsDrops) {
  trace::RpcTracer t(2);
  int ctx = 0;
  for (u32 xid = 1; xid <= 3; ++xid) {
    t.begin(&ctx, xid, 0, "NULL", xid);
    t.end(&ctx, xid + 1, true);
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].xid, 2u);  // span 1 was evicted
  EXPECT_EQ(t.spans()[1].xid, 3u);
  EXPECT_EQ(t.spans_dropped(), 1u);
  t.clear();
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(t.spans_dropped(), 0u);
}

TEST(RpcTracer, AnnotateAndEndWithoutOpenSpanAreNoops) {
  trace::RpcTracer t;
  int ctx = 0;
  t.annotate(&ctx, "proxy", "forward", 10);  // untraced harness traffic
  t.end(&ctx, 20, true);
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(t.spans_dropped(), 0u);
}

TEST(RpcTracer, ToJsonRendersSpanFields) {
  trace::RpcTracer t;
  int ctx = 0;
  t.begin(&ctx, 9, 6, "READ", 5);
  t.annotate(&ctx, "server", "drc_hit", 7);
  t.end(&ctx, 11, true);
  std::string j = t.to_json();
  EXPECT_NE(j.find("\"xid\": 9"), std::string::npos) << j;
  EXPECT_NE(j.find("\"op\": \"READ\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"start_ns\": 5"), std::string::npos) << j;
  EXPECT_NE(j.find("\"end_ns\": 11"), std::string::npos) << j;
  EXPECT_NE(j.find("\"layer\": \"server\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"tag\": \"drc_hit\""), std::string::npos) << j;
}

// ---- Testbed end-to-end -----------------------------------------------------

TEST(ObservabilityE2E, SpanCrossesClientProxyServer) {
  core::TestbedOptions opt;
  opt.scenario = core::Scenario::kWan;  // uncached: writes forward to nfsd
  opt.enable_rpc_trace = true;
  opt.generate_image_meta = false;
  core::Testbed bed(opt);
  ASSERT_NE(bed.tracer(), nullptr);
  blob::BlobRef content = blob::make_synthetic(31, 256_KiB, 0.2, 2.0);
  ASSERT_TRUE(bed.image_fs().put_file(bed.image_dir() + "/img", content).is_ok());

  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto data = bed.image_session().read_all(p, "/img");
    ASSERT_TRUE(data.is_ok()) << data.status().to_string();
    // A WRITE is non-idempotent, so the server tags the span with its DRC
    // outcome — the deepest layer of the cascade.
    ASSERT_TRUE(
        bed.image_session().write(p, "/img", 0, blob::make_synthetic(32, 32_KiB, 0.0, 1.0))
            .is_ok());
    ASSERT_TRUE(bed.nfs_client()->flush(p).is_ok());
  });
  ASSERT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  // One span must carry annotations from both the client proxy and the
  // server: the xid-keyed record of a single RPC crossing the whole cascade.
  bool complete_span = false;
  for (const trace::TraceSpan& s : bed.tracer()->spans()) {
    bool proxy_hop = false, server_hop = false;
    for (const trace::SpanEvent& e : s.events) {
      if (e.layer == "node0-proxy") proxy_hop = true;
      if (e.layer == "server" && e.tag == "drc_insert") server_hop = true;
    }
    if (s.xid != 0 && s.ok && s.end >= s.start && proxy_hop && server_hop) {
      complete_span = true;
    }
  }
  EXPECT_TRUE(complete_span) << bed.trace_json();

  // The dump goes to a file, never stdout.
  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "gvfs_trace_e2e.json";
  ASSERT_TRUE(bed.dump_trace_json(path.string()).is_ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"drc_insert\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(ObservabilityE2E, TracingOffByDefault) {
  core::TestbedOptions opt;
  opt.scenario = core::Scenario::kWanCached;
  core::Testbed bed(opt);
  EXPECT_EQ(bed.tracer(), nullptr);
  EXPECT_EQ(bed.trace_json(), "[]");
}

TEST(ObservabilityE2E, MetricsJsonCarriesRegistryAndDerivedEntries) {
  core::TestbedOptions opt;
  opt.scenario = core::Scenario::kWanCached;
  core::Testbed bed(opt);
  blob::BlobRef content = blob::make_synthetic(33, 512_KiB, 0.2, 2.0);
  ASSERT_TRUE(bed.image_fs().put_file(bed.image_dir() + "/img", content).is_ok());
  bed.kernel().run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto a = bed.image_session().read_all(p, "/img");
    ASSERT_TRUE(a.is_ok());
    bed.nfs_client()->drop_caches();
    auto b = bed.image_session().read_all(p, "/img");  // proxy cache hits
    ASSERT_TRUE(b.is_ok());
  });
  ASSERT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  std::string j = bed.metrics_json();
  // Raw registry ids from every layer...
  EXPECT_NE(j.find("\"server.total_calls\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"node0.client.rpcs_sent\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"node0.block_cache.hits\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"server.service_ms\""), std::string::npos) << j;
  // ...plus the derived bench figures.
  EXPECT_NE(j.find("\"node0.block_cache.hit_rate\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"derived.total_retransmits\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"derived.total_timeouts\""), std::string::npos) << j;
  // Two identical snapshots of a quiescent testbed are byte-identical.
  EXPECT_EQ(j, bed.metrics_json());
}

// The benchmark harness (perfbench/) sums registry ids by prefix and suffix,
// so a renamed id would silently zero one of its figures (the origin disk
// ops, the nfsd service time, the compression ratio). Pin the ids it reads
// on each origin topology.
std::vector<std::string> registry_ids(const core::TestbedOptions& opt) {
  core::Testbed bed(opt);
  std::vector<std::string> ids;
  for (const auto& [id, value] : bed.metrics().snapshot()) ids.push_back(id);
  return ids;
}

bool has_id(const std::vector<std::string>& ids, const std::string& id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

std::size_t count_ids(const std::vector<std::string>& ids, const std::string& prefix,
                      const std::string& suffix) {
  return static_cast<std::size_t>(std::count_if(ids.begin(), ids.end(), [&](const auto& id) {
    return id.starts_with(prefix) && id.ends_with(suffix);
  }));
}

TEST(ObservabilityE2E, RegistryIdsTheBenchmarkReads) {
  core::TestbedOptions single;
  single.scenario = core::Scenario::kWanCached;
  single.wire_compression = true;
  std::vector<std::string> ids = registry_ids(single);
  EXPECT_TRUE(has_id(ids, "server.disk.ops"));
  EXPECT_TRUE(has_id(ids, "server.service_ms"));
  // Both ends of the compressed WAN hop.
  EXPECT_TRUE(has_id(ids, "server_compress.compress_bytes_in"));
  EXPECT_TRUE(has_id(ids, "node0.compress.compress_bytes_in"));

  core::TestbedOptions cluster;
  cluster.scenario = core::Scenario::kWanCached;
  cluster.origin_cluster = true;
  cluster.origin_shards = 3;
  ids = registry_ids(cluster);
  EXPECT_EQ(count_ids(ids, "origin", ".disk.ops"), 3u);
  EXPECT_EQ(count_ids(ids, "", "server.service_ms"), 3u);

  core::TestbedOptions l2;
  l2.scenario = core::Scenario::kWanCached;
  l2.shared_l2_cache = true;
  ids = registry_ids(l2);
  EXPECT_TRUE(has_id(ids, "lan_l2.disk.ops"));
  EXPECT_TRUE(has_id(ids, "server.disk.ops"));
}

}  // namespace
}  // namespace gvfs
