// Scenario testbed: wires kernel clients, GVFS proxies, tunnels, caches and
// servers into the exact topologies of §4 —
//   Local   : VM state on the compute server's own disk.
//   LAN     : state NFS-mounted from the LAN image server via GVFS proxies
//             over SSH tunnels (no client disk cache).
//   WAN     : same across the wide-area path.
//   WAN+C   : WAN plus the client-side proxy disk cache (and, for cloning,
//             meta-data handling with the file channel).
//   PlainNfs: unmodified kernel client straight to the kernel server (the
//             paper's non-GVFS baseline).
// Multiple compute nodes share the WAN pipe, the image server, and its
// nfsd/CPU/disk — which is all Table 1's parallel cloning needs.
//
// Every non-local topology is built from one list of origin image servers:
// the paper's single server, or origin_cluster's N replicated shards. A
// client of the origins — each node, or the LAN second-level proxy
// (shared_l2_cache, WAN-S3) that the nodes then reach over the LAN — gets one
// channel stack per origin (tunnel -> faults -> retry -> compression), and
// talks to a ShardRouter over those stacks only when there is more than one
// origin. Fault injection, retransmission and compression sit only on hops
// that end at an origin; a node's hop to the L2 is a bare tunnel.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cache/block_cache.h"
#include "cache/file_cache.h"
#include "common/heap.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "gvfs/profile.h"
#include "meta/file_channel.h"
#include "nfs/nfs_client.h"
#include "nfs/nfs_server.h"
#include "proxy/caching_endpoint.h"
#include "proxy/gvfs_proxy.h"
#include "proxy/shard_router.h"
#include "rpc/compress_channel.h"
#include "rpc/fault_channel.h"
#include "rpc/retry_channel.h"
#include "sim/faults.h"
#include "ssh/ssh.h"
#include "vfs/local_session.h"
#include "vfs/memfs.h"
#include "vm/vm_image.h"

namespace gvfs::core {

enum class Scenario {
  kLocal,
  kLan,
  kWan,
  kWanCached,
  kPlainNfsWan,  // unmodified NFS baseline over the WAN
};

const char* scenario_name(Scenario s);

struct TestbedOptions {
  Scenario scenario = Scenario::kWanCached;
  int compute_nodes = 1;
  NetProfile net;
  cache::WritePolicy write_policy = cache::WritePolicy::kWriteBack;
  bool enable_meta = true;          // client proxies honour meta-data files
  bool generate_image_meta = true;  // install_image() drops .vmss meta-data
  // WAN-S3: a LAN server's second-level proxy caches the origins for every
  // cached compute node (block cache + compressed-image cache). It shares
  // read-only data: its block cache is write-through, so writes pass on to
  // the origins.
  bool shared_l2_cache = false;
  // Client proxies batch dirty-block write-back: pipelined UNSTABLE WRITE
  // bursts + one COMMIT per file via a background flusher, instead of one
  // synchronous FILE_SYNC WRITE per block.
  bool enable_async_writeback = false;
  // Content-addressed block dedup (DESIGN.md §5.9): .vmss meta-data carries a
  // per-block fingerprint table, proxy block caches alias identical blocks
  // onto one resident frame, and the shared-L2 image cache holds one copy of
  // identical compressed images. Off by default — byte-identical behaviour.
  bool dedup_blocks = false;
  // Modeled gzip compression of bulk RPC payloads across the WAN tunnel
  // (rpc::CompressChannel/CompressHandler straddling the wide-area hop).
  // Savings come from Blob::compressed_size; CPU is charged at
  // NetProfile::gzip throughputs. Off by default.
  bool wire_compression = false;
  cache::BlockCacheConfig block_cache;  // client proxy cache geometry (§4.1)
  // §6 extensions: proxy read-ahead depth (0 = off) and GridFTP-style
  // parallel streams for file-channel transfers.
  u32 prefetch_depth = 0;
  u32 file_channel_streams = 1;
  // Host page-cache sizing. A 1 GB compute server hosting a 512 MB-RAM VM
  // has far less pagecache than an idle one; app-execution benches shrink
  // these accordingly.
  u64 client_page_cache_bytes = 512_MiB;
  u64 local_page_cache_bytes = 640_MiB;

  // ---- sharded, replicated origin cluster (default off) --------------------
  // Build origin_shards origins instead of one. With more than one, each
  // node's proxy reaches them through a ShardRouter (DESIGN.md §5.7):
  // file-handle-hash sharding, R-way replication with read fan-out to the
  // lowest-latency live replica, R-quorum UNSTABLE WRITE + COMMIT with a
  // combined write verifier, and crash-failover + journal resync. A
  // one-shard cluster is the single origin. Install files with
  // install_image() / put_image_file(); writing one origin's fs directly
  // would desync its replicas.
  bool origin_cluster = false;
  u32 origin_shards = 2;    // N origin servers (also the shard count)
  u32 origin_replicas = 1;  // R-way replication, chained declustering
  // Forwarded to every origin's NfsServerConfig::drc_survives (the DRC
  // crash-volatility test seam).
  bool drc_survives = false;

  // ---- delegation-style leases (default off) -------------------------------
  // Per-file read/write leases with server callbacks (DESIGN.md §5.10): the
  // origin grows a lease table, every node's proxy acquires before serving
  // reads/writes, and recalls ride a reverse channel stack (tunnel -> faults
  // -> retry, links swapped) back to the holder's proxy. Off by default —
  // topology, RNG draws and bench stdout are byte-identical to the
  // lease-free build.
  bool enable_leases = false;
  SimDuration lease_duration = 30 * kSecond;

  // ---- deterministic WAN fault injection -----------------------------------
  // Off by default: no injector, no retry layer, no RNG draws — behaviour
  // (and bench output) is byte-identical to a faultless build.
  bool enable_fault_injection = false;
  sim::FaultConfig fault;        // drops / partitions / crashes
  rpc::RetryConfig retry;        // client retransmission policy (hard mount)
  bool degraded_proxy = false;   // client proxies serve caches during outages
  u64 fault_seed = 0x5eed;       // seeds the kernel RNG (faults + retry jitter)

  // ---- observability -------------------------------------------------------
  // Per-RPC trace spans (client -> retry -> fault -> proxy cascade -> server)
  // collected in a bounded in-memory ring; dumped via trace_json(). Off by
  // default: zero per-call overhead and no behaviour change.
  bool enable_rpc_trace = false;
  // Register each node's instruments under "node<i>." ids. Default on (the
  // per-figure benches read them); boot-storm topologies with 1,000 nodes
  // turn it off — registration cost and registry size are
  // O(nodes x instruments), and the storm reads only server/link aggregates
  // plus its own per-node resume timings.
  bool per_node_metrics = true;
};

class Testbed {
 public:
  explicit Testbed(TestbedOptions opt);
  ~Testbed();

  [[nodiscard]] sim::SimKernel& kernel() { return kernel_; }
  [[nodiscard]] const TestbedOptions& options() const { return opt_; }

  // The image server's exported filesystem, origin 0's (install images here;
  // for kLocal this is node 0's local filesystem).
  [[nodiscard]] vfs::MemFs& image_fs();
  [[nodiscard]] std::string image_dir() const;

  // Install a VM image on every origin (identical install order keeps
  // FileIds aligned) and, if meta is enabled, generate its .vmss meta-data.
  Result<vm::VmImagePaths> install_image(const vm::VmImageSpec& spec);

  // Write a raw file into the image store at a mount-relative path, on
  // every origin. Use this instead of image_fs().put_file() whenever the
  // topology might have more than one origin.
  Status put_image_file(const std::string& rel_path, const blob::BlobRef& data);

  // Mount the export on a compute node (no-op for kLocal). Must run inside a
  // simulation process.
  Status mount(sim::Process& p, int node = 0);

  // The session a node sees the image store through (local session for
  // kLocal, the NFS client otherwise).
  [[nodiscard]] vfs::FsSession& image_session(int node = 0);
  // The node's local-disk session.
  [[nodiscard]] vfs::LocalFsSession& local_session(int node = 0);

  // ---- middleware controls -------------------------------------------------
  Status signal_write_back(sim::Process& p, int node = 0);
  Status signal_flush(sim::Process& p, int node = 0);
  // Cold-start: drop every cache on the path (client pages, proxy disk
  // caches, server pages) as the paper does between cold runs.
  void drop_all_caches();
  // Pre-warm the LAN second-level cache with an image's memory state
  // (WAN-S3's "pre-cached due to previous clones for other compute servers").
  Status prewarm_lan_cache(sim::Process& p, const vm::VmImagePaths& image);
  // Middleware re-scan of a (changed) memory state: regenerate the .vmss
  // meta-data on the image server, charging the server-side scan.
  Status refresh_image_metadata(sim::Process& p, const vm::VmImagePaths& image);

  // ---- observability -------------------------------------------------------
  [[nodiscard]] nfs::NfsClient* nfs_client(int node = 0);
  [[nodiscard]] proxy::GvfsProxy* client_proxy(int node = 0);
  [[nodiscard]] cache::ProxyDiskCache* block_cache(int node = 0);
  [[nodiscard]] cache::FileCache* file_cache(int node = 0);
  // Origin 0's server (null for kLocal).
  [[nodiscard]] nfs::NfsServer* server();
  // ---- origins (0 for kLocal, 1, or origin_shards) -------------------------
  [[nodiscard]] u32 origin_count() const;
  [[nodiscard]] nfs::NfsServer* origin_server(int j);
  [[nodiscard]] vfs::MemFs& origin_fs(int j);
  // The node's ShardRouter (null unless there is more than one origin).
  [[nodiscard]] proxy::ShardRouter* shard_router(int node = 0);
  // The cluster-shared L2 block-cache proxy (null unless shared_l2_cache
  // built one).
  [[nodiscard]] proxy::GvfsProxy* lan_proxy() { return lan_proxy_.get(); }
  [[nodiscard]] sim::Link* wan_up() { return wan_up_.get(); }
  [[nodiscard]] sim::Link* wan_down() { return wan_down_.get(); }
  // Fault-injection plumbing (null when enable_fault_injection is false).
  [[nodiscard]] sim::FaultInjector* fault_injector() { return faults_.get(); }
  // The retry layer of the node's first upstream stack (null when that hop
  // has none: no fault injection, or the hop ends at the L2).
  [[nodiscard]] rpc::RetryChannel* retry_channel(int node = 0);

  // ---- metrics & tracing ---------------------------------------------------
  // Every component registers its instruments here under hierarchical ids
  // ("server.drc_hits", "node0.block_cache.misses", ...).
  [[nodiscard]] metrics::Registry& metrics() { return registry_; }
  // Registry snapshot plus derived figures (cache hit rates, total
  // retransmits, outage stats) rendered as one JSON object — this is the
  // "metrics" block the benches embed in BENCH_*.json.
  [[nodiscard]] std::string metrics_json() const;
  // Null unless enable_rpc_trace was set.
  [[nodiscard]] trace::RpcTracer* tracer() { return tracer_.get(); }
  [[nodiscard]] std::string trace_json() const;
  // Write trace_json() to a file (traces never go to stdout).
  Status dump_trace_json(const std::string& path) const;

 private:
  struct Node;
  struct Origin;        // fs + disk + cpu + NfsServer + loopback + server proxy
  struct ChannelStack;  // one upstream hop, see make_stack_()
  struct Upstream;      // a client's stacks and router, see build_upstream_()
  class OriginFiles;    // the origins' file channel

  // The links and cipher one hop's tunnel crosses.
  struct Hop {
    sim::Link* up = nullptr;
    sim::Link* down = nullptr;
    ssh::CipherSpec cipher;
  };

  // Wiring shared by every compute node, resolved once before the node loop:
  // node construction then only copies small config structs and allocates
  // the node's own components — O(1)-ish per node instead of re-deriving
  // scenario topology N times.
  struct SharedNodeConfig {
    bool cached = false;
    nfs::NfsClientConfig client;
    cache::BlockCacheConfig block_cache;
    proxy::ProxyConfig proxy;  // per-node name filled in at build time
    vfs::LocalSessionConfig local;
    Hop hop;  // toward the L2 or the origins
    // What each upstream stack targets: the L2 proxy, or every origin's
    // entry handler (its NfsServer under PlainNfs).
    std::vector<rpc::RpcHandler*> upstreams;
    meta::RemoteFileEndpoint* endpoint = nullptr;
    sim::Link* scp_link = nullptr;
  };

  void build_origins_();
  void build_lan_cache_node_();
  void resolve_shared_node_config_();
  std::unique_ptr<Node> build_node_(int index);
  // One hop toward `target` over `hop`: the transport (an SSH tunnel, or
  // PlainNfs's direct link), then — unless `target` is the L2 proxy, the one
  // hop that ends at no origin — with fault injection FaultyChannel(origin)
  // and RetryChannel, then with wire compression the client-end
  // CompressChannel. A `reverse` stack is a lease-recall callback path: the
  // link pair swapped, bounded retransmission, no compression, not traced. A
  // non-empty `tag` registers the layers' metrics under it.
  ChannelStack make_stack_(rpc::RpcHandler& target, const Hop& hop, int origin,
                           bool reverse, const std::string& tag);
  // A client's upstream over `hop`: one stack per target (origin j's entry,
  // or the L2 proxy), and a ShardRouter named `name`-router over them when
  // there is more than one. With `with_metrics`, the layers register under
  // `name`.
  Upstream build_upstream_(const std::vector<rpc::RpcHandler*>& targets, const Hop& hop,
                           const std::string& name, bool with_metrics);
  // Origins holding origin file `id`'s data: the replicas of its shard.
  [[nodiscard]] const std::vector<u32>& file_holders_(vfs::FileId id) const;
  // The single sanctioned NfsServer construction site in topology code
  // (enforced by the gvfs-lint cluster-factory rule), so every origin gets
  // identical server config.
  std::unique_ptr<nfs::NfsServer> make_origin_server_(vfs::MemFs& fs,
                                                      sim::DiskModel& disk);
  // The filesystems that hold the image store: every origin's, or node 0's
  // under kLocal.
  [[nodiscard]] std::vector<vfs::MemFs*> image_stores_();
  // Fingerprint-table geometry for generated .vmss meta-data: the proxy
  // fetch block when dedup_blocks is on, else 0 (version-1 meta file,
  // byte-identical to the pre-dedup encoding).
  [[nodiscard]] u32 meta_fp_block_size_() const;

  // Declared first so it is destroyed last: a torn-down 1,000-node testbed
  // hands its freed heap back to the OS (common/heap.h).
  HeapReleaseScope heap_release_;
  TestbedOptions opt_;
  sim::SimKernel kernel_;

  // Registry/tracer come before every component they observe (instruments
  // are owned by the components; the registry only holds const views).
  metrics::Registry registry_;
  std::unique_ptr<trace::RpcTracer> tracer_;

  // ---- origin image servers ------------------------------------------------
  std::vector<std::unique_ptr<Origin>> origins_;
  // Where the origins keep each file (ShardRouter's rule; one origin holds
  // everything).
  std::unique_ptr<proxy::ShardMap> placement_;
  std::unique_ptr<OriginFiles> files_;

  // ---- shared network ------------------------------------------------------
  std::unique_ptr<sim::Link> wan_up_, wan_down_;
  std::unique_ptr<sim::Link> lan_up_, lan_down_;

  // ---- fault injection (optional) ------------------------------------------
  std::unique_ptr<sim::FaultInjector> faults_;

  // ---- optional LAN L2 cache server (WAN-S3) --------------------------------
  std::unique_ptr<sim::DiskModel> lan_disk_;
  std::unique_ptr<ssh::Scp> lan_scp_up_;  // LAN node -> origin over WAN
  std::unique_ptr<proxy::CachingFileEndpoint> lan_endpoint_;
  std::unique_ptr<cache::ProxyDiskCache> lan_block_cache_;
  std::unique_ptr<Upstream> lan_upstream_;       // L2 proxy -> origins (WAN)
  std::unique_ptr<proxy::GvfsProxy> lan_proxy_;  // L2 block-cache proxy

  SharedNodeConfig node_cfg_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace gvfs::core
