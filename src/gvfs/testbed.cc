#include "gvfs/testbed.h"

#include <algorithm>
#include <cstdio>

#include "common/log.h"
#include "meta/meta_file.h"
#include "vfs/prefix_session.h"

namespace gvfs::core {

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kLocal: return "Local";
    case Scenario::kLan: return "LAN";
    case Scenario::kWan: return "WAN";
    case Scenario::kWanCached: return "WAN+C";
    case Scenario::kPlainNfsWan: return "NFS/WAN";
  }
  return "?";
}

// One hop toward an upstream handler, built by make_stack_(). The layers are
// heap-owned, so `top` stays valid when the stack moves.
struct Testbed::ChannelStack {
  std::unique_ptr<rpc::RpcChannel> transport;      // SSH tunnel or direct link
  std::unique_ptr<rpc::FaultyChannel> faulty;      // fault injection only
  std::unique_ptr<rpc::RetryChannel> retry;        // retransmission above faults
  std::unique_ptr<rpc::CompressChannel> compress;  // client end of the WAN pair
  rpc::RpcChannel* top = nullptr;                  // the outermost layer
};

// A client's way upstream, built by build_upstream_(): one stack per origin
// (or one to the L2), federated by the router when there is more than one.
struct Testbed::Upstream {
  std::vector<ChannelStack> stacks;
  std::unique_ptr<proxy::ShardRouter> router;
  rpc::RpcChannel* top = nullptr;  // what the client talks to
};

struct Testbed::Node {
  std::unique_ptr<vfs::MemFs> fs;
  std::unique_ptr<sim::DiskModel> disk;
  std::unique_ptr<vfs::LocalFsSession> local;
  std::unique_ptr<vfs::PrefixSession> image_view;  // kLocal: export-dir view

  std::unique_ptr<cache::ProxyDiskCache> block_cache;
  std::unique_ptr<cache::FileCache> file_cache;
  std::unique_ptr<ssh::Scp> scp;
  std::unique_ptr<meta::FileChannelClient> file_channel;
  // Declared before client_proxy so the proxy's upstream outlives it.
  Upstream upstream;
  std::unique_ptr<proxy::GvfsProxy> client_proxy;
  // Lease-recall callback stacks (enable_leases), one per origin. Declared
  // after client_proxy: destroyed first, so they never outlive their handler.
  std::vector<ChannelStack> callbacks;
  std::unique_ptr<rpc::LinkChannel> loopback;
  std::unique_ptr<nfs::NfsClient> client;
};

// One origin image server: a full server-side stack (fs + disk + cpu +
// NfsServer + loopback + id-mapping proxy + file channel), plus with
// wire_compression the origin end of the compressed WAN hop.
struct Testbed::Origin {
  std::unique_ptr<vfs::MemFs> fs;
  std::unique_ptr<sim::DiskModel> disk;
  std::unique_ptr<sim::CpuPool> cpu;
  std::unique_ptr<nfs::NfsServer> server;
  std::unique_ptr<meta::ServerFileChannel> files;
  std::unique_ptr<rpc::LinkChannel> loop;
  std::unique_ptr<proxy::GvfsProxy> proxy;
  std::unique_ptr<rpc::CompressHandler> compress;  // wire_compression only
  // What a tunnel to this origin targets.
  rpc::RpcHandler& entry() {
    return compress ? static_cast<rpc::RpcHandler&>(*compress) : *proxy;
  }
};

// The origins' file channel, placed as the NFS path places data: a fetch
// reads the file's first replica, an upload lands on every replica (as a
// quorum WRITE would). With one origin, that origin serves every file.
class Testbed::OriginFiles final : public meta::RemoteFileEndpoint {
 public:
  explicit OriginFiles(Testbed& bed) : bed_(bed) {}
  Result<meta::CompressedImage> fetch_compressed(sim::Process& p,
                                                 vfs::FileId fileid) override;
  Status store_compressed(sim::Process& p, vfs::FileId fileid, blob::BlobRef content,
                          u64 compressed_size) override;

 private:
  Testbed& bed_;
};

Result<meta::CompressedImage> Testbed::OriginFiles::fetch_compressed(sim::Process& p,
                                                                     vfs::FileId fileid) {
  return bed_.origins_[bed_.file_holders_(fileid)[0]]->files->fetch_compressed(p, fileid);
}

Status Testbed::OriginFiles::store_compressed(sim::Process& p, vfs::FileId fileid,
                                              blob::BlobRef content, u64 compressed_size) {
  // gvfs-lint: allow(yield-index-loop) the placement and the origin list are fixed at construction
  for (u32 j : bed_.file_holders_(fileid)) {
    GVFS_RETURN_IF_ERROR(
        bed_.origins_[j]->files->store_compressed(p, fileid, content, compressed_size));
  }
  return Status::ok();
}

namespace {

// Bound on the in-memory ring of completed RPC trace spans.
constexpr u32 kTraceCapacity = 256;

// Logical user accounts: remap the grid identity onto a short-lived local
// shadow account allocated for this session (§3.1). Every origin's proxy
// applies it.
rpc::Credential map_shadow_cred(const rpc::Credential& in) {
  rpc::Credential out = in;
  out.uid = 500 + in.uid % 100;
  out.gid = 500;
  out.machine = "shadow";
  return out;
}

// Wire-compression knobs derived from the profile's gzip model; `cpu` is the
// pool the (de)compression work contends on at that end of the hop.
rpc::CompressConfig wan_compress_cfg(const NetProfile& net, sim::CpuPool* cpu) {
  rpc::CompressConfig c;
  c.compress_bps = net.gzip.compress_bps;
  c.inflate_bps = net.gzip.inflate_bps;
  c.cpu = cpu;
  return c;
}

}  // namespace

Testbed::Testbed(TestbedOptions opt) : opt_(std::move(opt)) {
  if (opt_.enable_rpc_trace) {
    tracer_ = std::make_unique<trace::RpcTracer>(kTraceCapacity);
    tracer_->register_metrics(registry_, "trace.");
  }

  // Shared network pipes (all per-node flows contend here).
  wan_up_ = std::make_unique<sim::Link>(kernel_, "wan-up", opt_.net.wan);
  wan_down_ = std::make_unique<sim::Link>(kernel_, "wan-down", opt_.net.wan);
  lan_up_ = std::make_unique<sim::Link>(kernel_, "lan-up", opt_.net.lan);
  lan_down_ = std::make_unique<sim::Link>(kernel_, "lan-down", opt_.net.lan);
  wan_up_->register_metrics(registry_, "wan_up.");
  wan_down_->register_metrics(registry_, "wan_down.");
  lan_up_->register_metrics(registry_, "lan_up.");
  lan_down_->register_metrics(registry_, "lan_down.");

  if (opt_.enable_fault_injection) {
    kernel_.seed_rng(opt_.fault_seed);
    faults_ = std::make_unique<sim::FaultInjector>(kernel_, opt_.fault);
    faults_->register_metrics(registry_, "faults.");
    // Latency spikes hit the shared WAN pipe both ways.
    wan_up_->set_fault_injector(faults_.get());
    wan_down_->set_fault_injector(faults_.get());
  }

  if (opt_.scenario != Scenario::kLocal) {
    build_origins_();
    if (opt_.shared_l2_cache) build_lan_cache_node_();
  }
  resolve_shared_node_config_();
  nodes_.reserve(static_cast<std::size_t>(opt_.compute_nodes));
  for (int i = 0; i < opt_.compute_nodes; ++i) {
    nodes_.push_back(build_node_(i));
  }
}

Testbed::~Testbed() = default;

std::unique_ptr<nfs::NfsServer> Testbed::make_origin_server_(vfs::MemFs& fs,
                                                             sim::DiskModel& disk) {
  nfs::NfsServerConfig scfg;
  scfg.drc_survives = opt_.drc_survives;
  // Scale the duplicate-request cache with the client population: a fixed
  // 256-entry FIFO can evict an entry before a boot-storm-scale burst's
  // delayed retransmission arrives, silently re-executing a non-idempotent
  // op. Sizing is untimed (map capacity only), so faultless runs are
  // byte-identical regardless.
  scfg.drc_entries =
      std::max<u32>(scfg.drc_entries, 32u * static_cast<u32>(opt_.compute_nodes));
  scfg.enable_leases = opt_.enable_leases;
  scfg.lease_duration = opt_.lease_duration;
  // gvfs-lint: allow(cluster-factory) the sanctioned origin construction site
  return std::make_unique<nfs::NfsServer>(kernel_, fs, disk, scfg);
}

void Testbed::build_origins_() {
  const u32 n = opt_.origin_cluster ? std::max<u32>(1, opt_.origin_shards) : 1;
  origins_.reserve(n);
  for (u32 j = 0; j < n; ++j) {
    auto o = std::make_unique<Origin>();
    // The single origin keeps the paper topology's "server" ids; a cluster
    // prefixes them with the origin's index.
    const std::string tag = n > 1 ? "origin" + std::to_string(j) + "." : "";
    o->fs = std::make_unique<vfs::MemFs>();
    o->fs->set_clock([this] { return kernel_.now(); });
    o->disk = std::make_unique<sim::DiskModel>(kernel_, tag + "image-disk", opt_.net.disk);
    o->cpu = std::make_unique<sim::CpuPool>(kernel_, opt_.net.image_server_cpus);
    o->server = make_origin_server_(*o->fs, *o->disk);
    Status st = o->server->add_export(image_dir());
    if (!st.is_ok()) GVFS_ERROR("testbed") << "export failed: " << st.to_string();
    o->loop = std::make_unique<rpc::LinkChannel>(*o->server, nullptr, nullptr,
                                                 10 * kMicrosecond);
    proxy::ProxyConfig spcfg;
    spcfg.name = tag + "server-proxy";
    spcfg.enable_meta = false;  // server side only authenticates and maps ids
    o->proxy = std::make_unique<proxy::GvfsProxy>(spcfg, *o->loop);
    o->proxy->set_cred_mapper(map_shadow_cred);
    o->files = std::make_unique<meta::ServerFileChannel>(*o->fs, *o->disk, o->cpu.get(),
                                                         opt_.net.gzip);
    if (opt_.wire_compression) {
      o->compress = std::make_unique<rpc::CompressHandler>(
          *o->proxy, wan_compress_cfg(opt_.net, o->cpu.get()));
      o->compress->register_metrics(registry_, tag + "server_compress.");
    }
    if (faults_) {
      // A crash loses the server's volatile state: page cache, the duplicate
      // request cache, and any uncommitted UNSTABLE writes — the rolled write
      // verifier is how clients find out (RFC 1813 §3.3.7). Leases are
      // volatile too: holders must re-acquire (the proxy fencing path). The
      // hook is keyed by origin id, so a crash window scoped to one replica
      // reboots only that replica.
      faults_->set_on_restart(static_cast<int>(j), [srv = o->server.get()] {
        srv->drop_caches();
        srv->clear_drc();
        srv->roll_write_verifier();
        srv->clear_leases();
      });
    }

    o->server->register_metrics(registry_, tag + "server.");
    o->disk->register_metrics(registry_, tag + "server.disk.");
    o->proxy->register_metrics(registry_, tag + "server_proxy.");
    o->files->register_metrics(registry_, tag + "server_endpoint.");
    if (tracer_) {
      o->server->set_tracer(tracer_.get());
      o->proxy->set_tracer(tracer_.get());
    }
    origins_.push_back(std::move(o));
  }
  placement_ = std::make_unique<proxy::ShardMap>(n, opt_.origin_replicas);
  files_ = std::make_unique<OriginFiles>(*this);
}

const std::vector<u32>& Testbed::file_holders_(vfs::FileId id) const {
  return placement_->replicas_of(placement_->shard_of(origins_[0]->server->fh_of(id)));
}

void Testbed::build_lan_cache_node_() {
  lan_disk_ = std::make_unique<sim::DiskModel>(kernel_, "lan-cache-disk", opt_.net.disk);
  lan_scp_up_ = std::make_unique<ssh::Scp>(*wan_down_, opt_.net.wan_cipher);
  lan_endpoint_ =
      std::make_unique<proxy::CachingFileEndpoint>(*files_, *lan_scp_up_, *lan_disk_);
  // Content-addressed image sharing: clones of one golden image hold a
  // single compressed copy on the L2 disk.
  lan_endpoint_->set_dedup(opt_.dedup_blocks, opt_.block_cache.dedup_seed);

  // Second-level block-cache proxy on the LAN server. Its hops to the
  // origins are the WAN hops, built as a node builds its own.
  std::vector<rpc::RpcHandler*> targets;
  for (auto& o : origins_) targets.push_back(&o->entry());
  lan_upstream_ = std::make_unique<Upstream>(
      build_upstream_(targets, Hop{wan_up_.get(), wan_down_.get(), opt_.net.wan_cipher},
                      "lan_l2", /*with_metrics=*/true));
  // The L2 shares read-only data (§3.2.1), so its cache is write-through:
  // a node's write-back passes on to the origins. A write-back L2 would
  // acknowledge the bytes and keep them where no middleware signal reaches.
  cache::BlockCacheConfig l2cfg = opt_.block_cache;
  l2cfg.policy = cache::WritePolicy::kWriteThrough;
  l2cfg.dedup_blocks = opt_.dedup_blocks;
  lan_block_cache_ = std::make_unique<cache::ProxyDiskCache>(*lan_disk_, l2cfg);
  proxy::ProxyConfig lpcfg;
  lpcfg.name = "lan-l2-proxy";
  lpcfg.enable_meta = false;
  lan_proxy_ = std::make_unique<proxy::GvfsProxy>(lpcfg, *lan_upstream_->top);
  lan_proxy_->attach_block_cache(*lan_block_cache_);

  lan_disk_->register_metrics(registry_, "lan_l2.disk.");
  lan_scp_up_->register_metrics(registry_, "lan_l2.scp_up.");
  lan_endpoint_->register_metrics(registry_, "lan_l2.endpoint.");
  lan_block_cache_->register_metrics(registry_, "lan_l2.block_cache.");
  lan_proxy_->register_metrics(registry_, "lan_l2.proxy.");
  if (tracer_) lan_proxy_->set_tracer(tracer_.get());
}

void Testbed::resolve_shared_node_config_() {
  node_cfg_.local.buffer_cache_bytes = opt_.local_page_cache_bytes;
  if (opt_.scenario == Scenario::kLocal) return;

  const bool plain = opt_.scenario == Scenario::kPlainNfsWan;
  node_cfg_.client.buffer_cache_bytes = opt_.client_page_cache_bytes;
  node_cfg_.client.rsize = node_cfg_.client.wsize =
      plain ? opt_.net.plain_rsize : opt_.net.gvfs_rsize;
  node_cfg_.cached = opt_.scenario == Scenario::kWanCached;

  // The nodes' upstreams: the LAN second-level cache proxy (then the
  // origin), or every origin directly.
  const bool via_lan = node_cfg_.cached && lan_proxy_ != nullptr;
  const bool wan = opt_.scenario != Scenario::kLan && !via_lan;
  node_cfg_.hop = wan ? Hop{wan_up_.get(), wan_down_.get(), opt_.net.wan_cipher}
                      : Hop{lan_up_.get(), lan_down_.get(), opt_.net.lan_cipher};
  if (via_lan) {
    node_cfg_.upstreams.push_back(lan_proxy_.get());
  } else {
    for (auto& o : origins_) {
      node_cfg_.upstreams.push_back(plain ? static_cast<rpc::RpcHandler*>(o->server.get())
                                          : &o->entry());
    }
  }
  if (plain) return;

  node_cfg_.proxy.fetch_block = static_cast<u32>(opt_.block_cache.block_size);
  node_cfg_.proxy.enable_meta = node_cfg_.cached && opt_.enable_meta;
  if (node_cfg_.cached) node_cfg_.proxy.prefetch_depth = opt_.prefetch_depth;
  node_cfg_.proxy.degraded_mode = opt_.degraded_proxy;
  node_cfg_.proxy.async_writeback = opt_.enable_async_writeback;
  node_cfg_.proxy.enable_leases = opt_.enable_leases;

  if (node_cfg_.cached) {
    node_cfg_.block_cache = opt_.block_cache;
    node_cfg_.block_cache.policy = opt_.write_policy;
    node_cfg_.block_cache.dedup_blocks = opt_.dedup_blocks;
    node_cfg_.endpoint =
        via_lan ? static_cast<meta::RemoteFileEndpoint*>(lan_endpoint_.get()) : files_.get();
    node_cfg_.scp_link = via_lan ? lan_down_.get() : wan_down_.get();
  }
}

Testbed::ChannelStack Testbed::make_stack_(rpc::RpcHandler& target, const Hop& hop,
                                           int origin, bool reverse,
                                           const std::string& tag) {
  ChannelStack s;
  // Recalls travel the server -> client direction: swap the link pair.
  sim::Link* up = reverse ? hop.down : hop.up;
  sim::Link* down = reverse ? hop.up : hop.down;
  const bool plain = opt_.scenario == Scenario::kPlainNfsWan;
  if (plain) {
    s.transport = std::make_unique<rpc::LinkChannel>(target, up, down, 30 * kMicrosecond);
  } else {
    auto tun = std::make_unique<ssh::SshTunnel>(target, up, down, hop.cipher);
    if (!tag.empty()) tun->register_metrics(registry_, tag + "tunnel.");
    s.transport = std::move(tun);
  }
  s.top = s.transport.get();
  if (&target == lan_proxy_.get()) return s;  // a node's hop to the L2

  // With fault injection the transport is wrapped in the injector
  // (drops/partitions/crashes, scoped by origin id) and the caller talks
  // through the retransmission layer, NFS-client-style.
  if (faults_) {
    rpc::RetryConfig retry = opt_.retry;
    // Recall retransmission is bounded: a partitioned holder must lapse at
    // its lease expiry, not pin a server recall fiber forever.
    if (reverse && retry.max_retransmits == 0) retry.max_retransmits = 4;
    s.faulty = std::make_unique<rpc::FaultyChannel>(*s.top, *faults_, origin);
    s.retry = std::make_unique<rpc::RetryChannel>(*s.faulty, kernel_, retry);
    s.top = s.retry.get();
    if (!tag.empty()) s.retry->register_metrics(registry_, tag + "retry.");
    if (tracer_ && !reverse) {
      s.faulty->set_tracer(tracer_.get());
      s.retry->set_tracer(tracer_.get());
    }
  }

  // Client end of the compressed WAN hop (outermost, so retransmitted calls
  // resend the already-wrapped message without re-paying gzip CPU); the
  // origin's CompressHandler is the other end. The kernel-NFS baseline
  // never compresses.
  if (opt_.wire_compression && !plain && !reverse) {
    s.compress = std::make_unique<rpc::CompressChannel>(
        *s.top, wan_compress_cfg(opt_.net, nullptr));
    s.top = s.compress.get();
    if (!tag.empty()) s.compress->register_metrics(registry_, tag + "compress.");
  }
  return s;
}

Testbed::Upstream Testbed::build_upstream_(const std::vector<rpc::RpcHandler*>& targets,
                                           const Hop& hop, const std::string& name,
                                           bool with_metrics) {
  // Every stack shares the hop's pipes. Each FaultyChannel carries its
  // origin id, so crash windows scoped to one replica
  // (sim::FaultWindow::server) hit only its stack.
  Upstream u;
  const std::size_t n = targets.size();
  u.stacks.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::string tag;
    if (with_metrics) tag = n > 1 ? name + ".origin" + std::to_string(j) + "." : name + ".";
    u.stacks.push_back(
        make_stack_(*targets[j], hop, static_cast<int>(j), /*reverse=*/false, tag));
  }
  u.top = u.stacks[0].top;
  if (n > 1) {
    std::vector<rpc::RpcChannel*> chans;
    chans.reserve(n);
    for (const ChannelStack& s : u.stacks) chans.push_back(s.top);
    proxy::ShardRouterConfig rcfg;
    rcfg.name = name + "-router";
    rcfg.replicas = opt_.origin_replicas;
    u.router = std::make_unique<proxy::ShardRouter>(std::move(chans), rcfg);
    if (with_metrics) u.router->register_metrics(registry_, name + ".router.");
    u.top = u.router.get();
  }
  return u;
}

std::unique_ptr<Testbed::Node> Testbed::build_node_(int index) {
  auto node = std::make_unique<Node>();
  const bool metrics_on = opt_.per_node_metrics;
  std::string tag = "node" + std::to_string(index);
  node->fs = std::make_unique<vfs::MemFs>();
  node->fs->set_clock([this] { return kernel_.now(); });
  node->disk = std::make_unique<sim::DiskModel>(kernel_, tag + "-disk", opt_.net.disk);
  node->local =
      std::make_unique<vfs::LocalFsSession>(*node->fs, *node->disk, node_cfg_.local);

  if (metrics_on) node->disk->register_metrics(registry_, tag + ".disk.");

  if (opt_.scenario == Scenario::kLocal) {
    node->image_view = std::make_unique<vfs::PrefixSession>(*node->local, image_dir());
    return node;
  }

  rpc::Credential cred;
  cred.uid = 1000 + static_cast<u32>(index);
  cred.gid = 1000;
  cred.machine = tag;

  node->upstream = build_upstream_(node_cfg_.upstreams, node_cfg_.hop, tag, metrics_on);
  rpc::RpcChannel* upstream = node->upstream.top;

  if (opt_.scenario == Scenario::kPlainNfsWan) {
    node->client = std::make_unique<nfs::NfsClient>(*upstream, cred, node_cfg_.client);
    if (metrics_on) node->client->register_metrics(registry_, tag + ".client.");
    if (tracer_) node->client->set_tracer(tracer_.get());
    return node;
  }

  proxy::ProxyConfig pcfg = node_cfg_.proxy;
  pcfg.name = tag + "-proxy";
  if (opt_.enable_leases) pcfg.lease_client_id = static_cast<u64>(index) + 1;
  node->client_proxy = std::make_unique<proxy::GvfsProxy>(pcfg, *upstream);
  if (tracer_) node->client_proxy->set_tracer(tracer_.get());

  if (opt_.enable_leases) {
    // Recalls cross the same shared links back to this node's proxy, one
    // reverse stack per origin, with the forward path's fault semantics.
    node->callbacks.reserve(origins_.size());
    for (std::size_t j = 0; j < origins_.size(); ++j) {
      node->callbacks.push_back(make_stack_(*node->client_proxy, node_cfg_.hop,
                                            static_cast<int>(j), /*reverse=*/true, ""));
      origins_[j]->server->set_lease_callback(pcfg.lease_client_id,
                                              node->callbacks.back().top);
    }
  }

  if (node_cfg_.cached) {
    node->block_cache =
        std::make_unique<cache::ProxyDiskCache>(*node->disk, node_cfg_.block_cache);
    node->client_proxy->attach_block_cache(*node->block_cache);

    node->file_cache = std::make_unique<cache::FileCache>(*node->disk);
    node->scp = std::make_unique<ssh::Scp>(*node_cfg_.scp_link, node_cfg_.hop.cipher,
                                           opt_.file_channel_streams);
    node->file_channel = std::make_unique<meta::FileChannelClient>(
        *node_cfg_.endpoint, *node->scp, *node->file_cache, nullptr, opt_.net.gzip);
    node->client_proxy->attach_file_channel(*node->file_channel, *node->file_cache);
    if (metrics_on) {
      node->block_cache->register_metrics(registry_, tag + ".block_cache.");
      node->file_cache->register_metrics(registry_, tag + ".file_cache.");
      node->scp->register_metrics(registry_, tag + ".scp.");
      node->file_channel->register_metrics(registry_, tag + ".file_channel.");
    }
  }

  if (metrics_on) node->client_proxy->register_metrics(registry_, tag + ".proxy.");

  node->loopback = std::make_unique<rpc::LinkChannel>(*node->client_proxy, nullptr,
                                                      nullptr, 15 * kMicrosecond);
  node->client = std::make_unique<nfs::NfsClient>(*node->loopback, cred,
                                                  node_cfg_.client);
  if (metrics_on) node->client->register_metrics(registry_, tag + ".client.");
  if (tracer_) node->client->set_tracer(tracer_.get());
  return node;
}

vfs::MemFs& Testbed::image_fs() {
  return origins_.empty() ? *nodes_.at(0)->fs : *origins_[0]->fs;
}

nfs::NfsServer* Testbed::server() {
  return origins_.empty() ? nullptr : origins_[0]->server.get();
}

u32 Testbed::origin_count() const { return static_cast<u32>(origins_.size()); }

nfs::NfsServer* Testbed::origin_server(int j) {
  return origins_.at(static_cast<std::size_t>(j))->server.get();
}

vfs::MemFs& Testbed::origin_fs(int j) {
  return *origins_.at(static_cast<std::size_t>(j))->fs;
}

proxy::ShardRouter* Testbed::shard_router(int node) {
  return nodes_.at(static_cast<std::size_t>(node))->upstream.router.get();
}

std::string Testbed::image_dir() const { return "/exports/images"; }

std::vector<vfs::MemFs*> Testbed::image_stores_() {
  if (origins_.empty()) return {&image_fs()};
  std::vector<vfs::MemFs*> stores;
  stores.reserve(origins_.size());
  for (auto& o : origins_) stores.push_back(o->fs.get());
  return stores;
}

u32 Testbed::meta_fp_block_size_() const {
  return opt_.dedup_blocks ? static_cast<u32>(opt_.block_cache.block_size) : 0;
}

Result<vm::VmImagePaths> Testbed::install_image(const vm::VmImageSpec& spec) {
  // Install at the server-side export path, on every origin in the same
  // order so the FileId spaces stay aligned across replicas...
  for (vfs::MemFs* fs : image_stores_()) {
    GVFS_ASSIGN_OR_RETURN(vm::VmImagePaths server_paths,
                          vm::install_image(*fs, image_dir(), spec));
    if (opt_.scenario != Scenario::kLocal && opt_.generate_image_meta) {
      GVFS_RETURN_IF_ERROR(vm::generate_vmss_metadata(
          *fs, server_paths, 8_KiB, true, meta_fp_block_size_(),
          opt_.block_cache.dedup_seed));
    }
  }
  // ...but hand back mount-relative paths: every image_session() (NFS client
  // or the kLocal prefix view) is rooted at the export directory.
  return vm::VmImagePaths{"", spec.name};
}

Status Testbed::put_image_file(const std::string& rel_path,
                               const blob::BlobRef& data) {
  for (vfs::MemFs* fs : image_stores_()) {
    GVFS_RETURN_IF_ERROR(fs->put_file(image_dir() + rel_path, data).status());
  }
  return Status::ok();
}

Status Testbed::mount(sim::Process& p, int node) {
  Node& n = *nodes_.at(static_cast<std::size_t>(node));
  if (opt_.scenario == Scenario::kLocal) return Status::ok();
  if (n.client->mounted()) return Status::ok();
  return n.client->mount(p, image_dir());
}

vfs::FsSession& Testbed::image_session(int node) {
  Node& n = *nodes_.at(static_cast<std::size_t>(node));
  if (opt_.scenario == Scenario::kLocal) return *n.image_view;
  return *n.client;
}

vfs::LocalFsSession& Testbed::local_session(int node) {
  return *nodes_.at(static_cast<std::size_t>(node))->local;
}

Status Testbed::signal_write_back(sim::Process& p, int node) {
  // gvfs-lint: allow(yield-stale-ref) nodes_ is append-only during setup and each Node is heap-owned (unique_ptr), never erased mid-run
  Node& n = *nodes_.at(static_cast<std::size_t>(node));
  GVFS_RETURN_IF_ERROR(n.client->flush(p));
  if (n.client_proxy) return n.client_proxy->signal_write_back(p);
  return Status::ok();
}

Status Testbed::signal_flush(sim::Process& p, int node) {
  // gvfs-lint: allow(yield-stale-ref) nodes_ is append-only during setup and each Node is heap-owned (unique_ptr), never erased mid-run
  Node& n = *nodes_.at(static_cast<std::size_t>(node));
  GVFS_RETURN_IF_ERROR(n.client->flush(p));
  if (n.client_proxy) return n.client_proxy->signal_flush(p);
  return Status::ok();
}

void Testbed::drop_all_caches() {
  for (auto& n : nodes_) {
    if (n->client) n->client->drop_caches();
    if (n->client_proxy) n->client_proxy->drop_soft_state();
    if (n->block_cache) n->block_cache->invalidate_all();
    if (n->file_cache) n->file_cache->invalidate_all();
    n->local->drop_caches();
  }
  for (auto& o : origins_) {
    o->server->drop_caches();
    o->proxy->drop_soft_state();
  }
  if (lan_proxy_) lan_proxy_->drop_soft_state();
  if (lan_block_cache_) lan_block_cache_->invalidate_all();
  if (lan_endpoint_) lan_endpoint_->invalidate_all();
}

Status Testbed::prewarm_lan_cache(sim::Process& p, const vm::VmImagePaths& image) {
  if (!lan_endpoint_) return err(ErrCode::kInval, "no LAN cache node in this scenario");
  // Image paths are mount-relative; resolve against the server export.
  GVFS_ASSIGN_OR_RETURN(vfs::FileId id,
                        image_fs().resolve(image_dir() + image.vmss()));
  return lan_endpoint_->prefetch(p, id);
}

Status Testbed::refresh_image_metadata(sim::Process& p, const vm::VmImagePaths& image) {
  if (opt_.scenario == Scenario::kLocal) return Status::ok();
  vm::VmImagePaths server_paths{image_dir(), image.name};
  // The scan streams the state file off a replica of its shard (zero-map
  // pass); every origin then stores the same meta-data bytes.
  GVFS_ASSIGN_OR_RETURN(vfs::FileId vmss_id, image_fs().resolve(server_paths.vmss()));
  // gvfs-lint: allow(yield-stale-ref) origins_ is fixed after construction and each Origin is heap-owned
  Origin& src = *origins_[file_holders_(vmss_id)[0]];
  GVFS_ASSIGN_OR_RETURN(blob::BlobRef vmss, src.fs->get_file(server_paths.vmss()));
  src.disk->access(p, vmss->size(), sim::Locality::kSequential);
  GVFS_RETURN_IF_ERROR(vm::generate_vmss_metadata(*src.fs, server_paths, 8_KiB, true,
                                                  meta_fp_block_size_(),
                                                  opt_.block_cache.dedup_seed));
  const std::string meta_path = meta::MetaFile::meta_path_for(server_paths.vmss());
  GVFS_ASSIGN_OR_RETURN(blob::BlobRef meta, src.fs->get_file(meta_path));
  for (auto& o : origins_) {
    if (o.get() != &src) GVFS_RETURN_IF_ERROR(o->fs->put_file(meta_path, meta).status());
  }
  return Status::ok();
}

nfs::NfsClient* Testbed::nfs_client(int node) {
  return nodes_.at(static_cast<std::size_t>(node))->client.get();
}

proxy::GvfsProxy* Testbed::client_proxy(int node) {
  return nodes_.at(static_cast<std::size_t>(node))->client_proxy.get();
}

cache::ProxyDiskCache* Testbed::block_cache(int node) {
  return nodes_.at(static_cast<std::size_t>(node))->block_cache.get();
}

cache::FileCache* Testbed::file_cache(int node) {
  return nodes_.at(static_cast<std::size_t>(node))->file_cache.get();
}

rpc::RetryChannel* Testbed::retry_channel(int node) {
  const Node& n = *nodes_.at(static_cast<std::size_t>(node));
  return n.upstream.stacks.empty() ? nullptr : n.upstream.stacks[0].retry.get();
}

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

double rate(u64 hits, u64 misses) {
  u64 total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

std::string Testbed::metrics_json() const {
  metrics::Registry::Snapshot snap = registry_.snapshot();

  // Derived figures the paper's evaluation reads directly.
  u64 retransmits = 0;
  u64 timeouts = 0;
  auto count_retries = [&](const Upstream& u) {
    for (const ChannelStack& s : u.stacks) {
      if (!s.retry) continue;
      retransmits += s.retry->retransmits();
      timeouts += s.retry->timeouts();
    }
  };
  if (lan_upstream_) count_retries(*lan_upstream_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = *nodes_[i];
    count_retries(n.upstream);
    if (!opt_.per_node_metrics) continue;
    std::string tag = "node" + std::to_string(i);
    if (n.block_cache) {
      snap.emplace_back(tag + ".block_cache.hit_rate",
                        fmt_double(rate(n.block_cache->hits(), n.block_cache->misses())));
    }
    if (n.file_cache) {
      snap.emplace_back(tag + ".file_cache.hit_rate",
                        fmt_double(rate(n.file_cache->hits(), n.file_cache->misses())));
    }
    if (n.client_proxy) {
      snap.emplace_back(tag + ".proxy.outage_seconds",
                        fmt_double(to_seconds(n.client_proxy->outage_time())));
      snap.emplace_back(
          tag + ".proxy.last_recovery_seconds",
          fmt_double(to_seconds(n.client_proxy->last_recovery_time())));
    }
  }
  snap.emplace_back("derived.total_retransmits", std::to_string(retransmits));
  snap.emplace_back("derived.total_timeouts", std::to_string(timeouts));
  std::sort(snap.begin(), snap.end());
  return metrics::Registry::render_json(snap);
}

std::string Testbed::trace_json() const {
  return tracer_ ? tracer_->to_json() : "[]";
}

Status Testbed::dump_trace_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return err(ErrCode::kInternal, "cannot open trace file");
  std::string j = trace_json();
  std::fwrite(j.data(), 1, j.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return Status::ok();
}

}  // namespace gvfs::core
