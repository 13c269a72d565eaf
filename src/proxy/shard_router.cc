#include "proxy/shard_router.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"

namespace gvfs::proxy {

namespace {

// Seed for the combined write verifier ("clusterv"); any fixed value works,
// it only has to be stable across WRITE and COMMIT synthesis.
constexpr u64 kCombinedVerfSeed = 0x636c757374657276ULL;

// EWMA smoothing for per-origin read latency (higher = more reactive).
constexpr double kLatencyAlpha = 0.25;
// Minimum spacing between reintegration probes of one dead origin.
constexpr SimDuration kProbeInterval = 2 * kSecond;

bool timed_out(const rpc::RpcReply& r) {
  return r.status.code() == ErrCode::kTimeout;
}

double to_ms(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

bool is_proc(const rpc::RpcCall& call, nfs::Proc proc) {
  return call.prog == rpc::kNfsProgram && static_cast<nfs::Proc>(call.proc) == proc;
}

nfs::Route route_of(const rpc::RpcCall& call) {
  return call.prog == rpc::kNfsProgram ? nfs::proc_info(call.proc).route
                                       : nfs::Route::kAnyOrigin;
}

// A replica's write verifier, from a successful Res (WriteRes or CommitRes).
template <typename Res>
u64 verifier_of(const rpc::RpcReply& reply) {
  auto res = rpc::message_cast<Res>(reply.result);
  return (res && res->status == ErrCode::kOk) ? res->verifier : 0;
}

// `reply` with its verifier replaced by `combined`, if it is a successful Res.
template <typename Res>
rpc::RpcReply with_verifier(const rpc::RpcCall& call, rpc::RpcReply reply, u64 combined) {
  auto res = rpc::message_cast<Res>(reply.result);
  if (!res || res->status != ErrCode::kOk) return reply;
  auto out = std::make_shared<Res>(*res);
  out->verifier = combined;
  return rpc::make_reply(call, out);
}

}  // namespace

ShardMap::ShardMap(u32 origins, u32 replicas) : sets_(origins) {
  replicas = std::clamp<u32>(replicas, 1, origins);
  for (u32 s = 0; s < origins; ++s) {
    for (u32 k = 0; k < replicas; ++k) sets_[s].push_back((s + k) % origins);
  }
}

ShardRouter::ShardRouter(std::vector<rpc::RpcChannel*> origins,
                         ShardRouterConfig cfg)
    : cfg_(std::move(cfg)),
      chans_(std::move(origins)),
      map_(static_cast<u32>(chans_.size()), cfg_.replicas) {
  assert(!chans_.empty() && "ShardRouter needs at least one origin");
  origins_.resize(chans_.size());
}

int ShardRouter::best_read_replica_(const std::vector<u32>& set) const {
  // The returned index is only as good as the live set it was scanned from;
  // the caller dereferences it immediately, so the scan must not yield.
  YieldGuard yield_free(live_set_epoch_);
  int best = -1;
  double best_ms = 0.0;
  for (u32 j : set) {
    const Origin& o = origins_[j];
    if (!o.live) continue;
    // An unsampled replica estimates 0 so it gets traffic immediately; the
    // strict < keeps the earlier replica-set position on ties.
    double est = o.ewma_valid ? o.ewma_ms : 0.0;
    if (best < 0 || est < best_ms) {
      best = static_cast<int>(j);
      best_ms = est;
    }
  }
  return best;
}

void ShardRouter::note_read_latency_(u32 j, double sample_ms) {
  Origin& o = origins_[j];
  if (!o.ewma_valid) {
    o.ewma_ms = sample_ms;
    o.ewma_valid = true;
    return;
  }
  o.ewma_ms = kLatencyAlpha * sample_ms + (1.0 - kLatencyAlpha) * o.ewma_ms;
}

void ShardRouter::mark_dead_(sim::Process& p, u32 j) {
  Origin& o = origins_[j];
  if (!o.live) return;
  o.live = false;
  ++o.dead_epoch;
  live_set_epoch_.bump();
  o.died_at = p.now();
  o.next_probe = p.now() + kProbeInterval;
  failovers_.inc();
}

void ShardRouter::journal_op_(u32 j, const rpc::RpcCall& call) {
  // COMMITs are never journaled: replay upgrades WRITEs to FILE_SYNC, which
  // subsumes them.
  if (is_proc(call, nfs::Proc::kCommit)) return;
  origins_[j].journal.push_back(
      Origin::JournalEntry{call.prog, call.vers, call.proc, call.cred, call.args});
  journal_epoch_.bump();
  journaled_ops_.inc();
}

void ShardRouter::maybe_probe_(sim::Process& p) {
  // gvfs-lint: allow(yield-index-loop) origins_ is a deque sized once at construction; indices and element addresses are stable for the router's lifetime
  for (u32 j = 0; j < origin_count(); ++j) {
    const Origin& o = origins_[j];
    if (o.live || o.reintegrating || p.now() < o.next_probe) continue;
    (void)try_reintegrate_(p, j);
  }
}

void ShardRouter::resync(sim::Process& p) {
  // gvfs-lint: allow(yield-index-loop) origins_ is a deque sized once at construction; indices and element addresses are stable for the router's lifetime
  for (u32 j = 0; j < origin_count(); ++j) {
    if (origins_[j].live) continue;
    origins_[j].next_probe = p.now();
    (void)try_reintegrate_(p, j);
  }
}

bool ShardRouter::try_reintegrate_(sim::Process& p, u32 j) {
  // gvfs-lint: allow(yield-stale-ref) origins_ is a deque sized once at construction: the reference cannot dangle, and the reintegrating flag makes this fiber the only resyncer of origin j
  Origin& o = origins_[j];
  if (o.live) return true;
  if (o.reintegrating) return false;
  o.reintegrating = true;
  o.next_probe = p.now() + kProbeInterval;
  probes_.inc();

  rpc::RpcCall ping;
  ping.xid = fresh_xid_();
  ping.prog = rpc::kNfsProgram;
  ping.vers = rpc::kNfsVersion3;
  ping.proc = static_cast<u32>(nfs::Proc::kNull);
  rpc::RpcReply pong = chans_[j]->call(p, ping);
  if (timed_out(pong)) {
    probe_failures_.inc();
    o.next_probe = p.now() + kProbeInterval;
    o.reintegrating = false;
    return false;
  }

  // Catch-up resync: replay the journal in order with fresh xids. Writers
  // that run while we're blocked inside a replay RPC still see the origin as
  // dead and append to the journal; the loop drains those too, and nothing
  // yields between the final emptiness check and going live.
  for (;;) {
    {
      // The emptiness check and the go-live flip below must run back-to-back:
      // a yield sneaking in between would let a writer journal an op that
      // this reintegration then silently skips. The analyzer proves this
      // stretch yield-free; the guard turns the proof into a debug assertion.
      YieldGuard yield_free(journal_epoch_);
      if (o.journal.empty()) {
        o.live = true;
        live_set_epoch_.bump();
        break;
      }
    }
    Origin::JournalEntry e = std::move(o.journal.front());
    o.journal.pop_front();
    journal_epoch_.bump();
    rpc::RpcCall c;
    c.xid = fresh_xid_();
    c.prog = e.prog;
    c.vers = e.vers;
    c.proc = e.proc;
    c.cred = e.cred;
    c.args = e.args;
    if (is_proc(c, nfs::Proc::kWrite)) {
      if (auto wa = rpc::message_cast<nfs::WriteArgs>(e.args)) {
        // Replayed data must not depend on a verifier round trip again:
        // upgrade to FILE_SYNC so the origin is durable when it rejoins.
        auto up = std::make_shared<nfs::WriteArgs>(*wa);
        up->stable = nfs::StableHow::kFileSync;
        c.args = up;
      }
    }
    rpc::RpcReply r = chans_[j]->call(p, c);
    if (timed_out(r)) {
      // Died again mid-replay: put the op back and stay dead.
      o.journal.push_front(std::move(e));
      journal_epoch_.bump();
      probe_failures_.inc();
      o.next_probe = p.now() + kProbeInterval;
      o.reintegrating = false;
      return false;
    }
    replayed_ops_.inc();
    if (!r.status.is_ok()) {
      // E.g. a replayed CREATE hitting kExist because the origin executed
      // the original before crashing (the reply was what got lost). The
      // namespace already converged; note it and continue.
      replay_conflicts_.inc();
    }
  }

  o.reintegrating = false;
  // Seed the read-latency estimate from the slowest live peer instead of
  // resetting it: an invalid estimate scores 0.0 in best_read_replica_, so a
  // rejoined replica (cold page cache, mid-resync) used to instantly absorb
  // the full read fan-out. Seeding at the peers' ceiling lets real samples
  // decay it into place without the thundering herd.
  double peer_ceiling = 0.0;
  bool have_peer = false;
  // gvfs-lint: allow(yield-index-loop) origins_ is a deque sized once at construction; this scan does not yield
  for (u32 k = 0; k < origin_count(); ++k) {
    if (k == j || !origins_[k].live || !origins_[k].ewma_valid) continue;
    peer_ceiling = std::max(peer_ceiling, origins_[k].ewma_ms);
    have_peer = true;
  }
  o.ewma_valid = have_peer;
  o.ewma_ms = have_peer ? peer_ceiling : 0.0;
  double outage = to_ms(p.now() - o.died_at);
  outage_ms_.observe(outage);
  last_outage_ms_ = outage;
  resyncs_.inc();
  return true;
}

u64 ShardRouter::combined_verf_(const std::vector<u32>& set,
                                std::span<const std::optional<u64>> verf) const {
  // The combined verifier must reflect one consistent live-set snapshot:
  // a yield mid-fold could mix dead-epochs from before and after a failover.
  YieldGuard yield_free(live_set_epoch_);
  u64 combined = kCombinedVerfSeed;
  for (std::size_t k = 0; k < set.size(); ++k) {
    u32 j = set[k];
    // A dead replica contributes its dead-epoch instead of a verifier: the
    // value is stable while it stays dead (re-sent WRITEs and the following
    // COMMIT agree and can ack), but any death or reintegration in between
    // shifts it and forces the proxy's re-send path.
    u64 part = verf[k] ? hash_combine(static_cast<u64>(j) + 1, *verf[k])
                       : hash_combine(0xdeadULL, (static_cast<u64>(j) + 1) ^
                                                   origins_[j].dead_epoch);
    combined = hash_combine(combined, part);
  }
  return combined;
}

void ShardRouter::send(sim::Process& p, std::span<const rpc::RpcCall> calls,
                       std::span<rpc::RpcReply> replies) {
  if (calls.empty()) return;
  maybe_probe_(p);
  // A single call, or a burst of one read or write procedure on one shard
  // (the proxy's prefetch and flush paths are exactly these), keeps its
  // burst shape; anything else is routed call by call.
  auto one_shard_op = [&] {
    const nfs::Route route = route_of(calls[0]);
    const nfs::Fh fh0 = nfs::call_handle(calls[0]);
    if (!fh0.valid() ||
        (route != nfs::Route::kReadOne && route != nfs::Route::kQuorumWrite)) {
      return false;
    }
    const auto proc = static_cast<nfs::Proc>(calls[0].proc);
    return std::all_of(calls.begin() + 1, calls.end(), [&](const rpc::RpcCall& c) {
      const nfs::Fh f = nfs::call_handle(c);
      return is_proc(c, proc) && f.valid() && shard_of(f) == shard_of(fh0);
    });
  };
  if (calls.size() == 1 || one_shard_op()) {
    route_(p, calls, replies);
    return;
  }
  for (std::size_t i = 0; i < calls.size(); ++i) {
    route_(p, calls.subspan(i, 1), replies.subspan(i, 1));
  }
}

void ShardRouter::route_(sim::Process& p, std::span<const rpc::RpcCall> calls,
                         std::span<rpc::RpcReply> out) {
  const rpc::RpcCall& first = calls[0];
  const nfs::Route route = route_of(first);
  if (route == nfs::Route::kBroadcast) {
    out[0] = broadcast_(p, first);
    return;
  }
  const nfs::Fh fh = nfs::call_handle(first);
  if (!fh.valid() || route == nfs::Route::kAnyOrigin) {
    out[0] = any_origin_(p, first);
  } else if (route == nfs::Route::kReadOne) {
    read_(p, calls, out, shard_of(fh));
  } else {
    write_(p, calls, out, shard_of(fh));
  }
}

void ShardRouter::read_(sim::Process& p, std::span<const rpc::RpcCall> calls,
                        std::span<rpc::RpcReply> out, u32 shard) {
  const int j = best_read_replica_(replicas_of(shard));
  if (j < 0) {
    for (std::size_t i = 0; i < calls.size(); ++i) {
      out[i] = rpc::make_error_reply(calls[i], err(ErrCode::kTimeout, "no live replica"));
    }
    return;
  }
  const SimTime t0 = p.now();
  chans_[j]->send(p, calls, out);
  std::vector<std::size_t> lost;  // stays unallocated while the replica lives
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (timed_out(out[i])) {
      lost.push_back(i);
    } else {
      origins_[j].reads_routed.inc();
    }
  }
  if (lost.empty()) {
    note_read_latency_(static_cast<u32>(j),
                       to_ms(p.now() - t0) / static_cast<double>(calls.size()));
  } else {
    mark_dead_(p, static_cast<u32>(j));
    read_reroutes_.inc();
  }
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (is_proc(calls[i], nfs::Proc::kLookup) && !timed_out(out[i])) {
      out[i] = patch_lookup_attrs_(p, calls[i], std::move(out[i]), static_cast<u32>(j));
    }
  }
  if (lost.empty()) return;
  std::vector<rpc::RpcCall> again;
  again.reserve(lost.size());
  for (std::size_t i : lost) again.push_back(calls[i]);
  std::vector<rpc::RpcReply> replies(lost.size());
  read_(p, again, replies, shard);
  for (std::size_t k = 0; k < lost.size(); ++k) out[lost[k]] = std::move(replies[k]);
}

rpc::RpcReply ShardRouter::patch_lookup_attrs_(sim::Process& p,
                                               const rpc::RpcCall& call,
                                               rpc::RpcReply reply, u32 served) {
  if (!reply.status.is_ok()) return reply;
  auto res = rpc::message_cast<nfs::LookupRes>(reply.result);
  if (!res || res->status != ErrCode::kOk || !res->fh.valid()) return reply;
  const std::vector<u32>& home = replicas_of(shard_of(res->fh));
  if (std::find(home.begin(), home.end(), served) != home.end()) return reply;
  // The directory's replica answered, but the object's data (and thus its
  // size/mtime) lives on another shard: fetch authoritative attrs there.
  int j = best_read_replica_(home);
  if (j < 0) return reply;  // whole home shard dead — stale attrs beat none
  rpc::RpcCall ga;
  ga.xid = fresh_xid_();
  ga.prog = rpc::kNfsProgram;
  ga.vers = rpc::kNfsVersion3;
  ga.proc = static_cast<u32>(nfs::Proc::kGetattr);
  ga.cred = call.cred;
  auto args = std::make_shared<nfs::GetattrArgs>();
  args->fh = res->fh;
  ga.args = args;
  SimTime t0 = p.now();
  rpc::RpcReply gr = chans_[j]->call(p, ga);
  if (timed_out(gr)) {
    mark_dead_(p, static_cast<u32>(j));
    return reply;
  }
  origins_[j].reads_routed.inc();
  note_read_latency_(static_cast<u32>(j), to_ms(p.now() - t0));
  auto gres = rpc::message_cast<nfs::GetattrRes>(gr.result);
  if (!gr.status.is_ok() || !gres || gres->status != ErrCode::kOk) return reply;
  auto patched = std::make_shared<nfs::LookupRes>(*res);
  patched->obj_attr.attr = gres->attr.a;
  lookup_patches_.inc();
  return rpc::make_reply(call, patched);
}

sim::Semaphore& ShardRouter::shard_write_lock_(sim::Process& p, u32 shard) {
  if (shard_write_locks_.empty()) shard_write_locks_.resize(chans_.size());
  auto& slot = shard_write_locks_[shard];
  if (!slot) {
    slot = std::make_unique<sim::Semaphore>(
        p.kernel(), 1, cfg_.name + "-shard" + std::to_string(shard) + "-write");
  }
  return *slot;
}

void ShardRouter::write_(sim::Process& p, std::span<const rpc::RpcCall> calls,
                         std::span<rpc::RpcReply> out, u32 shard) {
  const auto proc = static_cast<nfs::Proc>(calls[0].proc);
  const bool is_commit = proc == nfs::Proc::kCommit;
  const bool is_lease = proc == nfs::Proc::kLeaseAcquire ||
                        proc == nfs::Proc::kLeaseRelease;
  (is_commit ? quorum_commits_ : quorum_writes_).inc(calls.size());
  // Serializing the fan-out is the point of this permit: a second writer
  // slipping in while this one is blocked on a replica RPC could execute in
  // one order on the live replicas but journal in the opposite order for a
  // dead one, and the replay would diverge the replicas. A burst holds it
  // throughout, so it lands in the same relative order everywhere.
  // gvfs-yield: allow-held per-shard writer serialization must span the whole replica fan-out
  sim::ScopedPermit writer(p, shard_write_lock_(p, shard));
  // gvfs-lint: allow(yield-stale-ref) the shard map is fixed at construction
  const std::vector<u32>& set = replicas_of(shard);
  const std::size_t r = set.size();
  // verf[i * r + k]: replica set[k]'s verifier for call i, if it acked.
  std::vector<std::optional<u64>> verf(calls.size() * r);
  auto acked = [&](std::size_t i) {
    return std::any_of(verf.begin() + static_cast<std::ptrdiff_t>(i * r),
                       verf.begin() + static_cast<std::ptrdiff_t>((i + 1) * r),
                       [](const std::optional<u64>& v) { return v.has_value(); });
  };
  // out[i] holds call i's first ack, else its first replica error.
  for (rpc::RpcReply& o : out) o = {};
  std::vector<rpc::RpcReply> replies(calls.size());
  for (std::size_t k = 0; k < r; ++k) {
    const u32 j = set[k];
    if (!origins_[j].live) {
      for (const rpc::RpcCall& c : calls) journal_op_(j, c);
      continue;
    }
    chans_[j]->send(p, calls, replies);
    bool died = false;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      if (timed_out(replies[i])) {
        died = true;
        journal_op_(j, calls[i]);
        continue;
      }
      const bool had_ack = acked(i);
      if (replies[i].status.is_ok()) {
        origins_[j].writes_routed.inc();
        verf[i * r + k] = is_commit ? verifier_of<nfs::CommitRes>(replies[i])
                                    : verifier_of<nfs::WriteRes>(replies[i]);
        if (!had_ack) out[i] = std::move(replies[i]);
      } else if (!had_ack && out[i].status.is_ok()) {
        out[i] = std::move(replies[i]);
      }
    }
    if (died) mark_dead_(p, j);
  }
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (!acked(i)) {
      if (out[i].status.is_ok()) {
        out[i] = rpc::make_error_reply(
            calls[i], err(ErrCode::kTimeout, "no live replica for shard"));
      }
      continue;
    }
    // Lease ops carry no write verifier: the first live replica's verdict is
    // the shard's verdict (replicas process the serialized fan-out in the
    // same order, so their lease tables agree).
    if (is_lease) continue;
    const u64 combined = combined_verf_(set, std::span(verf).subspan(i * r, r));
    out[i] = is_commit ? with_verifier<nfs::CommitRes>(calls[i], std::move(out[i]), combined)
                       : with_verifier<nfs::WriteRes>(calls[i], std::move(out[i]), combined);
  }
}

rpc::RpcReply ShardRouter::broadcast_(sim::Process& p, const rpc::RpcCall& call) {
  broadcasts_.inc();
  rpc::RpcReply best;
  bool have = false;
  rpc::RpcReply first_err;
  bool have_err = false;
  // gvfs-lint: allow(yield-index-loop) origins_ is a deque sized once at construction; liveness is re-read from origins_[j] on each round
  for (u32 j = 0; j < origin_count(); ++j) {
    if (!origins_[j].live) {
      journal_op_(j, call);
      continue;
    }
    rpc::RpcReply r = chans_[j]->call(p, call);
    if (timed_out(r)) {
      mark_dead_(p, j);
      journal_op_(j, call);
      continue;
    }
    if (!r.status.is_ok()) {
      if (!have_err) {
        first_err = std::move(r);
        have_err = true;
      }
      continue;
    }
    if (!have) {
      best = std::move(r);
      have = true;
    }
  }
  if (have) return best;
  if (have_err) return first_err;
  return rpc::make_error_reply(call, err(ErrCode::kTimeout, "no live origin"));
}

rpc::RpcReply ShardRouter::any_origin_(sim::Process& p, const rpc::RpcCall& call) {
  // gvfs-lint: allow(yield-index-loop) origins_ is a deque sized once at construction; liveness is re-read from origins_[j] on each round
  for (u32 j = 0; j < origin_count(); ++j) {
    if (!origins_[j].live) continue;
    rpc::RpcReply r = chans_[j]->call(p, call);
    if (timed_out(r)) {
      mark_dead_(p, j);
      continue;
    }
    return r;
  }
  return rpc::make_error_reply(call, err(ErrCode::kTimeout, "no live origin"));
}

void ShardRouter::register_metrics(metrics::Registry& r,
                                   const std::string& prefix) const {
  r.register_counter(prefix + "failovers", &failovers_);
  r.register_counter(prefix + "resyncs", &resyncs_);
  r.register_counter(prefix + "probes", &probes_);
  r.register_counter(prefix + "probe_failures", &probe_failures_);
  r.register_counter(prefix + "journaled_ops", &journaled_ops_);
  r.register_counter(prefix + "replayed_ops", &replayed_ops_);
  r.register_counter(prefix + "replay_conflicts", &replay_conflicts_);
  r.register_counter(prefix + "quorum_writes", &quorum_writes_);
  r.register_counter(prefix + "quorum_commits", &quorum_commits_);
  r.register_counter(prefix + "broadcasts", &broadcasts_);
  r.register_counter(prefix + "read_reroutes", &read_reroutes_);
  r.register_counter(prefix + "lookup_patches", &lookup_patches_);
  r.register_histogram(prefix + "outage_ms", &outage_ms_);
  for (std::size_t j = 0; j < origins_.size(); ++j) {
    std::string op = prefix + "origin" + std::to_string(j) + ".";
    r.register_counter(op + "reads_routed", &origins_[j].reads_routed);
    r.register_counter(op + "writes_routed", &origins_[j].writes_routed);
  }
}

}  // namespace gvfs::proxy
