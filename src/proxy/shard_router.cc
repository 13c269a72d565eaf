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

}  // namespace

ShardRouter::ShardRouter(std::vector<rpc::RpcChannel*> origins,
                         ShardRouterConfig cfg)
    : cfg_(std::move(cfg)), chans_(std::move(origins)) {
  assert(!chans_.empty() && "ShardRouter needs at least one origin");
  cfg_.replicas = std::max<u32>(1, cfg_.replicas);
  cfg_.replicas = std::min<u32>(cfg_.replicas, static_cast<u32>(chans_.size()));
  origins_.resize(chans_.size());
}

std::vector<u32> ShardRouter::replicas_of(u32 shard) const {
  std::vector<u32> set;
  set.reserve(cfg_.replicas);
  for (u32 k = 0; k < cfg_.replicas; ++k) {
    set.push_back((shard + k) % static_cast<u32>(chans_.size()));
  }
  return set;
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
  if (call.prog == rpc::kNfsProgram &&
      static_cast<nfs::Proc>(call.proc) == nfs::Proc::kCommit) {
    return;
  }
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
    if (c.prog == rpc::kNfsProgram &&
        static_cast<nfs::Proc>(c.proc) == nfs::Proc::kWrite) {
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
                                const std::vector<char>& ok,
                                const std::vector<u64>& verf) const {
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
    u64 part = ok[k] ? hash_combine(static_cast<u64>(j) + 1, verf[k])
                     : hash_combine(0xdeadULL, (static_cast<u64>(j) + 1) ^
                                                   origins_[j].dead_epoch);
    combined = hash_combine(combined, part);
  }
  return combined;
}

rpc::RpcReply ShardRouter::call(sim::Process& p, const rpc::RpcCall& call) {
  maybe_probe_(p);
  const nfs::Route route = call.prog == rpc::kNfsProgram
                               ? nfs::proc_info(call.proc).route
                               : nfs::Route::kAnyOrigin;
  if (route == nfs::Route::kBroadcast) return broadcast_(p, call);
  nfs::Fh fh = nfs::call_handle(call);
  if (!fh.valid()) return any_origin_(p, call);
  if (route == nfs::Route::kReadOne) return read_one_(p, call, fh);
  if (route == nfs::Route::kQuorumWrite) return quorum_write_(p, call, fh);
  return any_origin_(p, call);
}

rpc::RpcReply ShardRouter::read_one_(sim::Process& p, const rpc::RpcCall& call,
                                     const nfs::Fh& fh) {
  std::vector<u32> set = replicas_of(shard_of(fh));
  for (;;) {
    int j = best_read_replica_(set);
    if (j < 0) {
      return rpc::make_error_reply(call,
                                   err(ErrCode::kTimeout, "no live replica"));
    }
    SimTime t0 = p.now();
    rpc::RpcReply r = chans_[j]->call(p, call);
    if (timed_out(r)) {
      mark_dead_(p, static_cast<u32>(j));
      read_reroutes_.inc();
      continue;
    }
    origins_[j].reads_routed.inc();
    note_read_latency_(static_cast<u32>(j), to_ms(p.now() - t0));
    if (static_cast<nfs::Proc>(call.proc) == nfs::Proc::kLookup) {
      return patch_lookup_attrs_(p, call, std::move(r), static_cast<u32>(j));
    }
    return r;
  }
}

rpc::RpcReply ShardRouter::patch_lookup_attrs_(sim::Process& p,
                                               const rpc::RpcCall& call,
                                               rpc::RpcReply reply, u32 served) {
  if (!reply.status.is_ok()) return reply;
  auto res = rpc::message_cast<nfs::LookupRes>(reply.result);
  if (!res || res->status != ErrCode::kOk || !res->fh.valid()) return reply;
  std::vector<u32> home = replicas_of(shard_of(res->fh));
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

rpc::RpcReply ShardRouter::quorum_write_(sim::Process& p,
                                         const rpc::RpcCall& call,
                                         const nfs::Fh& fh) {
  const auto proc = static_cast<nfs::Proc>(call.proc);
  const bool is_commit = proc == nfs::Proc::kCommit;
  const bool is_lease = proc == nfs::Proc::kLeaseAcquire ||
                        proc == nfs::Proc::kLeaseRelease;
  (is_commit ? quorum_commits_ : quorum_writes_).inc();
  // Serializing the fan-out is the point of this permit: a second writer
  // slipping in while this one is blocked on a replica RPC could execute in
  // one order on the live replicas but journal in the opposite order for a
  // dead one, and the replay would diverge the replicas.
  // gvfs-yield: allow-held per-shard writer serialization must span the whole replica fan-out
  sim::ScopedPermit writer(p, shard_write_lock_(p, shard_of(fh)));
  std::vector<u32> set = replicas_of(shard_of(fh));
  std::vector<char> ok(set.size(), 0);
  std::vector<u64> verf(set.size(), 0);
  rpc::RpcReply first_ok;
  bool have_ok = false;
  rpc::RpcReply first_err;
  bool have_err = false;
  for (std::size_t k = 0; k < set.size(); ++k) {
    u32 j = set[k];
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
    origins_[j].writes_routed.inc();
    ok[k] = 1;
    if (is_commit) {
      auto res = rpc::message_cast<nfs::CommitRes>(r.result);
      verf[k] = (res && res->status == ErrCode::kOk) ? res->verifier : 0;
    } else {
      auto res = rpc::message_cast<nfs::WriteRes>(r.result);
      verf[k] = (res && res->status == ErrCode::kOk) ? res->verifier : 0;
    }
    if (!have_ok) {
      first_ok = std::move(r);
      have_ok = true;
    }
  }
  if (!have_ok) {
    if (have_err) return first_err;
    return rpc::make_error_reply(
        call, err(ErrCode::kTimeout, "no live replica for shard"));
  }
  // Lease ops carry no write verifier: the first live replica's verdict is
  // the shard's verdict (replicas process the serialized fan-out in the same
  // order, so their lease tables agree).
  if (is_lease) return first_ok;
  u64 combined = combined_verf_(set, ok, verf);
  if (is_commit) {
    auto res = rpc::message_cast<nfs::CommitRes>(first_ok.result);
    if (!res || res->status != ErrCode::kOk) return first_ok;
    auto out = std::make_shared<nfs::CommitRes>(*res);
    out->verifier = combined;
    return rpc::make_reply(call, out);
  }
  auto res = rpc::message_cast<nfs::WriteRes>(first_ok.result);
  if (!res || res->status != ErrCode::kOk) return first_ok;
  auto out = std::make_shared<nfs::WriteRes>(*res);
  out->verifier = combined;
  return rpc::make_reply(call, out);
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

std::vector<rpc::RpcReply> ShardRouter::call_pipelined(
    sim::Process& p, const std::vector<rpc::RpcCall>& calls) {
  if (calls.empty()) return {};
  maybe_probe_(p);
  // Uniform single-shard READ and WRITE bursts keep their pipelined shape
  // (the proxy's prefetch and flush paths are exactly these); anything else
  // degrades to serial routing.
  bool uniform = calls[0].prog == rpc::kNfsProgram;
  auto proc0 = static_cast<nfs::Proc>(calls[0].proc);
  nfs::Fh fh0 = nfs::call_handle(calls[0]);
  uniform = uniform && fh0.valid() &&
            (proc0 == nfs::Proc::kRead || proc0 == nfs::Proc::kWrite);
  u32 shard0 = fh0.valid() ? shard_of(fh0) : 0;
  for (std::size_t i = 1; uniform && i < calls.size(); ++i) {
    if (calls[i].prog != rpc::kNfsProgram ||
        static_cast<nfs::Proc>(calls[i].proc) != proc0) {
      uniform = false;
      break;
    }
    nfs::Fh f = nfs::call_handle(calls[i]);
    if (!f.valid() || shard_of(f) != shard0) uniform = false;
  }
  if (!uniform) {
    std::vector<rpc::RpcReply> out;
    out.reserve(calls.size());
    for (const rpc::RpcCall& c : calls) out.push_back(call(p, c));
    return out;
  }
  if (proc0 == nfs::Proc::kRead) return pipelined_read_(p, calls, shard0);
  return pipelined_write_(p, calls, shard0);
}

std::vector<rpc::RpcReply> ShardRouter::pipelined_read_(
    sim::Process& p, const std::vector<rpc::RpcCall>& calls, u32 shard) {
  std::vector<u32> set = replicas_of(shard);
  std::vector<rpc::RpcReply> out(calls.size());
  std::vector<std::size_t> todo(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) todo[i] = i;
  while (!todo.empty()) {
    int j = best_read_replica_(set);
    if (j < 0) {
      for (std::size_t i : todo) {
        out[i] = rpc::make_error_reply(calls[i],
                                       err(ErrCode::kTimeout, "no live replica"));
      }
      break;
    }
    std::vector<rpc::RpcCall> batch;
    batch.reserve(todo.size());
    for (std::size_t i : todo) batch.push_back(calls[i]);
    SimTime t0 = p.now();
    std::vector<rpc::RpcReply> rs = chans_[j]->call_pipelined(p, batch);
    std::vector<std::size_t> next;
    for (std::size_t k = 0; k < rs.size(); ++k) {
      if (timed_out(rs[k])) {
        next.push_back(todo[k]);
      } else {
        origins_[j].reads_routed.inc();
        out[todo[k]] = std::move(rs[k]);
      }
    }
    if (!next.empty()) {
      mark_dead_(p, static_cast<u32>(j));
      read_reroutes_.inc();
    } else {
      note_read_latency_(static_cast<u32>(j),
                         to_ms(p.now() - t0) / static_cast<double>(rs.size()));
    }
    todo = std::move(next);
  }
  return out;
}

std::vector<rpc::RpcReply> ShardRouter::pipelined_write_(
    sim::Process& p, const std::vector<rpc::RpcCall>& calls, u32 shard) {
  // Same writer serialization as quorum_write_: the whole burst must land in
  // the same relative order on every replica's execution path and journal.
  // gvfs-yield: allow-held per-shard writer serialization must span the whole replica fan-out
  sim::ScopedPermit writer(p, shard_write_lock_(p, shard));
  std::vector<u32> set = replicas_of(shard);
  // ok[i][k] / verf[i][k]: call i's outcome on replica set[k].
  std::vector<std::vector<char>> ok(calls.size(),
                                    std::vector<char>(set.size(), 0));
  std::vector<std::vector<u64>> verf(calls.size(),
                                     std::vector<u64>(set.size(), 0));
  std::vector<rpc::RpcReply> first_ok(calls.size());
  std::vector<char> have(calls.size(), 0);
  for (std::size_t k = 0; k < set.size(); ++k) {
    u32 j = set[k];
    if (!origins_[j].live) {
      for (const rpc::RpcCall& c : calls) journal_op_(j, c);
      continue;
    }
    std::vector<rpc::RpcReply> rs = chans_[j]->call_pipelined(p, calls);
    bool died = false;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (timed_out(rs[i])) {
        died = true;
        journal_op_(j, calls[i]);
        continue;
      }
      if (!rs[i].status.is_ok()) continue;
      origins_[j].writes_routed.inc();
      auto res = rpc::message_cast<nfs::WriteRes>(rs[i].result);
      ok[i][k] = 1;
      verf[i][k] = (res && res->status == ErrCode::kOk) ? res->verifier : 0;
      if (!have[i]) {
        first_ok[i] = std::move(rs[i]);
        have[i] = 1;
      }
    }
    if (died) mark_dead_(p, j);
  }
  std::vector<rpc::RpcReply> out(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    quorum_writes_.inc();
    if (!have[i]) {
      out[i] = rpc::make_error_reply(
          calls[i], err(ErrCode::kTimeout, "no live replica for shard"));
      continue;
    }
    auto res = rpc::message_cast<nfs::WriteRes>(first_ok[i].result);
    if (!res || res->status != ErrCode::kOk) {
      out[i] = std::move(first_ok[i]);
      continue;
    }
    auto synth = std::make_shared<nfs::WriteRes>(*res);
    synth->verifier = combined_verf_(set, ok[i], verf[i]);
    out[i] = rpc::make_reply(calls[i], synth);
  }
  return out;
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
