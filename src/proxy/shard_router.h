// ShardRouter: a client-side rpc::RpcChannel that federates N replicated
// origin NfsServers into one logical NFS endpoint (the "image cluster",
// DESIGN.md §5.7). It slots between a GvfsProxy and its per-origin channel
// stacks, so the proxy's caching / write-back / degraded machinery runs
// unchanged above it.
//
// Routing policy (deterministic, derived only from the request). Each
// procedure's routing class and the handle it routes on are its row of
// nfs::kNfsProcTable; where a handle's data lives is the ShardMap below:
//   * reads (Route::kReadOne) go to the live replica with the lowest EWMA
//     latency (ties break on the lower origin index) — contention raises a
//     replica's EWMA and traffic drains to its peers, which is the
//     load-balancing mechanism;
//   * WRITE/COMMIT and the lease procedures (Route::kQuorumWrite) fan out to
//     every live replica of the shard and ack only after all of them
//     answered (R-quorum); the reply carries a *combined* write verifier
//     hashed over the per-replica verifiers in fixed replica order, with a
//     dead-epoch marker substituted for dead replicas. Any single replica
//     rebooting — or the live set changing between WRITE and COMMIT —
//     perturbs the combined verifier, so the proxy's existing RFC 1813
//     §3.3.7 mismatch path re-sends the unacked data: per-replica verifier
//     recovery falls out of the proxy's verifier check without proxy changes;
//   * namespace mutations (Route::kBroadcast) go to all N origins so every
//     origin holds the full namespace and FileIds stay aligned (identical
//     mutation order on every origin — concurrent cross-node namespace
//     mutation is out of scope, see ROADMAP item 4);
//   * NULL/FSSTAT/FSINFO/MOUNT (Route::kAnyOrigin) go to the lowest-indexed
//     live origin.
// One read path and one write path serve single calls and bursts alike: a
// burst of one procedure on one shard (the proxy's prefetch READs and flush
// WRITEs) travels to each replica pipelined, and a single call is a burst of
// one, sent through the replica stack's call().
//
// Failover: a kTimeout reply from a replica's channel stack (RetryChannel
// retransmission budget exhausted) marks it dead. Reads re-route to the next
// best replica; writes ack from the survivors and every op a dead origin
// missed is appended to its per-origin resync journal. Dead origins are
// probed lazily (NULL RPC, rate-limited) on subsequent traffic; a probe that
// answers triggers reintegration: the journal replays in order with fresh
// xids (WRITEs upgraded to FILE_SYNC so no unstable state is left behind),
// then the origin rejoins the live set. All of it is driven by the calling
// fibers — no background process — so runs are deterministic and
// stdout-invariance-gateable.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/mutation_epoch.h"
#include "nfs/nfs_types.h"
#include "rpc/rpc.h"
#include "sim/resources.h"

namespace gvfs::proxy {

// Where an N-origin cluster keeps each object: shard(fh) = fh.key() % N, and
// shard s is stored on replicas {s, s+1, .., s+R-1 mod N} (chained
// declustering, so a crash spreads its load over R-1 peers). The router
// routes by it; data placed beside the NFS path (the file channel) uses it
// too.
class ShardMap {
 public:
  ShardMap(u32 origins, u32 replicas);  // R is clamped to [1, N]

  [[nodiscard]] u32 shard_of(const nfs::Fh& fh) const {
    return static_cast<u32>(fh.key() % sets_.size());
  }
  // Origin indices storing `shard`, in quorum/verifier order.
  [[nodiscard]] const std::vector<u32>& replicas_of(u32 shard) const {
    return sets_[shard];
  }

 private:
  std::vector<std::vector<u32>> sets_;  // indexed by shard
};

struct ShardRouterConfig {
  std::string name = "shard-router";
  // R-way replication degree (clamped to the origin count).
  u32 replicas = 1;
};

class ShardRouter final : public rpc::RpcChannel {
 public:
  // `origins[j]` is the fully-decorated channel stack (tunnel / faults /
  // retry) leading to origin j. The router holds the pointers, not the
  // stacks; all must outlive it.
  ShardRouter(std::vector<rpc::RpcChannel*> origins, ShardRouterConfig cfg = {});

  rpc::RpcReply call(sim::Process& p, const rpc::RpcCall& call) override;
  std::vector<rpc::RpcReply> call_pipelined(
      sim::Process& p, const std::vector<rpc::RpcCall>& calls) override;

  // Probe every dead origin immediately (ignoring the probe back-off) and
  // replay its journal. Harnesses call this to force reintegration at a
  // known quiesce point; steady-state traffic reintegrates lazily.
  void resync(sim::Process& p);

  [[nodiscard]] u32 origin_count() const { return static_cast<u32>(chans_.size()); }
  [[nodiscard]] u32 shard_of(const nfs::Fh& fh) const { return map_.shard_of(fh); }
  [[nodiscard]] const std::vector<u32>& replicas_of(u32 shard) const {
    return map_.replicas_of(shard);
  }
  [[nodiscard]] bool origin_live(u32 j) const { return origins_[j].live; }
  [[nodiscard]] u64 journal_size(u32 j) const { return origins_[j].journal.size(); }
  [[nodiscard]] u64 reads_routed(u32 j) const { return origins_[j].reads_routed.value(); }
  [[nodiscard]] u64 writes_routed(u32 j) const { return origins_[j].writes_routed.value(); }

  [[nodiscard]] u64 failovers() const { return failovers_.value(); }
  [[nodiscard]] u64 resyncs() const { return resyncs_.value(); }
  [[nodiscard]] u64 probes() const { return probes_.value(); }
  [[nodiscard]] u64 journaled_ops() const { return journaled_ops_.value(); }
  [[nodiscard]] u64 replayed_ops() const { return replayed_ops_.value(); }
  [[nodiscard]] u64 replay_conflicts() const { return replay_conflicts_.value(); }
  [[nodiscard]] u64 read_reroutes() const { return read_reroutes_.value(); }
  [[nodiscard]] u64 lookup_patches() const { return lookup_patches_.value(); }
  // Virtual milliseconds the most recent reintegrated origin spent dead
  // (crash detection to journal fully replayed); 0 before any resync.
  [[nodiscard]] double last_outage_ms() const { return last_outage_ms_; }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const;

 private:
  // Per-origin routing state. Lives in a deque: metrics::Registry keeps raw
  // Counter pointers, so instruments need stable addresses.
  struct Origin {
    bool live = true;
    bool reintegrating = false;
    // Bumped each time the origin is declared dead; folded into combined
    // write verifiers in place of the replica's verifier so the live-set
    // change itself forces the proxy's mismatch re-send path.
    u64 dead_epoch = 0;
    SimTime died_at = 0;
    SimTime next_probe = 0;
    double ewma_ms = 0.0;  // read-path latency estimate
    bool ewma_valid = false;
    // Ops this origin missed while dead, replayed in order on reintegration.
    struct JournalEntry {
      u32 prog = 0;
      u32 vers = 0;
      u32 proc = 0;
      rpc::Credential cred;
      rpc::MessagePtr args;
    };
    std::deque<JournalEntry> journal;
    metrics::Counter reads_routed;
    metrics::Counter writes_routed;
  };

  [[nodiscard]] int best_read_replica_(const std::vector<u32>& set) const;
  void note_read_latency_(u32 j, double sample_ms);
  void mark_dead_(sim::Process& p, u32 j);
  void journal_op_(u32 j, const rpc::RpcCall& call);
  // Rate-limited probe + journal replay for any dead origin that is due.
  void maybe_probe_(sim::Process& p);
  // Returns true if origin j answered the probe and fully replayed.
  bool try_reintegrate_(sim::Process& p, u32 j);
  [[nodiscard]] u32 fresh_xid_() { return router_xid_++; }

  // Route::kReadOne: `calls` (one shard) go to the shard's best live replica
  // as one burst; the ones a dying replica lost re-route to the next best.
  void read_(sim::Process& p, std::span<const rpc::RpcCall> calls,
             std::span<rpc::RpcReply> out, u32 shard);
  // Route::kQuorumWrite: `calls` (one procedure, one shard) go to every live
  // replica as one burst each. A call acked by no replica answers with the
  // first replica error, else a timeout.
  void write_(sim::Process& p, std::span<const rpc::RpcCall> calls,
              std::span<rpc::RpcReply> out, u32 shard);
  // `calls` to origin j as one pipelined burst, replies into `out`. A burst
  // of one goes through call(): for a batch of one, every channel's
  // call_pipelined is equivalent to call.
  void send_(sim::Process& p, u32 j, std::span<const rpc::RpcCall> calls,
             std::span<rpc::RpcReply> out);
  rpc::RpcReply broadcast_(sim::Process& p, const rpc::RpcCall& call);
  rpc::RpcReply any_origin_(sim::Process& p, const rpc::RpcCall& call);
  // Replace a LOOKUP result's object attributes with fresh ones from the
  // object's own shard when the serving origin is not one of its replicas
  // (its data-bearing attrs — size/mtime — would otherwise be stale).
  rpc::RpcReply patch_lookup_attrs_(sim::Process& p, const rpc::RpcCall& call,
                                    rpc::RpcReply reply, u32 served);
  // Combined write verifier over the replica set in fixed order; verf[k] is
  // set[k]'s verifier if it acked, nullopt if it did not.
  [[nodiscard]] u64 combined_verf_(const std::vector<u32>& set,
                                   std::span<const std::optional<u64>> verf) const;

  // One writer at a time per shard. The quorum fan-out yields once per
  // replica, so two interleaved writers can land in one order on a live
  // replica but journal in the opposite order for a dead one — the replay
  // would then diverge the replicas. Lazily created: the Semaphore needs the
  // kernel, first seen via the calling fiber.
  sim::Semaphore& shard_write_lock_(sim::Process& p, u32 shard);

  ShardRouterConfig cfg_;
  std::vector<rpc::RpcChannel*> chans_;
  ShardMap map_;
  std::deque<Origin> origins_;
  std::vector<std::unique_ptr<sim::Semaphore>> shard_write_locks_;
  // Dynamic half of the yield-point analysis (DESIGN.md §5.8). journal_epoch_
  // moves on every journal push/pop across all origins; live_set_epoch_ on
  // every live flip / dead-epoch bump. YieldGuards in the yield-free readers
  // (best_read_replica_, combined_verf_, the reintegration go-live tail)
  // assert the respective state holds still where correctness depends on it.
  MutationEpoch journal_epoch_;
  MutationEpoch live_set_epoch_;
  u32 router_xid_ = 0x5A000000;  // router-originated RPCs (probes, replays)

  metrics::Counter failovers_;
  metrics::Counter resyncs_;
  metrics::Counter probes_;
  metrics::Counter probe_failures_;
  metrics::Counter journaled_ops_;
  metrics::Counter replayed_ops_;
  metrics::Counter replay_conflicts_;
  metrics::Counter quorum_writes_;
  metrics::Counter quorum_commits_;
  metrics::Counter broadcasts_;
  metrics::Counter read_reroutes_;
  metrics::Counter lookup_patches_;
  metrics::Histogram outage_ms_;
  double last_outage_ms_ = 0.0;
};

}  // namespace gvfs::proxy
