// Fault-injection and recovery tests (ctest label: faults): deterministic
// fault schedules, FaultyChannel drop semantics, NFS-style retransmission
// (RetryChannel), reply-xid verification, the server duplicate request
// cache, and end-to-end testbed runs under loss / partitions / crashes with
// the proxy's degraded mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "blob/blob.h"
#include "gvfs/testbed.h"
#include "nfs/nfs_client.h"
#include "nfs/nfs_server.h"
#include "rpc/fault_channel.h"
#include "rpc/retry_channel.h"
#include "sim/faults.h"
#include "sim/kernel.h"
#include "stub_channel.h"

namespace gvfs {
namespace {

using core::Scenario;
using core::Testbed;
using core::TestbedOptions;

// ---- stub channels ----------------------------------------------------------

// Always succeeds, echoing the call's args back as the result.
struct EchoChannel final : tests::PerCallChannel {
  u64 executed = 0;
  rpc::RpcReply on_call(sim::Process&, const rpc::RpcCall& c) override {
    ++executed;
    return rpc::make_reply(c, c.args);
  }
};

// Times out the first `fail_first` calls, then succeeds. Records the xid of
// every attempt so tests can pin down retransmission identity.
struct FlakyChannel final : tests::PerCallChannel {
  explicit FlakyChannel(int n) : fail_first(n) {}
  int fail_first;
  std::vector<u32> xids_seen;
  rpc::RpcReply on_call(sim::Process&, const rpc::RpcCall& c) override {
    xids_seen.push_back(c.xid);
    if (static_cast<int>(xids_seen.size()) <= fail_first) {
      return rpc::make_error_reply(c, err(ErrCode::kTimeout, "synthetic loss"));
    }
    return rpc::make_reply(c, c.args);
  }
};

// Burst stub: times out every entry of the first `fail_batches` bursts of
// several calls (batches); a burst of one (the retry path's reissue) always
// succeeds. Records every xid transmitted either way.
struct BatchFlakyChannel final : rpc::RpcChannel {
  explicit BatchFlakyChannel(int n) : fail_batches(n) {}
  int fail_batches;
  u64 single_calls = 0;
  std::vector<u32> xids_seen;
  void send(sim::Process&, std::span<const rpc::RpcCall> calls,
            std::span<rpc::RpcReply> replies) override {
    const bool batch = calls.size() > 1;
    if (!batch) ++single_calls;
    const bool fail = batch && fail_batches > 0;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      xids_seen.push_back(calls[i].xid);
      replies[i] = fail ? rpc::make_error_reply(calls[i], err(ErrCode::kTimeout, "loss"))
                        : rpc::make_reply(calls[i], calls[i].args);
    }
    if (fail) --fail_batches;
  }
};

// Passes calls through but corrupts the xid of successful replies while
// `corrupt` is set (a misbehaving server / crossed wires).
struct WrongXidChannel final : tests::PerCallChannel {
  explicit WrongXidChannel(rpc::RpcChannel& in) : inner(in) {}
  rpc::RpcChannel& inner;
  bool corrupt = true;
  rpc::RpcReply on_call(sim::Process& p, const rpc::RpcCall& c) override {
    rpc::RpcReply r = inner.call(p, c);
    if (corrupt && r.status.is_ok()) r.xid ^= 0x5a5a5a5a;
    return r;
  }
};

rpc::RpcCall make_call(u32 xid) {
  rpc::RpcCall c;
  c.xid = xid;
  c.prog = rpc::kNfsProgram;
  c.vers = rpc::kNfsVersion3;
  c.proc = static_cast<u32>(nfs::Proc::kGetattr);
  c.cred.uid = 1000;
  return c;
}

// ---- FaultInjector: schedule semantics --------------------------------------

TEST(FaultInjector, SameSeedSameSchedule) {
  auto draw_schedule = [](u64 seed) {
    sim::SimKernel k;
    k.seed_rng(seed);
    sim::FaultConfig cfg;
    cfg.drop_rate = 0.3;
    sim::FaultInjector inj(k, cfg);
    std::vector<bool> drops;
    for (int i = 0; i < 256; ++i) drops.push_back(inj.drop_request(i * kMillisecond, 0));
    return drops;
  };
  auto a = draw_schedule(0xabc);
  auto b = draw_schedule(0xabc);
  EXPECT_EQ(a, b);  // identical seed -> identical fault schedule
  EXPECT_NE(a, draw_schedule(0xdef));
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
  EXPECT_GT(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjector, PartitionAndCrashWindowsAreTotal) {
  sim::SimKernel k;
  sim::FaultConfig cfg;  // drop_rate 0: only the windows can drop traffic
  cfg.partitions.push_back(sim::FaultWindow{100, 200});
  cfg.crashes.push_back(sim::FaultWindow{300, 400});
  sim::FaultInjector inj(k, cfg);

  EXPECT_FALSE(inj.drop_request(50, 0));
  EXPECT_TRUE(inj.partitioned(150));
  EXPECT_TRUE(inj.drop_request(150, 0));
  EXPECT_TRUE(inj.drop_reply(150));
  EXPECT_FALSE(inj.partitioned(200));  // half-open window
  EXPECT_TRUE(inj.server_down(350, 0));
  EXPECT_TRUE(inj.drop_request(350, 0));
  EXPECT_FALSE(inj.drop_request(400, 0));
  EXPECT_EQ(inj.requests_dropped(), 2u);
  EXPECT_EQ(inj.replies_dropped(), 1u);
}

TEST(FaultInjector, RestartFiresOncePerCrashWindow) {
  sim::SimKernel k;
  sim::FaultConfig cfg;
  cfg.crashes.push_back(sim::FaultWindow{10, 20});
  cfg.crashes.push_back(sim::FaultWindow{50, 60});
  sim::FaultInjector inj(k, cfg);
  int reboots = 0;
  inj.set_on_restart(0, [&] { ++reboots; });
  inj.fire_restarts_due(15, 0);  // window still open
  EXPECT_EQ(reboots, 0);
  inj.fire_restarts_due(25, 0);
  EXPECT_EQ(reboots, 1);
  inj.fire_restarts_due(30, 0);  // no new window closed
  EXPECT_EQ(reboots, 1);
  inj.fire_restarts_due(100, 0);
  EXPECT_EQ(reboots, 2);
  EXPECT_EQ(inj.restarts_fired(), 2u);
}

TEST(FaultInjector, PerServerWindowsAndRestartCallbacks) {
  sim::SimKernel k;
  sim::FaultConfig cfg;
  cfg.crashes.push_back(sim::FaultWindow{10, 20, 1});                 // origin 1 only
  cfg.crashes.push_back(sim::FaultWindow{30, 40, sim::kAllServers});  // everyone
  sim::FaultInjector inj(k, cfg);

  // The scoped crash downs only server 1; the kAllServers one downs both.
  EXPECT_TRUE(inj.server_down(15, 1));
  EXPECT_FALSE(inj.server_down(15, 0));
  EXPECT_TRUE(inj.drop_request(15, 1));
  EXPECT_FALSE(inj.drop_request(15, 0));
  EXPECT_TRUE(inj.server_down(35, 0));
  EXPECT_TRUE(inj.server_down(35, 1));

  int reboots0 = 0;
  int reboots1 = 0;
  inj.set_on_restart(0, [&] { ++reboots0; });
  inj.set_on_restart(1, [&] { ++reboots1; });
  inj.fire_restarts_due(25, 0);  // only server 1's window has closed
  inj.fire_restarts_due(25, 1);
  EXPECT_EQ(reboots0, 0);
  EXPECT_EQ(reboots1, 1);
  inj.fire_restarts_due(50, 0);  // the all-servers window reboots both
  inj.fire_restarts_due(50, 1);
  EXPECT_EQ(reboots0, 1);
  EXPECT_EQ(reboots1, 2);
  EXPECT_EQ(inj.restarts_fired(), 3u);
}

TEST(FaultInjector, UnscopedWindowRestartsOnlyHookedServers) {
  sim::SimKernel k;
  sim::FaultConfig cfg;
  cfg.crashes.push_back(sim::FaultWindow{10, 20});  // applies to all servers
  sim::FaultInjector inj(k, cfg);
  int reboots = 0;
  inj.set_on_restart(0, [&] { ++reboots; });  // the single origin's hook
  inj.fire_restarts_due(25, 0);
  EXPECT_EQ(reboots, 1);
  inj.fire_restarts_due(25, 1);  // no callback registered for server 1
  EXPECT_EQ(reboots, 1);
}

// ---- FaultyChannel ----------------------------------------------------------

TEST(FaultyChannel, DropAccountingMatchesServerExecution) {
  // Request drops must prevent server execution; reply drops must not (that
  // asymmetry is the whole reason the DRC exists).
  sim::SimKernel k;
  k.seed_rng(42);
  sim::FaultConfig cfg;
  cfg.drop_rate = 0.4;
  sim::FaultInjector inj(k, cfg);
  EchoChannel echo;
  rpc::FaultyChannel chan(echo, inj, 0);
  u64 timeouts = 0;
  const int kCalls = 200;
  k.run_process("t", [&](sim::Process& p) {
    for (int i = 0; i < kCalls; ++i) {
      rpc::RpcReply r = chan.call(p, make_call(static_cast<u32>(i + 1)));
      if (r.status.code() == ErrCode::kTimeout) ++timeouts;
    }
  });
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
  EXPECT_GT(inj.requests_dropped(), 0u);
  EXPECT_GT(inj.replies_dropped(), 0u);
  EXPECT_EQ(timeouts, inj.requests_dropped() + inj.replies_dropped());
  // Only request-dropped calls never reached the server.
  EXPECT_EQ(echo.executed, static_cast<u64>(kCalls) - inj.requests_dropped());
}

// Echoes every call and records each burst it receives (its xids, in order).
struct BurstRecordingChannel final : rpc::RpcChannel {
  std::vector<std::vector<u32>> bursts;
  void send(sim::Process&, std::span<const rpc::RpcCall> calls,
            std::span<rpc::RpcReply> replies) override {
    std::vector<u32>& xids = bursts.emplace_back();
    for (std::size_t i = 0; i < calls.size(); ++i) {
      xids.push_back(calls[i].xid);
      replies[i] = rpc::make_reply(calls[i], calls[i].args);
    }
  }
};

TEST(FaultyChannel, BurstForwardsItsSurvivorsAsOneBurst) {
  // A burst loses requests one by one, yet whatever survives still reaches
  // the server as one burst, in call order, and the lost ones never run.
  sim::SimKernel k;
  k.seed_rng(42);
  sim::FaultConfig cfg;
  cfg.drop_rate = 0.4;
  sim::FaultInjector inj(k, cfg);
  BurstRecordingChannel rec;
  rpc::FaultyChannel chan(rec, inj, 0);
  constexpr u32 kBursts = 40;
  constexpr u32 kBurst = 8;
  u64 timeouts = 0;
  u64 partial = 0;  // bursts that lost some requests but not all
  k.run_process("t", [&](sim::Process& p) {
    for (u32 b = 0; b < kBursts; ++b) {
      std::vector<rpc::RpcCall> calls;
      for (u32 i = 0; i < kBurst; ++i) calls.push_back(make_call(b * kBurst + i + 1));
      const std::size_t bursts_before = rec.bursts.size();
      const u64 lost_before = inj.requests_dropped();
      std::vector<rpc::RpcReply> replies = chan.call_pipelined(p, calls);
      const u64 lost = inj.requests_dropped() - lost_before;
      // At most one burst reached the server: none when every request was lost.
      ASSERT_EQ(rec.bursts.size() - bursts_before, lost == kBurst ? 0u : 1u);
      const std::vector<u32> executed =
          lost == kBurst ? std::vector<u32>{} : rec.bursts.back();
      if (lost > 0 && lost < kBurst) ++partial;
      // The survivors, in call order; a lost request never executed.
      EXPECT_EQ(executed.size(), kBurst - lost);
      EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end()));
      ASSERT_EQ(replies.size(), calls.size());
      for (u32 i = 0; i < kBurst; ++i) {
        EXPECT_EQ(replies[i].xid, calls[i].xid);
        const bool ran =
            std::find(executed.begin(), executed.end(), calls[i].xid) != executed.end();
        const bool timed_out = replies[i].status.code() == ErrCode::kTimeout;
        if (timed_out) ++timeouts;
        if (!ran) {
          EXPECT_TRUE(timed_out) << "xid " << calls[i].xid;
        }
      }
    }
  });
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
  EXPECT_GT(partial, 0u);
  EXPECT_GT(inj.replies_dropped(), 0u);
  EXPECT_EQ(timeouts, inj.requests_dropped() + inj.replies_dropped());
}

// ---- RetryChannel -----------------------------------------------------------

TEST(RetryChannel, RetransmitsSameXidWithExponentialBackoff) {
  sim::SimKernel k;
  FlakyChannel flaky(3);
  rpc::RetryConfig cfg;
  cfg.timeout = 100 * kMillisecond;
  cfg.backoff = 2.0;
  cfg.jitter = 0.0;
  rpc::RetryChannel retry(flaky, k, cfg);
  k.run_process("t", [&](sim::Process& p) {
    rpc::RpcReply r = retry.call(p, make_call(77));
    EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
    // Three RTO waits before the fourth attempt succeeds: 100+200+400 ms.
    EXPECT_EQ(p.now(), 700 * kMillisecond);
  });
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
  EXPECT_EQ(retry.retransmits(), 3u);
  EXPECT_EQ(retry.timeouts(), 3u);
  EXPECT_EQ(retry.exhausted(), 0u);
  // Every attempt reissued the SAME xid — that is what lets the server's
  // duplicate request cache recognise retransmissions.
  EXPECT_EQ(flaky.xids_seen, (std::vector<u32>{77, 77, 77, 77}));
}

TEST(RetryChannel, PipelinedRetryCountsAndWaitsOnce) {
  // Regression: call_pipelined used to sleep a full jittered RTO and then
  // delegate the reissue to call(), which waited out its own RTO as well —
  // ~2x RTO before the first retransmission, with timeouts_/retransmits_
  // double-counted. Both paths now share one retry loop that credits time
  // already elapsed since the (batch) send.
  sim::SimKernel k;
  BatchFlakyChannel flaky(1);  // the whole first batch is lost
  rpc::RetryConfig cfg;
  cfg.timeout = 100 * kMillisecond;
  cfg.backoff = 2.0;
  cfg.jitter = 0.0;
  rpc::RetryChannel retry(flaky, k, cfg);
  std::vector<rpc::RpcCall> calls{make_call(11), make_call(12)};
  k.run_process("t", [&](sim::Process& p) {
    auto replies = retry.call_pipelined(p, calls);
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_TRUE(replies[0].status.is_ok());
    EXPECT_TRUE(replies[1].status.is_ok());
    EXPECT_EQ(replies[0].xid, 11u);
    EXPECT_EQ(replies[1].xid, 12u);
    // Entry 0 waits out the single 100 ms RTO from the batch send; entry 1's
    // RTO had fully elapsed by then and its reissue goes out immediately.
    // The old double-wait would have ended at >= 300 ms.
    EXPECT_EQ(p.now(), 100 * kMillisecond);
  });
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
  // Exactly one timeout and one retransmission per lost entry.
  EXPECT_EQ(retry.timeouts(), 2u);
  EXPECT_EQ(retry.retransmits(), 2u);
  EXPECT_EQ(retry.exhausted(), 0u);
  EXPECT_EQ(flaky.single_calls, 2u);
  // Batch transmission of both xids, then one same-xid reissue each.
  EXPECT_EQ(flaky.xids_seen, (std::vector<u32>{11, 12, 11, 12}));
}

TEST(RetryChannel, FiniteBudgetSurfacesTimeout) {
  sim::SimKernel k;
  FlakyChannel flaky(1000);  // never recovers
  rpc::RetryConfig cfg;
  cfg.timeout = 50 * kMillisecond;
  cfg.jitter = 0.0;
  cfg.max_retransmits = 2;  // soft mount
  rpc::RetryChannel retry(flaky, k, cfg);
  k.run_process("t", [&](sim::Process& p) {
    rpc::RpcReply r = retry.call(p, make_call(5));
    EXPECT_EQ(r.status.code(), ErrCode::kTimeout);
  });
  EXPECT_EQ(retry.retransmits(), 2u);
  EXPECT_EQ(retry.exhausted(), 1u);
}

TEST(RetryChannel, ReplyXidMismatchRejected) {
  sim::SimKernel k;
  EchoChannel echo;
  WrongXidChannel wrong(echo);
  rpc::RetryChannel retry(wrong, k, rpc::RetryConfig{});
  k.run_process("t", [&](sim::Process& p) {
    rpc::RpcReply r = retry.call(p, make_call(9));
    EXPECT_EQ(r.status.code(), ErrCode::kBadXdr);
  });
  EXPECT_EQ(retry.xid_mismatches(), 1u);
}

TEST(RetryChannel, HardMountRidesOutPartition) {
  sim::SimKernel k;
  k.seed_rng(1);
  sim::FaultConfig fcfg;
  fcfg.partitions.push_back(sim::FaultWindow{0, 2 * kSecond});
  sim::FaultInjector inj(k, fcfg);
  EchoChannel echo;
  rpc::FaultyChannel faulty(echo, inj, 0);
  rpc::RetryConfig rcfg;
  rcfg.timeout = 100 * kMillisecond;
  rcfg.jitter = 0.0;  // max_retransmits = 0: hard mount, retry forever
  rpc::RetryChannel retry(faulty, k, rcfg);
  k.run_process("t", [&](sim::Process& p) {
    rpc::RpcReply r = retry.call(p, make_call(3));
    EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
    EXPECT_GE(p.now(), 2 * kSecond);  // stalled until the partition healed
  });
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
  EXPECT_GT(retry.retransmits(), 0u);
  EXPECT_EQ(echo.executed, 1u);  // nothing reached the server until then
}

TEST(RetryChannel, ServerRebootFiresRestartCallback) {
  sim::SimKernel k;
  sim::FaultConfig fcfg;
  fcfg.crashes.push_back(sim::FaultWindow{0, kSecond});
  sim::FaultInjector inj(k, fcfg);
  bool rebooted = false;
  inj.set_on_restart(0, [&] { rebooted = true; });
  EchoChannel echo;
  rpc::FaultyChannel faulty(echo, inj, 0);
  rpc::RetryConfig rcfg;
  rcfg.timeout = 100 * kMillisecond;
  rcfg.jitter = 0.0;
  rpc::RetryChannel retry(faulty, k, rcfg);
  k.run_process("t", [&](sim::Process& p) {
    EXPECT_TRUE(retry.call(p, make_call(4)).status.is_ok());
  });
  EXPECT_TRUE(rebooted);  // first traffic after the window rebooted the server
  EXPECT_EQ(inj.restarts_fired(), 1u);
}

// ---- NfsClient: reply verification ------------------------------------------

TEST(NfsClient, XidMismatchSurfacesAsBadXdr) {
  sim::SimKernel kernel;
  vfs::MemFs fs;
  sim::DiskModel disk{kernel, "sdisk", sim::DiskConfig{}};
  nfs::NfsServer server{kernel, fs, disk, nfs::NfsServerConfig{}};
  ASSERT_TRUE(server.add_export("/exports").is_ok());
  ASSERT_TRUE(fs.put_file("/exports/f", blob::make_synthetic(3, 64_KiB, 0, 2.0)).is_ok());
  rpc::LinkChannel loop{server, nullptr, nullptr, 10 * kMicrosecond};
  WrongXidChannel wrong(loop);
  wrong.corrupt = false;  // behave while mounting
  rpc::Credential cred;
  cred.uid = 1000;
  nfs::NfsClient client(wrong, cred, nfs::NfsClientConfig{});
  kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    wrong.corrupt = true;
    auto r = client.read(p, "/f", 0, 4_KiB);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrCode::kBadXdr);
  });
  EXPECT_EQ(kernel.failed_processes(), 0) << kernel.failed_names_joined();
  EXPECT_GE(client.xid_mismatches(), 1u);
}

// ---- NfsServer: duplicate request cache -------------------------------------

struct DrcFixture {
  sim::SimKernel kernel;
  vfs::MemFs fs;
  sim::DiskModel disk{kernel, "d", sim::DiskConfig{}};
  nfs::NfsServer server;

  explicit DrcFixture(nfs::NfsServerConfig cfg = {}) : server{kernel, fs, disk, cfg} {
    EXPECT_TRUE(server.add_export("/exports").is_ok());
  }

  rpc::RpcCall remove_call(u32 xid, const std::string& name) {
    auto args = std::make_shared<nfs::RemoveArgs>();
    args->dir = server.root_fh("/exports");
    args->name = name;
    rpc::RpcCall c = make_call(xid);
    c.proc = static_cast<u32>(nfs::Proc::kRemove);
    c.args = std::move(args);
    return c;
  }

  rpc::RpcCall write_call(u32 xid, const nfs::Fh& fh, u64 offset) {
    auto args = std::make_shared<nfs::WriteArgs>();
    args->fh = fh;
    args->offset = offset;
    args->count = 32_KiB;
    args->stable = nfs::StableHow::kFileSync;
    args->data = blob::make_synthetic(9, 32_KiB, 0, 2.0);
    rpc::RpcCall c = make_call(xid);
    c.proc = static_cast<u32>(nfs::Proc::kWrite);
    c.args = std::move(args);
    return c;
  }
};

TEST(NfsServerDrc, DuplicateRemoveServedFromCache) {
  DrcFixture f;
  ASSERT_TRUE(f.fs.put_file("/exports/victim", blob::make_zero(4_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    auto first = f.server.handle(p, f.remove_call(100, "victim"));
    ASSERT_TRUE(first.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(first.result)->status, nfs::NfsStat::kOk);

    // Retransmission (same xid): the cached kOk reply, not a re-execution —
    // the FS state is exactly as if the op ran once.
    auto dup = f.server.handle(p, f.remove_call(100, "victim"));
    ASSERT_TRUE(dup.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(dup.result)->status, nfs::NfsStat::kOk);
    EXPECT_EQ(f.server.drc_hits(), 1u);

    // A genuinely new request (fresh xid) does re-execute and sees kNoEnt.
    auto fresh = f.server.handle(p, f.remove_call(101, "victim"));
    ASSERT_TRUE(fresh.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(fresh.result)->status, nfs::NfsStat::kNoEnt);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
}

TEST(NfsServerDrc, DuplicateWriteExecutesOnce) {
  DrcFixture f;
  auto id = f.fs.put_file("/exports/f", blob::make_zero(0));
  ASSERT_TRUE(id.is_ok());
  nfs::Fh fh = f.server.fh_of(*id);
  f.kernel.run_process("t", [&](sim::Process& p) {
    auto first = f.server.handle(p, f.write_call(200, fh, 0));
    ASSERT_TRUE(first.status.is_ok());
    u64 ops_after_first = f.disk.ops();
    u64 bytes_after_first = f.disk.bytes_moved();

    auto dup = f.server.handle(p, f.write_call(200, fh, 0));
    ASSERT_TRUE(dup.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::WriteRes>(dup.result)->status, nfs::NfsStat::kOk);
    EXPECT_EQ(f.server.drc_hits(), 1u);
    // Applied once: the duplicate moved no further disk bytes.
    EXPECT_EQ(f.disk.ops(), ops_after_first);
    EXPECT_EQ(f.disk.bytes_moved(), bytes_after_first);

    // Same payload under a new xid is a new request: it executes.
    auto fresh = f.server.handle(p, f.write_call(201, fh, 0));
    ASSERT_TRUE(fresh.status.is_ok());
    EXPECT_GT(f.disk.ops(), ops_after_first);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
}

TEST(NfsServerDrc, IdempotentOpsBypassCache) {
  DrcFixture f;
  ASSERT_TRUE(f.fs.put_file("/exports/f", blob::make_zero(4_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    for (int i = 0; i < 2; ++i) {
      auto args = std::make_shared<nfs::GetattrArgs>();
      args->fh = f.server.root_fh("/exports");
      rpc::RpcCall c = make_call(300);  // same xid both times
      c.args = std::move(args);
      EXPECT_TRUE(f.server.handle(p, c).status.is_ok());
    }
  });
  EXPECT_EQ(f.server.drc_hits(), 0u);
  EXPECT_EQ(f.server.drc_inserts(), 0u);
}

TEST(NfsServerDrc, HashCollisionNeverReplaysWrongReply) {
  // Regression: the DRC used to trust the 64-bit hash key alone, so a
  // collision between two live transactions silently replayed the wrong
  // client's reply. Entries now carry the full (machine, uid, prog, proc,
  // xid) tuple; shrinking the key to 0 bits forces every transaction into
  // one bucket, the worst case.
  nfs::NfsServerConfig cfg;
  cfg.drc_key_bits = 0;
  DrcFixture f(cfg);
  ASSERT_TRUE(f.fs.put_file("/exports/victim1", blob::make_zero(4_KiB)).is_ok());
  ASSERT_TRUE(f.fs.put_file("/exports/victim2", blob::make_zero(4_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    auto first = f.server.handle(p, f.remove_call(100, "victim1"));
    ASSERT_TRUE(first.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(first.result)->status, nfs::NfsStat::kOk);
    EXPECT_EQ(f.server.drc_inserts(), 1u);

    // A different transaction landing in the same bucket must execute its
    // own REMOVE, not receive victim1's cached reply.
    auto other = f.server.handle(p, f.remove_call(200, "victim2"));
    ASSERT_TRUE(other.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(other.result)->status, nfs::NfsStat::kOk);
    EXPECT_FALSE(f.fs.resolve("/exports/victim2").is_ok());  // really executed
    EXPECT_EQ(f.server.drc_collisions(), 1u);
    EXPECT_EQ(f.server.drc_hits(), 0u);

    // The resident entry was not evicted by the collision: its owner's
    // retransmission still replays from the cache.
    auto dup = f.server.handle(p, f.remove_call(100, "victim1"));
    ASSERT_TRUE(dup.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(dup.result)->status, nfs::NfsStat::kOk);
    EXPECT_EQ(f.server.drc_hits(), 1u);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
}

TEST(NfsServerDrc, RetransmittedRemoveReplaysAfterStateChange) {
  // RFC 1813 §4: error replies to non-idempotent procedures are cached and
  // replayed too. A REMOVE that found nothing answers kNoEnt; if the name is
  // created before the retransmission arrives, the duplicate must replay the
  // original kNoEnt — re-executing would remove the new file.
  DrcFixture f;
  f.kernel.run_process("t", [&](sim::Process& p) {
    auto first = f.server.handle(p, f.remove_call(500, "ghost"));
    ASSERT_TRUE(first.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(first.result)->status,
              nfs::NfsStat::kNoEnt);
    EXPECT_EQ(f.server.drc_inserts(), 1u);

    // Server-side state changes between transmission and retransmission.
    ASSERT_TRUE(f.fs.put_file("/exports/ghost", blob::make_zero(4_KiB)).is_ok());

    auto dup = f.server.handle(p, f.remove_call(500, "ghost"));
    ASSERT_TRUE(dup.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(dup.result)->status,
              nfs::NfsStat::kNoEnt);
    EXPECT_EQ(f.server.drc_hits(), 1u);
    EXPECT_TRUE(f.fs.resolve("/exports/ghost").is_ok());  // not re-executed
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
}

TEST(NfsServerDrc, TransportErrorReplyIsCachedAndReplayed) {
  // A non-idempotent call that fails at the RPC layer (here: undecodable
  // args -> kBadXdr, a reply with no result body) is still a completed
  // transaction; its retransmission replays the cached error instead of
  // dispatching again.
  DrcFixture f;
  f.kernel.run_process("t", [&](sim::Process& p) {
    rpc::RpcCall bad = make_call(600);
    bad.proc = static_cast<u32>(nfs::Proc::kRemove);
    bad.args = std::make_shared<nfs::GetattrArgs>();  // wrong type for REMOVE
    auto first = f.server.handle(p, bad);
    EXPECT_FALSE(first.status.is_ok());
    EXPECT_EQ(f.server.drc_inserts(), 1u);

    auto dup = f.server.handle(p, bad);
    EXPECT_EQ(dup.status.code(), first.status.code());
    EXPECT_EQ(f.server.drc_hits(), 1u);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
}

TEST(NfsServerDrc, CrashClearsCacheSoDuplicateReExecutes) {
  DrcFixture f;
  ASSERT_TRUE(f.fs.put_file("/exports/victim", blob::make_zero(4_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(f.server.handle(p, f.remove_call(400, "victim")).status.is_ok());
    // Reboot: the DRC is volatile state and does not survive.
    f.server.clear_drc();
    auto dup = f.server.handle(p, f.remove_call(400, "victim"));
    ASSERT_TRUE(dup.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(dup.result)->status, nfs::NfsStat::kNoEnt);
  });
  EXPECT_EQ(f.server.drc_hits(), 0u);
}

// Regression for the fixed-size DRC: a burst of non-idempotent transactions
// wider than the cache FIFO-evicts the oldest entries, so a delayed
// retransmission of an evicted REMOVE re-executes and answers a spurious
// kNoEnt. At the historical hard-wired 256 entries a multi-node boot storm
// overflows easily. First pin the failure at that capacity, then show the
// now-configurable knob retains replay across the identical burst.
TEST(NfsServerDrc, BurstWiderThanCacheLosesReplayAtDefaultCapacity) {
  DrcFixture f;  // default drc_entries = 256
  ASSERT_TRUE(f.fs.put_file("/exports/victim", blob::make_zero(4_KiB)).is_ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        f.fs.put_file("/exports/n" + std::to_string(i), blob::make_zero(1_KiB)).is_ok());
  }
  f.kernel.run_process("t", [&](sim::Process& p) {
    auto first = f.server.handle(p, f.remove_call(500, "victim"));
    ASSERT_TRUE(first.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(first.result)->status, nfs::NfsStat::kOk);
    // 300 further removes from the rest of the fleet push xid 500 out.
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          f.server.handle(p, f.remove_call(600 + i, "n" + std::to_string(i))).status.is_ok());
    }
    EXPECT_EQ(f.server.drc_size(), 256u);
    // The delayed retransmission re-executes — the wrong answer this PR's
    // capacity scaling exists to prevent.
    auto dup = f.server.handle(p, f.remove_call(500, "victim"));
    ASSERT_TRUE(dup.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(dup.result)->status, nfs::NfsStat::kNoEnt);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(f.server.drc_hits(), 0u);
}

TEST(NfsServerDrc, ScaledCapacityRetainsReplayAcrossTheSameBurst) {
  nfs::NfsServerConfig cfg;
  cfg.drc_entries = 512;  // what the testbed provisions for 16 clients
  DrcFixture f(cfg);
  ASSERT_TRUE(f.fs.put_file("/exports/victim", blob::make_zero(4_KiB)).is_ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        f.fs.put_file("/exports/n" + std::to_string(i), blob::make_zero(1_KiB)).is_ok());
  }
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(f.server.handle(p, f.remove_call(500, "victim")).status.is_ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          f.server.handle(p, f.remove_call(600 + i, "n" + std::to_string(i))).status.is_ok());
    }
    auto dup = f.server.handle(p, f.remove_call(500, "victim"));
    ASSERT_TRUE(dup.status.is_ok());
    EXPECT_EQ(rpc::message_cast<nfs::RemoveRes>(dup.result)->status, nfs::NfsStat::kOk);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(f.server.drc_hits(), 1u);
}

TEST(NfsServerDrc, TestbedScalesCapacityWithClientCount) {
  {
    TestbedOptions opt;
    opt.scenario = Scenario::kWanCached;
    opt.generate_image_meta = false;
    opt.compute_nodes = 16;
    Testbed bed(opt);
    EXPECT_EQ(bed.server()->drc_capacity(), 512u);  // 32 slots per client
  }
  {
    TestbedOptions opt;
    opt.scenario = Scenario::kWanCached;
    opt.generate_image_meta = false;
    Testbed bed(opt);  // single client keeps the historical floor
    EXPECT_EQ(bed.server()->drc_capacity(), 256u);
  }
}

// ---- end-to-end: testbed under faults ---------------------------------------

struct E2eResult {
  u64 hash = 0;
  SimTime end_time = 0;
  u64 retransmits = 0;
  int failed = 0;
};

E2eResult run_lossy_read(double drop_rate) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;  // keep transfers on the faultable RPC path
  opt.enable_fault_injection = true;
  opt.fault.drop_rate = drop_rate;
  Testbed bed(opt);
  blob::BlobRef content = blob::make_synthetic(21, 2_MiB, 0.3, 2.0);
  EXPECT_TRUE(bed.image_fs().put_file(bed.image_dir() + "/img", content).is_ok());
  E2eResult out;
  bed.kernel().run_process("reader", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto data = bed.image_session().read_all(p, "/img");
    ASSERT_TRUE(data.is_ok()) << data.status().to_string();
    out.hash = blob::content_hash(**data);
    out.end_time = p.now();
  });
  out.failed = bed.kernel().failed_processes();
  EXPECT_EQ(out.failed, 0) << bed.kernel().failed_names_joined();
  if (auto* retry = bed.retry_channel()) out.retransmits = retry->retransmits();
  EXPECT_EQ(out.hash, blob::content_hash(*content));  // integrity despite loss
  return out;
}

TEST(FaultE2E, LossyWanReadDeliversIdenticalContent) {
  E2eResult clean = run_lossy_read(0.0);
  E2eResult lossy = run_lossy_read(0.05);
  EXPECT_EQ(clean.hash, lossy.hash);
  EXPECT_EQ(clean.retransmits, 0u);
  EXPECT_GT(lossy.retransmits, 0u);
  // Recovery costs virtual time: RTO waits push the lossy run later.
  EXPECT_GT(lossy.end_time, clean.end_time);
}

TEST(FaultE2E, SameSeedGivesIdenticalTimeline) {
  E2eResult a = run_lossy_read(0.05);
  E2eResult b = run_lossy_read(0.05);
  EXPECT_EQ(a.end_time, b.end_time);  // to the nanosecond
  EXPECT_EQ(a.retransmits, b.retransmits);
}

// With an L2, the WAN hops are the L2's: its stacks carry the fault and
// retry layers, and a node's LAN hop to the L2 carries none. So a WAN
// partition cannot hold up blocks the L2 already holds. Before, the fault
// layers sat on the node-to-L2 hop and such a read waited out the partition.
TEST(FaultE2E, L2ServesWarmBlocksDuringWanPartition) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.compute_nodes = 2;
  opt.shared_l2_cache = true;
  opt.enable_fault_injection = true;
  opt.fault.partitions.push_back(sim::FaultWindow{5 * kSecond, 65 * kSecond});
  Testbed bed(opt);
  EXPECT_EQ(bed.retry_channel(0), nullptr);  // the node's hop ends at the L2
  bool l2_retry = false;
  for (const auto& [id, value] : bed.metrics().snapshot()) {
    l2_retry = l2_retry || id.rfind("lan_l2.retry.", 0) == 0;
  }
  EXPECT_TRUE(l2_retry);

  blob::BlobRef content = blob::make_synthetic(24, 512_KiB, 0.0, 1.0);
  ASSERT_TRUE(bed.image_fs().put_file(bed.image_dir() + "/img", content).is_ok());
  SimTime second_half_done = 0;
  bed.kernel().run_process("session", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p, 0).is_ok());
    ASSERT_TRUE(bed.mount(p, 1).is_ok());
    // Node 1 warms the L2 with the whole image; node 0 reads the first half.
    ASSERT_TRUE(bed.image_session(1).read_all(p, "/img").is_ok());
    ASSERT_TRUE(bed.image_session(0).read(p, "/img", 0, 256_KiB).is_ok());
    ASSERT_LT(p.now(), 5 * kSecond) << "warm phase overran into the partition";

    // Inside the partition, node 0's second half comes from the L2.
    p.delay_until(5500 * kMillisecond);
    auto half = bed.image_session(0).read(p, "/img", 256_KiB, 256_KiB);
    ASSERT_TRUE(half.is_ok()) << half.status().to_string();
    EXPECT_EQ(blob::content_hash(**half),
              blob::content_hash(*std::make_shared<blob::SliceBlob>(content, 256_KiB,
                                                                    256_KiB)));
    second_half_done = p.now();
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  EXPECT_LT(second_half_done, 65 * kSecond);
}

TEST(FaultE2E, DegradedProxyServesCacheAndReplaysWrites) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.enable_fault_injection = true;
  opt.degraded_proxy = true;
  opt.fault.partitions.push_back(sim::FaultWindow{30 * kSecond, 90 * kSecond});
  opt.retry.timeout = 250 * kMillisecond;
  opt.retry.max_retransmits = 2;  // soft mount: kTimeout reaches the proxy
  Testbed bed(opt);
  blob::BlobRef content = blob::make_synthetic(22, 1_MiB, 0.2, 2.0);
  ASSERT_TRUE(bed.image_fs().put_file(bed.image_dir() + "/img", content).is_ok());
  blob::BlobRef patch = blob::make_synthetic(23, 64_KiB, 0.0, 1.0);

  bed.kernel().run_process("session", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    // Warm the proxy cache before the partition opens.
    auto warm = bed.image_session().read_all(p, "/img");
    ASSERT_TRUE(warm.is_ok());
    ASSERT_LT(p.now(), 30 * kSecond) << "warm phase overran into the partition";

    // Inside the partition: reads come from the proxy cache.
    p.delay_until(40 * kSecond);
    bed.nfs_client()->drop_caches();  // force reads down to the proxy
    auto data = bed.image_session().read_all(p, "/img");
    ASSERT_TRUE(data.is_ok()) << data.status().to_string();
    EXPECT_EQ(blob::content_hash(**data), blob::content_hash(*content));
    EXPECT_TRUE(bed.client_proxy()->upstream_down());

    // A write during the partition is acknowledged and queued.
    ASSERT_TRUE(bed.image_session().write(p, "/img", 0, patch).is_ok());
    ASSERT_TRUE(bed.nfs_client()->flush(p).is_ok());
    EXPECT_GT(bed.client_proxy()->queued_writebacks(), 0u);

    // Heal, reconnect, and verify the queued write-backs reached the server.
    p.delay_until(100 * kSecond);
    ASSERT_TRUE(bed.client_proxy()->signal_reconnect(p).is_ok());
    bed.nfs_client()->drop_caches();
    bed.block_cache()->invalidate_all();
    auto back = bed.image_session().read(p, "/img", 0, 64_KiB);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*patch));
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();

  const auto* proxy = bed.client_proxy();
  EXPECT_GT(proxy->degraded_reads(), 0u);
  EXPECT_EQ(proxy->queued_writebacks(), proxy->replayed_writebacks());
  EXPECT_EQ(proxy->pending_writebacks(), 0u);
  EXPECT_FALSE(proxy->upstream_down());
  EXPECT_GT(proxy->outage_time(), 0);
  EXPECT_GT(proxy->last_recovery_time(), 0);
}

TEST(FaultE2E, NonAlignedDegradedWriteStaysReadable) {
  // A degraded write queues its raw downstream offset; 12 KiB is page-aligned
  // for the kernel client but NOT 32 KiB-block-aligned for the proxy, so an
  // exact-offset match would make the queued data invisible to reads.
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.enable_fault_injection = true;
  opt.degraded_proxy = true;
  opt.fault.partitions.push_back(sim::FaultWindow{30 * kSecond, 90 * kSecond});
  opt.retry.timeout = 250 * kMillisecond;
  opt.retry.max_retransmits = 2;
  Testbed bed(opt);
  blob::BlobRef content = blob::make_synthetic(31, 1_MiB, 0.2, 2.0);
  ASSERT_TRUE(bed.image_fs().put_file(bed.image_dir() + "/img", content).is_ok());
  blob::BlobRef patch = blob::make_synthetic(32, 8_KiB, 0.0, 1.0);

  bed.kernel().run_process("session", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto warm = bed.image_session().read_all(p, "/img");
    ASSERT_TRUE(warm.is_ok());
    ASSERT_LT(p.now(), 30 * kSecond);

    p.delay_until(40 * kSecond);
    ASSERT_TRUE(bed.image_session().write(p, "/img", 12_KiB, patch).is_ok());
    ASSERT_TRUE(bed.nfs_client()->flush(p).is_ok());
    EXPECT_TRUE(bed.client_proxy()->upstream_down());
    EXPECT_GT(bed.client_proxy()->queued_writebacks(), 0u);

    // Read-your-writes through the degraded proxy: the queued 12 KiB-offset
    // write must be served by byte-range overlap with block 0.
    bed.nfs_client()->drop_caches();
    auto back = bed.image_session().read(p, "/img", 12_KiB, 8_KiB);
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*patch));

    // Heal and verify the patch reached the server at its raw offset.
    p.delay_until(100 * kSecond);
    ASSERT_TRUE(bed.client_proxy()->signal_reconnect(p).is_ok());
    bed.nfs_client()->drop_caches();
    bed.block_cache()->invalidate_all();
    auto healed = bed.image_session().read(p, "/img", 12_KiB, 8_KiB);
    ASSERT_TRUE(healed.is_ok());
    EXPECT_EQ(blob::content_hash(**healed), blob::content_hash(*patch));
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  EXPECT_EQ(bed.client_proxy()->pending_writebacks(), 0u);
}

TEST(FaultE2E, RepeatedDegradedWritesCoalesceInQueue) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.enable_fault_injection = true;
  opt.degraded_proxy = true;
  opt.fault.partitions.push_back(sim::FaultWindow{30 * kSecond, 120 * kSecond});
  opt.retry.timeout = 250 * kMillisecond;
  opt.retry.max_retransmits = 2;
  Testbed bed(opt);
  blob::BlobRef content = blob::make_synthetic(33, 256_KiB, 0.2, 2.0);
  ASSERT_TRUE(bed.image_fs().put_file(bed.image_dir() + "/img", content).is_ok());
  blob::BlobRef last_patch;

  bed.kernel().run_process("session", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    ASSERT_TRUE(bed.image_session().read_all(p, "/img").is_ok());
    ASSERT_LT(p.now(), 30 * kSecond);

    // Three writes to the same (fh, offset) during the outage: one queue
    // entry, coalesced in place, newest data winning.
    p.delay_until(40 * kSecond);
    for (u64 i = 0; i < 3; ++i) {
      last_patch = blob::make_synthetic(40 + i, 32_KiB, 0.0, 1.0);
      ASSERT_TRUE(bed.image_session().write(p, "/img", 0, last_patch).is_ok());
      ASSERT_TRUE(bed.nfs_client()->flush(p).is_ok());
    }
    EXPECT_EQ(bed.client_proxy()->queued_writebacks(), 1u);
    EXPECT_EQ(bed.client_proxy()->coalesced_writebacks(), 2u);
    EXPECT_EQ(bed.client_proxy()->pending_writebacks(), 1u);

    // Replay sends exactly one (coalesced) write, carrying the newest data.
    p.delay_until(130 * kSecond);
    ASSERT_TRUE(bed.client_proxy()->signal_reconnect(p).is_ok());
    bed.nfs_client()->drop_caches();
    bed.block_cache()->invalidate_all();
    auto back = bed.image_session().read(p, "/img", 0, 32_KiB);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(*last_patch));
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  EXPECT_EQ(bed.client_proxy()->replayed_writebacks(), 1u);
  EXPECT_EQ(bed.client_proxy()->pending_writebacks(), 0u);
}

TEST(FaultE2E, OverlappingDegradedWritesKeepNewestBytes) {
  // Three overlapping unaligned writes during an outage: A covers block 0,
  // B overlaps A's middle at a different offset (separate queue entry), then
  // A2 rewrites A's offset (coalesced in place at A's ORIGINAL index, but
  // stamped newer than B). Both the degraded read assembly and the replay
  // order must honour write recency — not queue position, which would put
  // B's stale bytes over A2.
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.write_policy = cache::WritePolicy::kWriteThrough;
  opt.enable_fault_injection = true;
  opt.degraded_proxy = true;
  opt.fault.partitions.push_back(sim::FaultWindow{30 * kSecond, 120 * kSecond});
  opt.retry.timeout = 250 * kMillisecond;
  opt.retry.max_retransmits = 2;
  Testbed bed(opt);
  blob::BlobRef content = blob::make_synthetic(60, 256_KiB, 0.2, 2.0);
  ASSERT_TRUE(bed.image_fs().put_file(bed.image_dir() + "/img", content).is_ok());
  blob::BlobRef a = blob::make_synthetic(61, 32_KiB, 0.0, 1.0);
  blob::BlobRef b = blob::make_synthetic(62, 8_KiB, 0.0, 1.0);
  blob::BlobRef a2 = blob::make_synthetic(63, 32_KiB, 0.0, 1.0);

  bed.kernel().run_process("session", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    ASSERT_TRUE(bed.image_session().read_all(p, "/img").is_ok());
    ASSERT_LT(p.now(), 30 * kSecond);

    p.delay_until(40 * kSecond);
    ASSERT_TRUE(bed.image_session().write(p, "/img", 0, a).is_ok());
    ASSERT_TRUE(bed.nfs_client()->flush(p).is_ok());
    ASSERT_TRUE(bed.image_session().write(p, "/img", 12_KiB, b).is_ok());
    ASSERT_TRUE(bed.nfs_client()->flush(p).is_ok());
    ASSERT_TRUE(bed.image_session().write(p, "/img", 0, a2).is_ok());
    ASSERT_TRUE(bed.nfs_client()->flush(p).is_ok());
    EXPECT_EQ(bed.client_proxy()->queued_writebacks(), 2u);
    EXPECT_EQ(bed.client_proxy()->coalesced_writebacks(), 1u);

    // Degraded read of B's range: A2 is newer than B everywhere they
    // overlap, so the assembly must return A2's bytes.
    bed.nfs_client()->drop_caches();
    auto back = bed.image_session().read(p, "/img", 12_KiB, 8_KiB);
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    blob::SliceBlob want(a2, 12_KiB, 8_KiB);
    EXPECT_EQ(blob::content_hash(**back), blob::content_hash(want));

    // Replay must land B before A2 (oldest first) so the server converges
    // on A2 across the whole block.
    p.delay_until(130 * kSecond);
    ASSERT_TRUE(bed.client_proxy()->signal_reconnect(p).is_ok());
    bed.nfs_client()->drop_caches();
    bed.block_cache()->invalidate_all();
    auto healed = bed.image_session().read(p, "/img", 0, 32_KiB);
    ASSERT_TRUE(healed.is_ok());
    EXPECT_EQ(blob::content_hash(**healed), blob::content_hash(*a2));
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  EXPECT_EQ(bed.client_proxy()->replayed_writebacks(), 2u);
  EXPECT_EQ(bed.client_proxy()->pending_writebacks(), 0u);
}

// ---- write-back parking & verifier protocol (stub-channel stacks) -----------

// Fails WRITE calls while armed: the first failure is a kTimeout (opens the
// outage), later ones surface a different transport error (kClosed) — the
// shape retries produce mid-outage.
struct WriteFailChannel final : tests::PerCallChannel {
  explicit WriteFailChannel(rpc::RpcChannel& in) : inner(in) {}
  rpc::RpcChannel& inner;
  int fails_left = 0;
  bool first = true;
  rpc::RpcReply on_call(sim::Process& p, const rpc::RpcCall& c) override {
    if (fails_left > 0 && c.proc == static_cast<u32>(nfs::Proc::kWrite)) {
      --fails_left;
      ErrCode code = first ? ErrCode::kTimeout : ErrCode::kClosed;
      first = false;
      return rpc::make_error_reply(c, err(code, "synthetic outage"));
    }
    return inner.call(p, c);
  }
};

// Simulates a server reboot between a flush's UNSTABLE WRITEs and its COMMIT
// by rolling the write verifier just before the first COMMIT lands.
struct RebootBeforeCommitChannel final : tests::PerCallChannel {
  RebootBeforeCommitChannel(rpc::RpcChannel& in, nfs::NfsServer& srv)
      : inner(in), server(srv) {}
  rpc::RpcChannel& inner;
  nfs::NfsServer& server;
  bool armed = true;
  rpc::RpcReply on_call(sim::Process& p, const rpc::RpcCall& c) override {
    if (armed && c.proc == static_cast<u32>(nfs::Proc::kCommit)) {
      armed = false;
      server.roll_write_verifier();
    }
    return inner.call(p, c);
  }
};

struct MiniProxyStack {
  sim::SimKernel kernel;
  vfs::MemFs fs;
  sim::DiskModel server_disk{kernel, "sd", sim::DiskConfig{}};
  nfs::NfsServer server{kernel, fs, server_disk, nfs::NfsServerConfig{}};
  rpc::LinkChannel link{server, nullptr, nullptr, 10 * kMicrosecond};
  sim::DiskModel client_disk{kernel, "cd", sim::DiskConfig{}};

  static cache::BlockCacheConfig cache_cfg() {
    cache::BlockCacheConfig cfg;
    cfg.capacity_bytes = 8_MiB;
    cfg.block_size = 32_KiB;
    cfg.num_banks = 4;
    cfg.associativity = 8;
    return cfg;
  }
  static rpc::Credential cred() {
    rpc::Credential c;
    c.uid = 1234;
    c.gid = 1234;
    return c;
  }
  static nfs::NfsClientConfig client_cfg() {
    nfs::NfsClientConfig cfg;
    cfg.rsize = cfg.wsize = 32_KiB;
    return cfg;
  }

  MiniProxyStack() { EXPECT_TRUE(server.add_export("/exports").is_ok()); }
};

TEST(WritebackParking, EvictionParksOnAnyTransportErrorWhileDegraded) {
  MiniProxyStack f;
  WriteFailChannel flaky(f.link);
  cache::ProxyDiskCache cache(f.client_disk, MiniProxyStack::cache_cfg());
  proxy::ProxyConfig pcfg;
  pcfg.name = "degraded-proxy";
  pcfg.enable_meta = false;
  pcfg.degraded_mode = true;
  proxy::GvfsProxy proxy(pcfg, flaky);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());

  auto content = blob::make_synthetic(50, 64_KiB, 0, 2.0);
  ASSERT_TRUE(f.fs.put_file("/exports/f", blob::make_zero(64_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    ASSERT_TRUE(client.write(p, "/f", 0, content).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    EXPECT_EQ(cache.dirty_blocks(), 2u);
    // Both write-backs fail: kTimeout opens the outage, kClosed follows.
    // Both blocks must end up parked in the replay queue, not lost.
    flaky.fails_left = 2;
    ASSERT_TRUE(proxy.signal_write_back(p).is_ok());
    EXPECT_TRUE(proxy.upstream_down());
    EXPECT_EQ(proxy.queued_writebacks(), 2u);
    EXPECT_EQ(proxy.pending_writebacks(), 2u);
    // Heal: replay drains the queue with FILE_SYNC writes.
    ASSERT_TRUE(proxy.signal_reconnect(p).is_ok());
    EXPECT_EQ(proxy.replayed_writebacks(), 2u);
    EXPECT_EQ(proxy.pending_writebacks(), 0u);
    EXPECT_FALSE(proxy.upstream_down());
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(blob::content_hash(**f.fs.get_file("/exports/f")),
            blob::content_hash(*content));
}

TEST(WritebackVerifier, RebootBetweenWritesAndCommitTriggersResend) {
  MiniProxyStack f;
  RebootBeforeCommitChannel reboot(f.link, f.server);
  cache::ProxyDiskCache cache(f.client_disk, MiniProxyStack::cache_cfg());
  proxy::ProxyConfig pcfg;
  pcfg.name = "async-proxy";
  pcfg.enable_meta = false;
  pcfg.async_writeback = true;
  proxy::GvfsProxy proxy(pcfg, reboot);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());

  auto content = blob::make_synthetic(51, 256_KiB, 0, 2.0);
  ASSERT_TRUE(f.fs.put_file("/exports/f", blob::make_zero(256_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    ASSERT_TRUE(client.write(p, "/f", 0, content).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    ASSERT_TRUE(proxy.signal_write_back(p).is_ok());
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  // The COMMIT's verifier mismatched the 8 UNSTABLE WRITEs' verifier, so the
  // whole file was re-sent and committed a second time.
  EXPECT_EQ(proxy.flush_verifier_resends(), 1u);
  EXPECT_EQ(proxy.flush_unstable_writes(), 16u);
  EXPECT_EQ(proxy.flush_commits(), 2u);
  EXPECT_EQ(proxy.pending_flush_blocks(), 0u);
  EXPECT_EQ(blob::content_hash(**f.fs.get_file("/exports/f")),
            blob::content_hash(*content));
}

// Holds the background flusher's next COMMIT for `stall`, then rolls the
// server's write verifier just before it lands: a reboot between the
// flusher's WRITEs and its COMMIT. Inline drains pass straight through.
struct RebootUnderFlusherCommitChannel final : tests::PerCallChannel {
  RebootUnderFlusherCommitChannel(rpc::RpcChannel& in, nfs::NfsServer& srv)
      : inner(in), server(srv) {}
  rpc::RpcChannel& inner;
  nfs::NfsServer& server;
  SimDuration stall = 0;
  rpc::RpcReply on_call(sim::Process& p, const rpc::RpcCall& c) override {
    if (stall > 0 && c.proc == static_cast<u32>(nfs::Proc::kCommit) &&
        p.name().find("flusher") != std::string::npos) {
      SimDuration d = stall;
      stall = 0;
      p.delay(d);
      server.roll_write_verifier();
    }
    return inner.call(p, c);
  }
};

// Regression: on a verifier mismatch the flusher re-sent its whole batch
// with the bytes it had taken, even for a block whose newer bytes an inline
// drain had meanwhile written and committed — the re-send put the older
// bytes back on the server. Only entries still carrying the batch's stamp
// are re-sent now.
TEST(WritebackVerifier, ResendSkipsBlockRewrittenByInlineDrain) {
  MiniProxyStack f;
  RebootUnderFlusherCommitChannel ch(f.link, f.server);
  cache::BlockCacheConfig ccfg = MiniProxyStack::cache_cfg();
  ccfg.capacity_bytes = 32_KiB;  // one frame: every insert evicts the last
  ccfg.num_banks = 1;
  ccfg.associativity = 1;
  cache::ProxyDiskCache cache(f.client_disk, ccfg);
  proxy::ProxyConfig pcfg;
  pcfg.name = "async-proxy";
  pcfg.enable_meta = false;
  pcfg.async_writeback = true;
  proxy::GvfsProxy proxy(pcfg, ch);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());

  blob::BlobRef older = blob::make_synthetic(94, 32_KiB, 0, 1.0);
  blob::BlobRef newer = blob::make_synthetic(95, 32_KiB, 0, 1.0);
  ASSERT_TRUE(f.fs.put_file("/exports/f", blob::make_zero(32_KiB)).is_ok());
  ASSERT_TRUE(f.fs.put_file("/exports/g", blob::make_zero(32_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    ch.stall = 200 * kMillisecond;
    ASSERT_TRUE(client.write(p, "/f", 0, older).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    // /g's block evicts /f's into the log; the flusher writes the older
    // bytes and its COMMIT is then held.
    ASSERT_TRUE(client.write(p, "/g", 0, blob::make_synthetic(96, 32_KiB, 0, 1.0)).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    p.delay(kMillisecond);
    // The newer bytes go upstream through an inline drain, committed before
    // the reboot that then fails the flusher's COMMIT.
    ASSERT_TRUE(client.write(p, "/f", 0, newer).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    ASSERT_TRUE(proxy.signal_write_back(p).is_ok());
    p.delay(500 * kMillisecond);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(proxy.flush_verifier_resends(), 1u);
  EXPECT_EQ(proxy.pending_flush_blocks(), 0u);
  EXPECT_EQ(blob::content_hash(**f.fs.get_file("/exports/f")),
            blob::content_hash(*newer));
}

// Delays UNSTABLE WRITEs so a background flush stays in flight while the
// reader keeps going — the window in which a prefetch burst could re-fetch a
// dirty block staged in the pending-write log from the server and insert the
// stale bytes as clean (reads consult the cache before the log).
struct SlowUnstableWriteChannel final : tests::PerCallChannel {
  explicit SlowUnstableWriteChannel(rpc::RpcChannel& in) : inner(in) {}
  rpc::RpcChannel& inner;
  SimDuration stall = 0;
  rpc::RpcReply on_call(sim::Process& p, const rpc::RpcCall& c) override {
    if (stall > 0 && c.proc == static_cast<u32>(nfs::Proc::kWrite)) {
      auto a = rpc::message_cast<nfs::WriteArgs>(c.args);
      if (a && a->stable == nfs::StableHow::kUnstable) p.delay(stall);
    }
    return inner.call(p, c);
  }
};

TEST(WritebackDrain, PrefetchDoesNotResurrectFlushQueuedBlock) {
  MiniProxyStack f;
  SlowUnstableWriteChannel slow(f.link);
  cache::BlockCacheConfig ccfg = MiniProxyStack::cache_cfg();
  ccfg.capacity_bytes = 128_KiB;  // 4 frames: reads evict the dirty block
  ccfg.num_banks = 1;
  ccfg.associativity = 4;
  cache::ProxyDiskCache cache(f.client_disk, ccfg);
  proxy::ProxyConfig pcfg;
  pcfg.name = "async-proxy";
  pcfg.enable_meta = false;
  pcfg.async_writeback = true;
  pcfg.prefetch_depth = 4;
  proxy::GvfsProxy proxy(pcfg, slow);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());

  blob::BlobRef base = blob::make_synthetic(70, 416_KiB, 0, 2.0);  // 13 blocks
  blob::BlobRef patch = blob::make_synthetic(71, 32_KiB, 0, 1.0);
  ASSERT_TRUE(f.fs.put_file("/exports/f", base).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    // Dirty block 5 in the proxy cache.
    ASSERT_TRUE(client.write(p, "/f", 5 * 32_KiB, patch).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    EXPECT_EQ(cache.dirty_blocks(), 1u);
    // Evict it with non-sequential read pressure (no prefetch triggers):
    // block 5 is staged in the log, and the slow channel pins the flusher's
    // UNSTABLE burst in flight for a long sim while.
    slow.stall = 500 * kMillisecond;
    for (u64 b : {8u, 0u, 9u, 1u}) {
      ASSERT_TRUE(client.read(p, "/f", b * 32_KiB, 32_KiB).is_ok());
    }
    client.drop_caches();
    // Sequential reads trigger a read-ahead burst spanning block 5 while its
    // newest bytes sit in the in-flight flush. The burst must skip it: the
    // server's copy is stale until the flush lands.
    for (u64 b : {2u, 3u, 4u}) {
      ASSERT_TRUE(client.read(p, "/f", b * 32_KiB, 32_KiB).is_ok());
    }
    auto got = client.read(p, "/f", 5 * 32_KiB, 32_KiB);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(blob::content_hash(**got), blob::content_hash(*patch));
    EXPECT_GT(proxy.blocks_prefetched(), 0u);
    EXPECT_GE(proxy.flush_queue_reads(), 1u);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(proxy.pending_flush_blocks(), 0u);
  // The flush landed after the reads: the patch reached the server.
  blob::SliceBlob srv(*f.fs.get_file("/exports/f"), 5 * 32_KiB, 32_KiB);
  EXPECT_EQ(blob::content_hash(srv), blob::content_hash(*patch));
}

// Regression: a truncate forwarded while a flush WRITE of the same file was
// in flight reached the server first, and the stalled WRITE then re-extended
// the file with the truncated bytes. A size-changing SETATTR now waits out
// the file's in-flight sends before it goes upstream.
TEST(WritebackDrain, TruncateWaitsOutInFlightFlush) {
  MiniProxyStack f;
  SlowUnstableWriteChannel slow(f.link);
  cache::BlockCacheConfig ccfg = MiniProxyStack::cache_cfg();
  ccfg.capacity_bytes = 32_KiB;  // one frame: every insert evicts the last
  ccfg.num_banks = 1;
  ccfg.associativity = 1;
  cache::ProxyDiskCache cache(f.client_disk, ccfg);
  proxy::ProxyConfig pcfg;
  pcfg.name = "async-proxy";
  pcfg.enable_meta = false;
  pcfg.async_writeback = true;
  proxy::GvfsProxy proxy(pcfg, slow);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());

  ASSERT_TRUE(f.fs.put_file("/exports/a", blob::make_zero(32_KiB)).is_ok());
  ASSERT_TRUE(f.fs.put_file("/exports/b", blob::make_zero(32_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    ASSERT_TRUE(client.write(p, "/a", 0, blob::make_synthetic(90, 32_KiB, 0, 1.0)).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    // /b's block evicts /a's dirty one into the log; the flusher's UNSTABLE
    // WRITE for it is then pinned in flight.
    slow.stall = 500 * kMillisecond;
    ASSERT_TRUE(client.write(p, "/b", 0, blob::make_synthetic(91, 32_KiB, 0, 1.0)).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    p.delay(kMillisecond);
    ASSERT_TRUE(client.truncate(p, "/a", 0).is_ok());
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(proxy.pending_flush_blocks(), 0u);
  EXPECT_EQ((*f.fs.get_file("/exports/a"))->size(), 0u);
}

// Regression: once the in-flight flush it waited on settled, a truncate
// dropped every cached frame of the file, so a block another client wrote
// below the new EOF during the wait was acknowledged and then lost. The
// truncate now writes back and waits again until the file has no dirty
// frame and no send in flight before it drops anything.
TEST(WritebackDrain, TruncateKeepsWriteLandedWhileItWaits) {
  MiniProxyStack f;
  SlowUnstableWriteChannel slow(f.link);
  cache::ProxyDiskCache cache(f.client_disk, MiniProxyStack::cache_cfg());
  proxy::ProxyConfig pcfg;
  pcfg.name = "async-proxy";
  pcfg.enable_meta = false;
  pcfg.async_writeback = true;
  proxy::GvfsProxy proxy(pcfg, slow);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());
  nfs::NfsClient writer(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());

  blob::BlobRef first = blob::make_synthetic(92, 64_KiB, 0, 1.0);
  blob::BlobRef second = blob::make_synthetic(93, 32_KiB, 0, 1.0);
  const u64 cut = 48_KiB + 100;
  ASSERT_TRUE(f.fs.put_file("/exports/a", blob::make_zero(64_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    ASSERT_TRUE(client.write(p, "/a", 0, first).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    // A write-back drains both blocks of /a inline; the slow channel pins
    // its UNSTABLE WRITEs in flight for half a second.
    slow.stall = 500 * kMillisecond;
    (void)p.kernel().spawn("write-back", [&](sim::Process& q) {
      ASSERT_TRUE(proxy.signal_write_back(q).is_ok());
    });
    // While the truncate below waits for them, a second client rewrites
    // block 0, which stays below the new EOF.
    (void)p.kernel().spawn("writer", [&](sim::Process& q) {
      ASSERT_TRUE(writer.mount(q, "/exports").is_ok());
      ASSERT_TRUE(writer.write(q, "/a", 0, second).is_ok());
      ASSERT_TRUE(writer.flush(q).is_ok());
    }, 20 * kMillisecond);
    p.delay(5 * kMillisecond);
    ASSERT_TRUE(client.truncate(p, "/a", cut).is_ok());
    ASSERT_TRUE(proxy.signal_write_back(p).is_ok());
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(proxy.pending_flush_blocks(), 0u);
  auto file = f.fs.get_file("/exports/a");
  ASSERT_TRUE(file.is_ok());
  ASSERT_EQ((*file)->size(), cut);
  EXPECT_EQ(blob::content_hash(blob::SliceBlob(*file, 0, 32_KiB)),
            blob::content_hash(*second));
  EXPECT_EQ(blob::content_hash(blob::SliceBlob(*file, 32_KiB, cut - 32_KiB)),
            blob::content_hash(blob::SliceBlob(first, 32_KiB, cut - 32_KiB)));
}

// Fails WRITEs while armed (kTimeout first, then kClosed), and can slow down
// the next WRITE that passes through — pinning a replay RPC in flight while
// other frames mutate the proxy's parked-write queue.
struct OutageThenSlowWriteChannel final : tests::PerCallChannel {
  explicit OutageThenSlowWriteChannel(rpc::RpcChannel& in) : inner(in) {}
  rpc::RpcChannel& inner;
  int fails_left = 0;
  bool first = true;
  SimDuration slow_next_write = 0;
  rpc::RpcReply on_call(sim::Process& p, const rpc::RpcCall& c) override {
    if (c.proc == static_cast<u32>(nfs::Proc::kWrite)) {
      if (fails_left > 0) {
        --fails_left;
        ErrCode code = first ? ErrCode::kTimeout : ErrCode::kClosed;
        first = false;
        return rpc::make_error_reply(c, err(code, "synthetic outage"));
      }
      if (slow_next_write > 0) {
        SimDuration d = slow_next_write;
        slow_next_write = 0;
        p.delay(d);
      }
    }
    return inner.call(p, c);
  }
};

TEST(WritebackParking, ReplaySurvivesConcurrentSupersede) {
  MiniProxyStack f;
  OutageThenSlowWriteChannel ch(f.link);
  cache::ProxyDiskCache cache(f.client_disk, MiniProxyStack::cache_cfg());
  proxy::ProxyConfig pcfg;
  pcfg.name = "degraded-proxy";
  pcfg.enable_meta = false;
  pcfg.degraded_mode = true;
  proxy::GvfsProxy proxy(pcfg, ch);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());
  nfs::NfsClient client2(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());

  blob::BlobRef content = blob::make_synthetic(55, 64_KiB, 0, 2.0);
  blob::BlobRef fresh = blob::make_synthetic(56, 64_KiB, 0, 1.0);
  ASSERT_TRUE(f.fs.put_file("/exports/f", blob::make_zero(64_KiB)).is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    ASSERT_TRUE(client.write(p, "/f", 0, content).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    ch.fails_left = 2;
    ASSERT_TRUE(proxy.signal_write_back(p).is_ok());
    EXPECT_TRUE(proxy.upstream_down());
    EXPECT_EQ(proxy.pending_writebacks(), 2u);

    // While the replay's first FILE_SYNC WRITE is pinned in flight, a second
    // session rewrites the whole file and forces it upstream: newer bytes
    // replace BOTH parked entries mid-replay and are acknowledged. The
    // replay picks afresh after every WRITE, so it must not trip over the
    // entries leaving the log under it.
    ch.slow_next_write = 5 * kMillisecond;
    (void)p.kernel().spawn("writer2", [&](sim::Process& q) {
      ASSERT_TRUE(client2.mount(q, "/exports").is_ok());
      ASSERT_TRUE(client2.write(q, "/f", 0, fresh).is_ok());
      ASSERT_TRUE(client2.flush(q).is_ok());
      ASSERT_TRUE(proxy.signal_write_back(q).is_ok());
    }, kMillisecond);
    ASSERT_TRUE(proxy.signal_reconnect(p).is_ok());
    EXPECT_FALSE(proxy.upstream_down());
    EXPECT_EQ(proxy.pending_writebacks(), 0u);
    // Only the pinned in-flight write replayed; the superseded entries were
    // dropped (their bytes went upstream fresher via the second session).
    EXPECT_EQ(proxy.replayed_writebacks(), 1u);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_EQ(proxy.coalesced_writebacks(), 2u);
}

// Stalls upstream COMMITs, with separate stalls for the background flusher
// and for inline (foreground) drains, so two flush_file_ frames for
// different files can be pinned in flight simultaneously and complete in
// non-LIFO order.
struct StallCommitChannel final : tests::PerCallChannel {
  explicit StallCommitChannel(rpc::RpcChannel& in) : inner(in) {}
  rpc::RpcChannel& inner;
  SimDuration flusher_stall = 0;
  SimDuration inline_stall = 0;
  rpc::RpcReply on_call(sim::Process& p, const rpc::RpcCall& c) override {
    if (c.proc == static_cast<u32>(nfs::Proc::kCommit)) {
      bool from_flusher = p.name().find("flusher") != std::string::npos;
      SimDuration d = from_flusher ? flusher_stall : inline_stall;
      if (d > 0) p.delay(d);
    }
    return inner.call(p, c);
  }
};

TEST(WritebackDrain, ConcurrentDrainCompletionKeepsInFlightDataVisible) {
  MiniProxyStack f;
  StallCommitChannel ch(f.link);
  cache::BlockCacheConfig ccfg = MiniProxyStack::cache_cfg();
  ccfg.capacity_bytes = 32_KiB;  // one frame: every insert evicts the last
  ccfg.num_banks = 1;
  ccfg.associativity = 1;
  cache::ProxyDiskCache cache(f.client_disk, ccfg);
  proxy::ProxyConfig pcfg;
  pcfg.name = "async-proxy";
  pcfg.enable_meta = false;
  pcfg.async_writeback = true;
  proxy::GvfsProxy proxy(pcfg, ch);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());
  nfs::NfsClient reader(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());

  blob::BlobRef a_data = blob::make_synthetic(80, 32_KiB, 0, 1.0);
  blob::BlobRef b_data = blob::make_synthetic(81, 32_KiB, 0, 1.0);
  ASSERT_TRUE(f.fs.put_file("/exports/a", blob::make_zero(32_KiB)).is_ok());
  ASSERT_TRUE(f.fs.put_file("/exports/b", blob::make_zero(32_KiB)).is_ok());
  ASSERT_TRUE(f.fs.put_file("/exports/c", blob::make_zero(32_KiB)).is_ok());

  // Mid-stall probe: /b's log entry is in flight in a drain whose COMMIT is
  // pinned for tens of sim-milliseconds. Once /c's read evicts /b's clean
  // cache copy, a read of /b must be served from the log — entries in
  // flight stay readable until their send settles, whichever drain settles
  // first. Were /b's entry dropped when the earlier-finishing /a drain
  // settled, the read would fetch the not-yet-committed server copy without
  // touching flush_queue_reads.
  (void)f.kernel.spawn("probe", [&](sim::Process& q) {
    ASSERT_TRUE(reader.mount(q, "/exports").is_ok());
    ASSERT_TRUE(reader.read(q, "/c", 0, 32_KiB).is_ok());
    auto got = reader.read(q, "/b", 0, 32_KiB);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(blob::content_hash(**got), blob::content_hash(*b_data));
  }, 20 * kMillisecond);

  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    ch.flusher_stall = 5 * kMillisecond;
    ch.inline_stall = 50 * kMillisecond;
    // Dirty /a's block, then evict it with /b's write: /a is staged in the
    // log and the background flusher starts draining it.
    ASSERT_TRUE(client.write(p, "/a", 0, a_data).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    ASSERT_TRUE(client.write(p, "/b", 0, b_data).is_ok());
    ASSERT_TRUE(client.flush(p).is_ok());
    p.delay(kMillisecond);  // flusher sends /a and hits its COMMIT stall
    // Inline drain of /b overlaps the flusher's pinned /a drain and outlives
    // it by ~45 ms: when /a's drain settles first (non-LIFO), it must settle
    // only its own entry, leaving /b's in flight and readable.
    ASSERT_TRUE(proxy.signal_write_back(p).is_ok());
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_GT(proxy.flush_queue_reads(), 0u);
  EXPECT_EQ(proxy.pending_flush_blocks(), 0u);
  EXPECT_EQ(blob::content_hash(**f.fs.get_file("/exports/b")),
            blob::content_hash(*b_data));
}

// Flips every upstream call to kTimeout while `down` — a partition the
// RetryChannel has already given up on, as the proxy sees it.
struct ToggleOutageChannel final : tests::PerCallChannel {
  explicit ToggleOutageChannel(rpc::RpcChannel& in) : inner(in) {}
  rpc::RpcChannel& inner;
  bool down = false;
  rpc::RpcReply on_call(sim::Process& p, const rpc::RpcCall& c) override {
    if (down) return rpc::make_error_reply(c, err(ErrCode::kTimeout, "partitioned"));
    return inner.call(p, c);
  }
};

// Regression for degraded attr staleness: attrs served from the cache while
// the upstream is down used to linger until their TTL lapsed — with a long
// TTL, a remote truncate during the outage stayed invisible long after the
// link healed. signal_reconnect must now re-probe every attr it answered
// stale and drop frames past the new EOF. The 600 s TTL here is the point:
// natural expiry cannot rescue the old behaviour inside this test.
TEST(FaultE2E, ReconnectRevalidatesAttrsServedStaleDuringOutage) {
  MiniProxyStack f;
  ToggleOutageChannel toggle(f.link);
  cache::ProxyDiskCache cache(f.client_disk, MiniProxyStack::cache_cfg());
  proxy::ProxyConfig pcfg;
  pcfg.name = "degraded-proxy";
  pcfg.enable_meta = false;
  pcfg.degraded_mode = true;
  pcfg.attr_ttl = 600 * kSecond;
  proxy::GvfsProxy proxy(pcfg, toggle);
  proxy.attach_block_cache(cache);
  rpc::LinkChannel loop(proxy, nullptr, nullptr, 15 * kMicrosecond);
  nfs::NfsClient client(loop, MiniProxyStack::cred(), MiniProxyStack::client_cfg());

  auto id = f.fs.put_file("/exports/f", blob::make_synthetic(51, 64_KiB, 0, 2.0));
  ASSERT_TRUE(id.is_ok());
  f.kernel.run_process("t", [&](sim::Process& p) {
    ASSERT_TRUE(client.mount(p, "/exports").is_ok());
    auto warm = client.stat(p, "/f");
    ASSERT_TRUE(warm.is_ok());
    EXPECT_EQ(warm->size, 64_KiB);
    ASSERT_TRUE(client.read(p, "/f", 0, 64_KiB).is_ok());

    toggle.down = true;
    client.drop_caches();
    auto stale = client.stat(p, "/f");  // served from the proxy attr cache
    ASSERT_TRUE(stale.is_ok());
    EXPECT_EQ(stale->size, 64_KiB);
    EXPECT_TRUE(proxy.upstream_down());

    // Another writer truncates the file at the origin, mid-outage.
    vfs::SetAttr sa;
    sa.set_size = true;
    sa.size = 16_KiB;
    ASSERT_TRUE(f.fs.setattr(*id, sa).is_ok());

    toggle.down = false;
    ASSERT_TRUE(proxy.signal_reconnect(p).is_ok());
    client.drop_caches();
    auto fresh = client.stat(p, "/f");
    ASSERT_TRUE(fresh.is_ok());
    EXPECT_EQ(fresh->size, 16_KiB);  // pre-fix: 64 KiB until the TTL ran out
    auto data = client.read_all(p, "/f");
    ASSERT_TRUE(data.is_ok());
    EXPECT_EQ((*data)->size(), 16_KiB);
  });
  EXPECT_EQ(f.kernel.failed_processes(), 0) << f.kernel.failed_names_joined();
  EXPECT_GE(proxy.attr_revalidations(), 1u);
}

TEST(FaultE2E, CloneWorkloadSurvivesServerCrash) {
  TestbedOptions opt;
  opt.scenario = Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.enable_fault_injection = true;
  opt.fault.drop_rate = 0.01;
  opt.fault.crashes.push_back(sim::FaultWindow{kSecond, 6 * kSecond});
  Testbed bed(opt);
  blob::BlobRef content = blob::make_synthetic(24, 2_MiB, 0.3, 2.0);
  ASSERT_TRUE(bed.image_fs().put_file(bed.image_dir() + "/img", content).is_ok());
  u64 hash = 0;
  bed.kernel().run_process("reader", [&](sim::Process& p) {
    ASSERT_TRUE(bed.mount(p).is_ok());
    auto data = bed.image_session().read_all(p, "/img");
    ASSERT_TRUE(data.is_ok()) << data.status().to_string();
    hash = blob::content_hash(**data);
    EXPECT_GE(p.now(), 6 * kSecond);  // rode out the crash window
  });
  EXPECT_EQ(bed.kernel().failed_processes(), 0) << bed.kernel().failed_names_joined();
  EXPECT_EQ(hash, blob::content_hash(*content));
  ASSERT_NE(bed.fault_injector(), nullptr);
  EXPECT_EQ(bed.fault_injector()->restarts_fired(), 1u);
}

}  // namespace
}  // namespace gvfs
