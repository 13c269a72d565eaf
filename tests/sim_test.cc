// Tests for the discrete-event kernel and its resource models: virtual-time
// ordering, signals, semaphores, link serialization/fair sharing, disk FIFO
// queueing and CPU pools.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.h"
#include "sim/resources.h"

namespace gvfs::sim {
namespace {

TEST(SimKernel, SingleProcessAdvancesTime) {
  SimKernel k;
  SimTime end = k.run_process("p", [](Process& p) {
    EXPECT_EQ(p.now(), 0);
    p.delay(5 * kSecond);
    EXPECT_EQ(p.now(), 5 * kSecond);
    p.delay(0);
    EXPECT_EQ(p.now(), 5 * kSecond);
  });
  EXPECT_EQ(end, 5 * kSecond);
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
}

TEST(SimKernel, ProcessesInterleaveDeterministically) {
  SimKernel k;
  std::vector<int> order;
  k.spawn("a", [&](Process& p) {
    order.push_back(1);
    p.delay(10);
    order.push_back(3);
    p.delay(20);  // wakes at 30
    order.push_back(6);
  });
  k.spawn("b", [&](Process& p) {
    order.push_back(2);
    p.delay(15);
    order.push_back(4);
    p.delay(10);  // wakes at 25
    order.push_back(5);
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(SimKernel, TieBrokenByScheduleOrder) {
  SimKernel k;
  std::vector<char> order;
  k.spawn("a", [&](Process& p) {
    p.delay(100);
    order.push_back('a');
  });
  k.spawn("b", [&](Process& p) {
    p.delay(100);
    order.push_back('b');
  });
  k.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
}

TEST(SimKernel, DelayUntilPastIsNoop) {
  SimKernel k;
  k.run_process("p", [](Process& p) {
    p.delay(100);
    p.delay_until(50);  // already past; must not go backwards
    EXPECT_EQ(p.now(), 100);
  });
}

TEST(SimKernel, SpawnFromProcess) {
  SimKernel k;
  int child_ran = 0;
  k.run_process("parent", [&](Process& p) {
    p.delay(10);
    p.kernel().spawn("child", [&](Process& c) {
      EXPECT_GE(c.now(), 10);
      c.delay(5);
      child_ran = 1;
    });
    p.delay(100);
  });
  EXPECT_EQ(child_ran, 1);
}

TEST(SimKernel, FailedProcessCounted) {
  SimKernel k;
  k.spawn("bad", [](Process&) { throw std::runtime_error("boom"); });
  k.run();
  EXPECT_EQ(k.failed_processes(), 1);
}

TEST(SimKernel, FailedProcessNamesRecorded) {
  SimKernel k;
  k.spawn("ok", [](Process& p) { p.delay(10); });
  k.spawn("bad-writer", [](Process&) { throw std::runtime_error("boom"); });
  k.spawn("bad-reader", [](Process&) { throw std::runtime_error("bang"); });
  k.run();
  EXPECT_EQ(k.failed_processes(), 2);
  ASSERT_EQ(k.failed_process_names().size(), 2u);
  std::string joined = k.failed_names_joined();
  EXPECT_NE(joined.find("bad-writer"), std::string::npos) << joined;
  EXPECT_NE(joined.find("bad-reader"), std::string::npos) << joined;
  EXPECT_EQ(joined.find("ok"), std::string::npos) << joined;
}

TEST(Signal, NotifyAllWakesWaiters) {
  SimKernel k;
  Signal sig(k);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    k.spawn("waiter", [&](Process& p) {
      p.wait(sig);
      ++woke;
      EXPECT_EQ(p.now(), 50);
    });
  }
  k.spawn("notifier", [&](Process& p) {
    p.delay(50);
    sig.notify_all();
  });
  k.run();
  EXPECT_EQ(woke, 3);
}

TEST(Signal, NotifyOneWakesFifo) {
  SimKernel k;
  Signal sig(k);
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    k.spawn("w" + std::to_string(i), [&, i](Process& p) {
      p.wait(sig);
      order.push_back(i);
    });
  }
  k.spawn("n", [&](Process& p) {
    p.delay(10);
    EXPECT_TRUE(sig.notify_one());
    p.delay(10);
    EXPECT_TRUE(sig.notify_one());
    p.delay(10);
    EXPECT_FALSE(sig.notify_one());
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Signal, NotifyOneRewaiterGoesToBackOfQueue) {
  // A woken process that waits again queues behind waiters that were already
  // parked — FIFO across re-waits, not just across first waits.
  SimKernel k;
  Signal sig(k);
  std::vector<int> order;
  k.spawn("w0", [&](Process& p) {
    p.wait(sig);
    order.push_back(0);
    p.wait(sig);  // re-wait: must now queue behind w1
    order.push_back(0);
  });
  k.spawn("w1", [&](Process& p) {
    p.wait(sig);
    order.push_back(1);
  });
  k.spawn("n", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      p.delay(10);
      EXPECT_TRUE(sig.notify_one());
    }
    p.delay(10);
    EXPECT_FALSE(sig.notify_one());  // queue drained
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0}));
}

TEST(Signal, NotifyAllResumesAtNotifiersVirtualTime) {
  // Waiters parked at different virtual times all resume at the moment of
  // the notify_all, and a process that starts waiting afterwards is not
  // retroactively woken.
  SimKernel k;
  Signal sig(k);
  std::vector<SimTime> wake_times;
  bool late_woke = false;
  k.spawn("early", [&](Process& p) {
    p.wait(sig);  // parked at t=0
    wake_times.push_back(p.now());
  });
  k.spawn("mid", [&](Process& p) {
    p.delay(30);
    p.wait(sig);  // parked at t=30
    wake_times.push_back(p.now());
  });
  k.spawn("late", [&](Process& p) {
    p.delay(100);  // past the notify: waits forever, killed at end
    p.wait(sig);
    late_woke = true;
  });
  k.spawn("n", [&](Process& p) {
    p.delay(70);
    sig.notify_all();
  });
  k.run();
  EXPECT_EQ(wake_times, (std::vector<SimTime>{70, 70}));
  EXPECT_FALSE(late_woke);
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
}

TEST(Signal, ShutdownKillUnwindsWaiterStack) {
  // When the kernel kills still-blocked processes at end of run, their
  // stacks unwind (ProcessKilled) so RAII cleanup — permits, locks — runs.
  SimKernel k;
  Signal sig(k);
  Semaphore sem(k, 1);
  bool destructor_ran = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  k.spawn("stuck", [&](Process& p) {
    Sentinel s{&destructor_ran};
    ScopedPermit permit(p, sem);  // held across the fatal wait
    p.wait(sig);                  // never notified
  });
  k.run();
  EXPECT_TRUE(destructor_ran);
  EXPECT_EQ(sem.available(), 1);  // the permit was released by unwinding
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
}

TEST(Signal, BlockedForeverIsKilledAtEnd) {
  SimKernel k;
  Signal sig(k);
  bool reached_end = false;
  k.spawn("stuck", [&](Process& p) {
    p.wait(sig);  // never notified
    reached_end = true;
  });
  k.run();
  EXPECT_FALSE(reached_end);
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();  // kill is not a failure
}

TEST(Lockdep, CrossedSemaphoresReportHoldAndWaitCycle) {
  // The classic AB/BA deadlock: each process holds one permit and waits
  // forever for the other. Lockdep must name both processes in a cycle.
  SimKernel k;
  Semaphore a(k, 1, "lock-a");
  Semaphore b(k, 1, "lock-b");
  k.spawn("p1", [&](Process& p) {
    a.acquire(p);
    p.delay(10);
    b.acquire(p);  // p2 holds b: blocks forever
  });
  k.spawn("p2", [&](Process& p) {
    b.acquire(p);
    p.delay(10);
    a.acquire(p);  // p1 holds a: blocks forever
  });
  k.run();
  const QuiescenceReport& report = k.quiescence_report();
  ASSERT_TRUE(report.deadlock()) << report.to_string();
  EXPECT_TRUE(report.names_process("p1")) << report.to_string();
  EXPECT_TRUE(report.names_process("p2")) << report.to_string();
  ASSERT_EQ(report.cycles.size(), 1u) << report.to_string();
  EXPECT_EQ(report.cycles[0].size(), 2u) << report.to_string();
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
}

TEST(Lockdep, CrossedSignalWaitersAreNamedWithSignals) {
  // Two processes each parked on a signal only the other would have
  // notified. No hold annotations, so no provable cycle — but the report
  // still names both stuck processes and what they wait on.
  SimKernel k;
  Signal sa(k, "sig-a");
  Signal sb(k, "sig-b");
  k.spawn("w1", [&](Process& p) { p.wait(sa); sb.notify_one(); });
  k.spawn("w2", [&](Process& p) { p.wait(sb); sa.notify_one(); });
  k.run();
  const QuiescenceReport& report = k.quiescence_report();
  ASSERT_EQ(report.blocked.size(), 2u) << report.to_string();
  EXPECT_TRUE(report.names_process("w1"));
  EXPECT_TRUE(report.names_process("w2"));
  EXPECT_EQ(report.blocked[0].signal, "sig-a");
  EXPECT_EQ(report.blocked[1].signal, "sig-b");
  EXPECT_FALSE(report.deadlock());
}

TEST(Lockdep, NeverNotifiedSignalNamesEveryWaiter) {
  SimKernel k;
  Signal sig(k, "never-notified");
  k.spawn("waiter-1", [&](Process& p) { p.wait(sig); });
  k.spawn("waiter-2", [&](Process& p) { p.delay(5); p.wait(sig); });
  k.run();
  const QuiescenceReport& report = k.quiescence_report();
  ASSERT_EQ(report.blocked.size(), 2u) << report.to_string();
  EXPECT_TRUE(report.names_process("waiter-1"));
  EXPECT_TRUE(report.names_process("waiter-2"));
  EXPECT_EQ(report.blocked[0].signal, "never-notified");
  EXPECT_FALSE(report.blocked[0].possible_lost_wakeup);
  EXPECT_FALSE(report.deadlock());
}

TEST(Lockdep, LostWakeupIsFlagged) {
  // The notify fires at t=0 while nobody waits; the waiter arrives at t=10
  // and sleeps forever — the textbook lost wakeup, and the report says so.
  SimKernel k;
  Signal sig(k, "racy");
  k.spawn("notifier", [&](Process& p) { (void)p; sig.notify_one(); });
  k.spawn("sleeper", [&](Process& p) {
    p.delay(10);
    p.wait(sig);
  });
  k.run();
  const QuiescenceReport& report = k.quiescence_report();
  ASSERT_EQ(report.blocked.size(), 1u) << report.to_string();
  EXPECT_EQ(report.blocked[0].process, "sleeper");
  EXPECT_TRUE(report.blocked[0].possible_lost_wakeup);
}

TEST(Lockdep, CleanRunLeavesEmptyReport) {
  SimKernel k;
  Signal sig(k, "ok");
  k.spawn("w", [&](Process& p) { p.wait(sig); });
  k.spawn("n", [&](Process& p) {
    p.delay(1);
    sig.notify_all();
  });
  k.run();
  EXPECT_TRUE(k.quiescence_report().blocked.empty());
  EXPECT_FALSE(k.quiescence_report().deadlock());
}

TEST(Lockdep, ThreeWayCycleIsReported) {
  SimKernel k;
  Semaphore a(k, 1, "a"), b(k, 1, "b"), c(k, 1, "c");
  k.spawn("p1", [&](Process& p) { a.acquire(p); p.delay(10); b.acquire(p); });
  k.spawn("p2", [&](Process& p) { b.acquire(p); p.delay(10); c.acquire(p); });
  k.spawn("p3", [&](Process& p) { c.acquire(p); p.delay(10); a.acquire(p); });
  k.run();
  const QuiescenceReport& report = k.quiescence_report();
  ASSERT_TRUE(report.deadlock()) << report.to_string();
  ASSERT_EQ(report.cycles.size(), 1u);
  EXPECT_EQ(report.cycles[0].size(), 3u);
  for (const char* name : {"p1", "p2", "p3"}) {
    EXPECT_TRUE(report.names_process(name)) << name;
  }
}

TEST(Semaphore, LimitsConcurrency) {
  SimKernel k;
  Semaphore sem(k, 2);
  int concurrent = 0, max_concurrent = 0, done = 0;
  for (int i = 0; i < 6; ++i) {
    k.spawn("job", [&](Process& p) {
      ScopedPermit permit(p, sem);
      max_concurrent = std::max(max_concurrent, ++concurrent);
      p.delay(100);
      --concurrent;
      ++done;
    });
  }
  k.run();
  EXPECT_EQ(done, 6);
  EXPECT_EQ(max_concurrent, 2);
  EXPECT_EQ(sem.available(), 2);
}

TEST(CpuPool, SerializesBeyondWidth) {
  SimKernel k;
  CpuPool cpu(k, 2);
  SimTime last_end = 0;
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    k.spawn("job", [&](Process& p) {
      cpu.run(p, 100 * kMillisecond);
      last_end = std::max(last_end, p.now());
      ++done;
    });
  }
  k.run();
  EXPECT_EQ(done, 4);
  // 4 jobs of 100ms on 2 CPUs = 200ms.
  EXPECT_EQ(last_end, 200 * kMillisecond);
}

TEST(Link, SerializationPlusLatency) {
  SimKernel k;
  Link link(k, "l", LinkConfig{from_millis(10), static_cast<double>(1_MiB), 64_KiB, 0});
  k.run_process("p", [&](Process& p) {
    link.transmit(p, 1_MiB);  // 1 s serialization + 10 ms latency
    EXPECT_EQ(p.now(), kSecond + from_millis(10));
  });
  EXPECT_EQ(link.bytes_sent(), 1_MiB);
  EXPECT_EQ(link.messages(), 1u);
}

TEST(Link, ZeroByteMessageStillPaysLatency) {
  SimKernel k;
  Link link(k, "l", LinkConfig{from_millis(5), 1e9, 64_KiB, 0});
  k.run_process("p", [&](Process& p) {
    link.transmit(p, 0);
    EXPECT_EQ(p.now(), from_millis(5));
  });
}

TEST(Link, PerMessageOverheadCharged) {
  SimKernel k;
  Link link(k, "l", LinkConfig{0, 1e12, 64_KiB, from_millis(1)});
  k.run_process("p", [&](Process& p) {
    link.transmit(p, 100);
    link.transmit(p, 100);
    EXPECT_GE(p.now(), 2 * from_millis(1));
  });
}

TEST(Link, ConcurrentSendersShareBandwidthFairly) {
  SimKernel k;
  // 2 MiB/s pipe, no latency. Two senders of 1 MiB each should take ~1 s
  // TOTAL if fair-shared (each gets 1 MiB/s), finishing near each other.
  Link link(k, "l", LinkConfig{0, 2.0 * 1_MiB, 64_KiB, 0});
  SimTime end_a = 0, end_b = 0;
  k.spawn("a", [&](Process& p) {
    link.transmit(p, 1_MiB);
    end_a = p.now();
  });
  k.spawn("b", [&](Process& p) {
    link.transmit(p, 1_MiB);
    end_b = p.now();
  });
  k.run();
  // Both finish within one chunk-time of each other and near 1 s.
  double a = to_seconds(end_a), b = to_seconds(end_b);
  EXPECT_NEAR(a, 1.0, 0.05);
  EXPECT_NEAR(b, 1.0, 0.05);
}

TEST(Link, TransmitExSkipsPropagation) {
  SimKernel k;
  Link link(k, "l", LinkConfig{from_millis(50), static_cast<double>(1_MiB), 64_KiB, 0});
  k.run_process("p", [&](Process& p) {
    link.transmit_ex(p, 16_KiB, false);
    EXPECT_LT(p.now(), from_millis(50));  // only serialization (~15.6 ms)
  });
}

TEST(Disk, SeekVsSequential) {
  SimKernel k;
  DiskModel disk(k, "d", DiskConfig{from_millis(9), from_millis(0.1), 35.0 * 1_MiB});
  SimTime random_t = 0, seq_t = 0;
  k.run_process("p", [&](Process& p) {
    SimTime t0 = p.now();
    disk.access(p, 32_KiB, Locality::kRandom);
    random_t = p.now() - t0;
    t0 = p.now();
    disk.access(p, 32_KiB, Locality::kSequential);
    seq_t = p.now() - t0;
  });
  EXPECT_GT(random_t, seq_t);
  EXPECT_GE(random_t, from_millis(9));
  EXPECT_LT(seq_t, from_millis(2));
  EXPECT_EQ(disk.ops(), 2u);
  EXPECT_EQ(disk.bytes_moved(), 64_KiB);
}

TEST(Disk, FifoQueueing) {
  SimKernel k;
  DiskModel disk(k, "d", DiskConfig{from_millis(10), from_millis(10), 1e12});
  SimTime end_a = 0, end_b = 0;
  k.spawn("a", [&](Process& p) {
    disk.access(p, 4_KiB, Locality::kRandom);
    end_a = p.now();
  });
  k.spawn("b", [&](Process& p) {
    disk.access(p, 4_KiB, Locality::kRandom);
    end_b = p.now();
  });
  k.run();
  // Each op: 10 ms positioning + ~4 us transfer; b queues behind a.
  EXPECT_GE(end_a, from_millis(10));
  EXPECT_LT(end_a, from_millis(11));
  EXPECT_GE(end_b, end_a + from_millis(10));
  EXPECT_LT(end_b, from_millis(21));
}

// ------------------------------------------------------------ determinism --

// Seeded mix of delays, signal ping-pong, and notify_all drains across five
// processes; returns the full dispatch trace as "time seq name" lines.
std::string run_traced_scenario() {
  SimKernel k;
  k.seed_rng(1234);
  std::string trace;
  k.set_schedule_tracer([&](SimTime t, u64 seq, const Process& p) {
    trace += std::to_string(t) + " " + std::to_string(seq) + " " + p.name() + "\n";
  });
  Signal ping(k, "ping");
  Signal pong(k, "pong");
  for (int i = 0; i < 4; ++i) {
    k.spawn("worker-" + std::to_string(i), [&, i](Process& p) {
      for (int r = 0; r < 2; ++r) {
        p.delay(static_cast<SimDuration>(k.rng().next_below(97)) + i);
        if ((r + i) % 2 == 0) {
          ping.notify_one();
          p.wait(pong);
        } else {
          pong.notify_one();
          p.wait(ping);
        }
      }
    });
  }
  k.spawn("drain", [&](Process& p) {
    for (int r = 0; r < 6; ++r) {
      p.delay(50);
      ping.notify_all();
      pong.notify_all();
    }
  });
  k.run();
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
  return trace;
}

// The exact dispatch schedule of run_traced_scenario(). Any engine change
// that reorders wakeups — even preserving correctness — breaks replayability
// of every experiment in the repo and must show up here, not in a flaky
// bench. (The thread->fiber migration was validated against this trace.)
constexpr const char* kGoldenScheduleTrace =
    "0 0 worker-0\n"
    "0 1 worker-1\n"
    "0 2 worker-2\n"
    "0 3 worker-3\n"
    "0 4 drain\n"
    "21 7 worker-2\n"
    "32 8 worker-3\n"
    "32 10 worker-2\n"
    "50 9 drain\n"
    "50 12 worker-3\n"
    "58 6 worker-1\n"
    "70 5 worker-0\n"
    "70 15 worker-1\n"
    "100 13 drain\n"
    "100 17 worker-0\n"
    "104 11 worker-2\n"
    "119 14 worker-3\n"
    "119 16 worker-1\n"
    "119 20 worker-2\n"
    "122 19 worker-0\n"
    "122 21 worker-3\n"
    "150 18 drain\n"
    "150 22 worker-0\n"
    "150 23 worker-1\n"
    "200 24 drain\n"
    "250 25 drain\n"
    "300 26 drain\n";

TEST(SimKernel, ScheduleTraceIsDeterministicAcrossRuns) {
  std::string first = run_traced_scenario();
  std::string second = run_traced_scenario();
  EXPECT_EQ(first, second) << "same seed, same spawn order => same schedule";
  EXPECT_FALSE(first.empty());
}

TEST(SimKernel, ScheduleTraceMatchesCommittedGolden) {
  EXPECT_EQ(run_traced_scenario(), kGoldenScheduleTrace);
}

namespace {
// The rounding control of the running context: MXCSR's and the x87 control
// word's on x86-64, where a fiber switch saves each itself; fegetround()
// elsewhere.
std::pair<unsigned, unsigned> rounding_modes() {
#if defined(__x86_64__)
  unsigned mxcsr = 0;
  unsigned short x87_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(x87_cw));
  return {mxcsr & 0x6000u, x87_cw & 0x0c00u};
#else
  return {static_cast<unsigned>(std::fegetround()), 0u};
#endif
}
}  // namespace

TEST(SimKernel, EachFiberKeepsItsOwnFloatingPointControlState) {
  // fesetround() sets both MXCSR and the x87 control word. A process that
  // switches to round-toward-zero and yields must not lend its mode to the
  // scheduler or to another process, and must find it again when resumed.
  std::fesetround(FE_TOWARDZERO);
  const auto toward_zero = rounding_modes();
  std::fesetround(FE_TONEAREST);
  const auto defaults = rounding_modes();
  ASSERT_NE(toward_zero, defaults);

  SimKernel k;
  std::vector<std::pair<unsigned, unsigned>> scheduler_saw;
  k.set_schedule_tracer([&](SimTime, u64, const Process&) {
    scheduler_saw.push_back(rounding_modes());
  });
  std::pair<unsigned, unsigned> set_here, after_resume, other_at_start, other_later;
  k.spawn("toward-zero", [&](Process& p) {
    std::fesetround(FE_TOWARDZERO);
    set_here = rounding_modes();
    p.delay(10);
    after_resume = rounding_modes();
    std::fesetround(FE_TONEAREST);
  });
  k.spawn("default", [&](Process& p) {
    other_at_start = rounding_modes();
    p.delay(5);
    other_later = rounding_modes();
  });
  k.run();

  EXPECT_EQ(set_here, toward_zero);
  EXPECT_EQ(after_resume, toward_zero);
  EXPECT_EQ(other_at_start, defaults);
  EXPECT_EQ(other_later, defaults);
  ASSERT_EQ(scheduler_saw.size(), 4u);
  for (const auto& modes : scheduler_saw) EXPECT_EQ(modes, defaults);
  EXPECT_EQ(rounding_modes(), defaults);
}

namespace {
// How far a 16-byte-aligned local of a fresh frame sits from 16-byte
// alignment. GCC does not realign the stack for 16 (the ABI promises it at
// every call), and the address is laundered through asm so the compiler
// cannot fold the alignment it assumes: this reads the frame's real
// alignment, which a wrong fiber entry frame would break.
__attribute__((noinline)) std::uintptr_t misalignment_of_aligned_local() {
  alignas(16) volatile unsigned char local[16];
  local[0] = 0;  // a byte store: no aligned SSE access that would fault first
  auto addr = reinterpret_cast<std::uintptr_t>(&local[0]);
  asm volatile("" : "+r"(addr));
  return addr % 16;
}
}  // namespace

TEST(SimKernel, FiberStackIsAlignedAtEntryAndAfterEveryResume) {
  SimKernel k;
  std::vector<std::uintptr_t> misalignments;
  for (int i = 0; i < 3; ++i) {
    k.spawn("aligned-" + std::to_string(i), [&misalignments, i](Process& p) {
      misalignments.push_back(misalignment_of_aligned_local());
      for (int step = 0; step < 4; ++step) {
        p.delay(1 + i);
        misalignments.push_back(misalignment_of_aligned_local());
      }
    });
  }
  k.run();
  ASSERT_EQ(misalignments.size(), 15u);
  for (std::uintptr_t m : misalignments) EXPECT_EQ(m, 0u);
}

TEST(SimKernel, FiberStacksAreRecycledAcrossSequentialProcesses) {
  // 64 processes that never overlap in virtual time must share one pooled
  // stack; the pool's high-water mark is the real concurrency, not the
  // spawn count.
  SimKernel k;
  int ran = 0;
  for (int i = 0; i < 64; ++i) {
    k.spawn("seq-" + std::to_string(i), [&](Process& p) {
      p.delay(1);
      ++ran;
    }, /*start_after=*/i * 10);
  }
  k.run();
  EXPECT_EQ(ran, 64);
  EXPECT_EQ(k.fiber_stacks_created(), 1u);
}

namespace {
// noinline + volatile scratch so the frames are real and not tail-folded.
__attribute__((noinline)) u64 deep_recurse(u64 depth) {
  volatile char scratch[256];
  scratch[0] = static_cast<char>(depth);
  if (depth == 0) return static_cast<u64>(scratch[0]);
  return deep_recurse(depth - 1) + 1;
}
}  // namespace

TEST(SimKernel, FiberStackHasThreadSizedHeadroom) {
  // Regression: blob extent chains recurse one frame per layer
  // (ExtentStore::compressed_size), and a long interactive write session
  // builds chains deep enough to need multiple MiB of stack. The old
  // thread-per-process engine got 8 MiB from glibc; the fiber stacks must
  // match. 8192 frames x ~300 B ≈ 2.5 MiB — overflows a 1 MiB stack,
  // comfortable in 8 MiB even with sanitizer redzones inflating frames.
  SimKernel k;
  u64 got = 0;
  k.spawn("deep", [&](Process& p) {
    p.delay(1);
    got = deep_recurse(8192);
  });
  k.run();
  EXPECT_EQ(got, 8192u);
}

TEST(Lockdep, LargeWaitForGraphSurvivesReallocationAndFindsCycle) {
  // Regression for the quiescence-analysis iterator invalidation: the DFS
  // used to walk out[v] while resolving edge targets could still grow (and
  // reallocate) the adjacency structure. Build a graph with enough nodes to
  // force several reallocations — 32 holder/waiter pairs around a buried
  // 3-way cycle — plus a holder ("ghost") whose awaited signal is destroyed
  // before quiescence, so it enters the graph only as an edge target.
  SimKernel k;
  Semaphore a(k, 1, "a");
  Semaphore b(k, 1, "b");
  Semaphore c(k, 1, "c");
  Signal never(k, "never");
  std::vector<std::unique_ptr<Semaphore>> extra;
  for (int i = 0; i < 32; ++i) {
    extra.push_back(std::make_unique<Semaphore>(k, 1, "x" + std::to_string(i)));
  }
  for (int i = 0; i < 32; ++i) {
    k.spawn("holder-" + std::to_string(i), [&, i](Process& p) {
      extra[static_cast<std::size_t>(i)]->acquire(p);
      p.wait(never);
    });
    k.spawn("waiter-" + std::to_string(i), [&, i](Process& p) {
      p.delay(1);
      extra[static_cast<std::size_t>(i)]->acquire(p);
    });
  }
  k.spawn("p1", [&](Process& p) { a.acquire(p); p.delay(10); b.acquire(p); });
  k.spawn("p2", [&](Process& p) { b.acquire(p); p.delay(10); c.acquire(p); });
  k.spawn("p3", [&](Process& p) { c.acquire(p); p.delay(10); a.acquire(p); });
  Semaphore g(k, 1, "g");
  auto* doomed = new Signal(k, "doomed");
  k.spawn("ghost", [&](Process& p) {
    g.acquire(p);
    p.wait(*doomed);
  });
  k.spawn("destroyer", [&](Process& p) {
    p.delay(5);
    delete doomed;  // ghost stays blocked on an unregistered signal
    doomed = nullptr;
  });
  k.spawn("gwaiter", [&](Process& p) {
    p.delay(6);
    g.acquire(p);  // waits for ghost, which no registered signal lists
  });
  k.run();
  const QuiescenceReport& report = k.quiescence_report();
  ASSERT_TRUE(report.deadlock()) << report.to_string();
  ASSERT_EQ(report.cycles.size(), 1u) << report.to_string();
  EXPECT_EQ(report.cycles[0].size(), 3u) << report.to_string();
  for (const char* name : {"p1", "p2", "p3"}) {
    EXPECT_TRUE(report.names_process(name)) << name;
  }
  // 32 on "never" + 32 semaphore waiters + 3 cycle members + gwaiter; the
  // ghost waits on a dead signal, so it is an edge target but not a
  // blocked-waiter record.
  EXPECT_EQ(report.blocked.size(), 68u) << report.to_string();
  EXPECT_TRUE(report.names_process("gwaiter"));
  EXPECT_FALSE(report.names_process("ghost"));
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
}

TEST(Signal, NotifyOneStaysFifoUnderChurn) {
  // Hammer the head-index FIFO: one long-lived waiter plus a churn of
  // transient waiters, with wake order recorded. Order must match the old
  // erase-from-front semantics exactly, and the compacted wait list must
  // not wake anyone twice.
  SimKernel k;
  Signal s(k, "churn");
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) {
    k.spawn("w" + std::to_string(i), [&, i](Process& p) {
      p.delay(i);  // enqueue in a known order
      p.wait(s);
      order.push_back(i);
    });
  }
  k.spawn("n", [&](Process& p) {
    p.delay(1000);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(s.notify_one());
      p.delay(1);
    }
    EXPECT_FALSE(s.notify_one());
  });
  k.run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(k.failed_processes(), 0) << k.failed_names_joined();
}

}  // namespace
}  // namespace gvfs::sim
