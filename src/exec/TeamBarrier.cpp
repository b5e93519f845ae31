//===- exec/TeamBarrier.cpp - Combining-tree hybrid barrier ---------------===//

#include "exec/TeamBarrier.h"

#include "fault/FaultInjector.h"
#include "support/Error.h"

#include <algorithm>
#include <chrono>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

using namespace icores;

namespace {

/// Polite spin-loop body: tells the core (and an SMT sibling) that the
/// thread is waiting, without giving up the time slice.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

int ceilDiv(int A, int B) { return (A + B - 1) / B; }

/// Total node count of an arity-Arity combining tree over \p NumThreads
/// leaves-of-threads: level 0 has ceil(N/Arity) nodes, each level above
/// combines Arity nodes, down to a single root.
int countNodes(int NumThreads, int Arity) {
  int Count = 0;
  int Level = ceilDiv(std::max(1, NumThreads), Arity);
  for (;;) {
    Count += Level;
    if (Level == 1)
      return Count;
    Level = ceilDiv(Level, Arity);
  }
}

} // namespace

TeamBarrier::TeamBarrier(int NumThreads, int SpinLimit)
    : NumThreads(NumThreads), SpinLimit(std::max(0, SpinLimit)),
      Nodes(countNodes(NumThreads, Arity)) {
  ICORES_CHECK(NumThreads >= 1, "TeamBarrier needs at least one thread");
  // Wire up levels bottom-to-top. Level l node i combines arrivals from
  // its Arity children at level l-1 (threads, for l == 0) and reports to
  // node i/Arity of level l+1.
  int LevelBegin = 0;
  int LevelSize = ceilDiv(NumThreads, Arity);
  int ChildCount = NumThreads; // Threads feed level 0.
  for (;;) {
    for (int I = 0; I != LevelSize; ++I) {
      Node &Nd = Nodes[LevelBegin + I];
      Nd.Total = std::min(Arity, ChildCount - I * Arity);
      Nd.Pending.store(Nd.Total, std::memory_order_relaxed);
      Nd.Parent = LevelSize == 1 ? -1 : LevelBegin + LevelSize + I / Arity;
    }
    if (LevelSize == 1)
      break;
    LevelBegin += LevelSize;
    ChildCount = LevelSize;
    LevelSize = ceilDiv(LevelSize, Arity);
  }
}

void TeamBarrier::signal(int NodeIndex) {
  for (;;) {
    Node &Nd = Nodes[NodeIndex];
    // acq_rel: the decrements of one round form a release sequence, so
    // the last arriver's subsequent stores happen-after every earlier
    // arriver's writes — the chain extends node by node up to the root.
    if (Nd.Pending.fetch_sub(1, std::memory_order_acq_rel) != 1)
      return; // Not the last arriver here; someone else carries on up.
    // Reset before publishing: no thread can re-enter this node until it
    // observes the new epoch, which is published after this store.
    Nd.Pending.store(Nd.Total, std::memory_order_relaxed);
    if (Nd.Parent < 0) {
      // Root: release the team. seq_cst pairs with the waiters' Sleepers
      // registration (see arriveAndWait) so a notify is never skipped
      // while a waiter is committing to sleep.
      Epoch.fetch_add(1, std::memory_order_seq_cst);
      if (Sleepers.load(std::memory_order_seq_cst) != 0)
        Epoch.notify_all();
      return;
    }
    NodeIndex = Nd.Parent;
  }
}

void TeamBarrier::armChaos(FaultInjector *Injector, uint64_t Site) {
  Chaos = Injector;
  ChaosSite = Site;
  Crossings.assign(static_cast<size_t>(NumThreads), 0);
}

TeamBarrier::Wake TeamBarrier::chaosWait(uint64_t Seen) {
  using Clock = std::chrono::steady_clock;
  const double TimeoutSec = Chaos->plan().StallTimeoutSeconds;
  const Clock::time_point Start = Clock::now();

  for (int Spin = 0; Spin != SpinLimit; ++Spin) {
    if (Epoch.load(std::memory_order_acquire) != Seen)
      return Wake::Spin;
    cpuRelax();
  }
  // Armed slow path: std::atomic::wait has no timeout, so slice the wait
  // into short sleeps and check elapsed time against the plan's detection
  // threshold. Exceeding it counts a stalled-team timeout — once per
  // crossing — but the wait itself goes on: detection, not a deadline, so
  // the run still completes bit-exactly.
  bool TimedOut = false;
  Wake How = Wake::Spin;
  while (Epoch.load(std::memory_order_acquire) == Seen) {
    How = Wake::Sleep;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    if (!TimedOut && TimeoutSec > 0 &&
        std::chrono::duration<double>(Clock::now() - Start).count() >
            TimeoutSec) {
      TimedOut = true;
      Chaos->countTimeout();
    }
  }
  return How;
}

TeamBarrier::Wake TeamBarrier::arriveAndWait(int Thread) {
  ICORES_CHECK(Thread >= 0 && Thread < NumThreads,
               "TeamBarrier thread index out of range");
  const uint64_t Seen = Epoch.load(std::memory_order_acquire);
  signal(Thread / Arity);

  if (Chaos) {
    // Forced spurious wakeup: notify the epoch word without advancing
    // it. Sleepers wake, observe the stale epoch, and must re-sleep —
    // exercising the sense-reversal re-check under load.
    const uint64_t Crossing = Crossings[static_cast<size_t>(Thread)]++;
    if (Chaos->onBarrierCrossing(ChaosSite, Thread, Crossing))
      Epoch.notify_all();
    return chaosWait(Seen);
  }

  for (int Spin = 0; Spin != SpinLimit; ++Spin) {
    if (Epoch.load(std::memory_order_acquire) != Seen)
      return Wake::Spin;
    cpuRelax();
  }
  if (Epoch.load(std::memory_order_acquire) != Seen)
    return Wake::Spin;
  // Slow path. The seq_cst Sleepers increment before the epoch re-check
  // closes the lost-wakeup window against the root's seq_cst
  // epoch-publish-then-Sleepers-check: in any interleaving, either the
  // root sees our registration (and notifies) or we see the new epoch
  // (and never sleep).
  Sleepers.fetch_add(1, std::memory_order_seq_cst);
  while (Epoch.load(std::memory_order_seq_cst) == Seen)
    Epoch.wait(Seen, std::memory_order_seq_cst);
  Sleepers.fetch_sub(1, std::memory_order_relaxed);
  return Wake::Sleep;
}
