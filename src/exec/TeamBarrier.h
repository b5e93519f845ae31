//===- exec/TeamBarrier.h - Combining-tree hybrid barrier -------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sense-reversing combining-tree barrier tuned for the executor's pass
/// rendezvous. Threads decrement per-node arrival counters up an arity-4
/// tree of cache-line-aligned nodes (so at most Arity threads contend on
/// any one line, instead of all P*cores on a central counter), and the
/// last arriver at the root publishes a new epoch number that every waiter
/// observes with a plain acquire load — the "sense reversal": waiters
/// compare against the epoch they saw on entry, so the barrier is
/// immediately reusable with no reset phase visible to waiters.
///
/// There is one way to wait: a spin of up to SpinLimit acquire loads
/// (pass barriers are usually hit within microseconds of each other when
/// the region split is balanced), then std::atomic::wait — futex-backed
/// on Linux libstdc++ — so oversubscribed or imbalanced teams do not burn
/// cores. SpinLimit 0 sleeps at once. A Sleepers counter lets the epoch
/// publisher skip the notify_all syscall on the common all-spinners path;
/// it notifies whenever a sleeper is registered. See DESIGN.md §8 for the
/// memory-ordering argument.
///
/// arriveAndWait() reports whether the caller was released while spinning
/// or had to sleep, feeding ExecStats' spin-vs-sleep counters.
///
/// Chaos hooks: armChaos() attaches a FaultInjector. An armed barrier
/// (a) forces deterministic spurious wakeups — the arriving thread
/// notifies the epoch word without advancing it, so sleepers wake, see
/// the stale epoch, and must go back to sleep (the sense-reversal
/// property under test) — and (b) detects stalled teams: a wait that
/// exceeds the plan's StallTimeoutSeconds is counted as a timeout
/// through the injector (feeding ExecStats v3) while the wait itself
/// continues, so the run still completes bit-exactly. Unarmed barriers
/// take the exact pre-chaos code path.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_EXEC_TEAMBARRIER_H
#define ICORES_EXEC_TEAMBARRIER_H

#include <atomic>
#include <cstdint>
#include <vector>

namespace icores {

class FaultInjector;

/// Reusable rendezvous for a fixed-size thread team.
class TeamBarrier {
public:
  /// How a completed wait was released (for ExecStats accounting).
  enum class Wake {
    Spin,  ///< Released during the spin phase.
    Sleep, ///< Entered the sleep path before release.
  };

  static constexpr int DefaultSpinLimit = 4096;

  /// \p SpinLimit acquire loads precede the sleep; 0 sleeps at once.
  explicit TeamBarrier(int NumThreads, int SpinLimit = DefaultSpinLimit);

  TeamBarrier(const TeamBarrier &) = delete;
  TeamBarrier &operator=(const TeamBarrier &) = delete;

  /// Blocks \p Thread (in [0, numThreads())) until all team threads have
  /// arrived. All memory effects of every thread before its arrival are
  /// visible to every thread after release. Reusable immediately.
  Wake arriveAndWait(int Thread);

  /// Arms the chaos hooks: spurious wakeups and stall-timeout detection
  /// are driven by \p Injector's plan, with \p Site identifying this
  /// barrier in fault traces. Must be called while no thread is waiting;
  /// pass nullptr to disarm.
  void armChaos(FaultInjector *Injector, uint64_t Site);

  int numThreads() const { return NumThreads; }

private:
  static constexpr int Arity = 4;

  /// One combining node: a line-exclusive arrival countdown.
  struct alignas(64) Node {
    std::atomic<int> Pending{0};
    int Total = 0;   ///< Children (threads or nodes) reporting here.
    int Parent = -1; ///< Node index, -1 at the root.
  };

  /// Propagates one arrival from \p NodeIndex toward the root; the last
  /// arriver at the root publishes the next epoch.
  void signal(int NodeIndex);

  /// The armed wait path: same release condition as the normal path, but
  /// the sleep is sliced so stall timeouts can be detected and counted.
  Wake chaosWait(uint64_t Seen);

  const int NumThreads;
  const int SpinLimit;
  std::vector<Node> Nodes; ///< Level 0 (leaves) first, root last.
  alignas(64) std::atomic<uint64_t> Epoch{0};
  alignas(64) std::atomic<int> Sleepers{0};

  // Chaos state; untouched (single null-check) when unarmed.
  FaultInjector *Chaos = nullptr;
  uint64_t ChaosSite = 0;
  std::vector<uint64_t> Crossings; ///< Per-thread crossing counters.
};

} // namespace icores

#endif // ICORES_EXEC_TEAMBARRIER_H
