//===- fault/FaultPlan.h - Seeded deterministic fault plan ------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FaultPlan is the *pure* half of the chaos subsystem: a single uint64
/// seed plus per-fault-class rates, from which every injection decision is
/// derived as a pure hash of (seed, injection site). A site is the stable
/// coordinate of the hook point — (src, dst, tag, seq) for a message,
/// (island, thread, epoch, pass) for a worker stall, (barrier, thread,
/// crossing) for a spurious wakeup — so the same seed replays the
/// identical fault *set* no matter how the OS interleaves threads. That
/// determinism is what makes the chaos/property harness
/// (tests/fault_injection_test.cpp, tools/chaos_runner.cpp) possible: a
/// failing seed is a complete, replayable reproducer.
///
/// The runtime half (counters, trace, thread safety) lives in
/// fault/FaultInjector.h. See DESIGN.md §10 for the fault model.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_FAULT_FAULTPLAN_H
#define ICORES_FAULT_FAULTPLAN_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace icores {

/// What a plan may do to one RankComm message. At most one of the
/// mutually-destructive classes (lose/drop/corrupt/duplicate/delay) is
/// chosen per message, by fixed precedence, so a fault never masks the
/// detection of another at the same site.
struct MessageFaultDecision {
  bool Lose = false;      ///< Permanently lost: not delivered, not logged.
  bool Drop = false;      ///< Dropped in flight; recoverable by re-request.
  bool Duplicate = false; ///< Delivered twice with the same sequence number.
  int CorruptBit = -1;    ///< Payload bit index to flip, or -1.
  double DelaySeconds = 0.0; ///< Delivery made visible only after this.

  bool any() const {
    return Lose || Drop || Duplicate || CorruptBit >= 0 || DelaySeconds > 0;
  }
};

/// Seeded description of which faults to inject and how often. Rates are
/// probabilities in [0, 1] evaluated independently per site.
struct FaultPlan {
  uint64_t Seed = 0;

  // Message faults (dist/RankComm.h hook points).
  double DropRate = 0.0;      ///< Transient loss; retransmit log recovers.
  double DelayRate = 0.0;     ///< Late delivery within MaxDelaySeconds.
  double DuplicateRate = 0.0; ///< Same message enqueued twice.
  double CorruptRate = 0.0;   ///< One payload bit flipped in flight.
  double LoseRate = 0.0;      ///< Unrecoverable loss (models peer death).

  // Executor faults (exec/ProgramExecutor.h, exec/TeamBarrier.h hooks).
  double StallRate = 0.0; ///< Worker sleeps before a pass.
  double WakeRate = 0.0;  ///< Spurious wakeup forced at a team barrier.

  double MaxDelaySeconds = 2e-3; ///< Upper bound of an injected delay.
  double MaxStallSeconds = 2e-3; ///< Upper bound of an injected stall.

  /// A barrier wait exceeding this is reported as a stalled-team timeout
  /// through ExecStats (detection threshold, not a deadline — the wait
  /// continues and the run still completes bit-exactly).
  double StallTimeoutSeconds = 1e-3;

  /// True if any rate is nonzero (an all-zero plan injects nothing).
  bool active() const;

  /// Decision for message \p Seq of channel (\p Src, \p Dst, \p Tag) with
  /// \p CountDoubles payload doubles. Pure: depends only on the plan and
  /// the arguments.
  MessageFaultDecision messageFaults(int Src, int Dst, int Tag,
                                     uint64_t Seq,
                                     size_t CountDoubles) const;

  /// Seconds worker (\p Island, \p Thread) must stall before in-epoch
  /// pass \p PassIndex of temporal epoch \p Epoch; 0 means no stall.
  double workerStall(int Island, int Thread, int Epoch, int PassIndex) const;

  /// Whether to force a spurious wakeup when \p Thread makes its
  /// \p Crossing-th crossing of barrier \p Site.
  bool spuriousWake(uint64_t Site, int Thread, uint64_t Crossing) const;
};

/// Parses the `--chaos=` spec: `<seed>[,drop=p][,delay=p][,dup=p]
/// [,corrupt=p][,lose=p][,stall=p][,wake=p]`. A bare seed arms a default
/// mixed plan (moderate rates of every recoverable fault class). Returns
/// false and fills \p Err on malformed input.
bool parseFaultSpec(const std::string &Spec, FaultPlan &Out,
                    std::string &Err);

/// Renders the plan compactly (for logs and error messages).
std::string faultPlanSummary(const FaultPlan &Plan);

} // namespace icores

#endif // ICORES_FAULT_FAULTPLAN_H
