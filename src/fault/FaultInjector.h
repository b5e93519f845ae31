//===- fault/FaultInjector.h - Armed fault-injection runtime ----*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime half of the chaos subsystem: a FaultInjector wraps a
/// FaultPlan with thread-safe counters and a bounded trace of every fault
/// it injected. Hook points in dist/RankComm.h, exec/ProgramExecutor.h
/// and exec/TeamBarrier.h are compiled in unconditionally but gate on a
/// single `Injector != nullptr` test, so an unarmed run pays one
/// predictable branch per hook and nothing else.
///
/// The trace is the forensic record: when a receive exhausts its retries,
/// the structured icores::Error it raises carries the trace entries of
/// the channel that failed, so a chaos test can assert the run died of
/// the fault that was injected — not of an unrelated hang.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_FAULT_FAULTINJECTOR_H
#define ICORES_FAULT_FAULTINJECTOR_H

#include "fault/FaultPlan.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace icores {

/// Snapshot of the injector's counters (ExecStats schema v3 mirrors
/// these as faults_injected / retries / timeouts / recovered).
struct FaultStats {
  int64_t Injected = 0;  ///< Faults actually applied at hook points.
  int64_t Retries = 0;   ///< recv() timeout ticks that triggered a retry.
  int64_t Timeouts = 0;  ///< Stalled-team timeouts detected at barriers.
  int64_t Recovered = 0; ///< Faults detected and repaired (dup discard,
                         ///< checksum re-fetch, retransmit-log re-fetch).
};

/// Thread-safe armed instance of one FaultPlan.
class FaultInjector {
public:
  explicit FaultInjector(const FaultPlan &Plan) : Plan(Plan) {}

  FaultInjector(const FaultInjector &) = delete;
  FaultInjector &operator=(const FaultInjector &) = delete;

  const FaultPlan &plan() const { return Plan; }

  /// Decides, counts and traces the faults for one message. Call exactly
  /// once per sent message (decisions are pure, but counting is not).
  MessageFaultDecision onMessage(int Src, int Dst, int Tag, uint64_t Seq,
                                 size_t CountDoubles);

  /// Stall decision for one worker pass; counts and traces when nonzero.
  double onWorkerPass(int Island, int Thread, int Epoch, int PassIndex);

  /// Spurious-wakeup decision for one barrier crossing; counts and
  /// traces when true.
  bool onBarrierCrossing(uint64_t Site, int Thread, uint64_t Crossing);

  void countRetry() { Retries.fetch_add(1, std::memory_order_relaxed); }
  void countTimeout() { Timeouts.fetch_add(1, std::memory_order_relaxed); }
  void countRecovered() {
    Recovered.fetch_add(1, std::memory_order_relaxed);
  }

  FaultStats stats() const;

  /// Every trace entry so far, in injection order (bounded; the cap is
  /// generous for test workloads). Ordering across threads follows the
  /// actual interleaving; compare traces as sorted multisets.
  std::vector<std::string> trace() const;

  /// The trace entries whose site matches channel (\p Src -> \p Dst,
  /// \p Tag) — what a structured recv error attaches as its fault trace.
  std::vector<std::string> traceForChannel(int Src, int Dst,
                                           int Tag) const;

private:
  void record(std::string Entry);

  FaultPlan Plan;
  std::atomic<int64_t> Injected{0};
  std::atomic<int64_t> Retries{0};
  std::atomic<int64_t> Timeouts{0};
  std::atomic<int64_t> Recovered{0};

  static constexpr size_t TraceCap = 65536;
  mutable std::mutex TraceMutex;
  std::vector<std::string> Trace;
};

} // namespace icores

#endif // ICORES_FAULT_FAULTINJECTOR_H
