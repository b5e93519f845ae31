//===- dist/RankComm.h - In-process message-passing substrate ---*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small message-passing substrate emulating the MPI subset the
/// distributed driver needs: point-to-point tagged sends/receives
/// of double buffers, an allreduce-sum and a world barrier, between ranks
/// running as threads of one process. The paper's future work plans an MPI
/// extension of the islands-of-cores approach; this substrate lets the
/// repository implement and *test* that extension without an MPI
/// installation — swapping RankComm for real MPI is mechanical.
///
/// The transport is resilient, not just happy-path: every message carries
/// a per-channel sequence number and a payload checksum, and recv() runs a
/// timeout + bounded-exponential-backoff retry protocol. Duplicates are
/// discarded by sequence number, corruption is detected by checksum, and
/// dropped or late messages are re-fetched from the sender's retransmit
/// log — so a run under the fault injector (fault/FaultInjector.h, armed
/// via CommWorld::arm) either recovers bit-exactly or, when a fault is
/// unrecoverable, raises a structured icores::Error naming the injected
/// fault after the retry budget is exhausted. A rank that fails poisons
/// the world (CommWorld::poison) so peers blocked in recv()/barrier()
/// fail fast instead of deadlocking. Unarmed runs pay one branch per
/// call; no fault bookkeeping is kept.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_DIST_RANKCOMM_H
#define ICORES_DIST_RANKCOMM_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace icores {

class FaultInjector;

/// recv()'s retry protocol knobs: an exponential backoff from
/// InitialBackoffSeconds doubling up to MaxBackoffSeconds, for at most
/// MaxRetries timeout ticks before the structured error is raised. The
/// defaults budget roughly half a minute of silence — generous enough
/// that only a genuinely dead peer exhausts them; chaos tests tighten
/// them to fail in milliseconds.
struct CommTimeouts {
  double InitialBackoffSeconds = 1e-3;
  double MaxBackoffSeconds = 0.25;
  int MaxRetries = 140;
};

/// Shared mailbox state for one group of ranks. Create one World per
/// distributed run and hand each rank a RankComm view of it.
class CommWorld {
public:
  explicit CommWorld(int NumRanks);

  int numRanks() const { return NumRanks; }

  /// Arms fault injection for every message of this world. Call before
  /// any traffic; pass nullptr to disarm. Not owned.
  void arm(FaultInjector *Injector);

  /// Replaces the retry protocol's timeout/backoff budget.
  void setTimeouts(const CommTimeouts &T);

  /// Marks the world dead on behalf of \p Rank: every rank currently
  /// blocked in recv()/barrier() (and every later call) raises a
  /// structured icores::Error instead of waiting for a peer that will
  /// never answer. Idempotent; the first reason wins.
  void poison(int Rank, const std::string &Reason);

  bool poisoned() const;
  std::string poisonReason() const;

private:
  friend class RankComm;

  using Clock = std::chrono::steady_clock;

  struct Message {
    std::vector<double> Payload;
    uint64_t Seq = 0;
    uint64_t Checksum = 0;
    Clock::time_point VisibleAt; ///< Delayed delivery (injected faults).
  };

  /// Key: (source, destination, tag).
  using MailboxKey = std::tuple<int, int, int>;

  mutable std::mutex Mutex;
  std::condition_variable Cond;
  std::map<MailboxKey, std::deque<Message>> Mailboxes;

  /// Ground-truth copies of sent-but-unconsumed messages, kept only when
  /// a fault plan is armed: the receiver's re-request path reads from
  /// here, modelling MPI-level retransmission without a live sender.
  std::map<MailboxKey, std::deque<Message>> SendLog;

  /// Per-channel next sequence numbers (sender side / receiver side).
  std::map<MailboxKey, uint64_t> NextSendSeq;
  std::map<MailboxKey, uint64_t> NextRecvSeq;

  // Sense-reversing barrier state.
  int BarrierCount = 0;
  int BarrierGeneration = 0;

  bool Poisoned = false;
  int PoisonedBy = -1;
  std::string PoisonReasonText;

  FaultInjector *Injector = nullptr;
  CommTimeouts Timeouts;

  int NumRanks;
};

/// One rank's endpoint: MPI_Comm_rank/size, send, recv, allreduce,
/// barrier.
class RankComm {
public:
  RankComm(CommWorld &World, int Rank);

  int rank() const { return Rank; }
  int numRanks() const { return World.numRanks(); }

  /// Blocking tagged send of \p Count doubles to \p Destination. The data
  /// is copied; the call returns immediately after enqueueing (buffered
  /// send semantics, like MPI_Bsend). Throws icores::Error if the world
  /// is poisoned.
  void send(int Destination, int Tag, const double *Data, size_t Count);

  /// Blocking tagged receive from \p Source; waits until a matching,
  /// checksum-valid, in-sequence message arrives and fills exactly
  /// \p Count doubles. Retries with bounded exponential backoff; throws
  /// a structured icores::Error (kind RecvTimeout, carrying the fault
  /// trace) when the budget is exhausted, or kind WorldPoisoned when a
  /// peer rank has failed.
  void recv(int Source, int Tag, double *Data, size_t Count);

  /// Deterministic global sum (rank-0 gather + broadcast over the
  /// resilient transport); identical bit pattern on every rank.
  /// Collective.
  double allreduceSum(double Value);

  /// Blocks until every rank of the world has entered the barrier.
  /// Throws icores::Error if the world is poisoned while waiting.
  void barrier();

private:
  CommWorld &World;
  int Rank;
};

/// Checksum used by the message protocol (FNV-1a over the payload bytes);
/// exposed for tests.
uint64_t commChecksum(const double *Data, size_t Count);

} // namespace icores

#endif // ICORES_DIST_RANKCOMM_H
