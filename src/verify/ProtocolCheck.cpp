//===- verify/ProtocolCheck.cpp - Synchronization model checking ----------===//

#include "verify/ProtocolCheck.h"

#include "support/Diagnostics.h"
#include "support/Format.h"

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>
#include <unordered_set>

using namespace icores;

//===----------------------------------------------------------------------===//
// TeamBarrier model
//===----------------------------------------------------------------------===//

namespace {

/// Thread phases of the modeled arriveAndWait. The model mirrors
/// exec/TeamBarrier.cpp one atomic action per transition:
///
///   Sig         about to fetch_sub the current node's Pending counter;
///               the last arriver resets the node and ascends (reset and
///               ascent are exact to coarsen: no thread can revisit the
///               node before the epoch publishes).
///   RootPub     about to Epoch.fetch_add(1) (root only).
///   RootNotify  about to load Sleepers and notify_all the blocked.
///   SpinCheck   spinning on Epoch; gives up nondeterministically, which
///               is the seq_cst Sleepers registration boundary.
///   RecheckA    registered; about to re-load Epoch (the `while` head).
///   WaitEntry   about to run Epoch.wait(Seen)'s atomic compare.
///   Blocked     parked in the futex; only a notify moves it.
///   Dereg       released; about to Sleepers.fetch_sub(1).
///   Done        finished all crossings (terminal).
///
/// A thread's Seen epoch equals its crossing index: the epoch cannot
/// advance past crossing c until every thread has decremented in
/// crossing c, so the initial load is deterministic.
enum Phase : uint8_t {
  Sig,
  RootPub,
  RootNotify,
  SpinCheck,
  RecheckA,
  WaitEntry,
  Blocked,
  Dereg,
  Done,
};

const char *phaseName(Phase P) {
  switch (P) {
  case Sig:
    return "signal";
  case RootPub:
    return "root-publish";
  case RootNotify:
    return "root-notify";
  case SpinCheck:
    return "spin";
  case RecheckA:
    return "recheck";
  case WaitEntry:
    return "wait-entry";
  case Blocked:
    return "blocked";
  case Dereg:
    return "deregister";
  case Done:
    return "done";
  }
  return "?";
}

constexpr int Arity = 4; // TeamBarrier::Arity.

int ceilDiv(int A, int B) { return (A + B - 1) / B; }

/// The combining tree exactly as TeamBarrier's constructor wires it.
struct BarrierTree {
  std::vector<int> Total;
  std::vector<int> Parent;

  explicit BarrierTree(int NumThreads) {
    int LevelBegin = 0;
    int LevelSize = ceilDiv(std::max(1, NumThreads), Arity);
    int ChildCount = NumThreads;
    for (;;) {
      for (int I = 0; I != LevelSize; ++I) {
        Total.push_back(std::min(Arity, ChildCount - I * Arity));
        Parent.push_back(LevelSize == 1 ? -1
                                        : LevelBegin + LevelSize + I / Arity);
      }
      if (LevelSize == 1)
        break;
      LevelBegin += LevelSize;
      ChildCount = LevelSize;
      LevelSize = ceilDiv(LevelSize, Arity);
    }
  }

  int numNodes() const { return static_cast<int>(Total.size()); }
};

/// Packed model state: [Epoch, SpuriousLeft, Pending..., (Phase, Node,
/// Crossing) per thread]. Small enough to key a hash set directly.
struct ModelState {
  std::string Bytes;

  static ModelState initial(const BarrierTree &Tree, int NumThreads,
                            int SpuriousBudget) {
    ModelState S;
    S.Bytes.resize(static_cast<size_t>(2 + Tree.numNodes() + 3 * NumThreads));
    S.Bytes[0] = 0; // Epoch
    S.Bytes[1] = static_cast<char>(SpuriousBudget);
    for (int N = 0; N != Tree.numNodes(); ++N)
      S.Bytes[static_cast<size_t>(2 + N)] = static_cast<char>(Tree.Total[N]);
    for (int T = 0; T != NumThreads; ++T) {
      S.setPhase(Tree, NumThreads, T, Sig);
      S.setNode(Tree, T, T / Arity);
      S.setCrossing(Tree, NumThreads, T, 0);
    }
    return S;
  }

  uint8_t epoch() const { return static_cast<uint8_t>(Bytes[0]); }
  void setEpoch(uint8_t E) { Bytes[0] = static_cast<char>(E); }
  uint8_t spuriousLeft() const { return static_cast<uint8_t>(Bytes[1]); }
  void setSpuriousLeft(uint8_t S) { Bytes[1] = static_cast<char>(S); }

  uint8_t pending(int Node) const {
    return static_cast<uint8_t>(Bytes[static_cast<size_t>(2 + Node)]);
  }
  void setPending(int Node, uint8_t P) {
    Bytes[static_cast<size_t>(2 + Node)] = static_cast<char>(P);
  }

  size_t threadBase(const BarrierTree &Tree, int T) const {
    return static_cast<size_t>(2 + Tree.numNodes() + 3 * T);
  }
  Phase phase(const BarrierTree &Tree, int T) const {
    return static_cast<Phase>(Bytes[threadBase(Tree, T)]);
  }
  void setPhase(const BarrierTree &Tree, int /*NumThreads*/, int T, Phase P) {
    Bytes[threadBase(Tree, T)] = static_cast<char>(P);
  }
  uint8_t node(const BarrierTree &Tree, int T) const {
    return static_cast<uint8_t>(Bytes[threadBase(Tree, T) + 1]);
  }
  void setNode(const BarrierTree &Tree, int T, int N) {
    Bytes[threadBase(Tree, T) + 1] = static_cast<char>(N);
  }
  uint8_t crossing(const BarrierTree &Tree, int T) const {
    return static_cast<uint8_t>(Bytes[threadBase(Tree, T) + 2]);
  }
  void setCrossing(const BarrierTree &Tree, int /*NumThreads*/, int T,
                   int C) {
    Bytes[threadBase(Tree, T) + 2] = static_cast<char>(C);
  }
};

struct BarrierModel {
  const BarrierModelOptions &Opts;
  BarrierTree Tree;

  explicit BarrierModel(const BarrierModelOptions &AOpts)
      : Opts(AOpts), Tree(AOpts.NumThreads) {}

  /// The real Sleepers counter is derived: a thread contributes from its
  /// (modeled-atomic) registration until its deregistration.
  int sleepers(const ModelState &S) const {
    int Count = 0;
    for (int T = 0; T != Opts.NumThreads; ++T) {
      Phase P = S.phase(Tree, T);
      if (P == RecheckA || P == WaitEntry || P == Blocked || P == Dereg)
        ++Count;
    }
    return Count;
  }

  bool terminal(const ModelState &S) const {
    for (int T = 0; T != Opts.NumThreads; ++T)
      if (S.phase(Tree, T) != Done)
        return false;
    return true;
  }

  void advanceCrossing(ModelState &S, int T) const {
    int C = S.crossing(Tree, T) + 1;
    S.setCrossing(Tree, Opts.NumThreads, T, C);
    if (C == Opts.Crossings) {
      S.setPhase(Tree, Opts.NumThreads, T, Done);
    } else {
      S.setPhase(Tree, Opts.NumThreads, T, Sig);
      S.setNode(Tree, T, T / Arity);
    }
  }

  void wakeBlocked(ModelState &S) const {
    for (int T = 0; T != Opts.NumThreads; ++T)
      if (S.phase(Tree, T) == Blocked)
        S.setPhase(Tree, Opts.NumThreads, T, RecheckA);
  }

  /// All successor states of \p S (self-loops like fruitless spins are
  /// not emitted; they never change the state).
  std::vector<ModelState> successors(const ModelState &S) const {
    std::vector<ModelState> Out;
    for (int T = 0; T != Opts.NumThreads; ++T) {
      Phase P = S.phase(Tree, T);
      uint8_t Seen = S.crossing(Tree, T);
      switch (P) {
      case Sig: {
        ModelState N = S;
        int Node = S.node(Tree, T);
        uint8_t Pend = S.pending(Node);
        if (Pend > 1) {
          N.setPending(Node, Pend - 1);
          N.setPhase(Tree, Opts.NumThreads, T, SpinCheck);
        } else {
          // Last arriver: reset the node and carry the signal upward (no
          // other thread can touch this node before the epoch publishes).
          N.setPending(Node, static_cast<uint8_t>(Tree.Total[Node]));
          int Parent = Tree.Parent[Node];
          if (Parent >= 0) {
            N.setNode(Tree, T, Parent);
          } else {
            N.setPhase(Tree, Opts.NumThreads, T,
                       Opts.MutantNotifyBeforePublish ? RootNotify
                                                      : RootPub);
          }
        }
        Out.push_back(std::move(N));
        break;
      }
      case RootPub: {
        ModelState N = S;
        N.setEpoch(S.epoch() + 1);
        N.setPhase(Tree, Opts.NumThreads, T,
                   Opts.MutantNotifyBeforePublish ? SpinCheck : RootNotify);
        Out.push_back(std::move(N));
        break;
      }
      case RootNotify: {
        ModelState N = S;
        if (sleepers(S) != 0)
          wakeBlocked(N);
        N.setPhase(Tree, Opts.NumThreads, T,
                   Opts.MutantNotifyBeforePublish ? RootPub : SpinCheck);
        Out.push_back(std::move(N));
        break;
      }
      case SpinCheck: {
        ModelState N = S;
        if (S.epoch() != Seen) {
          advanceCrossing(N, T);
        } else {
          // Give up spinning: the seq_cst Sleepers registration. The
          // "spin again" outcome is a self-loop and emits nothing.
          N.setPhase(Tree, Opts.NumThreads, T, RecheckA);
        }
        Out.push_back(std::move(N));
        break;
      }
      case RecheckA: {
        ModelState N = S;
        N.setPhase(Tree, Opts.NumThreads, T,
                   S.epoch() != Seen ? Dereg : WaitEntry);
        Out.push_back(std::move(N));
        break;
      }
      case WaitEntry: {
        ModelState N = S;
        if (Opts.MutantBlockWithoutRecheck)
          N.setPhase(Tree, Opts.NumThreads, T, Blocked);
        else
          N.setPhase(Tree, Opts.NumThreads, T,
                     S.epoch() != Seen ? RecheckA : Blocked);
        Out.push_back(std::move(N));
        break;
      }
      case Dereg: {
        ModelState N = S;
        advanceCrossing(N, T);
        Out.push_back(std::move(N));
        break;
      }
      case Blocked:
      case Done:
        break; // No own transition.
      }
    }
    if (S.spuriousLeft() > 0) {
      bool AnyBlocked = false;
      for (int T = 0; T != Opts.NumThreads && !AnyBlocked; ++T)
        AnyBlocked = S.phase(Tree, T) == Blocked;
      if (AnyBlocked) {
        ModelState N = S;
        wakeBlocked(N);
        N.setSpuriousLeft(S.spuriousLeft() - 1);
        Out.push_back(std::move(N));
      }
    }
    return Out;
  }

  std::string describe(const ModelState &S) const {
    std::string Desc = formatString("epoch=%d", static_cast<int>(S.epoch()));
    for (int T = 0; T != Opts.NumThreads; ++T)
      Desc += formatString(
          " t%d=%s@c%d", T, phaseName(S.phase(Tree, T)),
          static_cast<int>(S.crossing(Tree, T)));
    return Desc;
  }
};

} // namespace

BarrierCheckResult
icores::checkTeamBarrierProtocol(const BarrierModelOptions &Opts,
                                 DiagnosticEngine &Diags) {
  BarrierModel Model(Opts);
  BarrierCheckResult Result;

  std::unordered_set<std::string> Visited;
  std::deque<ModelState> Frontier;
  ModelState Init =
      ModelState::initial(Model.Tree, Opts.NumThreads, Opts.SpuriousBudget);
  Visited.insert(Init.Bytes);
  Frontier.push_back(std::move(Init));

  while (!Frontier.empty()) {
    ModelState S = std::move(Frontier.front());
    Frontier.pop_front();
    ++Result.StatesExplored;
    if (Result.StatesExplored > Opts.MaxStates) {
      Result.StateCapHit = true;
      Diags.report(Severity::Error, "protocol.barrier.state-cap",
                   formatString("barrier model exceeded %lld states "
                                "(%d threads, %d crossings)",
                                static_cast<long long>(Opts.MaxStates),
                                Opts.NumThreads, Opts.Crossings));
      return Result;
    }
    std::vector<ModelState> Next = Model.successors(S);
    if (Next.empty() && !Model.terminal(S)) {
      Result.Deadlock = true;
      Result.Witness = Model.describe(S);
      Diags
          .report(Severity::Error, "protocol.barrier.deadlock",
                  formatString("barrier deadlock with %d threads: lost "
                               "wakeup or stuck arrival",
                               Opts.NumThreads))
          .note("state", Result.Witness)
          .note("crossings", std::to_string(Opts.Crossings));
      return Result;
    }
    for (ModelState &N : Next)
      if (Visited.insert(N.Bytes).second)
        Frontier.push_back(std::move(N));
  }
  Result.Ok = true;
  return Result;
}

//===----------------------------------------------------------------------===//
// RankComm schedule checking
//===----------------------------------------------------------------------===//

CommCheckResult
icores::checkCommSchedule(const std::vector<RankCommSchedule> &Schedules,
                          DiagnosticEngine &Diags, int DeadRank,
                          int DeathOp) {
  CommCheckResult Result;
  size_t NumRanks = Schedules.size();

  // FIFO mailboxes keyed (source, destination, tag), as RankComm keys
  // them; payloads reduce to their double counts.
  std::map<std::tuple<int, int, int>, std::deque<int64_t>> Channels;
  std::vector<size_t> Pos(NumRanks, 0);
  std::vector<bool> Dead(NumRanks, false);
  std::vector<bool> Errored(NumRanks, false);
  bool Poisoned = false;

  auto finished = [&](size_t R) {
    return Dead[R] || Errored[R] || Pos[R] == Schedules[R].Ops.size();
  };

  // Greedy execution: buffered sends make the op system confluent, so if
  // the greedy run drains every rank, every real interleaving does too;
  // if it wedges, the blocked frontier is a genuine cyclic (or orphaned)
  // wait. Barriers release only when every live unfinished rank is at one.
  bool Progress = true;
  while (Progress) {
    Progress = false;

    // Rank death is itself a transition: at its death op the rank stops
    // and poisons the world (runDistributed poisons before
    // reporting), after which blocked peers fail fast.
    if (DeadRank >= 0 && !Dead[static_cast<size_t>(DeadRank)] &&
        Pos[static_cast<size_t>(DeadRank)] ==
            static_cast<size_t>(DeathOp)) {
      Dead[static_cast<size_t>(DeadRank)] = true;
      Poisoned = true;
      Progress = true;
      continue;
    }

    // Barrier release check.
    bool AllAtBarrier = true;
    int AtBarrier = 0;
    for (size_t R = 0; R != NumRanks; ++R) {
      if (finished(R))
        continue;
      if (Schedules[R].Ops[Pos[R]].K == CommOp::Kind::Barrier)
        ++AtBarrier;
      else
        AllAtBarrier = false;
    }
    if (AtBarrier > 0 && AllAtBarrier) {
      for (size_t R = 0; R != NumRanks; ++R)
        if (!finished(R)) {
          ++Pos[R];
          ++Result.OpsExecuted;
        }
      Progress = true;
      continue;
    }

    for (size_t R = 0; R != NumRanks; ++R) {
      while (!finished(R)) {
        const CommOp &Op = Schedules[R].Ops[Pos[R]];
        if (DeadRank == static_cast<int>(R) &&
            Pos[R] == static_cast<size_t>(DeathOp))
          break; // Handled by the death transition above.
        if (Op.K == CommOp::Kind::Send) {
          Channels[{static_cast<int>(R), Op.Peer, Op.Tag}].push_back(
              Op.Count);
          ++Pos[R];
          ++Result.OpsExecuted;
          Progress = true;
          continue;
        }
        if (Op.K == CommOp::Kind::Recv) {
          auto It = Channels.find({Op.Peer, static_cast<int>(R), Op.Tag});
          if (It != Channels.end() && !It->second.empty()) {
            int64_t Count = It->second.front();
            It->second.pop_front();
            if (Count != Op.Count)
              Diags
                  .report(Severity::Error, "protocol.comm.size-mismatch",
                          formatString("rank %zu recv(%d, tag %d) expects "
                                       "%lld doubles, message has %lld",
                                       R, Op.Peer, Op.Tag,
                                       static_cast<long long>(Op.Count),
                                       static_cast<long long>(Count)))
                  .note("rank", std::to_string(R));
            ++Pos[R];
            ++Result.OpsExecuted;
            Progress = true;
            continue;
          }
          if (Poisoned) {
            // RankComm::recv raises once the world is poisoned instead
            // of waiting forever; the rank terminates with an error.
            Errored[R] = true;
            Progress = true;
          }
          break; // Blocked (or errored out).
        }
        // Barrier: released collectively above; fail fast when poisoned.
        if (Poisoned) {
          Errored[R] = true;
          Progress = true;
        }
        break;
      }
    }
  }

  bool AnyBlocked = false;
  for (size_t R = 0; R != NumRanks; ++R) {
    if (finished(R))
      continue;
    AnyBlocked = true;
    const CommOp &Op = Schedules[R].Ops[Pos[R]];
    Result.Witness += formatString(
        "rank %zu blocked at op %zu (%s peer %d tag %d); ", R, Pos[R],
        Op.K == CommOp::Kind::Recv ? "recv" : "barrier", Op.Peer, Op.Tag);
  }
  if (AnyBlocked) {
    Result.Deadlock = true;
    Diags
        .report(Severity::Error, "protocol.comm.deadlock",
                "communication schedule wedges: cyclic or unmatched wait")
        .note("blocked", Result.Witness);
  }

  for (const auto &[Key, Queue] : Channels)
    Result.OrphanedMessages += static_cast<int64_t>(Queue.size());
  if (Result.OrphanedMessages > 0 && DeadRank < 0)
    Diags.report(Severity::Error, "protocol.comm.orphan-message",
                 formatString("%lld messages were sent but never received",
                              static_cast<long long>(
                                  Result.OrphanedMessages)));

  Result.Ok = !Result.Deadlock &&
              (DeadRank >= 0 || Result.OrphanedMessages == 0) &&
              !Diags.hasFinding("protocol.comm.size-mismatch");
  return Result;
}
