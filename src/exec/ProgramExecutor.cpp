//===- exec/ProgramExecutor.cpp - Generic threaded plan execution ---------===//

#include "exec/ProgramExecutor.h"

#include "core/BalanceModel.h"
#include "exec/ExecObserver.h"
#include "exec/IntermediateWindows.h"
#include "exec/RegionSplit.h"
#include "fault/FaultInjector.h"
#include "support/Error.h"
#include "support/MathUtil.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>

using namespace icores;

namespace {

using ProfileClock = std::chrono::steady_clock;

double secondsSince(ProfileClock::time_point Start,
                    ProfileClock::time_point End) {
  return std::chrono::duration<double>(End - Start).count();
}

// --- Work-stealing chunk deques ---------------------------------------
//
// One packed word per (island, thread): the open chunk-index range
// [begin, end) this thread still owns, begin in the high 32 bits. The
// owner claims the front (ascending chunk order keeps its streaming
// locality), thieves claim the back; both by CAS, so every chunk is
// claimed exactly once. No generation tag is needed: a pass's owner
// drains its own word to empty before entering the pass-end barrier, so
// a stale word observed by an early-arriving thief of the *next* pass
// always reads empty (begin == end), and the zero-initialized word is
// empty too. Chunk *data* is published by the pass-end barrier, not by
// the deque, so relaxed failure ordering is sufficient.

uint64_t packRange(uint32_t Begin, uint32_t End) {
  return (static_cast<uint64_t>(Begin) << 32) | End;
}
uint32_t rangeBegin(uint64_t Word) {
  return static_cast<uint32_t>(Word >> 32);
}
uint32_t rangeEnd(uint64_t Word) {
  return static_cast<uint32_t>(Word);
}

/// Chunks per team thread of a stealing pass; more chunks balance finer
/// at slightly higher claim overhead.
constexpr uint32_t StealChunksPerThread = 4;

/// Claims one chunk of \p Deque into \p Chunk: the front for its
/// \p Owner, the back for a thief. Returns false once the range is empty.
/// Every lost CAS race is counted into \p Failures when it is non-null.
bool claimChunk(std::atomic<uint64_t> &Deque, bool Owner, uint32_t &Chunk,
                int64_t *Failures) {
  uint64_t W = Deque.load(std::memory_order_acquire);
  while (rangeBegin(W) < rangeEnd(W)) {
    const uint64_t Rest = Owner ? packRange(rangeBegin(W) + 1, rangeEnd(W))
                                : packRange(rangeBegin(W), rangeEnd(W) - 1);
    if (Deque.compare_exchange_weak(W, Rest, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      Chunk = Owner ? rangeBegin(W) : rangeEnd(W) - 1;
      return true;
    }
    if (Failures)
      ++*Failures;
  }
  return false;
}

} // namespace

/// Island-private execution state: the field store (intermediates owned,
/// step inputs/outputs bound to the shared arrays) and the team barrier.
/// For temporal plans (TemporalDepth > 1) it additionally owns the
/// per-epoch import buffers (one per step input, wrap-gathered from the
/// shared arrays at every epoch start) and the scratch buffers
/// intermediate fused steps write instead of the shared outputs; feedback
/// pairs alternate between their import and scratch buffer from step to
/// step (see rebindForStep).
struct ProgramExecutor::IslandState {
  FieldStore Store;
  TeamBarrier Team;
  std::map<ArrayId, Array3D> Imports; ///< Keyed by step-input array.
  std::map<ArrayId, Array3D> Scratch; ///< Keyed by step-output array.
  /// Work-stealing chunk deques, one packed [begin, end) word per team
  /// thread (see packRange above); stealing never leaves the island.
  std::vector<std::atomic<uint64_t>> Deques;

  IslandState(unsigned NumArrays, int TeamSize, const ExecutorOptions &Opts)
      : Store(NumArrays),
        Team(TeamSize, Opts.BarrierPolicy, Opts.BarrierSpinLimit),
        Deques(static_cast<size_t>(TeamSize)) {}
};

/// The one per-worker instrumentation seam of threadMain: every pass
/// share, reduction fold, barrier crossing and chaos stall goes through
/// it, and it is the only code on that path that branches on profiling,
/// the observer or the chaos injector. Unprofiled, it takes no timestamps.
class ProgramExecutor::WorkerSeam {
public:
  WorkerSeam(ProgramExecutor &E, IslandState &IS, int Worker, int Island,
             int ThreadInTeam, int TeamSize)
      : Accum(E.Profiling ? E.Program.numStages() : 0,
              static_cast<unsigned>(E.Plan.TemporalDepth)),
        E(E), IS(IS), Obs(E.Opts.Observer), Prof(E.Profiling), Worker(Worker),
        Island(Island), ThreadInTeam(ThreadInTeam), TeamSize(TeamSize) {}

  ExecThreadAccum Accum; ///< Merged into the stats only when profiled.

  /// The seeded chaos stall before pass \p PassIndex (counted within the
  /// epoch) of epoch \p Epoch; profiled, the pass's work starts after it.
  void beforePass(int Epoch, int PassIndex) {
    if (E.Opts.Chaos) {
      double Stall =
          E.Opts.Chaos->onWorkerPass(Island, ThreadInTeam, Epoch, PassIndex);
      if (Stall > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(Stall));
    }
    if (Prof)
      LastWork = ProfileClock::now();
  }

  /// \p Stage's kernel over the non-empty \p Sub, booked as stage and
  /// fused-step kernel time.
  void kernel(StageId Stage, int StepInEpoch, const Box3 &Sub) {
    if (Obs)
      Obs->onPass(Worker, E.Program, IS.Store, Stage, Sub);
    const auto T0 = Prof ? ProfileClock::now() : ProfileClock::time_point();
    E.Kernels.run(IS.Store, Stage, Sub);
    if (!Prof)
      return;
    LastWork = ProfileClock::now();
    double Sec = secondsSince(T0, LastWork);
    Accum.StageKernelSeconds[static_cast<size_t>(Stage)] += Sec;
    Accum.StepKernelSeconds[static_cast<size_t>(StepInEpoch)] += Sec;
  }

  /// The reduction fold over \p Sub: work (it ends the idle span) but
  /// never kernel time.
  void fold(StageId Stage, int StepInEpoch, const Box3 &Sub) {
    if (E.StageFolds[static_cast<size_t>(Stage)].empty())
      return;
    E.foldSubRegion(IS, Worker, StepInEpoch, Stage, Sub);
    if (Prof)
      LastWork = ProfileClock::now();
  }

  /// Crosses \p Barrier in \p Slot, adding the wait to \p Wait unless it
  /// is null (always, unprofiled). The observer sees the arrive before the
  /// rendezvous and the depart after it, so it can merge happens-before
  /// clocks at the exact points the hardware orders the workers.
  void cross(TeamBarrier &Barrier, uint64_t Site, int Slot,
             int Participants, double *Wait) {
    if (Obs)
      Obs->onBarrierArrive(Site, Worker, Participants);
    const auto T0 = Wait ? ProfileClock::now() : ProfileClock::time_point();
    if (Barrier.arriveAndWait(Slot) == TeamBarrier::Wake::Sleep)
      ++Accum.SleepWakes;
    else
      ++Accum.SpinWakes;
    if (Wait)
      *Wait += secondsSince(T0, ProfileClock::now());
    if (Obs)
      Obs->onBarrierDepart(Site, Worker);
  }
  void globalBarrier(TeamBarrier &Global) {
    cross(Global, /*Site=*/0, Worker,
          static_cast<int>(E.WorkerCoords.size()),
          Prof ? &Accum.GlobalBarrierWaitSeconds : nullptr);
  }
  void teamBarrier(double *Wait = nullptr) {
    cross(IS.Team, static_cast<uint64_t>(Island) + 1, ThreadInTeam,
          TeamSize, Wait);
  }

  /// Books a pass of \p Stage (elided without \p BarrierAfter; a
  /// \p Stealing pass's time since the worker's last work is idle), then
  /// crosses its barrier, timed as the stage's.
  void endPass(StageId Stage, bool BarrierAfter, bool Stealing) {
    const size_t S = static_cast<size_t>(Stage);
    if (Prof) {
      ++Accum.StagePasses[S];
      Accum.StageBarriersElided[S] += !BarrierAfter;
      if (Stealing)
        Accum.IdleSeconds += secondsSince(LastWork, ProfileClock::now());
    }
    if (BarrierAfter)
      teamBarrier(Prof ? &Accum.StageBarrierWaitSeconds[S] : nullptr);
  }

  void merge() {
    if (!Prof)
      return;
    std::lock_guard<std::mutex> Lock(E.StatsMutex);
    E.Stats.mergeThread(Island, ThreadInTeam, Accum);
  }

private:
  ProgramExecutor &E;
  IslandState &IS;
  ExecObserver *const Obs;
  const bool Prof;
  const int Worker, Island, ThreadInTeam, TeamSize;
  /// End of the worker's last kernel or fold, or the pass start.
  ProfileClock::time_point LastWork;
};

ProgramExecutor::ProgramExecutor(StencilProgram AProgram,
                                 KernelTable AKernels, const Domain &ADom,
                                 ExecutionPlan APlan, ExecutorOptions AOpts)
    : Program(std::move(AProgram)), Kernels(std::move(AKernels)), Dom(ADom),
      Plan(std::move(APlan)), Opts(AOpts) {
  ICORES_CHECK(Plan.GlobalTarget == Dom.coreBox(),
               "plan target does not match the domain");
  ICORES_CHECK(!Plan.Islands.empty(), "plan has no islands");
  ICORES_CHECK(Kernels.coversProgram(Program),
               "kernel table does not cover the program");
  ICORES_CHECK(Plan.TemporalDepth >= 1,
               "plan temporal depth must be at least 1");
  // Temporal blocking widens the fused-step cones beyond the domain and
  // evaluates them on periodically wrapped imports; that extended
  // evaluation is exact only under periodic boundaries.
  ICORES_CHECK(Plan.TemporalDepth == 1 ||
                   Dom.boundaryMode() == BoundaryMode::Periodic,
               "temporal blocking requires periodic boundaries");

  // Reductions: bindings in declaration order, the per-stage fold lists,
  // and the worker-major (worker, step, reduction) partial scratch. Every
  // worker folds only the cells it computed itself, so the fold adds no
  // cross-thread dependence and no barrier requirement. The scratch is
  // sized here, before the large array allocations below: allocated after
  // them, this small block tripled the measured construction time of
  // back-to-back executors (a heap-layout effect).
  Reductions = orderedReductionBindings(Program, Opts.Reductions);
  ReductionLog.resize(Reductions.size());
  StageFolds.resize(Program.numStages());
  for (size_t R = 0; R != Program.reductions().size(); ++R) {
    StageId Producer = Program.producerOf(Program.reductions()[R].Array);
    if (Producer != NoStage)
      StageFolds[static_cast<size_t>(Producer)].push_back(R);
  }
  size_t NumWorkers = 0;
  for (const IslandPlan &Island : Plan.Islands)
    NumWorkers += static_cast<size_t>(Island.NumThreads);
  Partials.resize(NumWorkers * static_cast<size_t>(Plan.TemporalDepth) *
                  Reductions.size());
  // The intermediates' buffers and slide schedules, also sized before the
  // large allocations for the same reason.
  Windows.reserve(Plan.Islands.size());
  for (const IslandPlan &Island : Plan.Islands)
    Windows.push_back(planIslandWindows(Program, Island));

  // With a placement policy armed every allocation is left untouched so
  // the init epoch's pinned workers produce the first (page-homing) write;
  // None keeps the historical serial zero-fill.
  const bool Placing = Opts.Placement != PlacementPolicy::None;
  Box3 Alloc = Dom.allocBox();
  for (unsigned A = 0; A != Program.numArrays(); ++A) {
    ArrayId Id = static_cast<ArrayId>(A);
    if (Program.array(Id).Role == ArrayRole::Intermediate)
      continue;
    if (Placing)
      External[Id].resetUntouched(Alloc, Opts.PadKRows);
    else
      External.emplace(Id, Array3D(Alloc, Opts.PadKRows));
  }

  for (const IslandPlan &Island : Plan.Islands) {
    auto IS = std::make_unique<IslandState>(Program.numArrays(),
                                            Island.NumThreads, Opts);
    for (auto &[Id, Arr] : External)
      IS->Store.bindExternal(Id, &Arr);

    // Allocate the island's private intermediates: sliding ones over a
    // few planes of dim 0, the rest over the union of the regions the
    // island computes them on.
    const std::vector<Box3> &Buffers = Windows[IslandStates.size()].Buffers;
    for (unsigned S = 0; S != Program.numStages(); ++S)
      for (ArrayId Out : Program.stage(static_cast<StageId>(S)).Outputs) {
        const Box3 &Buf = Buffers[static_cast<size_t>(Out)];
        if (Buf.empty() || IS->Store.isBound(Out))
          continue;
        if (Placing)
          IS->Store.allocateOwnedUntouched(Out, Buf, Opts.PadKRows);
        else
          IS->Store.allocateOwned(Out, Buf, Opts.PadKRows);
      }

    // Shared-traffic footprints from the actual pass regions: the union
    // each step-input array is read over, and the union each step-output
    // array is written over, across all of this island's passes.
    std::vector<Box3> ReadUnion(Program.numArrays());
    std::vector<Box3> WriteUnion(Program.numArrays());
    for (const BlockTask &Block : Island.Blocks)
      for (const StagePass &Pass : Block.Passes) {
        const StageDef &Stage = Program.stage(Pass.Stage);
        for (const StageInput &In : Stage.Inputs)
          if (Program.array(In.Array).Role == ArrayRole::StepInput) {
            Box3 &Un = ReadUnion[static_cast<size_t>(In.Array)];
            Un = Un.unionWith(In.readRegion(Pass.Region));
          }
        for (ArrayId Out : Stage.Outputs)
          if (Program.array(Out).Role == ArrayRole::StepOutput) {
            Box3 &Un = WriteUnion[static_cast<size_t>(Out)];
            Un = Un.unionWith(Pass.Region);
          }
      }

    if (Plan.TemporalDepth > 1) {
      // Import and scratch buffers. A feedback pair alternates between
      // its Target's import buffer and its Source's scratch buffer from
      // fused step to fused step, so both must cover the pair's read and
      // write unions.
      std::vector<Box3> BufBox(Program.numArrays());
      for (ArrayId In : Program.stepInputs())
        BufBox[static_cast<size_t>(In)] =
            ReadUnion[static_cast<size_t>(In)];
      for (ArrayId Out : Program.stepOutputs())
        BufBox[static_cast<size_t>(Out)] =
            WriteUnion[static_cast<size_t>(Out)];
      for (const FeedbackPair &FB : Program.feedbacks()) {
        Box3 Paired = BufBox[static_cast<size_t>(FB.Target)].unionWith(
            BufBox[static_cast<size_t>(FB.Source)]);
        BufBox[static_cast<size_t>(FB.Target)] = Paired;
        BufBox[static_cast<size_t>(FB.Source)] = Paired;
      }
      for (ArrayId In : Program.stepInputs())
        if (!BufBox[static_cast<size_t>(In)].empty()) {
          if (Placing)
            IS->Imports[In].resetUntouched(BufBox[static_cast<size_t>(In)],
                                           Opts.PadKRows);
          else
            IS->Imports.emplace(
                In, Array3D(BufBox[static_cast<size_t>(In)], Opts.PadKRows));
        }
      for (ArrayId Out : Program.stepOutputs())
        if (!BufBox[static_cast<size_t>(Out)].empty()) {
          if (Placing)
            IS->Scratch[Out].resetUntouched(
                BufBox[static_cast<size_t>(Out)], Opts.PadKRows);
          else
            IS->Scratch.emplace(
                Out, Array3D(BufBox[static_cast<size_t>(Out)], Opts.PadKRows));
        }
      // Epoch import: every import buffer is gathered once from the
      // shared arrays.
      for (const auto &[Id, Buf] : IS->Imports)
        SharedReadBytesPerEpoch +=
            Buf.indexSpace().numPoints() * Program.array(Id).ElementBytes;
    } else {
      // T == 1: the island streams its input footprint from the shared
      // arrays every step.
      for (ArrayId In : Program.stepInputs())
        SharedReadBytesPerEpoch +=
            ReadUnion[static_cast<size_t>(In)].numPoints() *
            Program.array(In).ElementBytes;
    }
    // Final-step output writes go to the shared arrays in every mode.
    for (ArrayId Out : Program.stepOutputs()) {
      Box3 FinalOut;
      for (const BlockTask &Block : Island.Blocks) {
        if (Block.StepInEpoch != Plan.TemporalDepth - 1)
          continue;
        for (const StagePass &Pass : Block.Passes)
          if (Pass.Stage == Program.producerOf(Out))
            FinalOut = FinalOut.unionWith(Pass.Region);
      }
      SharedWriteBytesPerEpoch +=
          FinalOut.numPoints() * Program.array(Out).ElementBytes;
    }
    IslandStates.push_back(std::move(IS));
  }

  // Chaos site 0 is the run's global barrier; islands take 1..N.
  if (Opts.Chaos)
    for (size_t Isl = 0; Isl != IslandStates.size(); ++Isl)
      IslandStates[Isl]->Team.armChaos(Opts.Chaos, Isl + 1);

  for (size_t Isl = 0; Isl != Plan.Islands.size(); ++Isl)
    for (int T = 0; T != Plan.Islands[Isl].NumThreads; ++T)
      WorkerCoords.emplace_back(static_cast<int>(Isl), T);
  Pool = std::make_unique<WorkerPool>(static_cast<int>(WorkerCoords.size()));

  // Placement model: the page-ownership map under the requested policy and
  // the remote slice of the per-epoch shared traffic it implies. Computed
  // for every policy — None included — so profiled runs always report the
  // remote stream their placement causes.
  PMap = buildPlacementMap(Plan, Opts.Placement);
  for (const IslandPlan &Island : Plan.Islands)
    RemoteBytesPerEpoch +=
        estimateIslandRemoteEpochTraffic(Island, Plan, Program, PMap).total();

  if (Placing) {
    // Pin before the init epoch: first touch only homes pages on the right
    // socket when the touching thread already sits there, and the pool is
    // about to spawn for the epoch — setThreadPinning() afterwards would
    // be too late. Callers pass pinning through the options instead.
    if (!Opts.Pinning.empty())
      setThreadPinning(Opts.Pinning);
    if (Opts.HugePages) {
      for (auto &[Id, Arr] : External)
        Arr.adviseHugePages();
      for (const auto &IS : IslandStates) {
        for (auto &[Id, Buf] : IS->Imports)
          Buf.adviseHugePages();
        for (auto &[Id, Buf] : IS->Scratch)
          Buf.adviseHugePages();
      }
    }
    runPlacementEpoch();
    for (auto &[Id, Arr] : External)
      Arr.markPlaced();
  }

  Stats.initLayout(Plan, Program.numStages());
  Stats.Placement = placementPolicyName(Opts.Placement);
  Stats.PagesFirstTouched = PagesTouched;
  Stats.PinFailures = Pool->pinFailures();
  Stats.Stealing = Opts.Stealing;
  if (Opts.Machine)
    Stats.PredictedIslandSkew =
        predictedIslandSkew(Plan, Program, *Opts.Machine);
}

/// The placement init epoch: one pool dispatch in which every worker
/// zero-fills the storage its policy assigns it, producing the first
/// (page-homing) write of every allocation the constructor left untouched.
/// FirstTouch: each island's team covers its arena segment of the shared
/// arrays — split among the team threads in i/j like a kernel pass, so a
/// multi-socket island spreads its segment across its sockets — plus all
/// of its island-private buffers. The segments tile the allocation (see
/// PlacementMap), so afterwards every element is zero, exactly as the
/// serial constructor path leaves it. Interleave: the pages of every
/// allocation, shared and private alike, round-robin across all workers.
/// Either way the workers write pairwise-disjoint element ranges.
void ProgramExecutor::runPlacementEpoch() {
  const Box3 Alloc = Dom.allocBox();
  const int64_t PageBytes = placementPageBytes();
  const int TotalWorkers = static_cast<int>(WorkerCoords.size());
  std::vector<int64_t> BytesTouched(static_cast<size_t>(TotalWorkers), 0);

  // Zeroes the full (padded) k-rows of Sub's (i, j) rectangle: one
  // contiguous run per i-plane. Sub must span the array's whole k extent.
  auto zeroRows = [](Array3D &Arr, const Box3 &Sub) -> int64_t {
    if (Sub.empty())
      return 0;
    const int KLo = Arr.indexSpace().Lo[2];
    const int64_t RunElems =
        static_cast<int64_t>(Sub.Hi[1] - Sub.Lo[1]) * Arr.strideJ();
    for (int I = Sub.Lo[0]; I != Sub.Hi[0]; ++I)
      std::fill_n(Arr.pointerTo(I, Sub.Lo[1], KLo),
                  static_cast<size_t>(RunElems), 0.0);
    return static_cast<int64_t>(Sub.Hi[0] - Sub.Lo[0]) * RunElems *
           static_cast<int64_t>(sizeof(double));
  };
  // Zeroes this thread's 1/N linear slice of the physical buffer (private
  // island buffers have no inter-island partition to honour).
  auto zeroSlice = [](Array3D &Arr, int Thread, int Num) -> int64_t {
    const int64_t Elems =
        Arr.paddedBytes() / static_cast<int64_t>(sizeof(double));
    int64_t Lo = Elems * Thread / Num;
    int64_t Hi = Elems * (Thread + 1) / Num;
    if (Hi <= Lo)
      return 0;
    std::fill(Arr.data() + Lo, Arr.data() + Hi, 0.0);
    return (Hi - Lo) * static_cast<int64_t>(sizeof(double));
  };
  // Zeroes every TotalWorkers-th page of the buffer (page round-robin).
  auto zeroInterleaved = [&](Array3D &Arr, int Worker) -> int64_t {
    const int64_t Elems =
        Arr.paddedBytes() / static_cast<int64_t>(sizeof(double));
    const int64_t PageElems =
        std::max<int64_t>(1, PageBytes / static_cast<int64_t>(sizeof(double)));
    int64_t Bytes = 0;
    for (int64_t Page = Worker,
                 NumPages = (Elems + PageElems - 1) / PageElems;
         Page < NumPages; Page += TotalWorkers) {
      int64_t Lo = Page * PageElems;
      int64_t Hi = std::min(Elems, Lo + PageElems);
      std::fill(Arr.data() + Lo, Arr.data() + Hi, 0.0);
      Bytes += (Hi - Lo) * static_cast<int64_t>(sizeof(double));
    }
    return Bytes;
  };

  Pool->runOnAll([&](int Worker) {
    auto [Island, ThreadInTeam] = WorkerCoords[static_cast<size_t>(Worker)];
    const IslandPlan &IP = Plan.Islands[static_cast<size_t>(Island)];
    IslandState &IS = *IslandStates[static_cast<size_t>(Island)];
    int64_t Bytes = 0;

    // Visits the island state's private storage in deterministic order.
    auto forEachPrivate = [this](IslandState &State, auto &&Fn) {
      for (auto &[Id, Buf] : State.Imports)
        Fn(Buf);
      for (auto &[Id, Buf] : State.Scratch)
        Fn(Buf);
      for (unsigned A = 0; A != Program.numArrays(); ++A) {
        ArrayId Id = static_cast<ArrayId>(A);
        if (Program.array(Id).Role == ArrayRole::Intermediate &&
            State.Store.isBound(Id))
          Fn(State.Store.get(Id));
      }
    };

    if (Opts.Placement == PlacementPolicy::Interleave) {
      // Every worker touches its page residues of every allocation.
      for (auto &[Id, Arr] : External)
        Bytes += zeroInterleaved(Arr, Worker);
      for (const auto &State : IslandStates)
        forEachPrivate(*State, [&](Array3D &Buf) {
          Bytes += zeroInterleaved(Buf, Worker);
        });
    } else { // FirstTouch
      // Split the arena segment among the team in i/j only: collapse k
      // before splitting, then restore the full k span, so each thread
      // fills whole padded rows and no two threads share a row.
      Box3 Seg = PMap.arenaSegment(Island, Alloc);
      Box3 Flat = Seg;
      Flat.Lo[2] = 0;
      Flat.Hi[2] = Seg.empty() ? 0 : 1;
      Box3 Sub = teamSubRegion(Flat, ThreadInTeam, IP.NumThreads);
      if (!Sub.empty()) {
        Sub.Lo[2] = Seg.Lo[2];
        Sub.Hi[2] = Seg.Hi[2];
        for (auto &[Id, Arr] : External)
          Bytes += zeroRows(Arr, Sub);
      }
      forEachPrivate(IS, [&](Array3D &Buf) {
        Bytes += zeroSlice(Buf, ThreadInTeam, IP.NumThreads);
      });
    }
    BytesTouched[static_cast<size_t>(Worker)] = Bytes;
  });

  for (int64_t Bytes : BytesTouched)
    PagesTouched += (Bytes + PageBytes - 1) / PageBytes;
}

ProgramExecutor::~ProgramExecutor() = default;

Array3D &ProgramExecutor::array(ArrayId Id) {
  auto It = External.find(Id);
  ICORES_CHECK(It != External.end(),
               "array is not a step input or output");
  return It->second;
}

const Array3D &ProgramExecutor::array(ArrayId Id) const {
  auto It = External.find(Id);
  ICORES_CHECK(It != External.end(),
               "array is not a step input or output");
  return It->second;
}

const FieldStore &ProgramExecutor::islandStore(size_t Island) const {
  ICORES_CHECK(Island < IslandStates.size(), "island index out of range");
  return IslandStates[Island]->Store;
}

void ProgramExecutor::prepareInputs() {
  for (ArrayId In : Program.stepInputs())
    Dom.fillHalo(array(In));
}

void ProgramExecutor::enableProfiling(bool On) {
  Profiling = On;
  Stats.Enabled = On;
}

int64_t ProgramExecutor::sharedBytesPerStep() const {
  return (SharedReadBytesPerEpoch + SharedWriteBytesPerEpoch) /
         Plan.TemporalDepth;
}

int64_t ProgramExecutor::remoteBytesPerStep() const {
  return RemoteBytesPerEpoch / Plan.TemporalDepth;
}

/// Points the island's feedback and output bindings at the storage fused
/// step \p StepInEpoch reads and writes: feedback pairs alternate between
/// the Target's import buffer (even steps) and the Source's scratch
/// buffer (odd steps); only the final fused step writes the shared output
/// arrays. Callers bracket this with team barriers.
void ProgramExecutor::rebindForStep(IslandState &IS, int StepInEpoch) {
  const bool Final = StepInEpoch == Plan.TemporalDepth - 1;
  if (StepInEpoch == 0)
    for (auto &[Id, Buf] : IS.Imports)
      IS.Store.rebindExternal(Id, &Buf);
  for (const FeedbackPair &FB : Program.feedbacks()) {
    auto ImportIt = IS.Imports.find(FB.Target);
    auto ScratchIt = IS.Scratch.find(FB.Source);
    if (ImportIt == IS.Imports.end() || ScratchIt == IS.Scratch.end())
      continue; // The island never touches this pair.
    Array3D *Import = &ImportIt->second;
    Array3D *Scratch = &ScratchIt->second;
    bool Even = StepInEpoch % 2 == 0;
    IS.Store.rebindExternal(FB.Target, Even ? Import : Scratch);
    IS.Store.rebindExternal(FB.Source, Final ? &array(FB.Source)
                                             : (Even ? Scratch : Import));
  }
  for (ArrayId Out : Program.stepOutputs()) {
    bool FedBack = false;
    for (const FeedbackPair &FB : Program.feedbacks())
      FedBack = FedBack || FB.Source == Out;
    if (FedBack)
      continue;
    auto It = IS.Scratch.find(Out);
    if (It == IS.Scratch.end())
      continue;
    IS.Store.rebindExternal(Out, Final ? &array(Out) : &It->second);
  }
}

/// Epoch import: fills this thread's share of every import buffer with
/// periodically wrapped copies of the shared arrays' core cells. The
/// widened cones only ever read wrapped *core* positions, so the shared
/// halos (stale after the epoch feedback swap) are never consulted. Each
/// (i, j) row is copied as contiguous k-runs: a run ends where the
/// wrapped source index reaches nk and starts over at 0, so a row whose
/// k-extent exceeds nk takes several runs.
void ProgramExecutor::importEpochInputs(IslandState &IS, int Worker,
                                        int ThreadInTeam, int NumThreads) {
  const int NK = Dom.nk();
  for (auto &[Id, Buf] : IS.Imports) {
    const Array3D &Src = array(Id);
    Box3 Sub = teamSubRegion(Buf.indexSpace(), ThreadInTeam, NumThreads);
    if (Sub.empty())
      continue;
    if (Opts.Observer)
      Opts.Observer->onImport(Worker, Src, Buf, Sub, Dom.ni(), Dom.nj(), NK);
    for (int I = Sub.Lo[0]; I != Sub.Hi[0]; ++I) {
      int WI = Domain::wrapIndex(I, Dom.ni());
      for (int J = Sub.Lo[1]; J != Sub.Hi[1]; ++J) {
        const double *SrcRow =
            Src.pointerTo(WI, Domain::wrapIndex(J, Dom.nj()), 0);
        double *Dst = Buf.pointerTo(I, J, Sub.Lo[2]);
        for (int K = Sub.Lo[2]; K != Sub.Hi[2];) {
          int WK = Domain::wrapIndex(K, NK);
          int Run = std::min(Sub.Hi[2] - K, NK - WK);
          std::memcpy(Dst, SrcRow + WK,
                      static_cast<size_t>(Run) * sizeof(double));
          Dst += Run;
          K += Run;
        }
      }
    }
  }
}

/// One slide of the island's sliding intermediates: this thread copies
/// its row share of every live plane to the plane's new buffer position,
/// and thread 0 rebases the index spaces. The copy addresses storage
/// through data() and the strides only, which the rebase never writes, so
/// the two may overlap; callers bracket the whole slide with team
/// barriers.
void ProgramExecutor::slideWindows(IslandState &IS, const IslandWindows &Win,
                                   size_t Slide, int Worker, int ThreadInTeam,
                                   int NumThreads) {
  for (size_t A = 0; A != Win.Sliding.size(); ++A) {
    const SlideMove &M = Win.move(Slide, A);
    Array3D &Buf = IS.Store.get(Win.Sliding[A]);
    const int64_t Rows = Buf.strideI() / Buf.strideJ();
    SlideShare Share{M.From,
                     M.To,
                     M.Count,
                     chunkBegin(Rows, NumThreads, ThreadInTeam),
                     chunkBegin(Rows, NumThreads, ThreadInTeam + 1),
                     ThreadInTeam == 0};
    if (Opts.Observer)
      Opts.Observer->onSlide(Worker, Buf, Share);
    double *Rows0 = Buf.data() + Share.RowLo * Buf.strideJ();
    const size_t Bytes = static_cast<size_t>(
                             (Share.RowHi - Share.RowLo) * Buf.strideJ()) *
                         sizeof(double);
    // Ascending planes: To < From, so no source plane is overwritten
    // before it is copied.
    for (int P = 0; P != M.Count && Bytes != 0; ++P)
      std::memmove(Rows0 + (M.To + P) * Buf.strideI(),
                   Rows0 + (M.From + P) * Buf.strideI(), Bytes);
  }
  if (ThreadInTeam == 0)
    for (size_t A = 0; A != Win.Sliding.size(); ++A)
      IS.Store.get(Win.Sliding[A]).rebasePlanes(Win.move(Slide, A).NewBase);
}

double &ProgramExecutor::partialAt(int Worker, int StepInEpoch, size_t R) {
  return Partials[(static_cast<size_t>(Worker) *
                       static_cast<size_t>(Plan.TemporalDepth) +
                   static_cast<size_t>(StepInEpoch)) *
                      Reductions.size() +
                  R];
}

/// Seeds the worker's per-epoch partials with the fold identities. Called
/// by the worker itself right after the epoch-start global barriers,
/// before its first fold; nobody else touches these slots until the next
/// epoch-start barrier.
void ProgramExecutor::resetWorkerPartials(int Worker) {
  for (int Step = 0; Step != Plan.TemporalDepth; ++Step)
    for (size_t R = 0; R != Reductions.size(); ++R)
      partialAt(Worker, Step, R) = Reductions[R].Identity;
}

/// Folds \p Sub of each reduced array \p Stage produces into the worker's
/// partial for fused step \p StepInEpoch. Sub is the non-empty region the
/// worker's own kernel call just computed (its static share or a stolen
/// chunk), so the fold reads only cells this thread wrote, still
/// in its cache, and orders against no teammate. The store still holds
/// the step's bindings (scratch buffers at intermediate fused steps, the
/// shared arrays at the final one). Cells may enter more than one partial
/// — islands' widened cones overlap under temporal blocking, with
/// bit-identical (periodically wrapped) values — which the
/// duplicate-tolerant combiner contract makes immaterial.
///
/// Each k-row is folded into four independent accumulators, combined
/// once at the end: the serial chain of opaque Combine calls is
/// latency-bound, and four chains roughly halve the fold's time. The
/// contract (neutral identity, associative, commutative) makes the
/// regrouping bit-exact.
void ProgramExecutor::foldSubRegion(IslandState &IS, int Worker,
                                    int StepInEpoch, StageId Stage,
                                    const Box3 &Sub) {
  const int RowLen = Sub.extent(2);
  for (size_t R : StageFolds[static_cast<size_t>(Stage)]) {
    const Array3D &Arr = IS.Store.get(Program.reductions()[R].Array);
    const auto &C = Reductions[R].Combine;
    double V0 = partialAt(Worker, StepInEpoch, R);
    double V1 = Reductions[R].Identity, V2 = V1, V3 = V1;
    for (int I = Sub.Lo[0]; I != Sub.Hi[0]; ++I)
      for (int J = Sub.Lo[1]; J != Sub.Hi[1]; ++J) {
        const double *Row = Arr.pointerTo(I, J, Sub.Lo[2]);
        int K = 0;
        for (; K + 4 <= RowLen; K += 4) {
          V0 = C(V0, Row[K]);
          V1 = C(V1, Row[K + 1]);
          V2 = C(V2, Row[K + 2]);
          V3 = C(V3, Row[K + 3]);
        }
        for (; K != RowLen; ++K)
          V0 = C(V0, Row[K]);
      }
    partialAt(Worker, StepInEpoch, R) = C(C(V0, V1), C(V2, V3));
  }
}

/// Combines the workers' partials of the epoch just finished, in worker
/// order, and appends one global value per (fused step, reduction) to the
/// log. Runs with every worker quiesced at a global barrier (or after the
/// pool dispatch returned), so the partial reads need no further
/// synchronisation.
void ProgramExecutor::appendEpochReductions() {
  for (int Step = 0; Step != Plan.TemporalDepth; ++Step)
    for (size_t R = 0; R != Reductions.size(); ++R) {
      double V = Reductions[R].Identity;
      for (size_t W = 0; W != WorkerCoords.size(); ++W)
        V = Reductions[R].Combine(V,
                                  partialAt(static_cast<int>(W), Step, R));
      ReductionLog[R].push_back(V);
    }
}

const std::vector<double> &ProgramExecutor::reductionHistory(size_t R) const {
  ICORES_CHECK(R < ReductionLog.size(), "reduction index out of range");
  return ReductionLog[R];
}

void ProgramExecutor::setThreadPinning(
    const std::vector<ThreadPlacement> &Placements) {
  std::vector<int> Cores;
  Cores.reserve(Placements.size());
  for (const ThreadPlacement &P : Placements)
    Cores.push_back(P.GlobalCore);
  Pool->setPinning(std::move(Cores));
}

/// One share of a pass: \p Stage's kernel over \p Sub, then the worker's
/// fold of the reduced arrays over exactly the cells it just computed.
/// The static split and every stolen chunk run through here.
void ProgramExecutor::runShare(WorkerSeam &Seam, StageId Stage,
                               int StepInEpoch, const Box3 &Sub) {
  if (Sub.empty())
    return;
  Seam.kernel(Stage, StepInEpoch, Sub);
  Seam.fold(Stage, StepInEpoch, Sub);
}

/// One pass's work-stealing schedule: the region is diced into
/// StealChunksPerThread chunks per team thread along the team split
/// dimension (a pure function of the region and the team size, so every
/// thread derives the same chunks); the worker drains its own deque
/// front-first, then steals teammates' backs until a sweep claims nothing.
void ProgramExecutor::runStealingPass(IslandState &IS, WorkerSeam &Seam,
                                      int ThreadInTeam, int NumThreads,
                                      const StagePass &Pass,
                                      int StepInEpoch) {
  const int Chunks = NumThreads * static_cast<int>(StealChunksPerThread);
  const int Dim = teamSplitDim(Pass.Region);
  const int Extent = Pass.Region.extent(Dim);
  auto runChunk = [&](uint32_t C) {
    Box3 Sub = Pass.Region;
    Sub.Lo[Dim] = Pass.Region.Lo[Dim] +
                  static_cast<int>(chunkBegin(Extent, Chunks, C));
    Sub.Hi[Dim] = Pass.Region.Lo[Dim] +
                  static_cast<int>(chunkBegin(Extent, Chunks, C + 1));
    runShare(Seam, Pass.Stage, StepInEpoch, Sub);
  };

  std::atomic<uint64_t> &Mine = IS.Deques[static_cast<size_t>(ThreadInTeam)];
  const uint32_t Own =
      static_cast<uint32_t>(ThreadInTeam) * StealChunksPerThread;
  Mine.store(packRange(Own, Own + StealChunksPerThread),
             std::memory_order_release);
  uint32_t C;
  while (claimChunk(Mine, /*Owner=*/true, C, /*Failures=*/nullptr))
    runChunk(C);
  for (bool Claimed = NumThreads > 1; Claimed;) {
    Claimed = false;
    for (int Off = 1; Off != NumThreads; ++Off) {
      std::atomic<uint64_t> &Victim =
          IS.Deques[static_cast<size_t>((ThreadInTeam + Off) % NumThreads)];
      if (claimChunk(Victim, /*Owner=*/false, C,
                     &Seam.Accum.StealFailures)) {
        ++Seam.Accum.Steals;
        runChunk(C);
        Claimed = true;
      }
    }
  }
}

void ProgramExecutor::threadMain(int Worker, int Island, int ThreadInTeam,
                                 int Steps, TeamBarrier &Global) {
  const IslandPlan &IslandP = Plan.Islands[static_cast<size_t>(Island)];
  const int NumThreads = IslandP.NumThreads;
  IslandState &IS = *IslandStates[static_cast<size_t>(Island)];
  const IslandWindows &Win = Windows[static_cast<size_t>(Island)];
  WorkerSeam Seam(*this, IS, Worker, Island, ThreadInTeam, NumThreads);
  ExecObserver *const Obs = Opts.Observer;

  const int Depth = Plan.TemporalDepth;
  const int Epochs = Steps / Depth; // run() checked divisibility.
  // T == 1 reads the shared inputs in place, so every epoch start refreshes
  // the feedback targets' halos, each worker of the run filling its own
  // slab of alloc-box planes. Temporal epochs instead wrap-gather imports
  // from the core cells and never read the shared halos.
  const bool RefreshHalos = Depth == 1 && !Program.feedbacks().empty();
  const Box3 Alloc = Dom.allocBox();
  const int64_t NumWorkers = static_cast<int64_t>(WorkerCoords.size());
  const int SlabLo =
      Alloc.Lo[0] +
      static_cast<int>(chunkBegin(Alloc.extent(0), NumWorkers, Worker));
  const int SlabHi =
      Alloc.Lo[0] +
      static_cast<int>(chunkBegin(Alloc.extent(0), NumWorkers, Worker + 1));
  for (int Epoch = 0; Epoch != Epochs; ++Epoch) {
    Seam.globalBarrier(Global);
    // Every worker is quiesced: move the sliding intermediates back to
    // where the epoch's first block finds its windows.
    if (ThreadInTeam == 0)
      for (ArrayId Id : Win.Sliding) {
        Array3D &Buf = IS.Store.get(Id);
        if (Obs)
          Obs->onSlide(Worker, Buf, SlideShare{.Rebases = true});
        Buf.rebasePlanes(Win.Buffers[static_cast<size_t>(Id)].Lo[0]);
      }
    if (Island == 0 && ThreadInTeam == 0 && Epoch != 0) {
      // Every worker is quiesced between the two global barriers, so the
      // previous epoch's reduction partials are complete — combine them
      // across workers before anyone resets them for this epoch.
      if (!Reductions.empty())
        appendEpochReductions();
      for (const FeedbackPair &FB : Program.feedbacks())
        std::swap(array(FB.Source), array(FB.Target));
    }
    Seam.globalBarrier(Global);
    if (RefreshHalos) {
      // The swap is published; each slab writes only halo cells of its
      // own planes and reads only core cells, and the barrier publishes
      // every slab before any pass reads a halo.
      if (SlabLo != SlabHi)
        for (const FeedbackPair &FB : Program.feedbacks()) {
          Array3D &Target = array(FB.Target);
          if (Obs)
            Obs->onHaloFill(Worker, Dom, Target, SlabLo, SlabHi);
          Dom.fillHaloPlanes(Target, SlabLo, SlabHi);
        }
      Seam.globalBarrier(Global);
    }
    if (!Reductions.empty())
      resetWorkerPartials(Worker);

    if (Depth > 1) {
      // Epoch prologue: rebind for fused step 0 and gather the imports.
      // Rebinding (thread 0) and importing (all threads) touch disjoint
      // state; the team barrier publishes both before any pass runs.
      if (ThreadInTeam == 0)
        rebindForStep(IS, 0);
      importEpochInputs(IS, Worker, ThreadInTeam, NumThreads);
      Seam.teamBarrier();
    }

    int PassIndex = 0;
    int CurStep = 0;
    size_t NextSlide = 0;
    // True when a real barrier separates the previous pass (or the epoch
    // prologue) from the next one.
    bool PrevBarrier = true;
    for (size_t B = 0; B != IslandP.Blocks.size(); ++B) {
      const BlockTask &Block = IslandP.Blocks[B];
      const bool Slides = NextSlide != Win.SlideBlocks.size() &&
                          Win.SlideBlocks[NextSlide] == static_cast<int>(B);
      if (Depth > 1 && Block.StepInEpoch != CurStep) {
        // Structural fused-step boundary: quiesce the team, swap the
        // feedback bindings, and publish them before the next step. A
        // slide here has no live planes to copy (windows never span
        // steps), so it is a rebase that rides on the same barriers.
        Seam.teamBarrier();
        CurStep = Block.StepInEpoch;
        if (ThreadInTeam == 0)
          rebindForStep(IS, CurStep);
        if (Slides)
          slideWindows(IS, Win, NextSlide++, Worker, ThreadInTeam,
                       NumThreads);
        Seam.teamBarrier();
        PrevBarrier = true;
      } else if (Slides) {
        // The slide protocol: no pass may still touch the old addresses,
        // and no pass may start before every live plane has moved.
        if (!PrevBarrier)
          Seam.teamBarrier();
        slideWindows(IS, Win, NextSlide++, Worker, ThreadInTeam,
                     NumThreads);
        Seam.teamBarrier();
        PrevBarrier = true;
      }
      for (const StagePass &Pass : Block.Passes) {
        Seam.beforePass(Epoch, PassIndex++);
        // A pass is steal-eligible only when real barriers bracket it on
        // *both* sides: the preceding one means no earlier pass of a
        // barrier-free group is still in flight (the barrier-elision proof
        // of core/ScheduleOptimizer assumes the static teamSubRegion split
        // within a group), and the trailing one publishes the stolen
        // chunks' writes exactly as it publishes the static split's.
        const bool Steals = Opts.Stealing && PrevBarrier &&
                            Pass.BarrierAfter && !Pass.Region.empty();
        if (Steals)
          runStealingPass(IS, Seam, ThreadInTeam, NumThreads, Pass, CurStep);
        else
          runShare(Seam, Pass.Stage, CurStep,
                   teamSubRegion(Pass.Region, ThreadInTeam, NumThreads));
        Seam.endPass(Pass.Stage, Pass.BarrierAfter, Steals);
        PrevBarrier = Pass.BarrierAfter;
      }
    }
  }
  Seam.merge();
}

void ProgramExecutor::run(int Steps) {
  ICORES_CHECK(Steps >= 0, "negative step count");
  ICORES_CHECK(Steps % Plan.TemporalDepth == 0,
               "step count must be a whole number of temporal epochs");
  if (Steps == 0)
    return;

  // Placement is established once, at construction; a reallocation after
  // the init epoch would silently hand the pages back to whichever thread
  // touches them next (see Array3D::placed()).
  if (Opts.Placement != PlacementPolicy::None)
    for (const auto &[Id, Arr] : External)
      ICORES_CHECK(Arr.placed(),
                   "shared array lost its NUMA placement (reallocated "
                   "after the init epoch)");

  TeamBarrier Global(static_cast<int>(WorkerCoords.size()),
                     Opts.BarrierPolicy, Opts.BarrierSpinLimit);
  if (Opts.Chaos)
    Global.armChaos(Opts.Chaos, /*Site=*/0);
  ProfileClock::time_point Start;
  if (Profiling)
    Start = ProfileClock::now();
  Pool->runOnAll([&](int Worker) {
    auto [Island, ThreadInTeam] = WorkerCoords[static_cast<size_t>(Worker)];
    threadMain(Worker, Island, ThreadInTeam, Steps, Global);
  });
  if (Profiling) {
    Stats.WallSeconds += secondsSince(Start, ProfileClock::now());
    Stats.StepsRun += Steps;
  }
  ++Stats.RunCalls;
  int64_t Epochs = Steps / Plan.TemporalDepth;
  Stats.SharedBytesRead += SharedReadBytesPerEpoch * Epochs;
  Stats.SharedBytesWritten += SharedWriteBytesPerEpoch * Epochs;
  Stats.RemoteBytesEst += RemoteBytesPerEpoch * Epochs;
  Stats.ThreadsSpawned = Pool->spawnedThreads();
  Stats.PoolDispatches = Pool->dispatches();
  Stats.PinFailures = Pool->pinFailures();
  if (Opts.Chaos) {
    FaultStats FS = Opts.Chaos->stats();
    Stats.FaultsInjected = FS.Injected;
    Stats.FaultRetries = FS.Retries;
    Stats.FaultTimeouts = FS.Timeouts;
    Stats.FaultsRecovered = FS.Recovered;
  }

  // The workers combined every epoch's reduction partials except the
  // final epoch's (there is no next epoch-start barrier); fold them now
  // that the pool dispatch has quiesced.
  if (!Reductions.empty())
    appendEpochReductions();

  // The last step left the results in the Source arrays; expose them
  // through the feedback Targets.
  for (const FeedbackPair &FB : Program.feedbacks())
    std::swap(array(FB.Source), array(FB.Target));
}
