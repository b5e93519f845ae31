//===- verify/ShadowStore.cpp - Dynamic shadow race detection -------------===//

#include "verify/ShadowStore.h"

#include "grid/Domain.h"
#include "stencil/FieldStore.h"
#include "stencil/StencilIR.h"
#include "support/Diagnostics.h"
#include "support/Format.h"

#include <algorithm>

using namespace icores;

/// Per-slot access metadata over one Array3D's physical storage (k-row
/// padding included). Cells are keyed by their offset from data(), not by
/// logical coordinates: a sliding intermediate rebases its index space, so
/// one logical cell lives at different slots over a step, and the slot is
/// what two threads can actually race on. Reads keep a full per-worker map
/// (a write must be ordered after *every* prior read, not just the
/// latest), writes keep the FastTrack-style last-writer epoch: a new
/// access is ordered after the last write iff the accessor's clock covers
/// (writer, time).
struct ShadowStore::ArrayShadow {
  std::string Name;
  std::vector<int32_t> Writer;
  std::vector<uint64_t> WriteTime;
  std::vector<std::map<int, uint64_t>> Reads;

  /// One slot per storage element plus a last one standing for the index
  /// space: every pass access reads it, a rebase writes it.
  explicit ArrayShadow(size_t Slots)
      : Writer(Slots + 1, -1), WriteTime(Slots + 1, 0), Reads(Slots + 1) {}

  size_t indexSlot() const { return Writer.size() - 1; }
};

/// One barrier site's rendezvous bookkeeping. Generations handle reuse:
/// a fast worker may re-arrive for crossing g+1 while a slow worker has
/// not yet departed crossing g, so the merged clock of each crossing is
/// published under its generation and garbage-collected once every
/// participant departed.
struct ShadowStore::BarrierSite {
  uint64_t ArriveGen = 0;
  int Arrived = 0;
  VectorClock Accum;
  std::map<uint64_t, VectorClock> Published;
  std::map<uint64_t, int> Outstanding;
  std::map<int, uint64_t> WorkerGen;
};

ShadowStore::ShadowStore() = default;
ShadowStore::ShadowStore(Options AOpts) : Opts(AOpts) {}
ShadowStore::~ShadowStore() = default;

VectorClock &ShadowStore::clock(int Worker) {
  if (static_cast<size_t>(Worker) >= Clocks.size())
    Clocks.resize(static_cast<size_t>(Worker) + 1);
  VectorClock &C = Clocks[static_cast<size_t>(Worker)];
  if (C.get(Worker) == 0)
    C.set(Worker, 1); // Each worker's own component starts live.
  return C;
}

ShadowStore::ArrayShadow &ShadowStore::shadowFor(const Array3D &Arr,
                                                 const std::string &Name) {
  auto It = Arrays.find(&Arr);
  if (It == Arrays.end())
    It = Arrays
             .emplace(&Arr, ArrayShadow(static_cast<size_t>(
                                Arr.paddedBytes() /
                                static_cast<int64_t>(sizeof(double)))))
             .first;
  if (!Name.empty())
    It->second.Name = Name;
  return It->second;
}

void ShadowStore::noteRace(const char *Kind, const ArrayShadow &AS, int I,
                           int J, int K, int Prev, int Cur) {
  ++TotalRaces;
  if (Races.size() >= Opts.MaxWitnesses)
    return;
  Race R;
  R.Kind = Kind;
  R.Array = AS.Name.empty() ? "<unnamed>" : AS.Name;
  R.Cell[0] = I;
  R.Cell[1] = J;
  R.Cell[2] = K;
  R.PrevWorker = Prev;
  R.CurWorker = Cur;
  Races.push_back(std::move(R));
}

void ShadowStore::writeSlot(int Worker, ArrayShadow &AS, size_t Slot, int I,
                            int J, int K) {
  const VectorClock &C = clock(Worker);
  const bool Index = Slot == AS.indexSlot();
  ++Accesses;
  int32_t W = AS.Writer[Slot];
  if (W >= 0 && W != Worker && !C.covers(W, AS.WriteTime[Slot]))
    noteRace(Index ? "rebase" : "write-write", AS, I, J, K, W, Worker);
  for (const auto &[Reader, Time] : AS.Reads[Slot])
    if (Reader != Worker && !C.covers(Reader, Time))
      noteRace(Index ? "rebase" : "read-write", AS, I, J, K, Reader, Worker);
  AS.Writer[Slot] = Worker;
  AS.WriteTime[Slot] = C.get(Worker);
  // Unordered prior reads were reported above; ordered ones are subsumed
  // by this write for every later access.
  AS.Reads[Slot].clear();
}

void ShadowStore::readSlot(int Worker, ArrayShadow &AS, size_t Slot, int I,
                           int J, int K) {
  const VectorClock &C = clock(Worker);
  ++Accesses;
  int32_t W = AS.Writer[Slot];
  if (W >= 0 && W != Worker && !C.covers(W, AS.WriteTime[Slot]))
    noteRace(Slot == AS.indexSlot() ? "rebase" : "read-write", AS, I, J, K, W,
             Worker);
  AS.Reads[Slot][Worker] = C.get(Worker);
}

void ShadowStore::accessCells(int Worker, const Array3D &Arr,
                              const std::string &Name, const Box3 &Region,
                              bool Write) {
  ArrayShadow &AS = shadowFor(Arr, Name);
  Box3 Clip = Region.intersect(Arr.indexSpace());
  if (Clip.empty())
    return;
  // Addressing a logical cell reads the index space.
  readSlot(Worker, AS, AS.indexSlot(), Clip.Lo[0], Clip.Lo[1], Clip.Lo[2]);
  for (int I = Clip.Lo[0]; I != Clip.Hi[0]; ++I)
    for (int J = Clip.Lo[1]; J != Clip.Hi[1]; ++J) {
      size_t Slot = static_cast<size_t>(Arr.pointerTo(I, J, Clip.Lo[2]) -
                                        Arr.data());
      for (int K = Clip.Lo[2]; K != Clip.Hi[2]; ++K, ++Slot) {
        if (Write)
          writeSlot(Worker, AS, Slot, I, J, K);
        else
          readSlot(Worker, AS, Slot, I, J, K);
      }
    }
}

void ShadowStore::onBarrierArrive(uint64_t Site, int Worker,
                                  int Participants) {
  std::lock_guard<std::mutex> Lock(Mutex);
  BarrierSite &S = Sites[Site];
  S.Accum.merge(clock(Worker));
  S.WorkerGen[Worker] = S.ArriveGen;
  if (++S.Arrived == Participants) {
    S.Outstanding[S.ArriveGen] = Participants;
    S.Published[S.ArriveGen] = std::move(S.Accum);
    S.Accum = VectorClock();
    S.Arrived = 0;
    ++S.ArriveGen;
  }
}

void ShadowStore::onBarrierDepart(uint64_t Site, int Worker) {
  std::lock_guard<std::mutex> Lock(Mutex);
  BarrierSite &S = Sites[Site];
  auto GenIt = S.WorkerGen.find(Worker);
  if (GenIt == S.WorkerGen.end())
    return; // Depart without arrive: ignore rather than corrupt clocks.
  uint64_t Gen = GenIt->second;
  auto PubIt = S.Published.find(Gen);
  if (PubIt == S.Published.end())
    return; // Same defensive stance.
  VectorClock &C = clock(Worker);
  C.merge(PubIt->second);
  C.tick(Worker);
  if (--S.Outstanding[Gen] == 0) {
    S.Published.erase(Gen);
    S.Outstanding.erase(Gen);
  }
}

void ShadowStore::onPass(int Worker, const StencilProgram &Program,
                         FieldStore &Store, StageId Stage, const Box3 &Sub) {
  std::lock_guard<std::mutex> Lock(Mutex);
  const StageDef &SD = Program.stage(Stage);
  for (const StageInput &In : SD.Inputs)
    accessCells(Worker, Store.get(In.Array), Program.array(In.Array).Name,
                In.readRegion(Sub), /*Write=*/false);
  for (ArrayId Out : SD.Outputs)
    accessCells(Worker, Store.get(Out), Program.array(Out).Name, Sub,
                /*Write=*/true);
}

void ShadowStore::onImport(int Worker, const Array3D &Src, const Array3D &Buf,
                           const Box3 &Sub, int NI, int NJ, int NK) {
  auto Wrap = [](int X, int N) { return ((X % N) + N) % N; };
  std::lock_guard<std::mutex> Lock(Mutex);
  ArrayShadow &SrcAS = shadowFor(Src, "");
  // The gather reads periodically wrapped *core* positions of the shared
  // array; record each as an ordinary read.
  for (int I = Sub.Lo[0]; I != Sub.Hi[0]; ++I) {
    int WI = Wrap(I, NI);
    for (int J = Sub.Lo[1]; J != Sub.Hi[1]; ++J) {
      int WJ = Wrap(J, NJ);
      for (int K = Sub.Lo[2]; K != Sub.Hi[2]; ++K) {
        int WK = Wrap(K, NK);
        readSlot(Worker, SrcAS,
                 static_cast<size_t>(Src.pointerTo(WI, WJ, WK) - Src.data()),
                 WI, WJ, WK);
      }
    }
  }
  accessCells(Worker, Buf, "", Sub, /*Write=*/true);
}

void ShadowStore::onSlide(int Worker, const Array3D &Buf,
                          const SlideShare &Share) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ArrayShadow &AS = shadowFor(Buf, "");
  // Witnesses name buffer coordinates (plane, row, column from the buffer
  // start): the logical index space is being rebased meanwhile.
  for (int P = 0; P != Share.Count; ++P)
    for (int64_t Row = Share.RowLo; Row != Share.RowHi; ++Row)
      for (int64_t Col = 0; Col != Buf.strideJ(); ++Col) {
        const int64_t InPlane = Row * Buf.strideJ() + Col;
        const int J = static_cast<int>(Row), K = static_cast<int>(Col);
        readSlot(Worker, AS,
                 static_cast<size_t>((Share.From + P) * Buf.strideI() +
                                     InPlane),
                 Share.From + P, J, K);
        writeSlot(Worker, AS,
                  static_cast<size_t>((Share.To + P) * Buf.strideI() +
                                      InPlane),
                  Share.To + P, J, K);
      }
  if (Share.Rebases)
    writeSlot(Worker, AS, AS.indexSlot(), 0, 0, 0);
}

void ShadowStore::onImages(int Worker, const Domain &Dom, const Array3D &A,
                           const Box3 &Core) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ArrayShadow &AS = shadowFor(A, "");
  auto slotOf = [&A](int I, int J, int K) {
    return static_cast<size_t>(A.pointerTo(I, J, K) - A.data());
  };
  readSlot(Worker, AS, AS.indexSlot(), Core.Lo[0], Core.Lo[1], Core.Lo[2]);
  for (const Box3 &Image : Dom.haloImages(Core))
    for (int I = Image.Lo[0]; I != Image.Hi[0]; ++I) {
      const int SI = Dom.boundarySource(I, Dom.ni());
      for (int J = Image.Lo[1]; J != Image.Hi[1]; ++J) {
        const int SJ = Dom.boundarySource(J, Dom.nj());
        for (int K = Image.Lo[2]; K != Image.Hi[2]; ++K) {
          const int SK = Dom.boundarySource(K, Dom.nk());
          readSlot(Worker, AS, slotOf(SI, SJ, SK), SI, SJ, SK);
          writeSlot(Worker, AS, slotOf(I, J, K), I, J, K);
        }
      }
    }
}

void ShadowStore::recordWrite(int Worker, const Array3D &Arr,
                              const Box3 &Region, const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  accessCells(Worker, Arr, Name, Region, /*Write=*/true);
}

void ShadowStore::recordRead(int Worker, const Array3D &Arr,
                             const Box3 &Region, const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  accessCells(Worker, Arr, Name, Region, /*Write=*/false);
}

size_t ShadowStore::raceCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return TotalRaces;
}

uint64_t ShadowStore::accessCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Accesses;
}

void ShadowStore::reportFindings(DiagnosticEngine &Diags) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const Race &R : Races)
    Diags
        .report(Severity::Error, "shadow.race." + R.Kind,
                formatString("unordered %s on %s at (%d, %d, %d)",
                             R.Kind.c_str(), R.Array.c_str(), R.Cell[0],
                             R.Cell[1], R.Cell[2]))
        .note("array", R.Array)
        .note("workers", formatString("%d vs %d", R.PrevWorker, R.CurWorker));
  if (TotalRaces > Races.size())
    Diags.report(Severity::Note, "shadow.race.truncated",
                 formatString("%zu further races not stored",
                              TotalRaces - Races.size()));
}

void ShadowStore::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Clocks.clear();
  Arrays.clear();
  Sites.clear();
  Races.clear();
  TotalRaces = 0;
  Accesses = 0;
}
