//===- fault/FaultInjector.cpp - Armed fault-injection runtime ------------===//

#include "fault/FaultInjector.h"

#include "support/Format.h"

using namespace icores;

namespace {

/// Channel prefix shared by message trace entries and traceForChannel(),
/// so the structured error can find the faults of the failing channel.
std::string channelPrefix(int Src, int Dst, int Tag) {
  return formatString("msg src=%d dst=%d tag=%d", Src, Dst, Tag);
}

} // namespace

MessageFaultDecision FaultInjector::onMessage(int Src, int Dst, int Tag,
                                              uint64_t Seq,
                                              size_t CountDoubles) {
  MessageFaultDecision D =
      Plan.messageFaults(Src, Dst, Tag, Seq, CountDoubles);
  if (!D.any())
    return D;
  Injected.fetch_add(1, std::memory_order_relaxed);
  const char *What = D.Lose        ? "lose"
                     : D.Drop      ? "drop"
                     : D.Duplicate ? "duplicate"
                     : D.CorruptBit >= 0 ? "corrupt"
                                         : "delay";
  record(formatString("%s seq=%llu: %s",
                      channelPrefix(Src, Dst, Tag).c_str(),
                      static_cast<unsigned long long>(Seq), What));
  return D;
}

double FaultInjector::onWorkerPass(int Island, int Thread, int Epoch,
                                   int PassIndex) {
  double Stall = Plan.workerStall(Island, Thread, Epoch, PassIndex);
  if (Stall <= 0.0)
    return 0.0;
  Injected.fetch_add(1, std::memory_order_relaxed);
  record(formatString("stall island=%d thread=%d epoch=%d pass=%d: %.0fus",
                      Island, Thread, Epoch, PassIndex, Stall * 1e6));
  return Stall;
}

bool FaultInjector::onBarrierCrossing(uint64_t Site, int Thread,
                                      uint64_t Crossing) {
  if (!Plan.spuriousWake(Site, Thread, Crossing))
    return false;
  Injected.fetch_add(1, std::memory_order_relaxed);
  record(formatString("wake barrier=%llu thread=%d crossing=%llu",
                      static_cast<unsigned long long>(Site), Thread,
                      static_cast<unsigned long long>(Crossing)));
  return true;
}

FaultStats FaultInjector::stats() const {
  FaultStats S;
  S.Injected = Injected.load(std::memory_order_relaxed);
  S.Retries = Retries.load(std::memory_order_relaxed);
  S.Timeouts = Timeouts.load(std::memory_order_relaxed);
  S.Recovered = Recovered.load(std::memory_order_relaxed);
  return S;
}

std::vector<std::string> FaultInjector::trace() const {
  std::lock_guard<std::mutex> Lock(TraceMutex);
  return Trace;
}

std::vector<std::string> FaultInjector::traceForChannel(int Src, int Dst,
                                                        int Tag) const {
  std::string Prefix = channelPrefix(Src, Dst, Tag) + " ";
  std::vector<std::string> Out;
  std::lock_guard<std::mutex> Lock(TraceMutex);
  for (const std::string &Entry : Trace)
    if (Entry.compare(0, Prefix.size(), Prefix) == 0)
      Out.push_back(Entry);
  return Out;
}

void FaultInjector::record(std::string Entry) {
  std::lock_guard<std::mutex> Lock(TraceMutex);
  if (Trace.size() < TraceCap)
    Trace.push_back(std::move(Entry));
}
