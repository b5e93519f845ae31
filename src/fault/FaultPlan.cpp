//===- fault/FaultPlan.cpp - Seeded deterministic fault plan --------------===//

#include "fault/FaultPlan.h"

#include "support/Format.h"
#include "support/Random.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

using namespace icores;

namespace {

/// Mixes one site coordinate into a running hash. SplitMix64's finalizer
/// scrambles each step, so nearby sites (seq, seq+1) land far apart.
uint64_t mix(uint64_t H, uint64_t V) {
  SplitMix64 Rng(H ^ (V + 0x9e3779b97f4a7c15ULL));
  return Rng.next();
}

/// Maps a hash to a uniform double in [0, 1).
double unit(uint64_t H) {
  return static_cast<double>(H >> 11) * 0x1.0p-53;
}

/// Per-fault-class salts keep the decision streams independent: a site
/// that drops under one rate must not force a correlated duplicate.
enum : uint64_t {
  SaltDrop = 0xd509,
  SaltDelay = 0xde1a,
  SaltDuplicate = 0xd0b1,
  SaltCorrupt = 0xc0bb,
  SaltLose = 0x10fe,
  SaltStall = 0x57a1,
  SaltWake = 0x3a4e,
  SaltMagnitude = 0x3a61, ///< Secondary stream for delay/stall lengths.
};

uint64_t messageSite(uint64_t Seed, uint64_t Salt, int Src, int Dst,
                     int Tag, uint64_t Seq) {
  uint64_t H = mix(Seed, Salt);
  H = mix(H, static_cast<uint64_t>(Src));
  H = mix(H, static_cast<uint64_t>(Dst));
  H = mix(H, static_cast<uint64_t>(Tag));
  return mix(H, Seq);
}

} // namespace

bool FaultPlan::active() const {
  return DropRate > 0 || DelayRate > 0 || DuplicateRate > 0 ||
         CorruptRate > 0 || LoseRate > 0 || StallRate > 0 || WakeRate > 0;
}

MessageFaultDecision FaultPlan::messageFaults(int Src, int Dst, int Tag,
                                              uint64_t Seq,
                                              size_t CountDoubles) const {
  MessageFaultDecision D;
  // Fixed precedence: an unrecoverable loss preempts everything, and the
  // remaining classes are mutually exclusive per message so each fault's
  // detection path is exercised in isolation.
  if (LoseRate > 0 &&
      unit(messageSite(Seed, SaltLose, Src, Dst, Tag, Seq)) < LoseRate) {
    D.Lose = true;
    return D;
  }
  if (DropRate > 0 &&
      unit(messageSite(Seed, SaltDrop, Src, Dst, Tag, Seq)) < DropRate) {
    D.Drop = true;
    return D;
  }
  if (CorruptRate > 0 && CountDoubles > 0 &&
      unit(messageSite(Seed, SaltCorrupt, Src, Dst, Tag, Seq)) <
          CorruptRate) {
    uint64_t H = messageSite(Seed, SaltCorrupt ^ SaltMagnitude, Src, Dst,
                             Tag, Seq);
    D.CorruptBit = static_cast<int>(H % (CountDoubles * 64));
    return D;
  }
  if (DuplicateRate > 0 &&
      unit(messageSite(Seed, SaltDuplicate, Src, Dst, Tag, Seq)) <
          DuplicateRate) {
    D.Duplicate = true;
    return D;
  }
  if (DelayRate > 0 &&
      unit(messageSite(Seed, SaltDelay, Src, Dst, Tag, Seq)) < DelayRate) {
    uint64_t H =
        messageSite(Seed, SaltDelay ^ SaltMagnitude, Src, Dst, Tag, Seq);
    D.DelaySeconds = unit(H) * MaxDelaySeconds;
  }
  return D;
}

double FaultPlan::workerStall(int Island, int Thread, int Epoch,
                              int PassIndex) const {
  if (StallRate <= 0)
    return 0.0;
  uint64_t H = mix(Seed, SaltStall);
  H = mix(H, static_cast<uint64_t>(Island));
  H = mix(H, static_cast<uint64_t>(Thread));
  H = mix(H, static_cast<uint64_t>(Epoch));
  H = mix(H, static_cast<uint64_t>(PassIndex));
  if (unit(H) >= StallRate)
    return 0.0;
  return unit(mix(H, SaltMagnitude)) * MaxStallSeconds;
}

bool FaultPlan::spuriousWake(uint64_t Site, int Thread,
                             uint64_t Crossing) const {
  if (WakeRate <= 0)
    return false;
  uint64_t H = mix(Seed, SaltWake);
  H = mix(H, Site);
  H = mix(H, static_cast<uint64_t>(Thread));
  H = mix(H, Crossing);
  return unit(H) < WakeRate;
}

bool icores::parseFaultSpec(const std::string &Spec, FaultPlan &Out,
                            std::string &Err) {
  if (Spec.empty()) {
    Err = "empty --chaos spec";
    return false;
  }
  FaultPlan Plan;
  size_t Pos = Spec.find(',');
  std::string SeedPart = Spec.substr(0, Pos);
  char *End = nullptr;
  Plan.Seed = std::strtoull(SeedPart.c_str(), &End, 0);
  if (End == SeedPart.c_str() || *End != '\0') {
    Err = "bad seed '" + SeedPart + "' (want an unsigned integer)";
    return false;
  }
  // Only these keys arm the plan; maxdelay/maxstall merely bound the
  // injected latencies. A spec that sets no rate key falls back to the
  // default mixed plan below — previously any key (even maxstall alone)
  // counted as "a rate was given", leaving every rate at zero, so the run
  // reported chaos enabled while injecting nothing.
  bool AnyRate = false;
  std::vector<std::string> Seen;
  while (Pos != std::string::npos) {
    size_t Begin = Pos + 1;
    Pos = Spec.find(',', Begin);
    std::string Field = Spec.substr(
        Begin, Pos == std::string::npos ? std::string::npos : Pos - Begin);
    size_t Eq = Field.find('=');
    if (Eq == std::string::npos) {
      Err = "bad chaos field '" + Field + "' (want key=value)";
      return false;
    }
    std::string Key = Field.substr(0, Eq);
    std::string ValStr = Field.substr(Eq + 1);
    char *VEnd = nullptr;
    double Val = std::strtod(ValStr.c_str(), &VEnd);
    if (VEnd == ValStr.c_str() || *VEnd != '\0' || Val < 0.0) {
      Err = "bad value for chaos field '" + Key + "'";
      return false;
    }
    bool IsRate = true;
    if (Key == "drop")
      Plan.DropRate = Val;
    else if (Key == "delay")
      Plan.DelayRate = Val;
    else if (Key == "dup")
      Plan.DuplicateRate = Val;
    else if (Key == "corrupt")
      Plan.CorruptRate = Val;
    else if (Key == "lose")
      Plan.LoseRate = Val;
    else if (Key == "stall")
      Plan.StallRate = Val;
    else if (Key == "wake")
      Plan.WakeRate = Val;
    else if (Key == "maxdelay") {
      Plan.MaxDelaySeconds = Val;
      IsRate = false;
    } else if (Key == "maxstall") {
      Plan.MaxStallSeconds = Val;
      IsRate = false;
    } else {
      Err = "unknown chaos field '" + Key +
            "' (known: drop, delay, dup, corrupt, lose, stall, wake, "
            "maxdelay, maxstall)";
      return false;
    }
    if (std::find(Seen.begin(), Seen.end(), Key) != Seen.end()) {
      // Last-wins would silently disarm an earlier rate (e.g.
      // "1,drop=0.5,drop=0"); make conflicting intent an error instead.
      Err = "duplicate chaos field '" + Key + "'";
      return false;
    }
    Seen.push_back(Key);
    if (IsRate && Val > 1.0) {
      Err = "chaos rate '" + Key + "' outside [0, 1]";
      return false;
    }
    AnyRate = AnyRate || IsRate;
  }
  if (!AnyRate) {
    // A bare seed (possibly with maxdelay/maxstall bounds) arms a
    // moderate mixed plan of every *recoverable* fault class, so
    // `--chaos=SEED` alone is a meaningful smoke test.
    Plan.DropRate = 0.05;
    Plan.DelayRate = 0.05;
    Plan.DuplicateRate = 0.05;
    Plan.CorruptRate = 0.05;
    Plan.StallRate = 0.05;
    Plan.WakeRate = 0.05;
  }
  Out = Plan;
  return true;
}

std::string icores::faultPlanSummary(const FaultPlan &Plan) {
  return formatString(
      "seed=%llu drop=%.3g delay=%.3g dup=%.3g corrupt=%.3g lose=%.3g "
      "stall=%.3g wake=%.3g",
      static_cast<unsigned long long>(Plan.Seed), Plan.DropRate,
      Plan.DelayRate, Plan.DuplicateRate, Plan.CorruptRate, Plan.LoseRate,
      Plan.StallRate, Plan.WakeRate);
}
