//===- verify/ProofDriver.cpp - Plan-space static proof driver ------------===//

#include "verify/ProofDriver.h"

#include "apps/Workloads.h"
#include "core/PlanVerifier.h"
#include "exec/ScheduleCheck.h"
#include "stencil/HaloAnalysis.h"
#include "support/Diagnostics.h"
#include "support/Format.h"
#include "support/OStream.h"

#include <algorithm>
#include <cstdio>

using namespace icores;

namespace {

/// Renders one finding as "id: message [k=v, ...]".
std::string findingString(const Finding &F) {
  std::string S = F.Id + ": " + F.Message;
  if (!F.Notes.empty()) {
    S += " [";
    for (size_t N = 0; N != F.Notes.size(); ++N) {
      if (N != 0)
        S += ", ";
      S += F.Notes[N].first + "=" + F.Notes[N].second;
    }
    S += "]";
  }
  return S;
}

std::string firstErrorWitness(const DiagnosticEngine &Diags) {
  for (const Finding &F : Diags.findings())
    if (F.Sev == Severity::Error)
      return findingString(F);
  return std::string();
}

/// The full static suite one plan must pass to be proved.
bool proveOnePlan(const StencilProgram &Program, const ExecutionPlan &Plan,
                  DiagnosticEngine &Diags) {
  bool Ok = verifyPlan(Plan, Program, Diags);
  Ok &= checkPlanRaces(Program, Plan, Diags);
  Ok &= checkTemporalCoverage(Program, Plan, Diags);
  return Ok;
}

} // namespace

bool icores::checkTemporalCoverage(const StencilProgram &Program,
                                   const ExecutionPlan &Plan,
                                   DiagnosticEngine &Diags) {
  size_t ErrorsBefore = Diags.numErrors();
  if (Plan.TemporalDepth < 1)
    return true; // verifyPlan reports the invalid depth.
  std::vector<Box3> Targets =
      temporalStepTargets(Program, Plan.GlobalTarget, Plan.TemporalDepth);
  if (Targets.size() != static_cast<size_t>(Plan.TemporalDepth)) {
    Diags.report(Severity::Error, "plan.temporal.cone-nesting",
                 formatString("expected %d per-step targets, model yields "
                              "%zu",
                              Plan.TemporalDepth, Targets.size()));
    return false;
  }
  for (size_t T = 0; T + 1 < Targets.size(); ++T)
    if (!Targets[T].containsBox(Targets[T + 1]))
      Diags.report(Severity::Error, "plan.temporal.cone-nesting",
                   formatString("fused step %zu cone %s does not contain "
                                "step %zu cone %s",
                                T, Targets[T].str().c_str(), T + 1,
                                Targets[T + 1].str().c_str()));
  if (!(Targets.back() == Plan.GlobalTarget))
    Diags.report(Severity::Error, "plan.temporal.cone-nesting",
                 formatString("final fused step cone %s is not the global "
                              "target %s",
                              Targets.back().str().c_str(),
                              Plan.GlobalTarget.str().c_str()));
  return Diags.numErrors() == ErrorsBefore;
}

size_t ProofReport::numWithVerdict(const char *Verdict) const {
  size_t N = 0;
  for (const PlanProofRecord &R : Plans)
    N += R.Verdict == Verdict;
  return N;
}

bool ProofReport::allPlansProved() const {
  return numWithVerdict("violated") == 0 && numWithVerdict("proved") > 0;
}

bool ProofReport::protocolOk() const {
  for (const BarrierProofRecord &R : Barrier)
    if (!R.Ok)
      return false;
  for (const BarrierMutantRecord &R : BarrierMutants)
    if (!R.Caught)
      return false;
  for (const CommProofRecord &R : Comm)
    if (!R.Ok)
      return false;
  for (const CommMutantRecord &R : CommMutants)
    if (!R.Caught)
      return false;
  return !Barrier.empty() && !Comm.empty();
}

double ProofReport::killRate() const {
  int Mutants = 0, Killed = 0;
  for (const MutationClassRecord &R : Mutation) {
    Mutants += R.Mutants;
    Killed += R.Killed;
  }
  return Mutants == 0 ? 1.0
                      : static_cast<double>(Killed) /
                            static_cast<double>(Mutants);
}

bool ProofReport::allMutantsKilled() const {
  if (!Opts.RunMutation)
    return true;
  size_t NumClasses = sizeof(AllMutantClasses) / sizeof(AllMutantClasses[0]);
  if (Mutation.size() != NumClasses)
    return false;
  for (const MutationClassRecord &R : Mutation)
    if (R.Mutants == 0 || R.Killed != R.Mutants)
      return false;
  return true;
}

namespace {

void runBarrierProofs(const ProofOptions &Opts, ProofReport &Report) {
  for (int Threads : Opts.BarrierThreadCounts) {
    BarrierModelOptions BO;
    BO.NumThreads = Threads;
    BO.Crossings = Opts.BarrierCrossings;
    DiagnosticEngine Diags;
    BarrierCheckResult R = checkTeamBarrierProtocol(BO, Diags);
    BarrierProofRecord Rec;
    Rec.Threads = Threads;
    Rec.Crossings = BO.Crossings;
    Rec.States = R.StatesExplored;
    Rec.Ok = R.Ok;
    Rec.Witness = R.Witness;
    Report.Barrier.push_back(std::move(Rec));
  }

  // The seeded model mutants re-introduce the two classic sense-reversal
  // bugs; the explorer must reach a deadlock state for each, or it could
  // not be trusted to certify the real protocol.
  struct Mutant {
    const char *Name;
    bool NotifyBeforePublish, BlockWithoutRecheck;
  };
  for (const Mutant &M :
       {Mutant{"notify-before-publish", true, false},
        Mutant{"block-without-recheck", false, true}}) {
    BarrierModelOptions BO;
    BO.NumThreads = 2;
    BO.Crossings = Opts.BarrierCrossings;
    BO.MutantNotifyBeforePublish = M.NotifyBeforePublish;
    BO.MutantBlockWithoutRecheck = M.BlockWithoutRecheck;
    DiagnosticEngine Diags;
    BarrierCheckResult R = checkTeamBarrierProtocol(BO, Diags);
    Report.BarrierMutants.push_back({M.Name, R.Deadlock});
  }
}

void runCommProofs(const ProofOptions &Opts, ProofReport &Report) {
  std::vector<RankCommSchedule> Largest;
  for (const std::pair<int, int> &G : Opts.CommGrids) {
    std::vector<RankCommSchedule> Schedules =
        buildCommSchedule(*builtinWorkloads().find("mpdata"), G.first,
                          G.second, Opts.CommNI, Opts.CommNJ, Opts.CommNK,
                          Opts.CommSteps);
    if (Schedules.size() >= Largest.size())
      Largest = Schedules;
    {
      DiagnosticEngine Diags;
      CommCheckResult R = checkCommSchedule(Schedules, Diags);
      CommProofRecord Rec;
      Rec.PI = G.first;
      Rec.PJ = G.second;
      Rec.Kind = "clean";
      Rec.Ops = R.OpsExecuted;
      Rec.Ok = R.Ok;
      Rec.Witness = R.Witness;
      Report.Comm.push_back(std::move(Rec));
    }
    {
      // World poisoning: rank 0 dies before its second op; every
      // surviving rank must still terminate (blocked ops fail fast).
      DiagnosticEngine Diags;
      CommCheckResult R =
          checkCommSchedule(Schedules, Diags, /*DeadRank=*/0, /*DeathOp=*/1);
      CommProofRecord Rec;
      Rec.PI = G.first;
      Rec.PJ = G.second;
      Rec.Kind = "death";
      Rec.Ops = R.OpsExecuted;
      Rec.Ok = R.Ok;
      Rec.Witness = R.Witness;
      Report.Comm.push_back(std::move(Rec));
    }
  }

  // Seeded schedule mutants, each of which the checker must reject.
  auto firstOp = [](std::vector<RankCommSchedule> &S, CommOp::Kind K) {
    for (CommOp &Op : S[0].Ops)
      if (Op.K == K)
        return &Op;
    return static_cast<CommOp *>(nullptr);
  };
  {
    std::vector<RankCommSchedule> S = Largest;
    for (size_t I = 0; I != S[0].Ops.size(); ++I)
      if (S[0].Ops[I].K == CommOp::Kind::Send) {
        S[0].Ops.erase(S[0].Ops.begin() + static_cast<long>(I));
        break;
      }
    DiagnosticEngine Diags;
    CommCheckResult R = checkCommSchedule(S, Diags);
    Report.CommMutants.push_back({"drop-send", !R.Ok});
  }
  {
    std::vector<RankCommSchedule> S = Largest;
    for (size_t I = 0; I != S[0].Ops.size(); ++I)
      if (S[0].Ops[I].K == CommOp::Kind::Recv) {
        S[0].Ops.erase(S[0].Ops.begin() + static_cast<long>(I));
        break;
      }
    DiagnosticEngine Diags;
    CommCheckResult R = checkCommSchedule(S, Diags);
    Report.CommMutants.push_back({"drop-recv", !R.Ok});
  }
  {
    std::vector<RankCommSchedule> S = Largest;
    if (CommOp *Op = firstOp(S, CommOp::Kind::Send))
      Op->Count -= 1;
    DiagnosticEngine Diags;
    CommCheckResult R = checkCommSchedule(S, Diags);
    Report.CommMutants.push_back({"shrink-payload", !R.Ok});
  }
}

void runMutationSuite(const ProofOptions &Opts,
                      const PlanSpaceEnumeration &Space,
                      ProofReport &Report) {
  for (MutantClass Class : AllMutantClasses) {
    MutationClassRecord Rec;
    Rec.Class = Class;
    // Several sampling passes so classes whose ground-truth candidates
    // exist in few plans (e.g. temporal reorders) still reach the quota.
    for (int Pass = 0; Pass != 4 && Rec.Mutants < Opts.MutantsPerClass;
         ++Pass)
      for (size_t P = 0;
           P != Space.Plans.size() && Rec.Mutants < Opts.MutantsPerClass;
           ++P) {
        const EnumeratedPlan &EP = Space.Plans[P];
        if (!EP.Feasible)
          continue;
        const StencilProgram &Program =
            Space.Workloads[EP.Point.WorkloadIndex].Program;
        SplitMix64 Rng(Opts.MutationSeed + 0x9E3779B9u * Pass + P);
        ExecutionPlan Mutated = EP.Plan;
        if (!applyMutation(Mutated, Program, Class, Rng))
          continue;
        DiagnosticEngine Diags;
        proveOnePlan(Program, Mutated, Diags);
        ++Rec.Mutants;
        Rec.Killed += mutantKilled(Class, Diags);
      }
    Report.Mutation.push_back(Rec);
  }
}

} // namespace

ProofReport icores::runProofSuite(const ProofOptions &Opts) {
  ProofReport Report;
  Report.Opts = Opts;

  PlanSpaceEnumeration Space = enumeratePlanSpace(Opts.Space);
  for (const EnumeratedPlan &EP : Space.Plans) {
    PlanProofRecord Rec;
    Rec.Point = EP.Point;
    if (!EP.Feasible) {
      Rec.Verdict = "pruned";
      Rec.PruneReason = EP.PruneReason;
      Report.Plans.push_back(std::move(Rec));
      continue;
    }
    const StencilProgram &Program =
        Space.Workloads[EP.Point.WorkloadIndex].Program;
    DiagnosticEngine Diags;
    bool Ok = proveOnePlan(Program, EP.Plan, Diags);
    Rec.Verdict = Ok ? "proved" : "violated";
    Rec.Errors = Diags.numErrors();
    if (!Ok)
      Rec.Witness = firstErrorWitness(Diags);
    Report.Plans.push_back(std::move(Rec));
  }

  runBarrierProofs(Opts, Report);
  runCommProofs(Opts, Report);
  if (Opts.RunMutation)
    runMutationSuite(Opts, Space, Report);
  return Report;
}

void icores::writeProveJson(const ProofReport &Report, OStream &OS) {
  const ProofOptions &Opts = Report.Opts;
  OS << "{\n";
  OS << "  \"schema\": \"icores.prove.v1\",\n";
  OS << "  \"grid\": \""
     << formatString("%dx%dx%d", Opts.Space.NI, Opts.Space.NJ, Opts.Space.NK)
     << "\",\n";
  OS << "  \"time_steps\": " << Opts.Space.TimeSteps << ",\n";

  OS << "  \"plans\": [";
  for (size_t I = 0; I != Report.Plans.size(); ++I) {
    const PlanProofRecord &R = Report.Plans[I];
    OS << (I == 0 ? "\n" : ",\n");
    OS << "    {\"label\": ";
    writeJsonString(OS, R.Point.Label);
    OS << ", \"workload\": ";
    writeJsonString(OS, R.Point.Workload);
    OS << ", \"strategy\": \"" << strategyKey(R.Point.Strat) << "\",\n";
    OS << "     \"teams\": " << R.Point.Teams
       << ", \"temporal_depth\": " << R.Point.TemporalDepth
       << ", \"elide\": " << R.Point.Elide << ", \"verdict\": \""
       << R.Verdict << "\", \"errors\": "
       << static_cast<unsigned long long>(R.Errors);
    if (!R.PruneReason.empty()) {
      OS << ",\n     \"prune_reason\": ";
      writeJsonString(OS, R.PruneReason);
    }
    if (!R.Witness.empty()) {
      OS << ",\n     \"witness\": ";
      writeJsonString(OS, R.Witness);
    }
    OS << "}";
  }
  OS << (Report.Plans.empty() ? "],\n" : "\n  ],\n");

  OS << "  \"protocol\": {\n";
  OS << "    \"barrier\": [";
  for (size_t I = 0; I != Report.Barrier.size(); ++I) {
    const BarrierProofRecord &R = Report.Barrier[I];
    OS << (I == 0 ? "\n" : ",\n");
    OS << "      {\"threads\": " << R.Threads
       << ", \"crossings\": " << R.Crossings << ", \"states\": "
       << static_cast<long long>(R.States) << ", \"ok\": " << R.Ok;
    if (!R.Witness.empty()) {
      OS << ", \"witness\": ";
      writeJsonString(OS, R.Witness);
    }
    OS << "}";
  }
  OS << (Report.Barrier.empty() ? "],\n" : "\n    ],\n");
  OS << "    \"barrier_mutants\": [";
  for (size_t I = 0; I != Report.BarrierMutants.size(); ++I) {
    const BarrierMutantRecord &R = Report.BarrierMutants[I];
    OS << (I == 0 ? "\n" : ",\n");
    OS << "      {\"mutant\": ";
    writeJsonString(OS, R.Mutant);
    OS << ", \"caught\": " << R.Caught << "}";
  }
  OS << (Report.BarrierMutants.empty() ? "],\n" : "\n    ],\n");
  OS << "    \"comm\": [";
  for (size_t I = 0; I != Report.Comm.size(); ++I) {
    const CommProofRecord &R = Report.Comm[I];
    OS << (I == 0 ? "\n" : ",\n");
    OS << "      {\"grid\": \"" << R.PI << "x" << R.PJ << "\", \"ranks\": "
       << R.PI * R.PJ << ", \"kind\": \"" << R.Kind << "\", \"ops\": "
       << static_cast<long long>(R.Ops) << ", \"ok\": " << R.Ok;
    if (!R.Witness.empty()) {
      OS << ", \"witness\": ";
      writeJsonString(OS, R.Witness);
    }
    OS << "}";
  }
  OS << (Report.Comm.empty() ? "],\n" : "\n    ],\n");
  OS << "    \"comm_mutants\": [";
  for (size_t I = 0; I != Report.CommMutants.size(); ++I) {
    const CommMutantRecord &R = Report.CommMutants[I];
    OS << (I == 0 ? "\n" : ",\n");
    OS << "      {\"mutant\": ";
    writeJsonString(OS, R.Mutant);
    OS << ", \"caught\": " << R.Caught << "}";
  }
  OS << (Report.CommMutants.empty() ? "]\n" : "\n    ]\n");
  OS << "  },\n";

  OS << "  \"mutation\": {\n";
  OS << "    \"classes\": [";
  for (size_t I = 0; I != Report.Mutation.size(); ++I) {
    const MutationClassRecord &R = Report.Mutation[I];
    OS << (I == 0 ? "\n" : ",\n");
    OS << "      {\"class\": \"" << mutantClassName(R.Class)
       << "\", \"kill_id\": \"" << mutantKillIdPrefix(R.Class)
       << "\", \"mutants\": " << R.Mutants << ", \"killed\": " << R.Killed
       << "}";
  }
  OS << (Report.Mutation.empty() ? "],\n" : "\n    ],\n");
  OS << "    \"kill_rate\": " << Report.killRate() << "\n";
  OS << "  },\n";

  OS << "  \"summary\": {\n";
  OS << "    \"plans\": "
     << static_cast<unsigned long long>(Report.Plans.size()) << ",\n";
  OS << "    \"proved\": "
     << static_cast<unsigned long long>(Report.numWithVerdict("proved"))
     << ",\n";
  OS << "    \"pruned\": "
     << static_cast<unsigned long long>(Report.numWithVerdict("pruned"))
     << ",\n";
  OS << "    \"violated\": "
     << static_cast<unsigned long long>(Report.numWithVerdict("violated"))
     << ",\n";
  OS << "    \"protocol_ok\": " << Report.protocolOk() << ",\n";
  OS << "    \"kill_rate\": " << Report.killRate() << ",\n";
  OS << "    \"ok\": " << Report.ok() << "\n";
  OS << "  }\n";
  OS << "}\n";
}

bool icores::writeProveJsonFile(const ProofReport &Report,
                                const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  {
    FileOStream OS(F);
    writeProveJson(Report, OS);
  }
  std::fclose(F);
  return true;
}
