//===- stencil/StencilIR.cpp - Heterogeneous stencil program IR ----------===//

#include "stencil/StencilIR.h"

#include "support/Diagnostics.h"
#include "support/Error.h"
#include "support/Format.h"

#include <cassert>

using namespace icores;

size_t StencilProgram::checkArray(ArrayId Id) const {
  ICORES_CHECK(Id >= 0 && static_cast<size_t>(Id) < Arrays.size(),
               "array id out of range");
  return static_cast<size_t>(Id);
}

size_t StencilProgram::checkStage(StageId Id) const {
  ICORES_CHECK(Id >= 0 && static_cast<size_t>(Id) < Stages.size(),
               "stage id out of range");
  return static_cast<size_t>(Id);
}

ArrayId StencilProgram::addArray(std::string Name, ArrayRole Role) {
  ArrayInfo Info;
  Info.Name = std::move(Name);
  Info.Role = Role;
  Arrays.push_back(std::move(Info));
  Producer.push_back(NoStage);
  return static_cast<ArrayId>(Arrays.size() - 1);
}

StageId StencilProgram::addStage(StageDef Def) {
  StageId Id = static_cast<StageId>(Stages.size());
  for (ArrayId Out : Def.Outputs) {
    checkArray(Out);
    // A second producer is recorded as a validation error (not a hard
    // abort) so that validate() can report it alongside everything else;
    // producerOf() keeps returning the first producer.
    if (Producer[static_cast<size_t>(Out)] == NoStage)
      Producer[static_cast<size_t>(Out)] = Id;
  }
  Stages.push_back(std::move(Def));
  return Id;
}

void StencilProgram::addFeedback(ArrayId Source, ArrayId Target) {
  checkArray(Source);
  checkArray(Target);
  Feedbacks.push_back({Source, Target});
}

void StencilProgram::addReduction(ReductionDef Def) {
  checkArray(Def.Array);
  Reductions.push_back(std::move(Def));
}

ArrayId icores::findArrayId(const StencilProgram &Program,
                            const std::string &Name) {
  for (unsigned A = 0; A != Program.numArrays(); ++A)
    if (Program.array(static_cast<ArrayId>(A)).Name == Name)
      return static_cast<ArrayId>(A);
  return -1;
}

std::vector<ReductionBinding>
icores::orderedReductionBindings(const StencilProgram &Program,
                                 std::vector<ReductionBinding> Bindings) {
  std::vector<ReductionBinding> Ordered;
  Ordered.reserve(Program.reductions().size());
  for (const ReductionDef &Def : Program.reductions()) {
    const ReductionBinding *Found = nullptr;
    for (const ReductionBinding &B : Bindings)
      if (B.Name == Def.Name)
        Found = &B;
    ICORES_CHECK(Found && Found->Combine && Found->FoldRow,
                 "program reduction has no callable combiner binding");
    Ordered.push_back(*Found);
  }
  return Ordered;
}

std::vector<ArrayId> StencilProgram::stepInputs() const {
  std::vector<ArrayId> Result;
  for (size_t A = 0; A != Arrays.size(); ++A)
    if (Arrays[A].Role == ArrayRole::StepInput)
      Result.push_back(static_cast<ArrayId>(A));
  return Result;
}

bool StencilProgram::isStaticInput(ArrayId Id) const {
  if (array(Id).Role != ArrayRole::StepInput)
    return false;
  for (const FeedbackPair &FB : Feedbacks)
    if (FB.Target == Id)
      return false;
  return true;
}

std::vector<ArrayId> StencilProgram::staticInputs() const {
  std::vector<ArrayId> Result;
  for (ArrayId In : stepInputs())
    if (isStaticInput(In))
      Result.push_back(In);
  return Result;
}

std::vector<ArrayId> StencilProgram::stepOutputs() const {
  std::vector<ArrayId> Result;
  for (size_t A = 0; A != Arrays.size(); ++A)
    if (Arrays[A].Role == ArrayRole::StepOutput)
      Result.push_back(static_cast<ArrayId>(A));
  return Result;
}

int64_t StencilProgram::totalFlopsPerPoint() const {
  int64_t Total = 0;
  for (const StageDef &S : Stages)
    Total += S.FlopsPerPoint;
  return Total;
}

bool StencilProgram::validate(std::string &Error) const {
  DiagnosticEngine Diags;
  if (validate(Diags))
    return true;
  Error = Diags.firstErrorMessage();
  return false;
}

bool StencilProgram::validate(DiagnosticEngine &Diags) const {
  size_t ErrorsBefore = Diags.numErrors();
  for (size_t SI = 0; SI != Stages.size(); ++SI) {
    const StageDef &S = Stages[SI];
    if (S.Outputs.empty())
      Diags
          .report(Severity::Error, "program.stage.no-outputs",
                  formatString("stage '%s' has no outputs", S.Name.c_str()))
          .note("stage", S.Name);
    for (size_t OI = 0; OI != S.Outputs.size(); ++OI) {
      ArrayId Out = S.Outputs[OI];
      const ArrayInfo &Info = Arrays[checkArray(Out)];
      if (Info.Role == ArrayRole::StepInput)
        Diags
            .report(Severity::Error, "program.stage.writes-step-input",
                    formatString("stage '%s' writes step input '%s'",
                                 S.Name.c_str(), Info.Name.c_str()))
            .note("stage", S.Name)
            .note("array", Info.Name);
      for (size_t OJ = 0; OJ != OI; ++OJ)
        if (S.Outputs[OJ] == Out)
          Diags
              .report(Severity::Error, "program.stage.duplicate-output",
                      formatString("stage '%s' lists output '%s' twice",
                                   S.Name.c_str(), Info.Name.c_str()))
              .note("stage", S.Name)
              .note("array", Info.Name);
      StageId Prod = Producer[static_cast<size_t>(Out)];
      if (Prod != NoStage && Prod != static_cast<StageId>(SI))
        Diags
            .report(Severity::Error, "program.array.multiple-producers",
                    formatString("array '%s' is produced by both stage '%s' "
                                 "and stage '%s'",
                                 Info.Name.c_str(),
                                 Stages[static_cast<size_t>(Prod)].Name.c_str(),
                                 S.Name.c_str()))
            .note("stage", S.Name)
            .note("array", Info.Name);
    }
    for (const StageInput &In : S.Inputs) {
      const ArrayInfo &Info = Arrays[checkArray(In.Array)];
      StageId Prod = Producer[static_cast<size_t>(In.Array)];
      if (Info.Role != ArrayRole::StepInput &&
          (Prod == NoStage || Prod >= static_cast<StageId>(SI)))
        Diags
            .report(Severity::Error, "program.stage.read-before-produced",
                    formatString("stage '%s' reads '%s' before it is produced "
                                 "(topological order violated)",
                                 S.Name.c_str(), Info.Name.c_str()))
            .note("stage", S.Name)
            .note("array", Info.Name);
      for (ArrayId Out : S.Outputs)
        if (Out == In.Array)
          Diags
              .report(Severity::Error, "program.stage.read-write-overlap",
                      formatString("stage '%s' reads array '%s' that it also "
                                   "writes (pointwise kernels would be "
                                   "evaluation-order dependent)",
                                   S.Name.c_str(), Info.Name.c_str()))
              .note("stage", S.Name)
              .note("array", Info.Name);
      for (int D = 0; D != 3; ++D)
        if (In.MinOff[D] > In.MaxOff[D])
          Diags
              .report(Severity::Error, "program.input.inverted-window",
                      formatString("stage '%s': inverted offset window on "
                                   "'%s' (dimension %d: min %d > max %d)",
                                   S.Name.c_str(), Info.Name.c_str(), D,
                                   In.MinOff[D], In.MaxOff[D]))
              .note("stage", S.Name)
              .note("array", Info.Name);
    }
    if (S.FlopsPerPoint < 0)
      Diags
          .report(Severity::Error, "program.stage.negative-flops",
                  formatString("stage '%s' has negative flop count",
                               S.Name.c_str()))
          .note("stage", S.Name);
  }
  for (size_t A = 0; A != Arrays.size(); ++A) {
    const ArrayInfo &Info = Arrays[A];
    bool Produced = Producer[A] != NoStage;
    if (Info.Role == ArrayRole::StepOutput && !Produced)
      Diags
          .report(Severity::Error, "program.output.never-produced",
                  formatString("step output '%s' is never produced",
                               Info.Name.c_str()))
          .note("array", Info.Name);
  }
  for (size_t RI = 0; RI != Reductions.size(); ++RI) {
    const ReductionDef &R = Reductions[RI];
    const ArrayInfo &Info = Arrays[checkArray(R.Array)];
    if (R.Name.empty())
      Diags
          .report(Severity::Error, "program.reduction.empty-name",
                  formatString("reduction over '%s' has an empty name",
                               Info.Name.c_str()))
          .note("array", Info.Name);
    if (Info.Role != ArrayRole::StepOutput)
      Diags
          .report(Severity::Error, "program.reduction.role-mismatch",
                  formatString("reduction '%s' folds array '%s', which is "
                               "not a step output",
                               R.Name.c_str(), Info.Name.c_str()))
          .note("reduction", R.Name)
          .note("array", Info.Name);
    for (size_t RJ = 0; RJ != RI; ++RJ)
      if (Reductions[RJ].Name == R.Name)
        Diags
            .report(Severity::Error, "program.reduction.duplicate-name",
                    formatString("reduction name '%s' is declared twice",
                                 R.Name.c_str()))
            .note("reduction", R.Name);
  }
  for (const FeedbackPair &FB : Feedbacks) {
    if (Arrays[checkArray(FB.Source)].Role != ArrayRole::StepOutput ||
        Arrays[checkArray(FB.Target)].Role != ArrayRole::StepInput)
      Diags
          .report(
              Severity::Error, "program.feedback.role-mismatch",
              formatString("feedback '%s' -> '%s' must connect a step "
                           "output to a step input",
                           Arrays[static_cast<size_t>(FB.Source)].Name.c_str(),
                           Arrays[static_cast<size_t>(FB.Target)].Name.c_str()))
          .note("source", Arrays[static_cast<size_t>(FB.Source)].Name)
          .note("target", Arrays[static_cast<size_t>(FB.Target)].Name);
  }
  return Diags.numErrors() == ErrorsBefore;
}
