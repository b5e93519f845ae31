//===- stencil/KernelTable.cpp - Per-stage compute callbacks --------------===//

#include "stencil/KernelTable.h"

#include "support/Error.h"

using namespace icores;

const char *icores::kernelVariantName(KernelVariant Variant) {
  switch (Variant) {
  case KernelVariant::Reference:
    return "ref";
  case KernelVariant::Simd:
    return "simd";
  }
  return "ref";
}

bool icores::parseKernelVariant(const std::string &Name,
                                KernelVariant &Variant) {
  if (Name == "ref") {
    Variant = KernelVariant::Reference;
    return true;
  }
  if (Name == "simd") {
    Variant = KernelVariant::Simd;
    return true;
  }
  return false;
}

void KernelTable::set(StageId Stage, StageKernel Kernel) {
  ICORES_CHECK(Stage >= 0 &&
                   static_cast<size_t>(Stage) < Kernels.size(),
               "stage id out of range for this kernel table");
  ICORES_CHECK(static_cast<bool>(Kernel), "registering an empty kernel");
  Kernels[static_cast<size_t>(Stage)] = std::move(Kernel);
}

bool KernelTable::isSet(StageId Stage) const {
  return Stage >= 0 && static_cast<size_t>(Stage) < Kernels.size() &&
         static_cast<bool>(Kernels[static_cast<size_t>(Stage)]);
}

void KernelTable::run(FieldStore &Fields, StageId Stage,
                      const Box3 &Region) const {
  if (Region.empty())
    return;
  ICORES_CHECK(isSet(Stage), "no kernel registered for this stage");
  Kernels[static_cast<size_t>(Stage)](Fields, Region);
}

bool KernelTable::coversProgram(const StencilProgram &Program) const {
  if (numStages() != Program.numStages())
    return false;
  for (unsigned S = 0; S != Program.numStages(); ++S)
    if (!isSet(static_cast<StageId>(S)))
      return false;
  return true;
}
