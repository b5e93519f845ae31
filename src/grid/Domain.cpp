//===- grid/Domain.cpp - Physical domain and halo handling ----------------===//

#include "grid/Domain.h"

#include "grid/Array3D.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cstring>

using namespace icores;

namespace {

/// The halo-filling walk over dim-0 planes [PlaneLo, PlaneHi) of the alloc
/// box, parameterized over the source-index mapping.
///
/// Every read resolves to a core cell (the map sends any index into
/// [0, Extent)), so the k-interior segment of a halo (i, j) row is a
/// contiguous copy of the mapped core row — one memcpy per row. Only the
/// k-halo cells of each row need the element-wise mapped gather, off the
/// two row pointers.
template <typename MapFn>
void fillHaloWith(const Domain &Dom, Array3D &A, int PlaneLo, int PlaneHi,
                  MapFn &&Map) {
  Box3 Alloc = Dom.allocBox();
  ICORES_CHECK(A.indexSpace().containsBox(Alloc),
               "array does not cover the domain's alloc box");
  int NI = Dom.ni(), NJ = Dom.nj(), NK = Dom.nk();
  const size_t CoreRowBytes = static_cast<size_t>(NK) * sizeof(double);
  PlaneLo = std::max(PlaneLo, Alloc.Lo[0]);
  PlaneHi = std::min(PlaneHi, Alloc.Hi[0]);
  for (int I = PlaneLo; I < PlaneHi; ++I) {
    int SI = Map(I, NI);
    for (int J = Alloc.Lo[1]; J != Alloc.Hi[1]; ++J) {
      double *Dst = A.pointerTo(I, J, 0);
      const double *Src = A.pointerTo(SI, Map(J, NJ), 0);
      // A row is an (i, j) halo row exactly when the map moved it; its
      // whole k-interior mirrors the (distinct) mapped core row.
      if (Dst != Src)
        std::memcpy(Dst, Src, CoreRowBytes);
      for (int K = Alloc.Lo[2]; K != 0; ++K)
        Dst[K] = Src[Map(K, NK)];
      for (int K = NK; K != Alloc.Hi[2]; ++K)
        Dst[K] = Src[Map(K, NK)];
    }
  }
}

} // namespace

std::string Domain::checkHalo() const {
  if (Boundary == BoundaryMode::Periodic &&
      (Halo > NI || Halo > NJ || Halo > NK))
    return formatString("grid %dx%dx%d is shallower than its periodic halo "
                        "depth %d: the wrap would alias twice",
                        NI, NJ, NK, Halo);
  return "";
}

void Domain::fillHalo(Array3D &A) const {
  Box3 Alloc = allocBox();
  fillHaloPlanes(A, Alloc.Lo[0], Alloc.Hi[0]);
}

void Domain::fillHaloPlanes(Array3D &A, int PlaneLo, int PlaneHi) const {
  const std::string Reason = checkHalo();
  ICORES_CHECK(Reason.empty(), Reason.c_str());
  if (Boundary == BoundaryMode::Periodic) {
    fillHaloWith(*this, A, PlaneLo, PlaneHi, [](int Index, int Extent) {
      return wrapIndex(Index, Extent);
    });
  } else {
    fillHaloWith(*this, A, PlaneLo, PlaneHi, [](int Index, int Extent) {
      return clampIndex(Index, Extent);
    });
  }
}
