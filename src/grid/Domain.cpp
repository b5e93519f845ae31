//===- grid/Domain.cpp - Physical domain and halo handling ----------------===//

#include "grid/Domain.h"

#include "grid/Array3D.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cstring>

using namespace icores;

namespace {

/// The halo-filling walk over the alloc box, parameterized over the
/// source-index mapping.
///
/// Every read resolves to a core cell (the map sends any index into
/// [0, Extent)), so the k-interior segment of a halo (i, j) row is a
/// contiguous copy of the mapped core row — one memcpy per row. Only the
/// k-halo cells of each row need the element-wise mapped gather, off the
/// two row pointers.
template <typename MapFn>
void fillHaloWith(const Domain &Dom, Array3D &A, MapFn &&Map) {
  Box3 Alloc = Dom.allocBox();
  ICORES_CHECK(A.indexSpace().containsBox(Alloc),
               "array does not cover the domain's alloc box");
  int NI = Dom.ni(), NJ = Dom.nj(), NK = Dom.nk();
  const size_t CoreRowBytes = static_cast<size_t>(NK) * sizeof(double);
  for (int I = Alloc.Lo[0]; I != Alloc.Hi[0]; ++I) {
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

bool Domain::wrapsTwice() const {
  return Boundary == BoundaryMode::Periodic &&
         (Halo > NI || Halo > NJ || Halo > NK);
}

std::string Domain::checkHalo() const {
  if (wrapsTwice())
    return formatString("grid %dx%dx%d is shallower than its periodic halo "
                        "depth %d: the wrap would alias twice",
                        NI, NJ, NK, Halo);
  return "";
}

void Domain::fillHalo(Array3D &A) const {
  const std::string Reason = checkHalo();
  ICORES_CHECK(Reason.empty(), Reason.c_str());
  if (Boundary == BoundaryMode::Periodic)
    fillHaloWith(*this, A, [](int Index, int Extent) {
      return wrapIndex(Index, Extent);
    });
  else
    fillHaloWith(*this, A, [](int Index, int Extent) {
      return clampIndex(Index, Extent);
    });
}

Domain::HaloImages Domain::haloImages(const Box3 &Core) const {
  HaloImages Images;
  const Box3 C = Core.intersect(coreBox());
  if (C.empty())
    return Images;
  // Per axis: the core range itself, then its images below and above the
  // core. A periodic image is the range shifted by the extent; a clamped
  // one is the whole halo side, imaged from the boundary cell.
  const int Extents[3] = {NI, NJ, NK};
  int Lo[3][3], Hi[3][3], Ranges[3];
  for (int D = 0; D != 3; ++D) {
    const int N = Extents[D];
    int &R = Ranges[D];
    R = 0;
    auto add = [&](int L, int H) {
      if (L < H) {
        Lo[D][R] = L;
        Hi[D][R++] = H;
      }
    };
    add(C.Lo[D], C.Hi[D]);
    if (Boundary == BoundaryMode::Periodic) {
      add(std::max(C.Lo[D], N - Halo) - N, C.Hi[D] - N);
      add(C.Lo[D] + N, std::min(C.Hi[D], Halo) + N);
    } else {
      if (C.Lo[D] == 0)
        add(-Halo, 0);
      if (C.Hi[D] == N)
        add(N, N + Halo);
    }
  }
  // Every combination but the core box itself.
  for (int A = 0; A != Ranges[0]; ++A)
    for (int B = 0; B != Ranges[1]; ++B)
      for (int K = A == 0 && B == 0 ? 1 : 0; K < Ranges[2]; ++K)
        Images.Boxes[static_cast<size_t>(Images.Count++)] =
            Box3(Lo[0][A], Lo[1][B], Lo[2][K], Hi[0][A], Hi[1][B], Hi[2][K]);
  return Images;
}

void Domain::writeImages(Array3D &A, const Box3 &Core) const {
  ICORES_CHECK(!wrapsTwice(), "periodic halo deeper than the domain");
  ICORES_CHECK(A.indexSpace().containsBox(allocBox()),
               "array does not cover the domain's alloc box");
  const int Extents[3] = {NI, NJ, NK};
  for (const Box3 &Image : haloImages(Core)) {
    // Each axis range of an image box maps onto the core cell by cell
    // (the core range itself, a periodic image) or onto one boundary cell
    // (a clamped image).
    int Src0[3], Step[3];
    for (int D = 0; D != 3; ++D) {
      Src0[D] = boundarySource(Image.Lo[D], Extents[D]);
      Step[D] = Boundary == BoundaryMode::Periodic || Src0[D] == Image.Lo[D];
    }
    const int Len = Image.extent(2);
    const int64_t DstStep = A.strideJ(), SrcStep = Step[1] * A.strideJ();
    for (int I = Image.Lo[0], SI = Src0[0]; I != Image.Hi[0];
         ++I, SI += Step[0]) {
      double *Dst = A.pointerTo(I, Image.Lo[1], Image.Lo[2]);
      const double *Src = A.pointerTo(SI, Src0[1], Src0[2]);
      // Most runs are a k image of a few cells: a plain loop beats a
      // library call per row (3x on a 48^3 share).
      for (int J = Image.Lo[1]; J != Image.Hi[1];
           ++J, Dst += DstStep, Src += SrcStep)
        for (int K = 0; K != Len; ++K)
          Dst[K] = Src[Step[2] * K];
    }
  }
}
