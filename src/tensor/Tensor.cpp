//===- tensor/Tensor.cpp --------------------------------------*- C++ -*-===//

#include "tensor/Tensor.h"

#include "parallel/Schedule.h"
#include "parallel/ThreadPool.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <sstream>

namespace systec {

namespace {

/// A contiguous range of sorted COO entries sharing all coordinates
/// above the current level, tagged with the parent position it belongs
/// to.
struct Segment {
  int64_t ParentPos;
  size_t Begin, End;
};

} // namespace

Tensor Tensor::fromCoo(Coo Entries, TensorFormat Format, double Fill,
                       OpKind Combine) {
  Expected<Tensor> T =
      tryFromCoo(std::move(Entries), std::move(Format), Fill, Combine);
  if (!T)
    fatalError(T.status().str());
  return std::move(*T);
}

Expected<Tensor> Tensor::tryFromCoo(Coo Entries, TensorFormat Format,
                                    double Fill, OpKind Combine) {
  const unsigned N = Entries.order();
  if (Format.order() != N)
    return Status::error(ErrCode::InvalidArgument,
                         "format order " + std::to_string(Format.order()) +
                             " does not match coordinate order " +
                             std::to_string(N));
  for (unsigned L = 0; L + 1 < N; ++L)
    if (Format.Levels[L] == LevelKind::RunLength)
      return Status::error(ErrCode::InvalidArgument,
                           "RunLength levels are only supported at the "
                           "bottom");
  // Entries outside the declared box would silently corrupt the level
  // build (positions computed from coordinates index past the arrays).
  for (size_t I = 0; I < Entries.size(); ++I)
    for (unsigned M = 0; M < N; ++M) {
      const int64_t C = Entries.coord(I, M);
      if (C < 0 || C >= Entries.dims()[M])
        return Status::error(
            ErrCode::InvalidArgument,
            "entry " + std::to_string(I) + " coordinate " +
                std::to_string(C) + " outside mode " + std::to_string(M) +
                " extent " + std::to_string(Entries.dims()[M]));
    }
  Entries.sortAndCombine(Combine);

  Tensor T;
  T.Dims = Entries.dims();
  T.Format = Format;
  T.Fill = Fill;
  T.Levels.resize(N);

  // No root segment for an empty tensor: every level then builds its
  // all-empty structure (the Banded branch in particular reads a
  // segment's last entry, which an empty segment does not have).
  std::vector<Segment> Segments;
  if (Entries.size() > 0)
    Segments.push_back({0, 0, Entries.size()});
  int64_t PosCount = 1;

  for (unsigned L = 0; L < N; ++L) {
    const unsigned Mode = N - 1 - L;
    const int64_t Dim = T.Dims[Mode];
    Level &Lev = T.Levels[L];
    Lev.Kind = Format.Levels[L];
    Lev.Dim = Dim;
    const bool Bottom = (L == N - 1);
    std::vector<Segment> NewSegments;

    // Groups a segment's entries by this level's coordinate and invokes
    // \p Fn(coord, begin, end) in ascending coordinate order.
    auto ForEachGroup = [&](const Segment &Seg, auto &&Fn) {
      size_t I = Seg.Begin;
      while (I < Seg.End) {
        int64_t C = Entries.coord(I, Mode);
        size_t J = I;
        while (J < Seg.End && Entries.coord(J, Mode) == C)
          ++J;
        Fn(C, I, J);
        I = J;
      }
    };

    switch (Lev.Kind) {
    case LevelKind::Dense: {
      for (const Segment &Seg : Segments)
        ForEachGroup(Seg, [&](int64_t C, size_t B, size_t E) {
          NewSegments.push_back({Seg.ParentPos * Dim + C, B, E});
        });
      PosCount *= Dim;
      if (Bottom) {
        T.Vals.assign(static_cast<size_t>(PosCount), Fill);
        for (const Segment &Seg : NewSegments) {
          assert(Seg.End - Seg.Begin == 1 && "uncombined duplicate entry");
          T.Vals[Seg.ParentPos] = Entries.value(Seg.Begin);
        }
      }
      break;
    }
    case LevelKind::Sparse: {
      Lev.Ptr.assign(static_cast<size_t>(PosCount) + 1, 0);
      size_t SegIdx = 0;
      for (int64_t P = 0; P < PosCount; ++P) {
        Lev.Ptr[P] = static_cast<int64_t>(Lev.Crd.size());
        if (SegIdx < Segments.size() && Segments[SegIdx].ParentPos == P) {
          ForEachGroup(Segments[SegIdx], [&](int64_t C, size_t B, size_t E) {
            NewSegments.push_back(
                {static_cast<int64_t>(Lev.Crd.size()), B, E});
            Lev.Crd.push_back(C);
          });
          ++SegIdx;
        }
      }
      Lev.Ptr[PosCount] = static_cast<int64_t>(Lev.Crd.size());
      PosCount = static_cast<int64_t>(Lev.Crd.size());
      if (Bottom) {
        T.Vals.resize(static_cast<size_t>(PosCount));
        for (const Segment &Seg : NewSegments)
          T.Vals[Seg.ParentPos] = Entries.value(Seg.Begin);
      }
      break;
    }
    case LevelKind::RunLength: {
      assert(Bottom && "non-bottom RunLength rejected above");
      Lev.Ptr.assign(static_cast<size_t>(PosCount) + 1, 0);
      size_t SegIdx = 0;
      for (int64_t P = 0; P < PosCount; ++P) {
        Lev.Ptr[P] = static_cast<int64_t>(Lev.RunEnd.size());
        auto PushRun = [&](int64_t EndC, double V) {
          // Merge with the previous run of this parent when values match.
          if (static_cast<int64_t>(Lev.RunEnd.size()) > Lev.Ptr[P] &&
              T.Vals.back() == V) {
            Lev.RunEnd.back() = EndC;
            return;
          }
          Lev.RunEnd.push_back(EndC);
          T.Vals.push_back(V);
        };
        int64_t NextC = 0;
        if (SegIdx < Segments.size() && Segments[SegIdx].ParentPos == P) {
          ForEachGroup(Segments[SegIdx], [&](int64_t C, size_t B, size_t E) {
            (void)E; // asserted only; optimized builds define NDEBUG
            assert(E - B == 1 && "uncombined duplicate entry");
            if (C > NextC)
              PushRun(C, Fill);
            PushRun(C + 1, Entries.value(B));
            NextC = C + 1;
          });
          ++SegIdx;
        }
        if (NextC < Dim)
          PushRun(Dim, Fill);
      }
      Lev.Ptr[PosCount] = static_cast<int64_t>(Lev.RunEnd.size());
      PosCount = static_cast<int64_t>(Lev.RunEnd.size());
      break;
    }
    case LevelKind::Banded: {
      Lev.Lo.assign(static_cast<size_t>(PosCount), 0);
      Lev.Hi.assign(static_cast<size_t>(PosCount), 0);
      Lev.Off.assign(static_cast<size_t>(PosCount) + 1, 0);
      size_t SegIdx = 0;
      int64_t Total = 0;
      for (int64_t P = 0; P < PosCount; ++P) {
        Lev.Off[P] = Total;
        if (SegIdx < Segments.size() && Segments[SegIdx].ParentPos == P) {
          const Segment &Seg = Segments[SegIdx];
          int64_t LoC = Entries.coord(Seg.Begin, Mode);
          int64_t HiC = Entries.coord(Seg.End - 1, Mode) + 1;
          Lev.Lo[P] = LoC;
          Lev.Hi[P] = HiC;
          ForEachGroup(Seg, [&](int64_t C, size_t B, size_t E) {
            NewSegments.push_back({Total + (C - LoC), B, E});
          });
          Total += HiC - LoC;
          ++SegIdx;
        }
      }
      Lev.Off[PosCount] = Total;
      PosCount = Total;
      if (Bottom) {
        T.Vals.assign(static_cast<size_t>(PosCount), Fill);
        for (const Segment &Seg : NewSegments)
          T.Vals[Seg.ParentPos] = Entries.value(Seg.Begin);
      }
      break;
    }
    }
    Segments = std::move(NewSegments);
  }
  // Self-check: a shallow failure here is a builder bug, but surfacing
  // it as a status keeps the recoverable entry point abort-free.
  if (Status S = T.validate(ValidationLevel::Shallow); !S.ok())
    return std::move(S).withContext("fromCoo self-check");
  return T;
}

Tensor Tensor::dense(std::vector<int64_t> Dims, double Fill) {
  Tensor T;
  T.Dims = std::move(Dims);
  const unsigned N = T.order();
  T.Format = TensorFormat::dense(N);
  T.Fill = Fill;
  T.Levels.resize(N);
  size_t Total = 1;
  for (unsigned L = 0; L < N; ++L) {
    T.Levels[L].Kind = LevelKind::Dense;
    T.Levels[L].Dim = T.Dims[N - 1 - L];
    Total *= static_cast<size_t>(T.Levels[L].Dim);
  }
  T.Vals.assign(Total, Fill);
  return T;
}

namespace {

/// Error helper naming the offending level, so a failed validation
/// localizes without a debugger: "level 1 (Sparse): ...".
Status levelError(unsigned L, LevelKind K, const std::string &Message) {
  const char *Name = K == LevelKind::Dense       ? "Dense"
                     : K == LevelKind::Sparse    ? "Sparse"
                     : K == LevelKind::RunLength ? "RunLength"
                                                 : "Banded";
  return Status::error(ErrCode::InvalidTensor,
                       "level " + std::to_string(L) + " (" + Name +
                           "): " + Message);
}

} // namespace

Status Tensor::validate(ValidationLevel VL) const {
  if (VL == ValidationLevel::None)
    return Status::success();
  const unsigned N = order();
  if (Levels.size() != N || Format.order() != N)
    return Status::error(ErrCode::InvalidTensor,
                         "level count disagrees with tensor order");
  const bool Deep = VL == ValidationLevel::Deep;
  // Walk top-down tracking the position count the next level must
  // cover; every per-level array size is a function of it.
  int64_t PosCount = 1;
  for (unsigned L = 0; L < N; ++L) {
    const Level &Lev = Levels[L];
    const int64_t Dim = Dims[N - 1 - L];
    if (Lev.Kind != Format.Levels[L])
      return levelError(L, Lev.Kind, "kind disagrees with the format");
    if (Lev.Dim != Dim)
      return levelError(L, Lev.Kind,
                        "extent " + std::to_string(Lev.Dim) +
                            " disagrees with mode extent " +
                            std::to_string(Dim));
    switch (Lev.Kind) {
    case LevelKind::Dense: {
      if (Dim < 0)
        return levelError(L, Lev.Kind, "negative extent");
      PosCount *= Dim;
      break;
    }
    case LevelKind::Sparse: {
      if (Lev.Ptr.size() != static_cast<size_t>(PosCount) + 1)
        return levelError(L, Lev.Kind,
                          "Ptr size " + std::to_string(Lev.Ptr.size()) +
                              ", expected " + std::to_string(PosCount + 1));
      const int64_t Total = static_cast<int64_t>(Lev.Crd.size());
      if (Lev.Ptr.front() != 0 || Lev.Ptr.back() != Total)
        return levelError(L, Lev.Kind,
                          "Ptr endpoints do not cover the Crd array");
      if (Deep) {
        for (int64_t P = 0; P < PosCount; ++P) {
          // Range before monotonicity: the fiber scan below indexes Crd
          // with Ptr values, so an interior Ptr past the array must be
          // rejected before it is ever used as a bound.
          if (Lev.Ptr[P + 1] < 0 || Lev.Ptr[P + 1] > Total)
            return levelError(L, Lev.Kind,
                              "Ptr value " + std::to_string(Lev.Ptr[P + 1]) +
                                  " outside [0, " + std::to_string(Total) +
                                  "] at position " + std::to_string(P + 1));
          if (Lev.Ptr[P] > Lev.Ptr[P + 1])
            return levelError(L, Lev.Kind,
                              "Ptr not monotone at position " +
                                  std::to_string(P));
          for (int64_t K = Lev.Ptr[P]; K < Lev.Ptr[P + 1]; ++K) {
            if (Lev.Crd[K] < 0 || Lev.Crd[K] >= Dim)
              return levelError(L, Lev.Kind,
                                "coordinate " + std::to_string(Lev.Crd[K]) +
                                    " outside [0, " + std::to_string(Dim) +
                                    ")");
            if (K > Lev.Ptr[P] && Lev.Crd[K] <= Lev.Crd[K - 1])
              return levelError(L, Lev.Kind,
                                "coordinates not strictly increasing in "
                                "the fiber of position " +
                                    std::to_string(P));
          }
        }
      }
      PosCount = Total;
      break;
    }
    case LevelKind::RunLength: {
      if (L + 1 != N)
        return levelError(L, Lev.Kind, "only supported at the bottom");
      if (Lev.Ptr.size() != static_cast<size_t>(PosCount) + 1)
        return levelError(L, Lev.Kind,
                          "Ptr size " + std::to_string(Lev.Ptr.size()) +
                              ", expected " + std::to_string(PosCount + 1));
      const int64_t Total = static_cast<int64_t>(Lev.RunEnd.size());
      if (Lev.Ptr.front() != 0 || Lev.Ptr.back() != Total)
        return levelError(L, Lev.Kind,
                          "Ptr endpoints do not cover the RunEnd array");
      if (Deep) {
        for (int64_t P = 0; P < PosCount; ++P) {
          if (Lev.Ptr[P + 1] < 0 || Lev.Ptr[P + 1] > Total)
            return levelError(L, Lev.Kind,
                              "Ptr value " + std::to_string(Lev.Ptr[P + 1]) +
                                  " outside [0, " + std::to_string(Total) +
                                  "] at position " + std::to_string(P + 1));
          if (Lev.Ptr[P] > Lev.Ptr[P + 1])
            return levelError(L, Lev.Kind,
                              "Ptr not monotone at position " +
                                  std::to_string(P));
          const int64_t Begin = Lev.Ptr[P], End = Lev.Ptr[P + 1];
          if (Dim > 0 && Begin == End)
            return levelError(L, Lev.Kind,
                              "no runs cover the fiber of position " +
                                  std::to_string(P));
          int64_t Prev = 0;
          for (int64_t K = Begin; K < End; ++K) {
            if (Lev.RunEnd[K] <= Prev || Lev.RunEnd[K] > Dim)
              return levelError(
                  L, Lev.Kind,
                  "run ends not strictly increasing within (0, " +
                      std::to_string(Dim) + "] in the fiber of position " +
                      std::to_string(P));
            Prev = Lev.RunEnd[K];
          }
          if (End > Begin && Lev.RunEnd[End - 1] != Dim)
            return levelError(L, Lev.Kind,
                              "runs do not tile [0, " + std::to_string(Dim) +
                                  ") in the fiber of position " +
                                  std::to_string(P));
        }
      }
      PosCount = Total;
      break;
    }
    case LevelKind::Banded: {
      if (Lev.Lo.size() != static_cast<size_t>(PosCount) ||
          Lev.Hi.size() != static_cast<size_t>(PosCount) ||
          Lev.Off.size() != static_cast<size_t>(PosCount) + 1)
        return levelError(L, Lev.Kind, "Lo/Hi/Off sizes disagree with the "
                                       "parent position count");
      if (PosCount > 0 && Lev.Off.front() != 0)
        return levelError(L, Lev.Kind, "Off does not start at 0");
      if (Deep) {
        for (int64_t P = 0; P < PosCount; ++P) {
          const int64_t Lo = Lev.Lo[P], Hi = Lev.Hi[P];
          if (Lo > Hi)
            return levelError(L, Lev.Kind,
                              "inverted interval [" + std::to_string(Lo) +
                                  ", " + std::to_string(Hi) +
                                  ") at position " + std::to_string(P));
          if (Lo < 0 || Hi > Dim)
            return levelError(L, Lev.Kind,
                              "interval [" + std::to_string(Lo) + ", " +
                                  std::to_string(Hi) + ") outside [0, " +
                                  std::to_string(Dim) + ") at position " +
                                  std::to_string(P));
          if (Lev.Off[P + 1] - Lev.Off[P] != Hi - Lo)
            return levelError(L, Lev.Kind,
                              "Off delta disagrees with the band width "
                              "at position " +
                                  std::to_string(P));
        }
      }
      PosCount = Lev.Off[static_cast<size_t>(PosCount)];
      if (PosCount < 0)
        return levelError(L, Lev.Kind, "negative Off endpoint");
      break;
    }
    }
  }
  if (Vals.size() != static_cast<size_t>(PosCount))
    return Status::error(ErrCode::InvalidTensor,
                         "value array holds " + std::to_string(Vals.size()) +
                             " entries, bottom level expects " +
                             std::to_string(PosCount));
  if (Deep)
    for (size_t I = 0; I < Vals.size(); ++I)
      if (std::isnan(Vals[I]))
        return Status::error(ErrCode::InvalidTensor,
                             "NaN value at position " + std::to_string(I) +
                                 " (semiring folds are not NaN-clean)");
  return Status::success();
}

int64_t Tensor::locate(unsigned L, int64_t Pos, int64_t C) const {
  const Level &Lev = Levels[L];
  switch (Lev.Kind) {
  case LevelKind::Dense:
    return Pos * Lev.Dim + C;
  case LevelKind::Sparse: {
    auto Begin = Lev.Crd.begin() + Lev.Ptr[Pos];
    auto End = Lev.Crd.begin() + Lev.Ptr[Pos + 1];
    auto It = std::lower_bound(Begin, End, C);
    if (It == End || *It != C)
      return -1;
    return It - Lev.Crd.begin();
  }
  case LevelKind::RunLength: {
    auto Begin = Lev.RunEnd.begin() + Lev.Ptr[Pos];
    auto End = Lev.RunEnd.begin() + Lev.Ptr[Pos + 1];
    auto It = std::upper_bound(Begin, End, C);
    assert(It != End || C < Lev.Dim ? It != End : true);
    if (It == End)
      return -1;
    return It - Lev.RunEnd.begin();
  }
  case LevelKind::Banded: {
    if (C < Lev.Lo[Pos] || C >= Lev.Hi[Pos])
      return -1;
    return Lev.Off[Pos] + (C - Lev.Lo[Pos]);
  }
  }
  unreachable("unknown level kind");
}

int64_t Tensor::locateHinted(unsigned L, int64_t Pos, int64_t C,
                             int64_t &CachedParent, int64_t &CachedIdx) const {
  const Level &Lev = Levels[L];
  assert((Lev.Kind == LevelKind::Sparse ||
          Lev.Kind == LevelKind::RunLength) &&
         "hinted locate needs a compressed level");
  if (Lev.Kind == LevelKind::RunLength) {
    // Result: the first run k in [B, E) with RunEnd[k] > C (runs tile
    // the extent, so coordinates inside the extent always resolve).
    const int64_t B = Lev.Ptr[Pos], E = Lev.Ptr[Pos + 1];
    const int64_t *RunEnd = Lev.RunEnd.data();
    int64_t Idx;
    if (CachedParent == Pos && CachedIdx >= B && CachedIdx < E &&
        RunEnd[CachedIdx] <= C) {
      // Ascending lookup: gallop forward from the cached run.
      int64_t Step = 1, Lo = CachedIdx + 1;
      while (Lo + Step < E && RunEnd[Lo + Step] <= C)
        Step <<= 1;
      const int64_t HiB = std::min(Lo + Step, E);
      Idx = std::upper_bound(RunEnd + Lo, RunEnd + HiB, C) - RunEnd;
    } else if (CachedParent == Pos && CachedIdx >= B && CachedIdx < E &&
               (CachedIdx == B || RunEnd[CachedIdx - 1] <= C)) {
      Idx = CachedIdx; // still inside the cached run
    } else {
      Idx = std::upper_bound(RunEnd + B, RunEnd + E, C) - RunEnd;
    }
    CachedParent = Pos;
    CachedIdx = Idx;
    return Idx < E ? Idx : -1;
  }
  const int64_t B = Lev.Ptr[Pos], E = Lev.Ptr[Pos + 1];
  const int64_t *Crd = Lev.Crd.data();
  int64_t Start = B;
  if (CachedParent == Pos && CachedIdx >= B && CachedIdx <= E) {
    if (CachedIdx == E || Crd[CachedIdx] >= C) {
      // Coordinate moved backward (or repeated): bisect the prefix,
      // with a fast path for an exact repeat.
      if (CachedIdx < E && Crd[CachedIdx] == C)
        return CachedIdx;
      Start = B;
    } else {
      // Ascending lookup: gallop forward from the previous result.
      int64_t Step = 1, LoB = CachedIdx + 1;
      while (LoB + Step < E && Crd[LoB + Step] < C)
        Step <<= 1;
      int64_t HiB = std::min(LoB + Step, E);
      int64_t Idx = std::lower_bound(Crd + LoB, Crd + HiB, C) - Crd;
      CachedParent = Pos;
      CachedIdx = Idx;
      return (Idx < E && Crd[Idx] == C) ? Idx : -1;
    }
  }
  int64_t Idx = std::lower_bound(Crd + Start, Crd + E, C) - Crd;
  CachedParent = Pos;
  CachedIdx = Idx;
  return (Idx < E && Crd[Idx] == C) ? Idx : -1;
}

double Tensor::at(const std::vector<int64_t> &Coords) const {
  assert(Coords.size() == order() && "coordinate arity mismatch");
  int64_t Pos = 0;
  for (unsigned L = 0; L < order(); ++L) {
    Pos = locate(L, Pos, Coords[modeOfLevel(L)]);
    if (Pos < 0)
      return Fill;
  }
  return Vals[Pos];
}

double &Tensor::denseRef(const std::vector<int64_t> &Coords) {
  assert(Format.isAllDense() && "denseRef requires an all-dense tensor");
  int64_t Pos = 0;
  for (unsigned L = 0; L < order(); ++L)
    Pos = Pos * Levels[L].Dim + Coords[modeOfLevel(L)];
  return Vals[Pos];
}

void Tensor::setAllValues(double V) {
  std::fill(Vals.begin(), Vals.end(), V);
}

void Tensor::forEach(
    const std::function<void(const std::vector<int64_t> &, double)> &Fn)
    const {
  std::vector<int64_t> Coords(order());
  // Recursive descent over levels.
  std::function<void(unsigned, int64_t)> Walk = [&](unsigned L,
                                                    int64_t Pos) {
    const Level &Lev = Levels[L];
    const unsigned Mode = modeOfLevel(L);
    auto Visit = [&](int64_t C, int64_t Child) {
      Coords[Mode] = C;
      if (L + 1 == order())
        Fn(Coords, Vals[Child]);
      else
        Walk(L + 1, Child);
    };
    switch (Lev.Kind) {
    case LevelKind::Dense:
      for (int64_t C = 0; C < Lev.Dim; ++C)
        Visit(C, Pos * Lev.Dim + C);
      return;
    case LevelKind::Sparse:
      for (int64_t K = Lev.Ptr[Pos]; K < Lev.Ptr[Pos + 1]; ++K)
        Visit(Lev.Crd[K], K);
      return;
    case LevelKind::RunLength: {
      int64_t Start = 0;
      for (int64_t K = Lev.Ptr[Pos]; K < Lev.Ptr[Pos + 1]; ++K) {
        for (int64_t C = Start; C < Lev.RunEnd[K]; ++C)
          Visit(C, K);
        Start = Lev.RunEnd[K];
      }
      return;
    }
    case LevelKind::Banded:
      for (int64_t C = Lev.Lo[Pos]; C < Lev.Hi[Pos]; ++C)
        Visit(C, Lev.Off[Pos] + (C - Lev.Lo[Pos]));
      return;
    }
    unreachable("unknown level kind");
  };
  Walk(0, 0);
}

Coo Tensor::toCoo() const {
  Coo Out(Dims);
  forEach([&Out](const std::vector<int64_t> &Coords, double V) {
    Out.add(Coords, V);
  });
  return Out;
}

Tensor Tensor::transposed(const std::vector<unsigned> &ModePerm,
                          const TensorFormat &NewFormat) const {
  return fromCoo(toCoo().transposed(ModePerm), NewFormat, Fill);
}

std::pair<Tensor, Tensor> Tensor::splitDiagonal(const Partition &Sym) const {
  assert(Sym.order() == order() && "partition order mismatch");
  Coo OffDiag(Dims), Diag(Dims);
  forEach([&](const std::vector<int64_t> &Coords, double V) {
    if (Sym.isOnDiagonal(Coords))
      Diag.add(Coords, V);
    else
      OffDiag.add(Coords, V);
  });
  return {fromCoo(std::move(OffDiag), Format, Fill),
          fromCoo(std::move(Diag), Format, Fill)};
}

double Tensor::maxAbsDiff(const Tensor &A, const Tensor &B) {
  assert(A.dims() == B.dims() && "shape mismatch");
  double Max = 0;
  A.forEach([&](const std::vector<int64_t> &Coords, double V) {
    Max = std::max(Max, std::fabs(V - B.at(Coords)));
  });
  B.forEach([&](const std::vector<int64_t> &Coords, double V) {
    Max = std::max(Max, std::fabs(V - A.at(Coords)));
  });
  return Max;
}

ReplicateLayout ReplicateLayout::build(const std::vector<int64_t> &Dims,
                                       const Partition &Sym) {
  assert(Sym.order() == Dims.size() && "partition order mismatch");
  ReplicateLayout L;
  L.Dims = Dims;
  L.Stride.resize(Dims.size());
  int64_t Cells = 1;
  for (size_t M = 0; M < Dims.size(); ++M) {
    L.Stride[M] = Cells;
    Cells *= Dims[M];
  }
  if (Cells == 0)
    return L;
  std::vector<bool> InSymPart(Dims.size(), false);
  for (const std::vector<unsigned> &Part : Sym.parts()) {
    if (Part.size() < 2)
      continue;
    for (unsigned M : Part) {
      assert(Dims[M] == Dims[Part[0]] && "symmetric modes differ in extent");
      InSymPart[M] = true;
    }
    L.SymParts.push_back(Part);
  }
  if (L.SymParts.empty())
    return L;
  // Parts are sorted by their lowest mode, so the first symmetric part
  // holds the lowest symmetric mode.
  L.RunMode = L.SymParts[0][0];
  for (unsigned M = L.RunMode + 1; M < Dims.size(); ++M)
    if (!InSymPart[M])
      L.FreeModes.push_back(M);
  const unsigned Outer = static_cast<unsigned>(Dims.size()) - 1;
  for (const std::vector<unsigned> &Part : L.SymParts)
    if (Part.size() == 2 && Part.back() == Outer)
      L.OuterTriDepth = -1;
  return L;
}

namespace {

/// Insertion sort for the few coordinates of one part.
void sortSmall(int64_t *V, size_t N) {
  for (size_t I = 1; I < N; ++I)
    for (size_t J = I; J > 0 && V[J - 1] > V[J]; --J)
      std::swap(V[J - 1], V[J]);
}

/// Copies \p Count cells of \p Block values: destination cells are
/// contiguous from \p Dst, source cells start \p SrcStride apart.
void copyRun(const double *Src, double *Dst, int64_t Count,
             int64_t SrcStride, int64_t Block) {
  if (SrcStride == Block)
    std::copy_n(Src, Count * Block, Dst);
  else if (Block == 1)
    for (int64_t I = 0; I < Count; ++I)
      Dst[I] = Src[I * SrcStride];
  else
    for (int64_t I = 0; I < Count; ++I)
      std::copy_n(Src + I * SrcStride, Block, Dst + I * Block);
}

/// Replicates every non-canonical cell whose outermost-mode coordinate
/// lies in [Lo, Hi]: an odometer over the modes above the run mode,
/// outermost first, and per odometer step one copy run per rank
/// segment of the run mode. Writes stay inside the slab of those outer
/// coordinates and reads touch only canonical cells, so disjoint
/// ranges never conflict. Returns the number of values copied.
uint64_t replicateSlab(double *V, const ReplicateLayout &L, int64_t Lo,
                       int64_t Hi) {
  const unsigned N = static_cast<unsigned>(L.Dims.size());
  const unsigned Outer = N - 1, Run = L.RunMode;
  const std::vector<unsigned> &RunPart = L.SymParts.front();
  const size_t K = RunPart.size();
  const int64_t RunDim = L.Dims[Run], Block = L.Stride[Run];
  std::vector<int64_t> C(N, 0), Sorted(N);
  uint64_t Copies = 0;
  C[Outer] = Lo;
  for (;;) {
    // Destination base, and the canonical source base contributed by
    // every mode outside the run part.
    int64_t Dst = 0, Src = 0;
    for (unsigned M = Run + 1; M < N; ++M)
      Dst += C[M] * L.Stride[M];
    for (unsigned M : L.FreeModes)
      Src += C[M] * L.Stride[M];
    bool OuterCanonical = true;
    for (size_t P = 1; P < L.SymParts.size(); ++P) {
      const std::vector<unsigned> &Part = L.SymParts[P];
      for (size_t I = 0; I < Part.size(); ++I)
        Sorted[I] = C[Part[I]];
      OuterCanonical &= std::is_sorted(Sorted.begin(),
                                       Sorted.begin() + Part.size());
      sortSmall(Sorted.data(), Part.size());
      for (size_t I = 0; I < Part.size(); ++I)
        Src += Sorted[I] * L.Stride[Part[I]];
    }
    // The run part's other coordinates, sorted. A run coordinate in
    // (Sorted[R-1], Sorted[R]] takes rank R in its canonical tuple, so
    // its source is linear in it with stride Stride[RunPart[R]]. Rank 0
    // is canonical exactly when everything above is.
    for (size_t I = 1; I < K; ++I)
      Sorted[I - 1] = C[RunPart[I]];
    OuterCanonical &= std::is_sorted(Sorted.begin(), Sorted.begin() + K - 1);
    sortSmall(Sorted.data(), K - 1);
    int64_t SegLo = 0;
    for (size_t R = 0; R < K; ++R) {
      const int64_t SegHi = R + 1 < K ? Sorted[R] : RunDim - 1;
      if (SegHi >= SegLo && (R > 0 || !OuterCanonical)) {
        int64_t SegSrc = Src;
        for (size_t J = 0; J + 1 < K; ++J)
          SegSrc += Sorted[J] * L.Stride[RunPart[J < R ? J : J + 1]];
        const int64_t SrcStride = L.Stride[RunPart[R]];
        copyRun(V + SegSrc + SegLo * SrcStride, V + Dst + SegLo * Block,
                SegHi - SegLo + 1, SrcStride, Block);
        Copies += static_cast<uint64_t>((SegHi - SegLo + 1) * Block);
      }
      SegLo = std::max(SegLo, SegHi + 1);
    }
    // Advance the odometer, innermost outer mode first.
    for (unsigned M = Run + 1;; ++M) {
      if (M == Outer) {
        if (++C[M] > Hi)
          return Copies;
        break;
      }
      if (++C[M] < L.Dims[M])
        break;
      C[M] = 0;
    }
  }
}

} // namespace

uint64_t replicateSymmetric(Tensor &T, const ReplicateLayout &Layout,
                            unsigned Threads) {
  assert(T.format().isAllDense() && "replication needs a dense tensor");
  assert(T.dims() == Layout.Dims && "layout built for other dims");
  if (Layout.empty())
    return 0;
  double *V = T.valsData();
  const int64_t OuterDim = Layout.Dims.back();
  if (Threads <= 1 || OuterDim < 2)
    return replicateSlab(V, Layout, 0, OuterDim - 1);
  // Each task owns a slab of the outermost storage mode. Chunks are
  // balanced on the non-canonical work under each coordinate; copy
  // counts sum to the sequential total.
  std::vector<ChunkRange> Chunks =
      triangleBalanced(0, OuterDim - 1, Threads, Layout.OuterTriDepth);
  std::vector<uint64_t> Counts(Chunks.size(), 0);
  ThreadPool::global().parallelFor(
      static_cast<unsigned>(Chunks.size()), [&](unsigned I) {
        Counts[I] = replicateSlab(V, Layout, Chunks[I].Lo, Chunks[I].Hi);
      });
  uint64_t Copies = 0;
  for (uint64_t C : Counts)
    Copies += C;
  return Copies;
}

uint64_t replicateSymmetric(Tensor &T, const Partition &Sym,
                            unsigned Threads) {
  return replicateSymmetric(T, ReplicateLayout::build(T.dims(), Sym),
                            Threads);
}

std::string Tensor::summary() const {
  std::ostringstream OS;
  OS << order() << "-d ";
  for (unsigned M = 0; M < order(); ++M) {
    if (M)
      OS << "x";
    OS << Dims[M];
  }
  OS << ", " << Vals.size() << " stored, " << Format.str();
  return OS.str();
}

} // namespace systec
