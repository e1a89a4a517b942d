//===- tests/FaultInjection.h - Tensor corruption harness -----*- C++ -*-===//
///
/// \file
/// Structured corruption of otherwise-valid tensors, for the
/// fault-injection tests (tests/fault_test.cpp): each Fault is one
/// class of level-array damage a buggy producer or bit flip could
/// introduce, applied in place through Tensor::mutableLevel. The
/// contract under test is that Tensor::validate(Deep) rejects every
/// corrupted tensor with ErrCode::InvalidTensor — and therefore that an
/// Executor with ValidateInputs=Deep refuses to run over it — without
/// aborting, crashing, or tripping a sanitizer. See docs/ROBUSTNESS.md
/// for the corpus format. Also holds the helpers the cancellation tests
/// use to stop a run from outside while it executes.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_TESTS_FAULTINJECTION_H
#define SYSTEC_TESTS_FAULTINJECTION_H

#include "support/Status.h"
#include "tensor/Tensor.h"

#include <chrono>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace systec {
namespace fault {

enum class Fault {
  PtrNonMonotone,  ///< interior Ptr above its successor (Sparse/RunLength)
  PtrOutOfRange,   ///< Ptr endpoint past the Crd/RunEnd array
  CrdUnsorted,     ///< two coordinates of one fiber swapped
  CrdOutOfRange,   ///< a coordinate set to the level extent
  ValsTruncated,   ///< value array one element short
  BandInverted,    ///< a Banded interval with Lo > Hi
  BandOffsetSkew,  ///< interior Off no longer matching the band widths
  RunEndShort,     ///< last run end pulled below the extent (coverage gap)
  RunEndUnsorted,  ///< two run ends of one fiber swapped
  NaNPoison,       ///< a NaN planted in the value array
};

inline const char *faultName(Fault F) {
  switch (F) {
  case Fault::PtrNonMonotone:
    return "ptr-non-monotone";
  case Fault::PtrOutOfRange:
    return "ptr-out-of-range";
  case Fault::CrdUnsorted:
    return "crd-unsorted";
  case Fault::CrdOutOfRange:
    return "crd-out-of-range";
  case Fault::ValsTruncated:
    return "vals-truncated";
  case Fault::BandInverted:
    return "band-inverted";
  case Fault::BandOffsetSkew:
    return "band-offset-skew";
  case Fault::RunEndShort:
    return "runend-short";
  case Fault::RunEndUnsorted:
    return "runend-unsorted";
  case Fault::NaNPoison:
    return "nan-poison";
  }
  return "unknown";
}

inline const std::vector<Fault> &allFaults() {
  static const std::vector<Fault> All = {
      Fault::PtrNonMonotone, Fault::PtrOutOfRange,  Fault::CrdUnsorted,
      Fault::CrdOutOfRange,  Fault::ValsTruncated,  Fault::BandInverted,
      Fault::BandOffsetSkew, Fault::RunEndShort,    Fault::RunEndUnsorted,
      Fault::NaNPoison,
  };
  return All;
}

/// Applies \p F to \p T in place. Returns a description of the exact
/// corruption for SCOPED_TRACE, or nullopt when the tensor offers no
/// site for this fault class (e.g. BandInverted on a CSR matrix) — the
/// caller skips those combinations and counts coverage separately.
inline std::optional<std::string> injectFault(Tensor &T, Fault F) {
  const unsigned N = T.order();
  auto LevelTag = [](unsigned L) { return "level " + std::to_string(L); };
  switch (F) {
  case Fault::PtrNonMonotone:
    for (unsigned L = 0; L < N; ++L) {
      Level &Lev = T.mutableLevel(L);
      if ((Lev.Kind == LevelKind::Sparse ||
           Lev.Kind == LevelKind::RunLength) &&
          Lev.Ptr.size() >= 3) {
        const size_t P = Lev.Ptr.size() / 2; // interior: 1..size-2
        Lev.Ptr[P] = Lev.Ptr[P + 1] + 1;
        return LevelTag(L) + " Ptr[" + std::to_string(P) +
               "] raised above its successor";
      }
    }
    return std::nullopt;
  case Fault::PtrOutOfRange:
    for (unsigned L = 0; L < N; ++L) {
      Level &Lev = T.mutableLevel(L);
      if ((Lev.Kind == LevelKind::Sparse ||
           Lev.Kind == LevelKind::RunLength) &&
          !Lev.Ptr.empty()) {
        Lev.Ptr.back() += 1;
        return LevelTag(L) + " Ptr endpoint pushed past the child array";
      }
    }
    return std::nullopt;
  case Fault::CrdUnsorted:
    for (unsigned L = 0; L < N; ++L) {
      Level &Lev = T.mutableLevel(L);
      if (Lev.Kind != LevelKind::Sparse)
        continue;
      for (size_t P = 0; P + 1 < Lev.Ptr.size(); ++P)
        if (Lev.Ptr[P + 1] - Lev.Ptr[P] >= 2) {
          std::swap(Lev.Crd[Lev.Ptr[P]], Lev.Crd[Lev.Ptr[P] + 1]);
          return LevelTag(L) + " coordinates of fiber " + std::to_string(P) +
                 " swapped";
        }
    }
    return std::nullopt;
  case Fault::CrdOutOfRange:
    for (unsigned L = 0; L < N; ++L) {
      Level &Lev = T.mutableLevel(L);
      if (Lev.Kind == LevelKind::Sparse && !Lev.Crd.empty()) {
        Lev.Crd.back() = Lev.Dim; // one past the valid range
        return LevelTag(L) + " last coordinate set to the extent " +
               std::to_string(Lev.Dim);
      }
    }
    return std::nullopt;
  case Fault::ValsTruncated:
    if (T.vals().empty())
      return std::nullopt;
    T.vals().pop_back();
    return "value array truncated by one element";
  case Fault::BandInverted:
    for (unsigned L = 0; L < N; ++L) {
      Level &Lev = T.mutableLevel(L);
      if (Lev.Kind != LevelKind::Banded)
        continue;
      for (size_t P = 0; P < Lev.Lo.size(); ++P)
        if (Lev.Hi[P] > Lev.Lo[P]) {
          std::swap(Lev.Lo[P], Lev.Hi[P]);
          return LevelTag(L) + " interval at position " + std::to_string(P) +
                 " inverted";
        }
    }
    return std::nullopt;
  case Fault::BandOffsetSkew:
    for (unsigned L = 0; L < N; ++L) {
      Level &Lev = T.mutableLevel(L);
      if (Lev.Kind == LevelKind::Banded && Lev.Off.size() >= 3) {
        const size_t P = Lev.Off.size() / 2; // interior: back() untouched
        Lev.Off[P] += 1;
        return LevelTag(L) + " Off[" + std::to_string(P) +
               "] skewed off the band widths";
      }
    }
    return std::nullopt;
  case Fault::RunEndShort:
    for (unsigned L = 0; L < N; ++L) {
      Level &Lev = T.mutableLevel(L);
      if (Lev.Kind == LevelKind::RunLength && !Lev.RunEnd.empty() &&
          Lev.Dim > 0) {
        Lev.RunEnd.back() -= 1; // last fiber no longer tiles [0, Dim)
        return LevelTag(L) + " last run end pulled below the extent";
      }
    }
    return std::nullopt;
  case Fault::RunEndUnsorted:
    for (unsigned L = 0; L < N; ++L) {
      Level &Lev = T.mutableLevel(L);
      if (Lev.Kind != LevelKind::RunLength)
        continue;
      for (size_t P = 0; P + 1 < Lev.Ptr.size(); ++P)
        if (Lev.Ptr[P + 1] - Lev.Ptr[P] >= 2) {
          std::swap(Lev.RunEnd[Lev.Ptr[P]], Lev.RunEnd[Lev.Ptr[P] + 1]);
          return LevelTag(L) + " run ends of fiber " + std::to_string(P) +
                 " swapped";
        }
    }
    return std::nullopt;
  case Fault::NaNPoison:
    if (T.vals().empty())
      return std::nullopt;
    T.vals()[T.vals().size() / 2] =
        std::numeric_limits<double>::quiet_NaN();
    return "NaN planted mid value array";
  }
  return std::nullopt;
}

/// Cancels \p Tok from a helper thread once \p Delay has passed — the
/// mid-run stop for cancellation tests (armed at a fraction of an
/// uncontrolled run's time, so the cancel lands while tasks are
/// writing). The destructor joins, so the token is never touched after
/// the scope ends.
class ScopedCancelAfter {
public:
  ScopedCancelAfter(CancelToken &Tok, std::chrono::microseconds Delay)
      : Th([&Tok, Delay] {
          std::this_thread::sleep_for(Delay);
          Tok.cancel();
        }) {}
  ~ScopedCancelAfter() { Th.join(); }
  ScopedCancelAfter(const ScopedCancelAfter &) = delete;
  ScopedCancelAfter &operator=(const ScopedCancelAfter &) = delete;

private:
  std::thread Th;
};

} // namespace fault
} // namespace systec

#endif // SYSTEC_TESTS_FAULTINJECTION_H
