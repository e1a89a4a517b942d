//===- perfbench/src/Cases.h - Paper kernels with references --*- C++ -*-===//
///
/// \file
/// One benchmark case: a paper kernel's einsum, its seeded inputs from
/// src/data/Generators, and the reference output computed by the
/// matching hand-written loop in src/baselines (which shares no code
/// with the compiler). Every output the library produces is checked
/// against that reference.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CASES_H
#define PERFBENCH_CASES_H

#include "ir/Einsum.h"
#include "support/Random.h"
#include "tensor/Tensor.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Input size of one case: matrix/tensor extent, canonical nonzeros
/// (for symmetric operands; plain nonzeros for ssyrk's unsymmetric A),
/// and dense factor rank where the kernel has one.
struct CaseSize {
  int64_t N = 0;
  int64_t Nnz = 0;
  int64_t Rank = 0;
};

struct Case {
  std::string Kernel; ///< ssymv, bellmanford, syprd, ssyrk, ttm, mttkrp3
  systec::Einsum E;
  std::map<std::string, systec::Tensor> Inputs;
  std::string OutName;
  std::vector<int64_t> OutDims;
  double OutFill = 0.0;
  /// The src/baselines result over the same inputs.
  systec::Tensor Ref;
  /// Bellman-Ford's min-plus result is order-independent and must match
  /// bit for bit; the sum-of-products kernels differ from the reference
  /// by floating-point fold order only.
  bool Exact = false;

  systec::Tensor freshOutput() const {
    return systec::Tensor::dense(OutDims, OutFill);
  }
  /// Name -> tensor bindings for one run writing into \p Out.
  std::map<std::string, systec::Tensor *> bindings(systec::Tensor &Out);
  /// Bytes of all dense inputs (read at least once per run).
  double denseInputBytes() const;
  /// Stored bytes of every operand, inputs and output, values plus
  /// coordinate/pointer arrays.
  double operandMiB() const;
};

/// Builds \p Kernel's case at size \p S, drawing every input from \p R.
std::unique_ptr<Case> makeCase(const std::string &Kernel, const CaseSize &S,
                               systec::Rng &R);

/// True when \p Out equals the case's reference (exactly for
/// Bellman-Ford, else within a fold-order tolerance relative to the
/// reference's magnitude).
bool matchesReference(const Case &C, const systec::Tensor &Out);

/// Changes one output value so that matchesReference must reject it
/// (the verification self-check). \p Salt picks the position.
void corrupt(systec::Tensor &Out, uint64_t Salt);

/// The verification self-check every run makes before it measures:
/// true when matchesReference rejects a corrupted copy of the case's
/// reference (reported on stderr otherwise).
bool checkerRejectsCorruption(const Case &C, uint64_t Salt);

} // namespace perfbench

#endif // PERFBENCH_CASES_H
