//===- perfbench/src/Cases.cpp - Paper kernels with references ------------===//

#include "Cases.h"

#include "baselines/Baselines.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace systec;

namespace perfbench {

std::map<std::string, Tensor *> Case::bindings(Tensor &Out) {
  std::map<std::string, Tensor *> B;
  for (auto &[Name, T] : Inputs)
    B[Name] = &T;
  B[OutName] = &Out;
  return B;
}

double Case::denseInputBytes() const {
  double Bytes = 0;
  for (const auto &[Name, T] : Inputs)
    if (T.format().isAllDense())
      Bytes += double(T.storedCount()) * sizeof(double);
  return Bytes;
}

namespace {

double storedBytes(const Tensor &T) {
  double Words = double(T.storedCount());
  for (unsigned L = 0; L < T.order(); ++L) {
    const Level &Lv = T.level(L);
    Words += double(Lv.Ptr.size() + Lv.Crd.size() + Lv.RunEnd.size() +
                    Lv.Lo.size() + Lv.Hi.size() + Lv.Off.size());
  }
  return Words * 8;
}

} // namespace

double Case::operandMiB() const {
  double Bytes = 0;
  for (const auto &[Name, T] : Inputs)
    Bytes += storedBytes(T);
  Bytes += double(Ref.storedCount()) * sizeof(double); // the output
  return Bytes / double(1 << 20);
}

std::unique_ptr<Case> makeCase(const std::string &Kernel, const CaseSize &S,
                               Rng &R) {
  const double Inf = std::numeric_limits<double>::infinity();
  auto C = std::make_unique<Case>();
  C->Kernel = Kernel;
  auto &In = C->Inputs;
  if (Kernel == "ssymv" || Kernel == "syprd" || Kernel == "bellmanford") {
    const bool MinPlus = Kernel == "bellmanford";
    In.emplace("A", generateSymmetricTensor(2, S.N, S.Nnz, R,
                                            TensorFormat::csf(2),
                                            MinPlus ? Inf : 0.0));
    In.emplace(MinPlus ? "d" : "x", generateDenseVector(S.N, R));
    if (Kernel == "ssymv") {
      C->E = makeSsymv();
      C->OutDims = {S.N};
      C->Ref = Tensor::dense(C->OutDims);
      tacoSpmv(In.at("A"), In.at("x"), C->Ref);
    } else if (Kernel == "syprd") {
      C->E = makeSyprd();
      C->OutDims = {1};
      C->Ref = Tensor::dense(C->OutDims);
      C->Ref.vals()[0] = tacoSyprd(In.at("A"), In.at("x"));
    } else {
      C->E = makeBellmanFord();
      C->OutDims = {S.N};
      C->OutFill = Inf;
      C->Exact = true;
      C->Ref = Tensor::dense(C->OutDims, Inf);
      tacoBellmanFord(In.at("A"), In.at("d"), C->Ref);
    }
  } else if (Kernel == "ssyrk") {
    C->E = makeSsyrk();
    In.emplace("A", generateSparseMatrix(S.N, S.N, S.Nnz, R,
                                         TensorFormat::csf(2)));
    C->OutDims = {S.N, S.N};
    C->Ref = Tensor::dense(C->OutDims);
    tacoSsyrk(In.at("A"), C->Ref);
  } else if (Kernel == "ttm" || Kernel == "mttkrp3") {
    In.emplace("A", generateSymmetricTensor(3, S.N, S.Nnz, R,
                                            TensorFormat::csf(3)));
    In.emplace("B", generateDenseMatrix(S.N, S.Rank, R));
    if (Kernel == "ttm") {
      C->E = makeTtm();
      C->OutDims = {S.Rank, S.N, S.N};
      C->Ref = Tensor::dense(C->OutDims);
      tacoTtm(In.at("A"), In.at("B"), C->Ref);
    } else {
      C->E = makeMttkrp(3);
      C->OutDims = {S.N, S.Rank};
      C->Ref = Tensor::dense(C->OutDims);
      tacoMttkrp3(In.at("A"), In.at("B"), C->Ref);
    }
  } else {
    std::fprintf(stderr, "unknown kernel '%s'\n", Kernel.c_str());
    std::exit(2);
  }
  C->OutName = C->E.Output->tensorName();
  return C;
}

bool matchesReference(const Case &C, const Tensor &Out) {
  const std::vector<double> &Got = Out.vals(), &Want = C.Ref.vals();
  if (Out.dims() != C.Ref.dims() || Got.size() != Want.size())
    return false;
  if (C.Exact) {
    for (size_t I = 0; I < Got.size(); ++I)
      if (!(Got[I] == Want[I]))
        return false;
    return true;
  }
  double Scale = 1.0;
  for (double W : Want)
    Scale = std::max(Scale, std::fabs(W));
  // Reassociating a sum of n products moves it by a few ulps of the
  // largest partial sum per term; 1e-9 relative to the output's
  // magnitude is far above that and far below any real defect.
  const double Tol = 1e-9 * Scale;
  for (size_t I = 0; I < Got.size(); ++I)
    if (!(std::fabs(Got[I] - Want[I]) <= Tol))
      return false;
  return true;
}

void corrupt(Tensor &Out, uint64_t Salt) {
  std::vector<double> &V = Out.vals();
  double &X = V[Salt % V.size()];
  X = std::isfinite(X) ? X + 1.0 : 0.0;
}

bool checkerRejectsCorruption(const Case &C, uint64_t Salt) {
  Tensor Bad = C.Ref;
  corrupt(Bad, Salt);
  if (!matchesReference(C, Bad))
    return true;
  std::fprintf(stderr, "%s: checker accepted a corrupted output\n",
               C.Kernel.c_str());
  return false;
}

} // namespace perfbench
