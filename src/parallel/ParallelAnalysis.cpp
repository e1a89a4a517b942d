//===- parallel/ParallelAnalysis.cpp --------------------------*- C++ -*-===//

#include "parallel/ParallelAnalysis.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <set>

namespace systec {

namespace {

/// Everything the classifier needs about one loop body.
struct BodyFacts {
  std::string Var;
  /// Tensor name -> one record per assignment.
  struct TensorWrite {
    uint64_t VarModes; ///< bit m: index m of the target is Var
    std::optional<OpKind> Reduce;
  };
  std::map<std::string, std::vector<TensorWrite>> TensorWrites;
  std::map<std::string, std::vector<std::optional<OpKind>>> ScalarWrites;
  std::set<std::string> ScalarDefs;   ///< DefScalar inside the body
  std::set<std::string> TensorReads;  ///< names read on any RHS
  std::set<std::string> ScalarReads;  ///< names read on any RHS
  std::set<std::string> InnerLoopVars;
  std::vector<CmpAtom> OrderAtoms;    ///< a <= b atoms from conditions
  bool SawReplicate = false;
};

void collectScalarReads(const ExprPtr &E, std::set<std::string> &Out) {
  switch (E->kind()) {
  case ExprKind::Scalar:
    Out.insert(E->scalarName());
    return;
  case ExprKind::Call:
    for (const ExprPtr &A : E->args())
      collectScalarReads(A, Out);
    return;
  default:
    return;
  }
}

void collectRhs(const ExprPtr &Rhs, BodyFacts &F) {
  std::vector<ExprPtr> Accesses;
  Expr::collectAccesses(Rhs, Accesses);
  for (const ExprPtr &A : Accesses)
    F.TensorReads.insert(A->tensorName());
  collectScalarReads(Rhs, F.ScalarReads);
}

void collectAtoms(const Cond &C, BodyFacts &F) {
  for (const Conj &D : C.disjuncts())
    for (const CmpAtom &A : D.Atoms) {
      CmpAtom Norm = A;
      if (Norm.Kind == CmpKind::GT || Norm.Kind == CmpKind::GE) {
        std::swap(Norm.Lhs, Norm.Rhs);
        Norm.Kind = Norm.Kind == CmpKind::GT ? CmpKind::LT : CmpKind::LE;
      }
      if (Norm.Kind == CmpKind::LT || Norm.Kind == CmpKind::LE)
        F.OrderAtoms.push_back(Norm);
    }
}

void collectBody(const StmtPtr &S, BodyFacts &F) {
  switch (S->kind()) {
  case StmtKind::Block:
    for (const StmtPtr &C : S->stmts())
      collectBody(C, F);
    return;
  case StmtKind::Loop:
    F.InnerLoopVars.insert(S->loopIndex());
    collectBody(S->body(), F);
    return;
  case StmtKind::If:
    collectAtoms(S->condition(), F);
    collectBody(S->body(), F);
    return;
  case StmtKind::DefScalar:
    F.ScalarDefs.insert(S->scalarName());
    collectRhs(S->rhs(), F);
    return;
  case StmtKind::Assign: {
    collectRhs(S->rhs(), F);
    const ExprPtr &Lhs = S->lhs();
    if (Lhs->kind() == ExprKind::Scalar) {
      F.ScalarWrites[Lhs->scalarName()].push_back(S->reduceOp());
    } else {
      const std::vector<std::string> &Idx = Lhs->indices();
      uint64_t Modes = 0;
      for (size_t M = 0; M < Idx.size() && M < 64; ++M)
        if (Idx[M] == F.Var)
          Modes |= uint64_t(1) << M;
      F.TensorWrites[Lhs->tensorName()].push_back(
          BodyFacts::TensorWrite{Modes, S->reduceOp()});
    }
    return;
  }
  case StmtKind::Replicate:
    F.SawReplicate = true;
    return;
  }
}

/// Distinct variables transitively ordered below/above \p Var through
/// the collected a <= b atoms, restricted to \p Allowed.
unsigned reachCount(const std::vector<CmpAtom> &Atoms,
                    const std::string &Var,
                    const std::set<std::string> &Allowed, bool Below) {
  std::set<std::string> Seen{Var};
  std::vector<std::string> Work{Var};
  while (!Work.empty()) {
    std::string Cur = Work.back();
    Work.pop_back();
    for (const CmpAtom &A : Atoms) {
      const std::string &From = Below ? A.Rhs : A.Lhs;
      const std::string &To = Below ? A.Lhs : A.Rhs;
      if (From == Cur && Seen.insert(To).second)
        Work.push_back(To);
    }
  }
  unsigned N = 0;
  for (const std::string &V : Seen)
    if (V != Var && Allowed.count(V))
      ++N;
  return N;
}

/// The nearest loop under \p S through guards and one-statement
/// blocks, or null when the spine branches or holds anything else.
StmtPtr spineLoop(StmtPtr S) {
  for (;;) {
    switch (S->kind()) {
    case StmtKind::Loop:
      return S;
    case StmtKind::If:
      S = S->body();
      break;
    case StmtKind::Block:
      if (S->stmts().size() != 1)
        return nullptr;
      S = S->stmts()[0];
      break;
    default:
      return nullptr;
    }
  }
}

} // namespace

LoopParallelism analyzeLoopParallelism(const StmtPtr &Loop,
                                       bool WithPartition) {
  assert(Loop->kind() == StmtKind::Loop && "expects a loop");
  LoopParallelism LP;
  BodyFacts F;
  F.Var = Loop->loopIndex();
  collectBody(Loop->body(), F);

  if (F.SawReplicate)
    return LP; // replication touches the whole output; keep sequential

  // Tensor targets.
  for (const auto &[Name, Writes] : F.TensorWrites) {
    // Disjoint needs Var in one fixed mode of every write: C[i,j] and
    // C[j,i] under a parallel j both carry j, yet two iterations would
    // both write C[a,b].
    uint64_t CommonModes = ~uint64_t(0);
    bool AllReduce = true;
    std::optional<OpKind> Op;
    bool OpConsistent = true;
    for (const BodyFacts::TensorWrite &W : Writes) {
      CommonModes &= W.VarModes;
      if (!W.Reduce) {
        AllReduce = false;
      } else if (!Op) {
        Op = W.Reduce;
      } else if (*Op != *W.Reduce) {
        OpConsistent = false;
      }
    }
    if (F.TensorReads.count(Name))
      return LP; // cross-iteration read/write dependence possible
    if (CommonModes != 0) {
      LP.Tensors[Name] = WriteClass::Disjoint;
    } else if (AllReduce && OpConsistent && Op &&
               opInfo(*Op).Associative) {
      LP.Tensors[Name] = WriteClass::Reduction;
      LP.TensorMergeOps[Name] = *Op;
    } else {
      return LP; // shared overwrite or mixed-operator reduction
    }
  }

  // Scalar targets not defined in the body.
  for (const auto &[Name, Writes] : F.ScalarWrites) {
    if (F.ScalarDefs.count(Name))
      continue; // iteration-private temporary
    std::optional<OpKind> Op;
    for (const std::optional<OpKind> &W : Writes) {
      if (!W)
        return LP; // overwrite of a loop-carried scalar
      if (Op && *Op != *W)
        return LP;
      Op = W;
    }
    if (!Op || !opInfo(*Op).Associative)
      return LP;
    if (F.ScalarReads.count(Name))
      return LP; // partial sums must not be observed mid-loop
    LP.ScalarMergeOps[Name] = *Op;
  }

  // Workload shape: canonical-triangle chains below/above this loop.
  unsigned Below = reachCount(F.OrderAtoms, F.Var, F.InnerLoopVars,
                              /*Below=*/true);
  unsigned Above = reachCount(F.OrderAtoms, F.Var, F.InnerLoopVars,
                              /*Below=*/false);
  if (Below > 0 && Above == 0)
    LP.TriangleDepth = static_cast<int>(Below);
  else if (Above > 0 && Below == 0)
    LP.TriangleDepth = -static_cast<int>(Above);

  LP.Safe = true;

  // Output partitioning: a privatizing loop whose writes all sit in one
  // descendant loop whose own writes are all disjoint.
  if (WithPartition && !LP.TensorMergeOps.empty())
    if (StmtPtr D = spineLoop(Loop->body())) {
      LoopParallelism LD = analyzeLoopParallelism(D);
      if (LD.Safe && !LD.needsPrivatization()) {
        LP.PartitionVar = D->loopIndex();
        LP.PartitionTriangleDepth = LD.TriangleDepth;
      }
    }
  return LP;
}

StmtPtr annotateParallelLoops(const StmtPtr &Root) {
  switch (Root->kind()) {
  case StmtKind::Block: {
    std::vector<StmtPtr> Stmts;
    for (const StmtPtr &C : Root->stmts())
      Stmts.push_back(annotateParallelLoops(C));
    return Stmt::block(std::move(Stmts));
  }
  case StmtKind::If:
    return Stmt::ifThen(Root->condition(),
                        annotateParallelLoops(Root->body()));
  case StmtKind::Loop: {
    LoopParallelism LP = analyzeLoopParallelism(Root);
    StmtPtr L =
        Stmt::loop(Root->loopIndex(), annotateParallelLoops(Root->body()));
    if (LP.Safe)
      L = L->withParallel(
          ParallelAnnotation{true, LP.TriangleDepth});
    return L;
  }
  default:
    return Root;
  }
}

} // namespace systec
