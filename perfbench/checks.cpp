#include "checks.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "la/rand.h"

namespace perfbench {

namespace la = rgml::la;

namespace {

std::string fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

double norm2(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

}  // namespace

double linregNormalResidual(const rgml::apps::LinRegConfig& cfg, int places,
                            const std::vector<double>& w) {
  const long n = cfg.features;
  const long m = cfg.rowsPerPlace * places;
  if (static_cast<long>(w.size()) != n) return INFINITY;
  // g = X'(X w) + lambda w - X'y, one regenerated row of X at a time.
  std::vector<double> g(static_cast<std::size_t>(n), 0.0);
  std::vector<double> xty(static_cast<std::size_t>(n), 0.0);
  std::vector<double> row(static_cast<std::size_t>(n));
  for (long i = 0; i < m; ++i) {
    double xw = 0.0;
    for (long j = 0; j < n; ++j) {
      const double x = la::hashedUniform(
          cfg.seed, static_cast<std::uint64_t>(i * n + j));
      row[static_cast<std::size_t>(j)] = x;
      xw += x * w[static_cast<std::size_t>(j)];
    }
    const double y =
        la::hashedUniform(cfg.seed + 1, static_cast<std::uint64_t>(i));
    for (long j = 0; j < n; ++j) {
      g[static_cast<std::size_t>(j)] += row[static_cast<std::size_t>(j)] * xw;
      xty[static_cast<std::size_t>(j)] += row[static_cast<std::size_t>(j)] * y;
    }
  }
  for (long j = 0; j < n; ++j) {
    g[static_cast<std::size_t>(j)] +=
        cfg.lambda * w[static_cast<std::size_t>(j)] -
        xty[static_cast<std::size_t>(j)];
  }
  return norm2(g) / norm2(xty);
}

std::string checkLinReg(const rgml::apps::LinRegConfig& cfg, int places,
                        const std::vector<double>& w,
                        const std::vector<double>& failureFree) {
  const double res = linregNormalResidual(cfg, places, w);
  if (!(res < kLinRegNormalTol)) {
    return fmt("linreg: normal-equation residual %.3g >= %.1g", res,
               kLinRegNormalTol);
  }
  if (w.size() != failureFree.size()) {
    return "linreg: weights differ in length from the failure-free run";
  }
  std::vector<double> d(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) d[i] = w[i] - failureFree[i];
  const double rel = norm2(d) / norm2(failureFree);
  if (!(rel < kLinRegEqualTol)) {
    return fmt("linreg: weights differ from the failure-free run by %.3g "
               ">= %.1g",
               rel, kLinRegEqualTol);
  }
  return {};
}

std::vector<double> pagerankReference(const la::SparseCSR& graph,
                                      double alpha, long iterations) {
  const long n = graph.rows();
  std::vector<double> p(static_cast<std::size_t>(n),
                        1.0 / static_cast<double>(n));
  std::vector<double> gp(p.size());
  const auto& rowPtr = graph.rowPtr();
  const auto& colIdx = graph.colIdx();
  const auto& values = graph.values();
  for (long it = 0; it < iterations; ++it) {
    double total = 0.0;
    for (double x : p) total += x;
    const double teleport = (1.0 - alpha) * total / static_cast<double>(n);
    for (long i = 0; i < n; ++i) {
      double acc = 0.0;
      for (long k = rowPtr[static_cast<std::size_t>(i)];
           k < rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
        acc += values[static_cast<std::size_t>(k)] *
               p[static_cast<std::size_t>(colIdx[static_cast<std::size_t>(k)])];
      }
      gp[static_cast<std::size_t>(i)] = alpha * acc + teleport;
    }
    p.swap(gp);
  }
  return p;
}

std::string checkStochastic(const la::SparseCSR& graph) {
  if (graph.rows() != graph.cols() || graph.rows() == 0) {
    return "pagerank: gathered graph is not square";
  }
  std::vector<double> colSum(static_cast<std::size_t>(graph.cols()), 0.0);
  for (std::size_t k = 0; k < graph.values().size(); ++k) {
    if (!(graph.values()[k] >= 0.0)) return "pagerank: negative link weight";
    colSum[static_cast<std::size_t>(graph.colIdx()[k])] += graph.values()[k];
  }
  for (std::size_t j = 0; j < colSum.size(); ++j) {
    if (!(std::abs(colSum[j] - 1.0) <= kStochasticTol)) {
      return fmt("pagerank: column %.0f of the graph sums to %.17g",
                 static_cast<double>(j), colSum[j]);
    }
  }
  return {};
}

std::string checkPageRank(const std::vector<double>& ranks,
                          const std::vector<double>& reference) {
  if (ranks.size() != reference.size()) {
    return "pagerank: rank vector differs in length from the reference";
  }
  double total = 0.0;
  double l1 = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (!(ranks[i] >= 0.0)) {
      return fmt("pagerank: rank %.0f is negative (%.3g)",
                 static_cast<double>(i), ranks[i]);
    }
    total += ranks[i];
    l1 += std::abs(ranks[i] - reference[i]);
  }
  if (!(std::abs(total - 1.0) <= kRankSumTol)) {
    return fmt("pagerank: ranks sum to %.17g (tolerance %.1g)", total,
               kRankSumTol);
  }
  if (!(l1 <= kRankL1Tol)) {
    return fmt("pagerank: L1 distance %.3g to the power iteration > %.1g",
               l1, kRankL1Tol);
  }
  return {};
}

double gmresResidual(const la::SparseCSR& A, const std::vector<double>& b,
                     const std::vector<double>& x) {
  if (static_cast<long>(b.size()) != A.rows() ||
      static_cast<long>(x.size()) != A.cols()) {
    return INFINITY;
  }
  std::vector<double> r(b);
  for (long i = 0; i < A.rows(); ++i) {
    for (long k = A.rowPtr()[static_cast<std::size_t>(i)];
         k < A.rowPtr()[static_cast<std::size_t>(i) + 1]; ++k) {
      r[static_cast<std::size_t>(i)] -=
          A.values()[static_cast<std::size_t>(k)] *
          x[static_cast<std::size_t>(A.colIdx()[static_cast<std::size_t>(k)])];
    }
  }
  return norm2(r) / norm2(b);
}

std::string checkGmres(const la::SparseCSR& A, const std::vector<double>& b,
                       const std::vector<double>& x) {
  const double res = gmresResidual(A, b, x);
  if (!(res < kGmresTol)) {
    return fmt("gmres: ||b - Ax||/||b|| = %.3g >= %.1g", res, kGmresTol);
  }
  return {};
}

std::string checkSteps(const Workload& w, const RoundResult& r) {
  const bool killed = w.killIter > 0;
  const long rolledBack = killed ? w.rolledBackSteps() : 0;
  const long expected = w.iterations + rolledBack;
  if (r.stepsExecuted() != expected || r.run.stepsExecuted != expected) {
    return fmt("steps executed %.0f, expected iterations + rolled back = "
               "%.0f",
               static_cast<double>(r.stepsExecuted()),
               static_cast<double>(expected));
  }
  if (static_cast<long>(r.reexecStepS.size()) != rolledBack) {
    return fmt("%.0f steps re-executed, the rollback implies %.0f",
               static_cast<double>(r.reexecStepS.size()),
               static_cast<double>(rolledBack));
  }
  if (r.run.iterationsCompleted != w.iterations) {
    return "run stopped short of its iterations";
  }
  if (r.run.failuresHandled != (killed ? 1 : 0)) {
    return fmt("%.0f failures handled, %.0f injected",
               static_cast<double>(r.run.failuresHandled), killed ? 1.0 : 0.0);
  }
  if (killed && r.run.lastRestoredTo != w.killIter - rolledBack) {
    return fmt("resumed at iteration %.0f, expected %.0f",
               static_cast<double>(r.run.lastRestoredTo),
               static_cast<double>(w.killIter - rolledBack));
  }
  return {};
}

std::string checkRestore(const std::vector<double>& atResume,
                         const std::vector<double>& restored) {
  if (atResume.empty()) return "restore: no state copied at the resume step";
  if (restored.size() != atResume.size()) {
    return "restore: restored state differs in length from the resume step";
  }
  for (std::size_t i = 0; i < restored.size(); ++i) {
    // Bitwise: a restore copies, so even -0.0 for 0.0 is a fault.
    if (std::memcmp(&restored[i], &atResume[i], sizeof(double)) != 0) {
      return fmt("restore: state entry %.0f is %.17g, not the resume "
                 "step's bits",
                 static_cast<double>(i), restored[i]);
    }
  }
  return {};
}

std::string checkReplicaBytes(std::uint64_t replicaBytes,
                              std::uint64_t freshBytes, int replication) {
  const std::uint64_t expected =
      static_cast<std::uint64_t>(replication - 1) * freshBytes;
  if (replicaBytes != expected || freshBytes == 0) {
    return fmt("replica bytes %.0f, expected (k-1) x fresh = %.0f",
               static_cast<double>(replicaBytes),
               static_cast<double>(expected));
  }
  return {};
}

std::string checkRound(const Workload& w, const RoundResult& r,
                       const std::vector<double>& reference) {
  std::string why = checkSteps(w, r);
  if (why.empty() && w.killIter > 0) {
    why = checkRestore(r.stateAtResume, r.stateRestored);
  }
  if (!why.empty()) return why;
  switch (w.kind) {
    case Kind::LinRegDense:
      return checkLinReg(w.linreg, w.places, r.out.solution, reference);
    case Kind::PageRankRebalance:
      why = checkStochastic(r.out.matrix);
      return why.empty() ? checkPageRank(r.out.solution, reference) : why;
    case Kind::GmresFine:
      return checkGmres(r.out.matrix, r.out.rhs, r.out.solution);
  }
  return "unknown workload kind";
}

}  // namespace perfbench
