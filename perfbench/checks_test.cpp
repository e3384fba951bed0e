// Self-test of the benchmark's output checks: each check passes on a real
// (scaled-down) resilient solve with one kill, and rejects the same
// output nudged the way a broken solver or restore would leave it.
//
//   ctest --test-dir .bench_build   (or run checks_test directly)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "checks.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void expectPass(const std::string& why, const std::string& what) {
  expect(why.empty(), what + (why.empty() ? "" : ": " + why));
}

void expectReject(const std::string& why, const std::string& what) {
  expect(!why.empty(), what + (why.empty() ? "" : " -> " + why));
}

Workload small(const std::string& name) {
  Workload w = makeWorkload(name, 5, 3);
  w.linreg.rowsPerPlace = 400;
  w.linreg.features = 40;
  w.pagerank.pagesPerPlace = 2000;
  w.gmres.nPerPlace = 60;
  return w;
}

void linreg() {
  const Workload w = small("linreg-dense");
  const RoundResult r = runRound(w, {});
  const auto ref = runRound(failureFree(w), {}).out.solution;
  expectPass(checkSteps(w, r), "linreg: steps = iterations + rolled back");
  expectPass(checkLinReg(w.linreg, w.places, r.out.solution, ref),
             "linreg: real solve satisfies the normal equations");
  auto nudged = r.out.solution;
  nudged[3] += 1e-8;
  expectReject(checkLinReg(w.linreg, w.places, nudged, ref),
               "linreg: one weight moved by 1e-8");
  expectPass(checkRestore(r.stateAtResume, r.stateRestored),
             "linreg: restore brings back w and r'r of the checkpoint");
  auto restored = r.stateRestored;
  restored[3] += 1e-8;
  expectReject(checkRestore(r.stateAtResume, restored),
               "linreg: one restored weight moved by 1e-8");
  RoundResult lessSteps = r;
  lessSteps.reexecStepS.pop_back();
  expectReject(checkSteps(w, lessSteps), "steps: one re-executed step short");
}

void pagerank() {
  const Workload w = small("pagerank-rebalance");
  const RoundResult r = runRound(w, {});
  const auto ref =
      pagerankReference(r.out.matrix, w.pagerank.alpha, w.iterations);
  expectPass(checkStochastic(r.out.matrix),
             "pagerank: gathered graph is column-stochastic");
  expectPass(checkPageRank(r.out.solution, ref),
             "pagerank: ranks match the sequential power iteration");
  expectPass(checkRestore(r.stateAtResume, r.stateRestored),
             "pagerank: restore brings back the checkpointed ranks");
  auto negative = r.out.solution;
  negative[7] = -negative[7];
  expectReject(checkPageRank(negative, ref), "pagerank: one negative rank");
  auto offSum = r.out.solution;
  for (double& x : offSum) x *= 1.0 + 1e-6;
  expectReject(checkPageRank(offSum, ref), "pagerank: ranks sum off 1");
  const auto& g = r.out.matrix;
  auto values = g.values();
  values[0] *= 1.5;
  const rgml::la::SparseCSR skewed(g.rows(), g.cols(), g.rowPtr(),
                                   g.colIdx(), values);
  expectReject(checkStochastic(skewed), "pagerank: one link weight moved");
}

void gmres() {
  const Workload w = small("gmres-fine");
  const RoundResult r = runRound(w, {});
  expectPass(checkSteps(w, r), "gmres: resumed at the kill, no rollback");
  expectPass(checkGmres(r.out.matrix, r.out.rhs, r.out.solution),
             "gmres: ||b - Ax||/||b|| at the floor");
  expectPass(checkRestore(r.stateAtResume, r.stateRestored),
             "gmres: restore brings back x as it was at the kill");
  // A restore that zeroed x: the later cycles solve again from x = 0 and
  // the final residual passes, so only the restore check can see it.
  auto zeroed = r.stateRestored;
  std::fill(zeroed.begin(), zeroed.end() - 1, 0.0);
  expectReject(checkRestore(r.stateAtResume, zeroed),
               "gmres: restored x zeroed");
  auto moved = r.out.solution;
  moved[11] += 1e-6;
  expectReject(checkGmres(r.out.matrix, r.out.rhs, moved),
               "gmres: x moved off the solution");
}

void replicas() {
  expectPass(checkReplicaBytes(4096, 4096, 2), "replicas: k=2, 1 x fresh");
  expectReject(checkReplicaBytes(4000, 4096, 2),
               "replicas: one backup short");
}

}  // namespace

int main() {
  linreg();
  pagerank();
  gmres();
  replicas();
  std::printf("%s (%d failure(s))\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
