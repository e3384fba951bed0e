// The benchmark's output checks. Each one is computed in the benchmark's
// own sequential code, from inputs regenerated from the workload seed or
// gathered from the run, or from properties the method must have. A check
// returns an empty string when it passes and the reason when it fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/linreg.h"
#include "la/sparse_csr.h"
#include "workloads.h"

namespace perfbench {

/// LinReg: ||(X'X + lambda I) w - X'y|| / ||X'y|| must stay below this.
/// CG reaches about 1e-13 here; one weight moved by 1e-8 gives ~1e-7.
inline constexpr double kLinRegNormalTol = 1e-10;
/// LinReg: ||w - w_failure_free|| / ||w_failure_free||. Rollback recovery
/// is exact; only the reduction order differs once the group shrank.
inline constexpr double kLinRegEqualTol = 1e-10;
/// PageRank: each column of the graph sums to 1 within this.
inline constexpr double kStochasticTol = 1e-12;
/// PageRank: |sum(ranks) - 1|.
inline constexpr double kRankSumTol = 1e-9;
/// PageRank: L1 distance to the sequential power iteration.
inline constexpr double kRankL1Tol = 1e-10;
/// GMRES: ||b - A x|| / ||b||.
inline constexpr double kGmresTol = 1e-10;

/// Relative residual of the ridge normal equations for weights `w`, with
/// X and y regenerated from `cfg.seed` the way LinRegResilient::init fills
/// them (X(i,j) and y(i) are hashedUniform draws keyed by position).
double linregNormalResidual(const rgml::apps::LinRegConfig& cfg, int places,
                            const std::vector<double>& w);

std::string checkLinReg(const rgml::apps::LinRegConfig& cfg, int places,
                        const std::vector<double>& w,
                        const std::vector<double>& failureFree);

/// Sequential power iteration: p <- alpha G p + (1 - alpha) sum(p) / n,
/// from the uniform vector, `iterations` times.
std::vector<double> pagerankReference(const rgml::la::SparseCSR& graph,
                                      double alpha, long iterations);

std::string checkStochastic(const rgml::la::SparseCSR& graph);

std::string checkPageRank(const std::vector<double>& ranks,
                          const std::vector<double>& reference);

/// ||b - A x|| / ||b||.
double gmresResidual(const rgml::la::SparseCSR& A,
                     const std::vector<double>& b,
                     const std::vector<double>& x);

std::string checkGmres(const rgml::la::SparseCSR& A,
                       const std::vector<double>& b,
                       const std::vector<double>& x);

/// Steps executed = iterations + the steps the rollback re-ran, with the
/// latter derived from the kill iteration and the checkpoint interval;
/// and the run resumed where the recovery mode says it must.
std::string checkSteps(const Workload& w, const RoundResult& r);

/// The restore brought back exactly the state the app had after the first
/// run of the step it resumes from: the same bits, since both a snapshot
/// reload and a surviving replica are copies, not recomputations. This
/// checks the restore path directly: a later solve step can hide a
/// damaged restore by converging again.
std::string checkRestore(const std::vector<double>& atResume,
                         const std::vector<double>& restored);

/// Every fresh checkpoint byte was fanned out to k - 1 backups.
std::string checkReplicaBytes(std::uint64_t replicaBytes,
                              std::uint64_t freshBytes, int replication);

/// Every check of one round of `w`. `failureFree` is the LinReg reference
/// weights and `ranks` the PageRank reference; the other is ignored.
std::string checkRound(const Workload& w, const RoundResult& r,
                       const std::vector<double>& reference);

}  // namespace perfbench
