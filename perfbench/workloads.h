// The benchmark's workloads and the one resilient solve ("round") each
// run repeats.
//
// A round starts a fresh Threads-engine world, initialises the app,
// runs it under ResilientExecutor with a seeded victim place killed at
// the workload's kill iteration, and gathers what the output checks need. Every layer is
// timed from outside the program: the app's four framework methods are
// wrapped (TimedApp), Runtime::stats() is read before and after the
// solve, and AppResilientStore::lastCheckpointStats() is read after each
// checkpoint. Nothing inside src/ is changed or instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apgas/place.h"
#include "apgas/runtime.h"
#include "apps/gmres_resilient.h"
#include "apps/linreg.h"
#include "apps/pagerank.h"
#include "framework/resilient_executor.h"
#include "la/sparse_csr.h"

namespace rgml::obs {
class TraceSink;
}

namespace perfbench {

using rgml::apgas::PlaceId;
using rgml::framework::RestoreMode;

enum class Kind { LinRegDense, PageRankRebalance, GmresFine };

struct Workload {
  std::string name;
  Kind kind = Kind::LinRegDense;
  int places = 3;
  long iterations = 0;  ///< logical iterations (GMRES: restart cycles)
  long checkpointInterval = 1;
  long killIter = 0;  ///< the victim dies after this iteration completes
  PlaceId victim = 1;
  RestoreMode mode = RestoreMode::Shrink;
  int replication = 2;  ///< the executor's default k
  rgml::apps::LinRegConfig linreg;
  rgml::apps::PageRankConfig pagerank;
  rgml::apps::GmresResilientConfig gmres;

  /// Steps the rollback must re-execute, derived from the kill iteration
  /// and the checkpoint interval alone: the run goes back to the last
  /// checkpoint before the kill. AlgorithmBased recovery rolls nothing
  /// back.
  [[nodiscard]] long rolledBackSteps() const {
    return mode == RestoreMode::AlgorithmBased
               ? 0
               : killIter % checkpointInterval;
  }
  /// The iteration the recovery resumes from: the last checkpoint before
  /// the kill, or the kill iteration itself for AlgorithmBased.
  [[nodiscard]] long resumeIter() const {
    return killIter - rolledBackSteps();
  }
};

/// Places for this host: the place workers (places - 1 of them, place 0
/// runs on the driving thread) plus the engine's control thread fit in
/// the hardware threads, with at least 3 places so a kill leaves two.
int placesForHost();

/// The workload `name` with its input values and victim drawn from
/// `seed`. Throws std::invalid_argument for an unknown name.
Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      int places);

/// What the output checks need, gathered at place 0 after the solve.
struct Outputs {
  std::vector<double> solution;  ///< LinReg weights, ranks, or GMRES x
  rgml::la::SparseCSR matrix;    ///< PageRank graph or GMRES A (gathered)
  std::vector<double> rhs;       ///< GMRES b
};

/// Per-layer probes timed directly against gml and apgas public calls on
/// the live group right after the solve.
struct Probes {
  double finishUs = 0.0;   ///< median empty ateach over the live group
  double dotUs = 0.0;      ///< median distributed dot (an allreduce)
  double dupSyncMs = 0.0;  ///< median DupVector::sync at the dup length
};

struct RoundOptions {
  rgml::apgas::Backend backend = rgml::apgas::Backend::Threads;
  rgml::obs::TraceSink* sink = nullptr;  ///< installed around run() only
  bool probes = false;
};

struct RoundResult {
  double initEnd = 0.0;  ///< steady-clock seconds when app init() returned
  double initS = 0.0;    ///< world start + app init()
  double solveS = 0.0;   ///< ResilientExecutor::run
  std::vector<double> freshStepS;    ///< steps run for the first time
  std::vector<double> reexecStepS;   ///< steps re-run after the rollback
  std::vector<double> checkpointS;   ///< checkpoint() calls
  std::vector<double> restoreS;      ///< restore() calls
  std::uint64_t freshBytes = 0;    ///< summed lastCheckpointStats()
  std::uint64_t carriedBytes = 0;  ///< summed lastCheckpointStats()
  rgml::framework::RunStats run;
  rgml::apgas::RuntimeStats stats;  ///< delta over run()
  /// The app's iterate and its scalar state at place 0, copied outside the
  /// timed calls: after the first run of step resumeIter(), and right
  /// after restore(). A correct restore brings back the same bits.
  std::vector<double> stateAtResume;
  std::vector<double> stateRestored;
  Outputs out;
  Probes probes;

  [[nodiscard]] double recoveryS() const;
  [[nodiscard]] long stepsExecuted() const {
    return static_cast<long>(freshStepS.size() + reexecStepS.size());
  }
};

/// Seconds on the steady clock (the one every timing here uses).
double nowS();

/// One resilient solve of `w`, timed layer by layer.
RoundResult runRound(const Workload& w, const RoundOptions& opt);

/// `w` without its kill: the failure-free reference solve.
Workload failureFree(Workload w);

/// The workload's dominant `la` kernel on one place's block shape,
/// called directly (no runtime involved). `out` supplies the gathered
/// matrix for the sparse workloads.
struct KernelProbe {
  double ms = 0.0;              ///< median time of one kernel pass
  double bytesComputed = 0.0;   ///< bytes one pass touches, from sizes
};
KernelProbe probeKernel(const Workload& w, const Outputs& out,
                        double budgetS);

}  // namespace perfbench
