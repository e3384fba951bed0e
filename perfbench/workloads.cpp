#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <initializer_list>
#include <random>
#include <stdexcept>
#include <thread>

#include "apgas/fault_injector.h"
#include "apps/gmres_resilient.h"
#include "apps/linreg_resilient.h"
#include "apps/pagerank_resilient.h"
#include "gml/dist_vector.h"
#include "gml/dup_vector.h"
#include "la/dense_matrix.h"
#include "la/ilu0.h"
#include "la/kernels.h"
#include "la/rand.h"
#include "la/vector.h"
#include "obs/trace_sink.h"
#include "stats.h"

namespace perfbench {

namespace apgas = rgml::apgas;
namespace apps = rgml::apps;
namespace framework = rgml::framework;
namespace gml = rgml::gml;
namespace la = rgml::la;

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double RoundResult::recoveryS() const {
  double s = 0.0;
  for (double t : restoreS) s += t;
  for (double t : reexecStepS) s += t;
  return s;
}

int placesForHost() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw - 1, 3, 4);
}

Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      int places) {
  // Raw mt19937_64 draws (no std distributions, whose output is
  // implementation-defined), so a seed gives the same inputs everywhere.
  std::mt19937_64 rng(seed);
  auto draw = [&](std::uint64_t n) { return rng() % n; };

  Workload w;
  w.name = name;
  w.places = places;
  // The seed picks the victim and the input values. The kill iteration is
  // fixed per workload: it sets how many steps are rolled back and how
  // many run on the shrunken group, so a seeded one would change the work
  // of a run, not only its inputs. It comes late, so most first-time
  // steps run on the full group and the step_ms median sits inside that
  // population rather than on its edge with the shrunken-group steps.
  w.victim = static_cast<PlaceId>(1 + draw(static_cast<std::uint64_t>(
                                          places - 1)));
  if (name == "linreg-dense") {
    // Dense X of 24 MB per place: the mat-vec pair dominates a step. The
    // kill lands 6 iterations past a checkpoint: 6 steps are re-executed.
    w.kind = Kind::LinRegDense;
    w.mode = RestoreMode::Shrink;
    w.iterations = 40;
    w.checkpointInterval = 8;
    w.killIter = 30;
    w.linreg.features = 500;
    w.linreg.rowsPerPlace = 6000;
    w.linreg.blocksPerPlace = 2;
    w.linreg.iterations = w.iterations;
    w.linreg.seed = 1000 + draw(1u << 30);
  } else if (name == "pagerank-rebalance") {
    // An exact column-stochastic graph and a duplicated rank vector of
    // 30k entries per place; checkpoints every 3 iterations and a kill 2
    // past one, restored onto a recomputed grid. At 100k entries per place
    // a step's random-access spmv and vector copies spilled out of the
    // private caches, and its time swung by +-20% with the load of the
    // shared L3 over minutes; at 30k the swing was +-6%.
    w.kind = Kind::PageRankRebalance;
    w.mode = RestoreMode::ShrinkRebalance;
    w.iterations = 30;
    w.checkpointInterval = 3;
    w.killIter = 23;
    w.pagerank.pagesPerPlace = 30000;
    w.pagerank.linksPerPage = 8;
    w.pagerank.blocksPerPlace = 2;
    w.pagerank.iterations = w.iterations;
    w.pagerank.exactGraph = true;
    w.pagerank.seed = 2000 + draw(1u << 30);
  } else if (name == "gmres-fine") {
    // A small band system per place and many restart cycles: each cycle
    // is a handful of finishes and allreduces over tiny payloads. The
    // kill comes long after the solve reached the floating-point floor.
    w.kind = Kind::GmresFine;
    w.mode = RestoreMode::AlgorithmBased;
    w.iterations = 200;
    w.checkpointInterval = 20;
    w.killIter = 170;
    w.gmres.nPerPlace = 300;
    w.gmres.band = 2;
    w.gmres.blocksPerPlace = 2;
    w.gmres.restart = 5;
    w.gmres.cycles = w.iterations;
    w.gmres.seed = 3000 + draw(1u << 30);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Workload failureFree(Workload w) {
  w.killIter = -1;
  return w;
}

namespace {

/// The app's four framework methods, timed from outside the app. It also
/// copies the app's state (`state`) after the first run of step
/// `resumeIter` and after each restore(), outside the timed calls.
class TimedApp final : public framework::ResilientIterativeApp {
 public:
  TimedApp(framework::ResilientIterativeApp& inner,
           std::function<long()> iteration,
           std::function<std::vector<double>()> state, long resumeIter,
           RoundResult& r)
      : inner_(inner),
        iteration_(std::move(iteration)),
        state_(std::move(state)),
        resumeIter_(resumeIter),
        r_(r) {}

  bool isFinished() override { return inner_.isFinished(); }

  void step() override {
    const double t0 = nowS();
    inner_.step();
    const double dt = nowS() - t0;
    const long it = iteration_();
    if (it <= highWater_) {
      r_.reexecStepS.push_back(dt);
    } else {
      r_.freshStepS.push_back(dt);
      highWater_ = it;
      if (it == resumeIter_) r_.stateAtResume = state_();
    }
  }

  void checkpoint(rgml::resilient::AppResilientStore& store) override {
    const double t0 = nowS();
    inner_.checkpoint(store);
    r_.checkpointS.push_back(nowS() - t0);
    r_.freshBytes += store.lastCheckpointStats().freshBytes;
    r_.carriedBytes += store.lastCheckpointStats().carriedBytes;
  }

  void restore(const apgas::PlaceGroup& newPlaces,
               rgml::resilient::AppResilientStore& store, long snapshotIter,
               RestoreMode mode) override {
    const double t0 = nowS();
    inner_.restore(newPlaces, store, snapshotIter, mode);
    r_.restoreS.push_back(nowS() - t0);
    r_.stateRestored = state_();
  }

  double convergenceMetric() override { return inner_.convergenceMetric(); }
  bool supportsAlgorithmRecovery() const override {
    return inner_.supportsAlgorithmRecovery();
  }

 private:
  framework::ResilientIterativeApp& inner_;
  std::function<long()> iteration_;
  std::function<std::vector<double>()> state_;
  long resumeIter_;
  RoundResult& r_;
  long highWater_ = 0;
};

/// Median time of `op` over at least `minReps` calls and at most
/// `budgetS` seconds.
double medianTime(const std::function<void()>& op, int minReps,
                  double budgetS) {
  std::vector<double> t;
  const double start = nowS();
  while (static_cast<int>(t.size()) < minReps || nowS() - start < budgetS) {
    const double t0 = nowS();
    op();
    t.push_back(nowS() - t0);
    if (t.size() >= 2000) break;
  }
  return median(t);
}

Probes runProbes(const apgas::PlaceGroup& live, long distLen, long dupLen) {
  Probes p;
  p.finishUs =
      1e6 * medianTime([&] { apgas::ateach(live, [](apgas::Place) {}); },
                       50, 0.1);
  auto v = gml::DistVector::make(distLen, live);
  v.init(1.0);
  volatile double sink = 0.0;
  p.dotUs = 1e6 * medianTime([&] { sink = v.dot(v); }, 30, 0.1);
  auto d = gml::DupVector::make(dupLen, live);
  d.init(1.0);
  p.dupSyncMs = 1e3 * medianTime([&] { d.sync(); }, 10, 0.2);
  (void)sink;
  return p;
}

/// Gather a sparse DistBlockMatrix's blocks into one global CSR at place 0.
la::SparseCSR gatherSparse(const gml::DistBlockMatrix& A) {
  la::SparseCSR global(A.rows(), A.cols());
  for (PlaceId p : A.placeGroup()) {
    const auto bs = A.blockSetAt(p);
    if (!bs) throw std::runtime_error("gatherSparse: block set lost");
    for (const la::MatrixBlock& block : *bs) {
      global.pasteSubFrom(block.sparse(), block.rowOffset(),
                          block.colOffset());
    }
  }
  return global;
}

std::vector<double> copyOf(const la::Vector& v) {
  return {v.span().begin(), v.span().end()};
}

/// Place 0's replica of a duplicated iterate, followed by `scalars`.
std::vector<double> stateOf(const gml::DupVector& v,
                            std::initializer_list<double> scalars = {}) {
  std::vector<double> s = copyOf(v.local());
  s.insert(s.end(), scalars);
  return s;
}

template <class App, class Config, class State, class Gather>
RoundResult solve(const Workload& w, const Config& cfg,
                  const RoundOptions& opt, long distLen, long dupLen,
                  State state, Gather gather) {
  RoundResult r;
  const double t0 = nowS();
  apgas::RuntimeConfig rc;
  rc.numPlaces = w.places;
  rc.resilientFinish = true;
  rc.backend = opt.backend;
  apgas::WorldGuard world(rc);
  App app(cfg, apgas::PlaceGroup::firstPlaces(
                   static_cast<std::size_t>(w.places)));
  app.init();
  r.initEnd = nowS();
  r.initS = r.initEnd - t0;

  framework::ExecutorConfig ec;
  ec.places = app.places();
  ec.checkpointInterval = w.checkpointInterval;
  ec.mode = w.mode;
  ec.replication = w.replication;
  framework::ResilientExecutor exec(ec);
  apgas::FaultInjector injector;
  if (w.killIter > 0) {
    injector.killOnIteration(w.killIter, w.victim);
  }
  TimedApp timed(
      app, [&app] { return app.iteration(); }, [&] { return state(app); },
      w.killIter > 0 ? w.resumeIter() : -1, r);

  apgas::Runtime& rt = apgas::Runtime::world();
  const apgas::RuntimeStats before = rt.stats();
  {
    rgml::obs::SinkScope scope(opt.sink);
    const double s0 = nowS();
    r.run = exec.run(timed, &injector);
    r.solveS = nowS() - s0;
  }
  const apgas::RuntimeStats after = rt.stats();
  r.stats.asyncsSpawned = after.asyncsSpawned - before.asyncsSpawned;
  r.stats.finishes = after.finishes - before.finishes;
  r.stats.bookkeepingMsgs = after.bookkeepingMsgs - before.bookkeepingMsgs;
  r.stats.dataMsgs = after.dataMsgs - before.dataMsgs;
  r.stats.bytesSent = after.bytesSent - before.bytesSent;
  r.stats.placesKilled = after.placesKilled - before.placesKilled;

  gather(app, r.out);
  if (opt.probes) r.probes = runProbes(r.run.finalPlaces, distLen, dupLen);
  return r;
}

}  // namespace

RoundResult runRound(const Workload& w, const RoundOptions& opt) {
  switch (w.kind) {
    case Kind::LinRegDense: {
      const long m = w.linreg.rowsPerPlace * w.places;
      return solve<apps::LinRegResilient>(
          w, w.linreg, opt, m, w.linreg.features,
          [](apps::LinRegResilient& app) {
            return stateOf(app.weights(), {app.residualNormSq()});
          },
          [](apps::LinRegResilient& app, Outputs& out) {
            out.solution = copyOf(app.weights().local());
          });
    }
    case Kind::PageRankRebalance: {
      const long n = w.pagerank.pagesPerPlace * w.places;
      return solve<apps::PageRankResilient>(
          w, w.pagerank, opt, n, n,
          [](apps::PageRankResilient& app) { return stateOf(app.ranks()); },
          [](apps::PageRankResilient& app, Outputs& out) {
            out.solution = copyOf(app.ranks().local());
            out.matrix = gatherSparse(app.graph());
          });
    }
    case Kind::GmresFine: {
      const long n = w.gmres.nPerPlace * w.places;
      const std::uint64_t bSeed = w.gmres.seed + 1;
      return solve<apps::GmresResilient>(
          w, w.gmres, opt, n, n,
          [](apps::GmresResilient& app) {
            return stateOf(app.solution(), {app.residual()});
          },
          [n, bSeed](apps::GmresResilient& app, Outputs& out) {
            out.solution = copyOf(app.solution().local());
            out.matrix = gatherSparse(app.matrix());
            // b regenerated from the seed exactly as DistVector::initRandom
            // fills it in GmresResilient::init.
            out.rhs.resize(static_cast<std::size_t>(n));
            for (long i = 0; i < n; ++i) {
              out.rhs[static_cast<std::size_t>(i)] =
                  la::hashedUniform(bSeed, static_cast<std::uint64_t>(i));
            }
          });
    }
  }
  throw std::logic_error("runRound: unknown workload kind");
}

KernelProbe probeKernel(const Workload& w, const Outputs& out,
                        double budgetS) {
  KernelProbe k;
  constexpr double kD = sizeof(double);
  constexpr double kL = sizeof(long);
  switch (w.kind) {
    case Kind::LinRegDense: {
      // One place's X: blocksPerPlace dense blocks; a step runs
      // X p (gemv) and X^T (X p) (gemvTrans) over each.
      const long rows = w.linreg.rowsPerPlace / w.linreg.blocksPerPlace;
      const long cols = w.linreg.features;
      std::vector<la::DenseMatrix> blocks;
      for (long b = 0; b < w.linreg.blocksPerPlace; ++b) {
        blocks.push_back(la::makeUniformDense(rows, cols, w.linreg.seed + b));
      }
      la::Vector p = la::makeUniformVector(cols, 7);
      la::Vector xp(rows);
      la::Vector q(cols);
      k.ms = 1e3 * medianTime(
                       [&] {
                         for (const auto& A : blocks) {
                           la::gemv(A, p.span(), xp.span());
                           la::gemvTrans(A, xp.span(), q.span(), 1.0);
                         }
                       },
                       5, budgetS);
      k.bytesComputed = static_cast<double>(blocks.size()) *
                        (2.0 * kD * static_cast<double>(rows * cols) +
                         kD * static_cast<double>(3 * rows + 3 * cols));
      break;
    }
    case Kind::PageRankRebalance:
    case Kind::GmresFine: {
      // One place's row share of the gathered matrix (its sparse blocks
      // side by side), times the dup vector: G p or A v.
      const long n = out.matrix.cols();
      const long rows = n / w.places;
      const la::SparseCSR share = out.matrix.subMatrix(0, 0, rows, n);
      la::Vector x = la::makeUniformVector(n, 7);
      la::Vector y(rows);
      la::Ilu0 lu;
      la::Vector r = la::makeUniformVector(n, 8);
      la::Vector z(n);
      const bool gmres = w.kind == Kind::GmresFine;
      if (gmres) lu = la::ilu0Factor(out.matrix);
      k.ms = 1e3 * medianTime(
                       [&] {
                         la::spmv(share, x.span(), y.span());
                         if (gmres) la::ilu0Solve(lu, r, z);
                       },
                       5, budgetS);
      const auto spmvBytes = [&](const la::SparseCSR& A, long xLen) {
        return static_cast<double>(A.nnz()) * (kD + kL) +
               static_cast<double>(A.rows() + 1) * kL +
               kD * static_cast<double>(xLen + A.rows());
      };
      k.bytesComputed = spmvBytes(share, n);
      if (gmres) k.bytesComputed += 2.0 * spmvBytes(lu.lu, n);
      break;
    }
  }
  return k;
}

}  // namespace perfbench
