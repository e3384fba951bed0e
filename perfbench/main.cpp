// perfbench: wall-clock time to solution and time lost per failure of
// the resilient framework on the Threads engine.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run repeats whole resilient solves ("rounds") of one workload for
// `seconds`, each on a fresh Threads world with one place killed, checks
// every round's outputs, and prints one JSON object as its last line of
// standard output. --trace 0 reports the end-to-end metrics; --trace 1
// alternates untraced and traced rounds and reports the per-layer
// metrics, plus the simulated engine's CostModel prediction per phase as
// "# costmodel" reference lines.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "obs/analysis/attribution.h"
#include "obs/trace_sink.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Taken during static initialisation, before main(): setup_s counts the
/// whole cold start of the process up to the first app init().
const double kProcessStart = nowS();

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void printResult(bool correct, long attempted, long failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Span-based layer numbers of one traced round.
struct TraceNumbers {
  double ackWaitS = 0.0;
  double commS = 0.0;
  double saveS = 0.0;
  double restoreS = 0.0;
  double restoreBlockS = 0.0;
  double restoreRepartS = 0.0;
  std::uint64_t replicaBytes = 0;
};

TraceNumbers readTrace(const rgml::obs::TraceSink& sink) {
  using rgml::obs::Category;
  TraceNumbers t;
  const auto& hist = sink.metrics().histograms();
  if (auto it = hist.find("finish.ack_wait_seconds"); it != hist.end()) {
    t.ackWaitS = it->second.sum();
  }
  t.replicaBytes = sink.metrics().counter("snapshot.replica_bytes");
  const auto& spans = sink.spans();
  const std::vector<double> self = rgml::obs::analysis::selfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.category == Category::Comms) t.commS += self[i];
    if (s.name.rfind("store.save", 0) == 0) t.saveS += s.duration();
    if (s.name.rfind("store.restore", 0) == 0) t.restoreS += s.duration();
    if (s.name == "restore.block-by-block") t.restoreBlockS += s.duration();
    if (s.name == "restore.repartitioned") t.restoreRepartS += s.duration();
  }
  return t;
}

template <class F>
double medianOf(const std::vector<RoundResult>& rounds, F f) {
  std::vector<double> v;
  for (const auto& r : rounds) v.push_back(static_cast<double>(f(r)));
  return median(v);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags come in pairs");
  if (seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return usage("--seed >= 0, --seconds > 0 and --trace 0|1 are required");
  }
  Workload w;
  try {
    w = makeWorkload(name, static_cast<std::uint64_t>(seed),
                     placesForHost());
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  std::fprintf(stderr,
               "perfbench %s: %d places, kill place %d after iteration %ld "
               "of %ld, checkpoint every %ld\n",
               w.name.c_str(), w.places, static_cast<int>(w.victim),
               w.killIter, w.iterations, w.checkpointInterval);

  bool correct = true;
  long attempted = 0;
  long failed = 0;
  double setupS = 0.0;
  double peakRss = 0.0;
  std::vector<double> reference;
  std::vector<RoundResult> plain;   // untraced rounds
  std::vector<RoundResult> traced;  // traced rounds (--trace 1)
  std::vector<TraceNumbers> traceNumbers;
  Outputs lastOutputs;

  const double loopStart = nowS();
  for (long round = 0;; ++round) {
    const bool tracedRound = trace == 1 && round % 2 == 1;
    if (round > 0 && nowS() - loopStart >= seconds &&
        (trace == 0 || !tracedRound)) {
      break;
    }
    ++attempted;
    rgml::obs::TraceSink sink;
    RoundOptions opt;
    opt.sink = tracedRound ? &sink : nullptr;
    opt.probes = trace == 1 && round == 0;
    try {
      RoundResult r = runRound(w, opt);
      if (round == 0) {
        setupS = r.initEnd - kProcessStart;
        // The peak of one cold solve: later rounds reuse freed heap, and
        // how much of it the allocator keeps varies from run to run.
        peakRss = peakRssMb();
        if (w.kind == Kind::LinRegDense) {
          reference = runRound(failureFree(w), {}).out.solution;
        } else if (w.kind == Kind::PageRankRebalance) {
          reference = pagerankReference(r.out.matrix, w.pagerank.alpha,
                                        w.iterations);
        }
      }
      std::string why = checkRound(w, r, reference);
      if (tracedRound) {
        traceNumbers.push_back(readTrace(sink));
        if (why.empty()) {
          why = checkReplicaBytes(traceNumbers.back().replicaBytes,
                                  r.freshBytes, w.replication);
        }
      }
      if (!why.empty()) {
        correct = false;
        std::fprintf(stderr, "perfbench: round %ld check failed: %s\n",
                     round, why.c_str());
      }
      std::fprintf(stderr,
                   "round %ld%s: init %.3fs solve %.3fs recovery %.3fs "
                   "steps %ld\n",
                   round, tracedRound ? " (traced)" : "", r.initS, r.solveS,
                   r.recoveryS(), r.stepsExecuted());
      lastOutputs = std::move(r.out);
      r.out = {};
      (tracedRound ? traced : plain).push_back(std::move(r));
    } catch (const std::exception& e) {
      // No round is expected to throw: every round injects its kill, so a
      // throw is a recovery that did not work, i.e. a wrong result.
      ++failed;
      correct = false;
      std::fprintf(stderr, "perfbench: round %ld failed: %s\n", round,
                   e.what());
    }
  }
  if (plain.empty()) {
    std::fprintf(stderr, "perfbench: no round completed\n");
    printResult(false, attempted, failed, {});
    return 0;
  }

  std::vector<Metric> metrics;
  if (trace == 0) {
    std::vector<double> fresh, ckpt;
    for (const auto& r : plain) {
      fresh.insert(fresh.end(), r.freshStepS.begin(), r.freshStepS.end());
      ckpt.insert(ckpt.end(), r.checkpointS.begin(), r.checkpointS.end());
    }
    metrics = {
        {"setup_s", setupS, "s"},
        {"solve_s", medianOf(plain, [](auto& r) { return r.solveS; }), "s"},
        {"step_ms", 1e3 * median(fresh), "ms"},
        {"checkpoint_ms", 1e3 * median(ckpt), "ms"},
        {"recovery_s", medianOf(plain, [](auto& r) { return r.recoveryS(); }),
         "s"},
        {"peak_rss_mb", peakRss, "MB"},
    };
  } else {
    const Probes& probes = plain.front().probes;
    const KernelProbe kernel = probeKernel(w, lastOutputs, 0.3);
    auto tn = [&](auto f) {
      std::vector<double> v;
      for (const auto& t : traceNumbers) v.push_back(static_cast<double>(f(t)));
      return median(v);
    };
    const double tracedSolve =
        traced.empty() ? 0.0
                       : medianOf(traced, [](auto& r) { return r.solveS; });
    const double plainSolve =
        medianOf(plain, [](auto& r) { return r.solveS; });
    const double stepTotal = medianOf(
        plain, [](auto& r) { return sum(r.freshStepS) + sum(r.reexecStepS); });
    const double checkpointTotal =
        medianOf(plain, [](auto& r) { return sum(r.checkpointS); });
    const double restoreTotal =
        medianOf(plain, [](auto& r) { return sum(r.restoreS); });
    metrics = {
        {"framework.step_s", stepTotal, "s"},
        {"framework.checkpoint_s", checkpointTotal, "s"},
        {"framework.restore_s", restoreTotal, "s"},
        {"framework.steps_executed",
         medianOf(plain, [](auto& r) { return r.stepsExecuted(); }), "count"},
        {"framework.steps_reexecuted",
         medianOf(plain, [](auto& r) { return r.reexecStepS.size(); }),
         "count"},
        {"framework.useful_step_ratio",
         medianOf(plain,
                  [](auto& r) {
                    return static_cast<double>(r.run.iterationsCompleted) /
                           static_cast<double>(r.stepsExecuted());
                  }),
         "ratio"},
        {"apgas.finishes",
         medianOf(plain, [](auto& r) { return r.stats.finishes; }), "count"},
        {"apgas.asyncs",
         medianOf(plain, [](auto& r) { return r.stats.asyncsSpawned; }),
         "count"},
        {"apgas.bookkeeping_msgs",
         medianOf(plain, [](auto& r) { return r.stats.bookkeepingMsgs; }),
         "count"},
        {"apgas.data_msgs",
         medianOf(plain, [](auto& r) { return r.stats.dataMsgs; }), "count"},
        {"apgas.bytes_sent",
         medianOf(plain, [](auto& r) { return r.stats.bytesSent; }), "bytes"},
        {"apgas.finish_probe_us", probes.finishUs, "us"},
        {"la.kernel_ms", kernel.ms, "ms"},
        {"la.kernel_gbps_computed", kernel.bytesComputed / kernel.ms / 1e6,
         "GB/s"},
        {"gml.dot_probe_us", probes.dotUs, "us"},
        {"gml.dup_sync_ms", probes.dupSyncMs, "ms"},
        {"resilient.fresh_bytes",
         medianOf(plain, [](auto& r) { return r.freshBytes; }), "bytes"},
        {"resilient.carried_bytes",
         medianOf(plain, [](auto& r) { return r.carriedBytes; }), "bytes"},
        {"apgas.finish_ack_wait_s", tn([](auto& t) { return t.ackWaitS; }),
         "s"},
        {"gml.comm_s", tn([](auto& t) { return t.commS; }), "s"},
        {"resilient.save_s", tn([](auto& t) { return t.saveS; }), "s"},
        {"resilient.replica_bytes",
         tn([](auto& t) { return t.replicaBytes; }), "bytes"},
        {"resilient.restore_s", tn([](auto& t) { return t.restoreS; }), "s"},
        {"resilient.restore_s.block-by-block",
         tn([](auto& t) { return t.restoreBlockS; }), "s"},
        {"resilient.restore_s.repartitioned",
         tn([](auto& t) { return t.restoreRepartS; }), "s"},
        {"obs.trace_overhead_s", tracedSolve - plainSolve, "s"},
    };

    // Reference figures for CostModel calibration, not metrics: the same
    // solve on the simulated engine, whose clock is the model's prediction,
    // next to the measured wall seconds per solve spent in each phase.
    try {
      RoundOptions simOpt;
      simOpt.backend = rgml::apgas::Backend::Simulated;
      const rgml::framework::RunStats s = runRound(w, simOpt).run;
      const std::pair<const char*, std::pair<double, double>> phases[] = {
          {"step",
           {s.totalTime - s.checkpointTime - s.restoreTime, stepTotal}},
          {"checkpoint", {s.checkpointTime, checkpointTotal}},
          {"restore", {s.restoreTime, restoreTotal}},
          {"solve", {s.totalTime, plainSolve}},
      };
      std::printf("# costmodel %s: phase, predicted s/solve, measured "
                  "s/solve, measured/predicted\n",
                  w.name.c_str());
      for (const auto& [phase, t] : phases) {
        std::printf("# costmodel %s %s %.6g %.6g %.3g\n", w.name.c_str(),
                    phase, t.first, t.second, t.second / t.first);
      }
    } catch (const std::exception& e) {
      std::printf("# costmodel %s unavailable: %s\n", w.name.c_str(),
                  e.what());
    }
  }
  printResult(correct, attempted, failed, metrics);
  return 0;
}
