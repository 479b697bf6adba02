//===- metrics/MetricsCli.h - Shared metrics CLI plumbing -------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flag set and arm/finish choreography every metrics-aware CLI
/// shares (examples and single-run bench harnesses), so each binary adds
/// live metrics with three calls:
///
/// \code
///   MetricsCliOptions MOpt;
///   addMetricsOptions(Opts, MOpt);          // --metrics, --metrics-file,
///   Opts.parse(argc, argv);                 // --metrics-port, --stats-json
///   MetricsCliSession Metrics;
///   Metrics.arm(Cfg, MOpt, "13-queens");    // before runProblem
///   auto R = runProblem(Prob, Root, Cfg);
///   Metrics.finish(R.Stats, MOpt);          // snapshot files + stats JSON
/// \endcode
///
/// arm() owns the registry and (when --metrics-file / --metrics-port is
/// given) the background sampler; the runtime reuses the registry through
/// SchedulerConfig::MetricsSink, keeping cells pointer-stable for the
/// concurrent sampler. finish() stops the sampler (whose final tick
/// captures the post-join exact state), writes the last Prometheus
/// snapshot, and handles --stats-json.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_METRICS_METRICSCLI_H
#define ATC_METRICS_METRICSCLI_H

#include "core/Scheduler.h"
#include "core/SchedulerStats.h"
#include "metrics/Exposition.h"
#include "metrics/MetricsRegistry.h"
#include "metrics/Sampler.h"
#include "support/Options.h"

#include <cstdio>
#include <string>

namespace atc {

/// Storage for the shared metrics/stats flags.
struct MetricsCliOptions {
  bool Metrics = false;        ///< --metrics: arm the in-process registry.
  std::string MetricsFile;     ///< --metrics-file: periodic Prometheus file.
  long long MetricsPort = -1;  ///< --metrics-port: loopback HTTP endpoint.
  long long PeriodMs = 100;    ///< --metrics-period-ms: sampler period.
  std::string StatsJson;       ///< --stats-json: final stats dump path.

  /// True when any knob asks for the registry to be armed.
  bool wantsMetrics() const {
    return Metrics || !MetricsFile.empty() || MetricsPort >= 0;
  }

  /// True when a background sampler is needed (periodic export target).
  bool wantsSampler() const {
    return !MetricsFile.empty() || MetricsPort >= 0;
  }
};

/// Registers the shared flags on \p Opts, storing into \p Storage.
inline void addMetricsOptions(OptionSet &Opts, MetricsCliOptions &Storage) {
  Opts.addFlag("metrics", &Storage.Metrics,
               "collect live per-worker scheduler metrics and print a "
               "Prometheus snapshot after the run");
  Opts.addString("metrics-file", &Storage.MetricsFile,
                 "write a Prometheus text snapshot to this file on every "
                 "sampler period (atomically replaced; implies --metrics)");
  Opts.addInt("metrics-port", &Storage.MetricsPort,
              "serve Prometheus snapshots over HTTP on this loopback "
              "port (0 picks a free port; implies --metrics)");
  Opts.addInt("metrics-period-ms", &Storage.PeriodMs,
              "metrics sampler period in milliseconds (default 100)");
  Opts.addString("stats-json", &Storage.StatsJson,
                 "write the run's final SchedulerStats (and the last "
                 "metrics snapshot when --metrics is on) as JSON to this "
                 "file");
}

/// Owns the registry + sampler for one CLI run.
class MetricsCliSession {
public:
  /// Arms \p Cfg for metrics per \p Opt: pre-sizes the registry to
  /// Cfg.NumWorkers, points Cfg.MetricsSink at it, and starts the
  /// background sampler when a periodic export target was requested.
  /// No-op when no metrics knob was given (or the build has them off).
  void arm(SchedulerConfig &Cfg, const MetricsCliOptions &Opt,
           const std::string &Workload) {
    if (!Opt.wantsMetrics())
      return;
    Reg.reset(Cfg.NumWorkers);
    // Meta belongs to the registry's owner: the runtime never touches an
    // external sink's Meta (a sampler may be reading it concurrently).
    Reg.Meta.Scheduler = schedulerKindName(Cfg.Kind);
    Reg.Meta.Source = "runtime";
    Reg.Meta.Workload = Workload;
    Cfg.Metrics = true;
    Cfg.MetricsSink = &Reg;
    Armed = true;
    if (Opt.wantsSampler()) {
      SamplerOptions SOpt;
      SOpt.PeriodMs = static_cast<int>(Opt.PeriodMs);
      SOpt.PromFile = Opt.MetricsFile;
      SOpt.HttpPort = static_cast<int>(Opt.MetricsPort);
      if (!Sampler.start(Reg, SOpt)) {
        std::fprintf(stderr, "error: cannot start metrics sampler "
                             "(port busy?)\n");
      } else if (Opt.MetricsPort >= 0) {
        std::printf("metrics: http://127.0.0.1:%d/metrics (period %lld "
                    "ms)\n",
                    Sampler.boundPort(), Opt.PeriodMs);
      }
    }
  }

  /// Post-run choreography: stop the sampler (its shutdown tick records
  /// the exact final state), write the final Prometheus file, handle
  /// --stats-json, and print a short pointer to what was produced.
  /// Returns false if a requested output file could not be written.
  bool finish(const SchedulerStats &Stats, const MetricsCliOptions &Opt) {
    bool Ok = true;
    MetricsSnapshot Final;
    if (Armed) {
      if (Sampler.running())
        Sampler.stop();
      Final = Reg.sample();
      if (!Opt.MetricsFile.empty()) {
        if (writeTextFileAtomic(Opt.MetricsFile,
                                renderPrometheus(Final, Reg.Meta))) {
          std::printf("metrics: final snapshot in %s (%d workers, %zu "
                      "samples kept)\n",
                      Opt.MetricsFile.c_str(),
                      static_cast<int>(Final.Workers.size()),
                      Reg.history().size());
        } else {
          std::fprintf(stderr, "error: cannot write metrics to '%s'\n",
                       Opt.MetricsFile.c_str());
          Ok = false;
        }
      } else if (Opt.Metrics) {
        // Bare --metrics: print the snapshot so the run is inspectable
        // without any file plumbing.
        std::fputs(renderPrometheus(Final, Reg.Meta).c_str(), stdout);
      }
    }
    if (!Opt.StatsJson.empty() &&
        !writeStatsJson(Opt.StatsJson, Stats, Armed ? &Final : nullptr,
                        Reg.Meta)) {
      std::fprintf(stderr, "error: cannot write stats to '%s'\n",
                   Opt.StatsJson.c_str());
      Ok = false;
    }
    return Ok;
  }

  /// Writes `{"stats": {...}, "metrics": {...}}` to \p Path. \p Final may
  /// be null (no metrics section). Standalone so harnesses that manage
  /// their own registries (e.g. the simulator CLIs) can reuse it.
  static bool writeStatsJson(const std::string &Path,
                             const SchedulerStats &Stats,
                             const MetricsSnapshot *Final,
                             const MetricsMeta &Meta = MetricsMeta()) {
    std::string Out = "{\n  \"stats\": " + Stats.json();
    if (Final) {
      // Reuse the series renderer for the single final snapshot: same
      // schema as --metrics-file's JSON sibling, one entry.
      std::vector<MetricsSnapshot> One(1, *Final);
      Out += ",\n  \"metrics\": " + renderJsonSeries(One, Meta);
    }
    Out += "\n}\n";
    return writeTextFileAtomic(Path, Out);
  }

  MetricsRegistry &registry() { return Reg; }
  bool armed() const { return Armed; }

private:
  MetricsRegistry Reg;
  MetricsSampler Sampler;
  bool Armed = false;
};

} // namespace atc

#endif // ATC_METRICS_METRICSCLI_H
