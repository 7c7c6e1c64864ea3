// mron_cli — drive any benchmark/strategy combination from the shell.
//
//   mron_cli --app=terasort --size-gb=60 --strategy=aggressive --runs=2
//   mron_cli --app=wordcount --corpus=freebase --strategy=conservative
//   mron_cli --app=bigram --strategy=offline --seed=9
//   mron_cli --app=terasort --strategy=aggressive --trace-out --audit-out
//   mron_cli --list
//
// Strategies:
//   none          plain run on the default YARN configuration
//   conservative  MRONLINE fast-single-run tuning riding along
//   aggressive    one MRONLINE expedited test run, then `--runs` production
//                 executions with the discovered configuration
//   offline       the static offline tuning-guide configuration
//
// --jobs, --cluster, --fault-plan / --fault-spec, --trace-detail and the
// --*-out exports are the run flags every driver shares
// (mapreduce/run_options.h). An unknown flag or a malformed value
// (--jobs=2.5, --runs=2x) prints usage and exits 2.
//
// Flight recorder: any of --metrics-out[=F] / --trace-out[=F] /
// --audit-out[=F] turns observation on and writes the artifact after the
// last simulation (defaults mron_metrics.json / mron_trace.json /
// mron_audit.jsonl); under --strategy=aggressive the files describe the
// test run. --trace-detail adds per-phase and shuffle-fetch spans.
//
// --report-out[=F] (default mron_report.json) writes the versioned run
// report (obs/report.h): counter rollups + metric scalars + whole-run time
// series. The exported run is picked by key, not by completion order, so
// the file is byte-identical at any --jobs; under --strategy=aggressive it
// describes the last production run, not the test run.
//
// --profile-out[=F] (default host_profile.json) attaches the host
// self-profiler (obs/host_profile.h) and writes where the *simulator's* own
// wall time and memory went. Host time is nondeterministic, so the profile
// is quarantined in its own file — run reports stay byte-identical with or
// without it. --progress prints a wall-clock-throttled stderr heartbeat
// (events/sec, sim-time, RSS) for long runs; it never touches any artifact.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/offline_guide.h"
#include "common/flags.h"
#include "common/log.h"
#include "mapreduce/run_options.h"
#include "mapreduce/simulation.h"
#include "sim/parallel_runner.h"
#include "tuner/online_tuner.h"
#include "workloads/benchmarks.h"

using namespace mron;

namespace {

// The run flags plus --profile-out / --progress, for every simulation of
// the invocation: test run and production runs alike.
mapreduce::RunOptions g_run;
mapreduce::RunExporter g_export(g_run);
// --speculative: LATE-style speculative execution on every job.
bool g_speculative = false;
// --dfs-replication / --dfs-policy: storage layout for every run.
int g_dfs_replication = 3;
std::string g_dfs_policy;

void apply_options(mapreduce::SimulationOptions& opt) {
  g_run.apply(opt);
  opt.dfs_replication = g_dfs_replication;
  opt.dfs_policy = g_dfs_policy;
  opt.progress_label = "mron_cli";
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: mron_cli --app=<terasort|wordcount|bigram|"
               "invertedindex|textsearch|bbp> [--corpus=wikipedia|freebase]"
               " [--size-gb=N] [--strategy=none|conservative|aggressive|"
               "offline] [--seed=N] [--runs=N] [--fair] [--show-config]"
               " [--log-level=trace|debug|info|warn|error]%s"
               " [--profile-out[=F]] [--progress] [--no-eval-cache]"
               " [--speculative] [--dfs-replication=N]"
               " [--dfs-policy=rack-aware|same-rack|spread]\n",
               mapreduce::kRunFlagsUsage);
}

struct AppChoice {
  workloads::Benchmark benchmark;
  workloads::Corpus corpus;
};

AppChoice parse_app(const std::string& app, const std::string& corpus) {
  using workloads::Benchmark;
  using workloads::Corpus;
  const Corpus c = corpus == "freebase" ? Corpus::Freebase
                                        : Corpus::Wikipedia;
  if (app == "terasort") return {Benchmark::Terasort, Corpus::Synthetic};
  if (app == "bbp") return {Benchmark::Bbp, Corpus::None};
  if (app == "wordcount" || app == "wc") return {Benchmark::WordCount, c};
  if (app == "bigram") return {Benchmark::Bigram, c};
  if (app == "invertedindex" || app == "ii") {
    return {Benchmark::InvertedIndex, c};
  }
  if (app == "textsearch" || app == "grep") {
    return {Benchmark::TextSearch, c};
  }
  std::fprintf(stderr, "unknown --app=%s\n", app.c_str());
  std::exit(2);
}

mapreduce::JobSpec make_spec(mapreduce::Simulation& sim, const AppChoice& app,
                             double size_gb) {
  mapreduce::JobSpec spec =
      app.benchmark == workloads::Benchmark::Terasort && size_gb > 0
          ? workloads::make_terasort(sim, gibibytes(size_gb))
          : workloads::make_job(sim, app.benchmark, app.corpus);
  spec.speculative_execution = g_speculative;
  spec.config.dfs_replication = g_dfs_replication;
  return spec;
}

void print_result(const char* label, const mapreduce::JobResult& r) {
  std::printf("%-14s exec=%8.1f s  maps=%zu reds=%zu  spilled=%.3fe9 "
              "(optimal %.3fe9)  mem-util m/r=%.0f%%/%.0f%%  "
              "cpu-util m/r=%.0f%%/%.0f%%  failed-attempts=%d\n",
              label, r.exec_time(), r.map_reports.size(),
              r.reduce_reports.size(),
              static_cast<double>(r.counters.map.spilled_records) / 1e9,
              static_cast<double>(r.counters.map.combine_output_records) /
                  1e9,
              100 * r.avg_util(mapreduce::TaskKind::Map, false),
              100 * r.avg_util(mapreduce::TaskKind::Reduce, false),
              100 * r.avg_util(mapreduce::TaskKind::Map, true),
              100 * r.avg_util(mapreduce::TaskKind::Reduce, true),
              r.counters.failed_task_attempts);
}

void print_config(const mapreduce::JobConfig& cfg) {
  const auto& reg = mapreduce::ParamRegistry::standard();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    std::printf("  %-48s = %g\n", reg.at(i).name.c_str(), reg.get(cfg, i));
  }
}

/// Report meta for a run; phases rank runs of one invocation ("0" =
/// aggressive test run, "1" = production), so the exported file describes
/// the production run with the greatest seed.
mapreduce::ReportMeta report_meta(const AppChoice& app,
                                  const std::string& strategy) {
  return {{"app", workloads::benchmark_name(app.benchmark)},
          {"corpus", workloads::corpus_name(app.corpus)},
          {"strategy", strategy}};
}

mapreduce::JobResult run_once(const AppChoice& app, double size_gb,
                              const mapreduce::JobConfig& cfg,
                              std::uint64_t seed, bool fair,
                              const std::string& strategy) {
  mapreduce::SimulationOptions opt;
  opt.seed = seed;
  opt.fair_scheduler = fair;
  apply_options(opt);
  // A tuned dfs.replication (category I — settable only between runs)
  // flows into the production dataset's placement.
  opt.dfs_replication = static_cast<int>(cfg.dfs_replication);
  mapreduce::Simulation sim(opt);
  mapreduce::JobSpec spec = make_spec(sim, app, size_gb);
  spec.config = cfg;
  mapreduce::JobResult result = sim.run_job(std::move(spec));
  g_export.write_artifacts(sim);
  g_export.offer_report(sim, /*phase=*/"1", report_meta(app, strategy), seed,
                        {{&result, &cfg}});
  return result;
}

}  // namespace

int run_cli(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.get("help", false)) {
    print_usage(stdout);
    return 0;
  }
  if (flags.get("list", false)) {
    std::printf("benchmarks (Table 3):\n");
    for (const auto& info : workloads::table3()) {
      std::printf("  %-14s %-10s %6.1f GB in, %6.1f GB shuffle, %d maps, "
                  "%d reducers (%s)\n",
                  info.name.c_str(), info.input_name.c_str(),
                  info.input_size.as_double() / 1e9,
                  info.shuffle_size.as_double() / 1e9, info.num_maps,
                  info.num_reduces, info.job_type.c_str());
    }
    return 0;
  }

  const AppChoice app = parse_app(flags.get("app", std::string("terasort")),
                                  flags.get("corpus", std::string("wikipedia")));
  const double size_gb = flags.get("size-gb", 20.0);
  const std::string strategy = flags.get("strategy", std::string("none"));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", 1));
  const int runs = flags.get("runs", 1);
  const bool fair = flags.get("fair", false);
  const bool show_config = flags.get("show-config", false);
  const std::string log_level = flags.get("log-level", std::string(""));
  if (!log_level.empty()) {
    LogLevel level = LogLevel::Warn;
    if (!log_level_from_name(log_level, level)) {
      std::fprintf(stderr, "unknown --log-level=%s\n", log_level.c_str());
      return 2;
    }
    Logger::instance().set_level(level);
  }
  g_run = mapreduce::parse_run_options(flags);
  if (flags.has("profile-out")) {
    g_run.profile_out =
        flags.get("profile-out", std::string("host_profile.json"));
  }
  g_run.progress = flags.get("progress", false);
  if (flags.get("no-eval-cache", false)) {
    tuner::set_eval_cache_enabled(false);
  }
  g_speculative = flags.get("speculative", false);
  g_dfs_replication = flags.get("dfs-replication", 3);
  if (g_dfs_replication < 1) {
    std::fprintf(stderr, "--dfs-replication wants a positive integer\n");
    return 2;
  }
  g_dfs_policy = flags.get("dfs-policy", std::string(""));
  if (!g_dfs_policy.empty() && g_dfs_policy != "rack-aware" &&
      g_dfs_policy != "same-rack" && g_dfs_policy != "spread") {
    std::fprintf(stderr, "unknown --dfs-policy=%s\n", g_dfs_policy.c_str());
    return 2;
  }
  flags.reject_unknown();
  mron::sim::ParallelRunner pool(g_run.jobs);

  if (strategy == "none" || strategy == "offline") {
    mapreduce::JobConfig cfg;
    if (strategy == "offline") {
      mapreduce::SimulationOptions opt;
      opt.cluster = g_run.cluster;
      mapreduce::Simulation sim(opt);
      const mapreduce::JobSpec spec = make_spec(sim, app, size_gb);
      const int maps = spec.input.valid()
                           ? static_cast<int>(
                                 sim.dfs().dataset(spec.input).blocks.size())
                           : spec.num_maps_override;
      cfg = baselines::offline_guide_config(spec, sim.dfs().block_size(),
                                            maps);
    }
    if (show_config) print_config(cfg);
    // Each seeded run is an independent simulation; results print in run
    // order whatever finished first, so output is identical at any --jobs.
    const auto results = pool.map<mapreduce::JobResult>(
        static_cast<std::size_t>(runs), [&](std::size_t i) {
          return run_once(app, size_gb, cfg,
                          seed + static_cast<std::uint64_t>(i), fair,
                          strategy);
        });
    for (const auto& r : results) print_result(strategy.c_str(), r);
    g_export.note_written();
    return 0;
  }

  if (strategy == "conservative") {
    struct ConservativeRun {
      mapreduce::JobResult result;
      mapreduce::JobConfig best_config;
    };
    const auto results = pool.map<ConservativeRun>(
        static_cast<std::size_t>(runs), [&](std::size_t i) {
          mapreduce::SimulationOptions opt;
          opt.seed = seed + static_cast<std::uint64_t>(i);
          opt.fair_scheduler = fair;
          apply_options(opt);
          mapreduce::Simulation sim(opt);
          tuner::TunerOptions topt;
          topt.strategy = tuner::TuningStrategy::Conservative;
          tuner::OnlineTuner online_tuner(topt);
          ConservativeRun out;
          auto& am = sim.submit_job(make_spec(sim, app, size_gb),
                                    [&](const mapreduce::JobResult& r) {
                                      out.result = r;
                                    });
          online_tuner.attach(am);
          sim.run();
          g_export.write_artifacts(sim);
          out.best_config = online_tuner.outcome(am.id()).best_config;
          g_export.offer_report(sim, /*phase=*/"1",
                                report_meta(app, "conservative"), opt.seed,
                                {{&out.result, &out.best_config}});
          return out;
        });
    for (const auto& run : results) {
      print_result("conservative", run.result);
      if (show_config) print_config(run.best_config);
    }
    g_export.note_written();
    return 0;
  }

  if (strategy == "aggressive") {
    mapreduce::SimulationOptions opt;
    opt.seed = seed;
    apply_options(opt);
    mapreduce::Simulation sim(opt);
    tuner::OnlineTuner online_tuner{tuner::TunerOptions{}};
    mapreduce::JobResult test_result;
    auto& am = sim.submit_job(
        make_spec(sim, app, size_gb),
        [&](const mapreduce::JobResult& r) { test_result = r; });
    online_tuner.attach(am);
    sim.run();
    g_export.write_artifacts(sim);
    const auto& out = online_tuner.outcome(am.id());
    g_export.offer_report(sim, /*phase=*/"0", report_meta(app, "aggressive"),
                          seed, {{&test_result, &out.best_config}});
    // The tuner's test run is the one worth inspecting — keep its artifacts
    // instead of letting the production runs below overwrite them. The run
    // report keeps flowing: phase "1" offers outrank the test run's, so it
    // ends up describing a production run (the Figure-7 comparison wants
    // tuned production vs default, not the gated test run).
    g_run.metrics_out.clear();
    g_run.trace_out.clear();
    g_run.audit_out.clear();
    g_run.profile_out.clear();
    g_run.trace_detail = false;
    std::printf("test run: %.1f s, %d waves, %d configurations\n",
                test_result.exec_time(), out.waves, out.configs_tried);
    if (show_config) print_config(out.best_config);
    const auto results = pool.map<mapreduce::JobResult>(
        static_cast<std::size_t>(runs), [&](std::size_t i) {
          return run_once(app, size_gb, out.best_config,
                          seed + 1 + static_cast<std::uint64_t>(i), fair,
                          "aggressive");
        });
    for (const auto& r : results) print_result("aggressive", r);
    g_export.note_written();
    return 0;
  }

  std::fprintf(stderr, "unknown --strategy=%s\n", strategy.c_str());
  return 2;
}

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(stderr);
    return 2;
  } catch (const std::exception& e) {
    // Bad export paths and the like surface as CheckError; a clean message
    // beats an abort for a command-line tool.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
