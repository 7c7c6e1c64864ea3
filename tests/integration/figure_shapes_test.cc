// Scaled-down versions of the paper's experiments, asserting the *shapes*
// the figures report — who wins and roughly by how much — so regressions in
// any layer (simulator, YARN, task models, tuner) surface as test failures.
//
// Jobs are shrunk (20-60 GB, fewer reducers) and run on one seed to keep
// the suite fast; the bench binaries run the full-size versions.
#include <gtest/gtest.h>

#include "baselines/offline_guide.h"
#include "mapreduce/simulation.h"
#include "tuner/online_tuner.h"
#include "workloads/benchmarks.h"

namespace mron {
namespace {

using mapreduce::JobConfig;
using mapreduce::JobResult;
using mapreduce::JobSpec;
using mapreduce::Simulation;
using mapreduce::SimulationOptions;
using mapreduce::TaskKind;
using workloads::Benchmark;
using workloads::Corpus;

JobResult run_terasort(const JobConfig& cfg, std::uint64_t seed,
                       double gb = 40) {
  SimulationOptions opt;
  opt.seed = seed;
  Simulation sim(opt);
  JobSpec spec = workloads::make_terasort(sim, gibibytes(gb));
  spec.config = cfg;
  return sim.run_job(std::move(spec));
}

JobConfig tune_terasort_aggressively(std::uint64_t seed, double gb = 40) {
  SimulationOptions opt;
  opt.seed = seed;
  Simulation sim(opt);
  JobSpec spec = workloads::make_terasort(sim, gibibytes(gb));
  tuner::TunerOptions topt;
  topt.climber.global_samples = 12;
  topt.climber.local_samples = 8;
  topt.climber.max_global_rounds = 3;
  tuner::OnlineTuner tuner(topt);
  auto& am = sim.submit_job(std::move(spec));
  tuner.attach(am);
  sim.run();
  return tuner.outcome(am.id()).best_config;
}

// Figure 4-6 shape: MRONLINE's expedited test run finds a configuration
// that beats the default by a double-digit percentage on a rerun.
TEST(FigureShape, ExpeditedTuningBeatsDefault) {
  const double def = run_terasort(JobConfig{}, 31).exec_time();
  const JobConfig best = tune_terasort_aggressively(77);
  const double tuned = run_terasort(best, 31).exec_time();
  EXPECT_LT(tuned, def * 0.90);  // at least 10%; paper reports 23%
}

// Figure 4-6 shape: the offline guide and MRONLINE land in the same
// neighborhood (the paper's point is run-count, not end quality).
TEST(FigureShape, OfflineGuideComparableToMronline) {
  SimulationOptions opt;
  Simulation sim(opt);
  const JobSpec spec = workloads::make_terasort(sim, gibibytes(20));
  const JobConfig offline = baselines::offline_guide_config(
      spec, sim.dfs().block_size(), 160);
  const double off = run_terasort(offline, 31).exec_time();
  const JobConfig best = tune_terasort_aggressively(77);
  const double tuned = run_terasort(best, 31).exec_time();
  EXPECT_LT(std::abs(off - tuned) / off, 0.30);
}

// Figure 7-9 shape: default spills ~2x the optimal; MRONLINE reaches the
// optimal exactly.
TEST(FigureShape, SpillRecordsReachOptimal) {
  const JobResult def = run_terasort(JobConfig{}, 31);
  EXPECT_GT(def.counters.map.spilled_records,
            static_cast<std::int64_t>(
                1.8 * static_cast<double>(
                          def.counters.map.combine_output_records)));
  const JobConfig best = tune_terasort_aggressively(77);
  const JobResult tuned = run_terasort(best, 31);
  EXPECT_EQ(tuned.counters.map.spilled_records,
            tuned.counters.map.combine_output_records);
}

// Figure 10-12 shape: conservative in-run tuning helps a single execution
// without any launch gating.
TEST(FigureShape, ConservativeTuningImprovesSingleRun) {
  const double def = run_terasort(JobConfig{}, 31, 60).exec_time();
  SimulationOptions opt;
  opt.seed = 31;
  Simulation sim(opt);
  JobSpec spec = workloads::make_terasort(sim, gibibytes(60));
  tuner::TunerOptions topt;
  topt.strategy = tuner::TuningStrategy::Conservative;
  tuner::OnlineTuner tuner(topt);
  double tuned = 0.0;
  auto& am = sim.submit_job(std::move(spec), [&](const JobResult& r) {
    tuned = r.exec_time();
  });
  tuner.attach(am);
  sim.run();
  EXPECT_LT(tuned, def * 0.95);  // paper band: 8-22%
}

// The flip side: an 8 GB terasort (64 maps, 16 reduces) runs in a single
// wave, so conservative tuning has nothing to change. Every attempt
// launches before the first config push (t = 30.3 s), every map has fixed
// its spill plan by then, and the reduce push at 107.9 s lands after the
// last shuffle. The six pushes reach only running attempts, and the run
// ends identical to the default one, as `mron_cli --app=terasort
// --size-gb=8 --strategy=conservative` shows.
TEST(FigureShape, ConservativePushesChangeNothingInASingleWave) {
  const JobResult def = run_terasort(JobConfig{}, 1, 8);
  SimulationOptions opt;
  opt.seed = 1;
  opt.observe = true;
  Simulation sim(opt);
  tuner::TunerOptions topt;
  topt.strategy = tuner::TuningStrategy::Conservative;
  tuner::OnlineTuner tuner(topt);
  JobResult tuned;
  auto& am = sim.submit_job(workloads::make_terasort(sim, gibibytes(8)),
                            [&](const JobResult& r) { tuned = r; });
  tuner.attach(am);
  constexpr double kBeforeFirstPush = 30.0;
  sim.engine().run_until(kBeforeFirstPush);
  auto& spill_records =
      sim.recorder()->metrics().counter("mr.map.spill_records");
  const double spilled_before_push = spill_records.value();
  sim.run();

  std::vector<double> pushes;
  for (const auto& ev : sim.recorder()->audit().events()) {
    if (ev.kind == "config_push") pushes.push_back(ev.time);
  }
  ASSERT_EQ(pushes.size(), 6u);
  EXPECT_NEAR(pushes.front(), 30.3, 0.05);
  EXPECT_NEAR(pushes.back(), 107.9, 0.05);

  ASSERT_EQ(tuned.map_reports.size(), 64u);
  ASSERT_EQ(tuned.reduce_reports.size(), 16u);
  for (const auto* reports : {&tuned.map_reports, &tuned.reduce_reports}) {
    for (const auto& r : *reports) EXPECT_LT(r.start_time, pushes.front());
  }
  EXPECT_EQ(spilled_before_push, spill_records.value());

  EXPECT_EQ(tuned.exec_time(), def.exec_time());
  EXPECT_NEAR(tuned.exec_time(), 123.0, 0.05);
  EXPECT_EQ(tuned.counters.map.spilled_records,
            def.counters.map.spilled_records);
  EXPECT_EQ(tuned.counters.reduce.spilled_records,
            def.counters.reduce.spilled_records);
}

// Figure 13 shape: tuning a tiny job yields little; a big one yields a lot.
TEST(FigureShape, SmallJobsGainLessThanBigJobs) {
  auto improvement = [](double gb) {
    const double def = run_terasort(JobConfig{}, 31, gb).exec_time();
    const JobConfig best = tune_terasort_aggressively(77, gb);
    const double tuned = run_terasort(best, 31, gb).exec_time();
    return (def - tuned) / def;
  };
  const double small = improvement(2);
  const double big = improvement(40);
  EXPECT_GT(big, 0.10);
  EXPECT_LT(small, big);
}

// Figure 14-16 shape: in the multi-tenant run, per-job tuning lowers both
// exec times and raises Terasort's memory utilization.
TEST(FigureShape, MultiTenantTuningHelpsBothJobs) {
  auto run_pair = [](const JobConfig& tera_cfg, const JobConfig& bbp_cfg) {
    SimulationOptions opt;
    opt.seed = 13;
    opt.fair_scheduler = true;
    Simulation sim(opt);
    JobSpec tera = workloads::make_terasort(sim, gibibytes(20), 40);
    tera.config = tera_cfg;
    JobSpec bbp = workloads::make_bbp(40);
    bbp.config = bbp_cfg;
    struct Out {
      double tera_secs = 0, bbp_secs = 0, tera_mem = 0;
    } out;
    sim.submit_job(std::move(tera), [&](const JobResult& r) {
      out.tera_secs = r.exec_time();
      out.tera_mem = r.avg_util(TaskKind::Map, false);
    });
    sim.submit_job(std::move(bbp),
                   [&](const JobResult& r) { out.bbp_secs = r.exec_time(); });
    sim.run();
    return out;
  };
  const auto def = run_pair(JobConfig{}, JobConfig{});
  // Hand the jobs paper-flavored tuned configs (derived shapes): compact
  // Terasort containers with a single-spill buffer; more vcores for BBP.
  JobConfig tera_cfg;
  tera_cfg.map_memory_mb = 640;
  tera_cfg.io_sort_mb = 176;
  tera_cfg.sort_spill_percent = 0.99;
  tera_cfg.reduce_memory_mb = 960;
  tera_cfg.shuffle_input_buffer_percent = 0.8;
  tera_cfg.reduce_input_buffer_percent = 0.8;
  tera_cfg.merge_inmem_threshold = 0;
  JobConfig bbp_cfg;
  bbp_cfg.map_cpu_vcores = 2;
  bbp_cfg.map_memory_mb = 512;
  const auto tuned = run_pair(tera_cfg, bbp_cfg);
  EXPECT_LT(tuned.tera_secs, def.tera_secs);
  EXPECT_LT(tuned.bbp_secs, def.bbp_secs);
  EXPECT_GT(tuned.tera_mem, def.tera_mem);
}

// The BBP CPU story of Figure 16: with 1 vcore its mappers saturate the
// quota; 2 vcores cut its runtime substantially.
TEST(FigureShape, BbpSaturatesOneVcoreAndScalesWithTwo) {
  auto run_bbp = [](double vcores) {
    SimulationOptions opt;
    opt.seed = 9;
    Simulation sim(opt);
    JobSpec spec = workloads::make_bbp(40);
    spec.config.map_cpu_vcores = vcores;
    return sim.run_job(std::move(spec));
  };
  const JobResult one = run_bbp(1);
  EXPECT_GT(one.avg_util(TaskKind::Map, true), 0.95);
  const JobResult two = run_bbp(2);
  EXPECT_LT(two.exec_time(), one.exec_time() * 0.75);
}

}  // namespace
}  // namespace mron
