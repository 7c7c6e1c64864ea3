#include "whatif/predictor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "cluster/cluster_spec.h"
#include "common/check.h"
#include "mapreduce/simulation.h"
#include "workloads/benchmarks.h"

namespace mron::whatif {
namespace {

using mapreduce::JobConfig;

PredictionInputs terasort_inputs(double gb) {
  PredictionInputs in;
  in.profile = workloads::profile_for(workloads::Benchmark::Terasort,
                                      workloads::Corpus::Synthetic);
  in.input_size = gibibytes(gb);
  in.num_reduces = static_cast<int>(gb * 8 / 4);  // maps/4, like the paper
  return in;
}

TEST(Predictor, GeometryFollowsContainerSizes) {
  auto in = terasort_inputs(20);
  const auto base = predict(in);
  EXPECT_EQ(base.map_slots_per_node, 6);  // 6 GB / 1 GB defaults
  in.config.map_memory_mb = 512;
  const auto small = predict(in);
  EXPECT_EQ(small.map_slots_per_node, 12);
  EXPECT_LE(small.map_waves, base.map_waves);
}

TEST(Predictor, SpillCountsMatchAnalyticPlan) {
  auto in = terasort_inputs(20);
  const auto pred = predict(in);
  // Default config double-spills Terasort blocks: 2x the record count.
  const double records = gibibytes(20).as_double() / 100.0;
  EXPECT_NEAR(static_cast<double>(pred.map_spill_records), 2.0 * records,
              records * 0.05);
  in.config.io_sort_mb = 256;
  in.config.sort_spill_percent = 0.99;
  const auto tuned = predict(in);
  EXPECT_NEAR(static_cast<double>(tuned.map_spill_records), records,
              records * 0.05);
}

TEST(Predictor, BiggerSortBufferPredictsFasterMaps) {
  auto in = terasort_inputs(20);
  const auto base = predict(in);
  in.config.io_sort_mb = 256;
  in.config.sort_spill_percent = 0.99;
  const auto tuned = predict(in);
  EXPECT_LT(tuned.map_task_secs, base.map_task_secs);
}

TEST(Predictor, CompressionShrinksShuffle) {
  auto in = terasort_inputs(20);
  const auto base = predict(in);
  in.config.map_output_compress = 1;
  const auto comp = predict(in);
  EXPECT_LT(comp.shuffle_bytes.as_double(),
            base.shuffle_bytes.as_double() * 0.5);
}

TEST(Predictor, TracksSimulatorWithinFactorTwo) {
  // The what-if engine's promise and its weakness: the prediction should
  // land in the simulator's neighborhood but not exactly on it.
  for (double gb : {10.0, 20.0, 40.0}) {
    auto in = terasort_inputs(gb);
    const auto pred = predict(in);
    mapreduce::SimulationOptions opt;
    opt.seed = 77;
    mapreduce::Simulation sim(opt);
    auto spec = workloads::make_terasort(sim, gibibytes(gb));
    const double simulated = sim.run_job(std::move(spec)).exec_time();
    EXPECT_GT(pred.total_secs, simulated * 0.5) << gb;
    EXPECT_LT(pred.total_secs, simulated * 2.0) << gb;
  }
}

TEST(Predictor, RejectsImpossibleContainers) {
  auto in = terasort_inputs(10);
  in.config.map_memory_mb = 3072;
  in.cluster.container_memory = gibibytes(2);
  EXPECT_THROW((void)predict(in), CheckError);
}

TEST(Predictor, OversizedReduceContainerIsInfinitelyExpensive) {
  // Regression: reduce_slots_per_node == 0 used to silently skip the
  // reduce phase, scoring an impossible reduce container as free.
  auto in = terasort_inputs(10);
  in.config.reduce_memory_mb = 3072;
  in.cluster.container_memory = gibibytes(2);
  in.config.map_memory_mb = 1024;  // map side still fits
  const auto pred = predict(in);
  EXPECT_EQ(pred.reduce_slots_per_node, 0);
  EXPECT_TRUE(std::isinf(pred.total_secs));
  EXPECT_TRUE(std::isinf(pred.reduce_phase_secs));
}

TEST(Predictor, ZeroReducesStillPredictsMapOnlyJobs) {
  // Map-only jobs keep a finite prediction regardless of reduce geometry.
  auto in = terasort_inputs(10);
  in.num_reduces = 0;
  in.config.reduce_memory_mb = 3072;
  in.cluster.container_memory = gibibytes(2);
  in.config.map_memory_mb = 1024;
  const auto pred = predict(in);
  EXPECT_TRUE(std::isfinite(pred.total_secs));
  EXPECT_GT(pred.total_secs, 0.0);
}

TEST(CostBasedOptimizer, BeatsDefaultOnItsOwnModel) {
  const auto in = terasort_inputs(20);
  const JobConfig best = optimize_with_model(in, 1500, 4);
  PredictionInputs tuned = in;
  tuned.config = best;
  EXPECT_LT(predict(tuned).total_secs, predict(in).total_secs * 0.9);
}

TEST(CostBasedOptimizer, ModelChosenConfigHelpsOnSimulatorToo) {
  // The Starfish premise: a good-enough model transfers. (MRONLINE's
  // counterpoint — the model can mislead — shows up as a smaller gain
  // than the model promised, measured in bench/ext_whatif.)
  const auto in = terasort_inputs(20);
  const JobConfig best = optimize_with_model(in, 1500, 4);
  auto run = [](const JobConfig& cfg) {
    mapreduce::SimulationOptions opt;
    opt.seed = 9;
    mapreduce::Simulation sim(opt);
    auto spec = workloads::make_terasort(sim, gibibytes(20));
    spec.config = cfg;
    return sim.run_job(std::move(spec)).exec_time();
  };
  EXPECT_LT(run(best), run(JobConfig{}));
}

TEST(CostBasedOptimizer, WinnerIdenticalAcrossJobs) {
  // Fan-out changes wall-clock only: each chain owns its probe inputs, so
  // the winner is byte-identical (JobConfig operator==) serial or parallel.
  const auto in = terasort_inputs(20);
  EXPECT_EQ(optimize_with_model(in, 1200, 7, 3, 1),
            optimize_with_model(in, 1200, 7, 3, 4));
}

TEST(CostBasedOptimizer, GoldenWinnersPinned) {
  // Exact winners of the default-budget search on two geometries, single
  // chain and four restarts. Any change to the search trajectory, the RNG
  // stream or predict()'s arithmetic moves at least one field.
  struct Case {
    const char* cluster;
    double gb;
    int restarts;
    JobConfig winner;
  };
  const Case cases[] = {
      {"testbed19", 20, 1,
       {.map_memory_mb = 654,
        .reduce_memory_mb = 1795,
        .io_sort_mb = 398,
        .sort_spill_percent = 0.68842236917542876,
        .shuffle_input_buffer_percent = 0.80274771374169207,
        .shuffle_merge_percent = 0.78682955949746769,
        .shuffle_memory_limit_percent = 0.29973207716188305,
        .merge_inmem_threshold = 217,
        .reduce_input_buffer_percent = 0.56383652432072284,
        .map_cpu_vcores = 1,
        .reduce_cpu_vcores = 4,
        .io_sort_factor = 92,
        .shuffle_parallelcopies = 50,
        .map_output_compress = 0,
        .dfs_replication = 3}},
      {"testbed19", 20, 4,
       {.map_memory_mb = 680,
        .reduce_memory_mb = 1585,
        .io_sort_mb = 424,
        .sort_spill_percent = 0.69648360141023913,
        .shuffle_input_buffer_percent = 0.76078904412841231,
        .shuffle_merge_percent = 0.76078904412841231,
        .shuffle_memory_limit_percent = 0.37094387573835536,
        .merge_inmem_threshold = 5310,
        .reduce_input_buffer_percent = 0.59374859789582657,
        .map_cpu_vcores = 3,
        .reduce_cpu_vcores = 3,
        .io_sort_factor = 59,
        .shuffle_parallelcopies = 50,
        .map_output_compress = 0,
        .dfs_replication = 3}},
      {"nodes:64", 100, 1,
       {.map_memory_mb = 834,
        .reduce_memory_mb = 1252,
        .io_sort_mb = 578,
        .sort_spill_percent = 0.69485461530698511,
        .shuffle_input_buffer_percent = 0.48069520644690017,
        .shuffle_merge_percent = 0.35650921781299083,
        .shuffle_memory_limit_percent = 0.4012196116303125,
        .merge_inmem_threshold = 3049,
        .reduce_input_buffer_percent = 0.28579446770321398,
        .map_cpu_vcores = 1,
        .reduce_cpu_vcores = 1,
        .io_sort_factor = 44,
        .shuffle_parallelcopies = 50,
        .map_output_compress = 0,
        .dfs_replication = 3}},
      {"nodes:64", 100, 4,
       {.map_memory_mb = 796,
        .reduce_memory_mb = 1354,
        .io_sort_mb = 295,
        .sort_spill_percent = 0.6346215347544979,
        .shuffle_input_buffer_percent = 0.48786491639328539,
        .shuffle_merge_percent = 0.48531771504072796,
        .shuffle_memory_limit_percent = 0.34863084183547283,
        .merge_inmem_threshold = 6351,
        .reduce_input_buffer_percent = 0.38974751626512943,
        .map_cpu_vcores = 1,
        .reduce_cpu_vcores = 4,
        .io_sort_factor = 26,
        .shuffle_parallelcopies = 50,
        .map_output_compress = 0,
        .dfs_replication = 3}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.cluster) + " restarts=" +
                 std::to_string(c.restarts));
    auto in = terasort_inputs(c.gb);
    in.cluster = cluster::load_cluster_spec(c.cluster);
    EXPECT_EQ(optimize_with_model(in, 2000, 4, c.restarts, 1), c.winner);
  }
}

TEST(Predictor, AllOnesNodeSlowdownMatchesEmptyExactly) {
  auto in = terasort_inputs(20);
  const auto base = predict(in);
  in.node_slowdown.assign(static_cast<std::size_t>(in.cluster.num_slaves),
                          1.0);
  const auto same = predict(in);
  // The documented contract: an all-1.0 vector is byte-identical to the
  // homogeneous (empty) case.
  EXPECT_DOUBLE_EQ(same.map_task_secs, base.map_task_secs);
  EXPECT_DOUBLE_EQ(same.reduce_task_secs, base.reduce_task_secs);
  EXPECT_DOUBLE_EQ(same.map_phase_secs, base.map_phase_secs);
  EXPECT_DOUBLE_EQ(same.reduce_phase_secs, base.reduce_phase_secs);
  EXPECT_DOUBLE_EQ(same.total_secs, base.total_secs);
  EXPECT_EQ(same.map_waves, base.map_waves);
  EXPECT_EQ(same.map_spill_records, base.map_spill_records);
}

TEST(Predictor, SlowNodesLengthenTheJob) {
  auto in = terasort_inputs(20);
  const auto base = predict(in);
  in.node_slowdown.assign(static_cast<std::size_t>(in.cluster.num_slaves),
                          1.0);
  in.node_slowdown[0] = 3.0;  // one recovering host, three times slower
  const auto one_slow = predict(in);
  EXPECT_GT(one_slow.total_secs, base.total_secs);
  // Degrading more of the cluster can only make things worse.
  in.node_slowdown[1] = 3.0;
  in.node_slowdown[2] = 3.0;
  const auto three_slow = predict(in);
  EXPECT_GE(three_slow.total_secs, one_slow.total_secs);
}

TEST(Predictor, NodeSlowdownVectorMustMatchClusterSize) {
  auto in = terasort_inputs(20);
  in.node_slowdown = {1.0, 2.0};  // cluster has more slaves than this
  EXPECT_THROW((void)predict(in), CheckError);
}

}  // namespace
}  // namespace mron::whatif
