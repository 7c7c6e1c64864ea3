#include "mapreduce/run_options.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/flags.h"
#include "mapreduce/simulation.h"
#include "workloads/benchmarks.h"

namespace mron::mapreduce {
namespace {

/// Parse `args` the way a driver does: the shared flags, then nothing else
/// may be left over.
RunOptions parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  const Flags flags(static_cast<int>(args.size()), args.data());
  RunOptions run = parse_run_options(flags);
  flags.reject_unknown();
  return run;
}

std::string plan_file() {
  const std::string path = testing::TempDir() + "run_options_test.plan";
  std::ofstream(path) << "seed 7\ntaskfail prob=0.05\n";
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

struct Case {
  std::vector<const char*> args;
  int jobs = 1;
  std::string metrics_out{}, trace_out{}, audit_out{}, report_out{};
  bool trace_detail = false;
  int slaves = 18;  // the 19-node testbed
  bool faulted = false;
};

TEST(RunOptions, EachFlagMapsToItsField) {
  const std::string plan = "--fault-plan=" + plan_file();
  const std::vector<Case> cases = {
      {.args = {}},
      {.args = {"--jobs=3"}, .jobs = 3},
      {.args = {"--jobs", "4"}, .jobs = 4},
      {.args = {"--metrics-out=m.json"}, .metrics_out = "m.json"},
      {.args = {"--trace-out=t.json"}, .trace_out = "t.json"},
      {.args = {"--audit-out", "a.jsonl"}, .audit_out = "a.jsonl"},
      {.args = {"--report-out=r.json"}, .report_out = "r.json"},
      // A bare export flag gets its default file name.
      {.args = {"--metrics-out"}, .metrics_out = "mron_metrics.json"},
      {.args = {"--trace-out"}, .trace_out = "mron_trace.json"},
      {.args = {"--audit-out"}, .audit_out = "mron_audit.jsonl"},
      {.args = {"--report-out"}, .report_out = "mron_report.json"},
      // ... and never swallows the flag after it.
      {.args = {"--report-out", "--jobs=2"},
       .jobs = 2,
       .report_out = "mron_report.json"},
      {.args = {"--trace-detail"}, .trace_detail = true},
      {.args = {"--cluster=nodes:63"}, .slaves = 63},
      {.args = {"--fault-spec=taskfail prob=0.05; seed 7"}, .faulted = true},
      {.args = {plan.c_str()}, .faulted = true},
  };
  for (const Case& c : cases) {
    const std::string label =
        c.args.empty() ? std::string("(no flags)") : std::string(c.args[0]);
    const RunOptions run = parse(c.args);
    EXPECT_EQ(run.jobs, c.jobs) << label;
    EXPECT_EQ(run.metrics_out, c.metrics_out) << label;
    EXPECT_EQ(run.trace_out, c.trace_out) << label;
    EXPECT_EQ(run.audit_out, c.audit_out) << label;
    EXPECT_EQ(run.report_out, c.report_out) << label;
    EXPECT_EQ(run.trace_detail, c.trace_detail) << label;
    EXPECT_EQ(run.cluster.total_slaves(), c.slaves) << label;
    EXPECT_EQ(!run.fault_plan.empty(), c.faulted) << label;
    // Driver-only fields are never read from the shared flags.
    EXPECT_TRUE(run.profile_out.empty()) << label;
    EXPECT_FALSE(run.progress) << label;
  }
}

TEST(RunOptions, MalformedOrConflictingFlagsRejected) {
  const std::string plan = "--fault-plan=" + plan_file();
  const std::vector<std::vector<const char*>> bad = {
      {"--jobs=0"},
      {"--jobs=-2"},
      {"--jobs=abc"},
      {"--jobs=2.5"},
      {"--jobs=2x"},
      {"--jobs"},
      {"--report-out", "--jobs=abc"},
      {"--trace-detail=maybe"},
      {plan.c_str(), "--fault-spec=seed 7"},
      {"--metrics-out=m.json", "--strateegy=aggressive"},
      {"--metrics-out", "stray.json", "extra"},
  };
  for (const auto& args : bad) {
    EXPECT_THROW((void)parse(args), FlagError) << args[0];
  }
}

TEST(RunOptions, ApplyObservesOnlyWhenAnExportIsSet) {
  RunOptions run;
  run.trace_detail = true;
  run.progress = true;
  run.cluster = cluster::load_cluster_spec("nodes:63");
  run.fault_plan = faults::FaultPlan::parse("taskfail prob=0.05; seed 7");
  SimulationOptions opt;
  run.apply(opt);
  EXPECT_FALSE(opt.observe);
  EXPECT_FALSE(opt.trace_detail);
  EXPECT_FALSE(opt.host_profile);
  EXPECT_TRUE(opt.progress);
  EXPECT_EQ(opt.cluster.total_slaves(), 63);
  EXPECT_FALSE(opt.fault_plan.empty());

  run.report_out = "r.json";
  run.profile_out = "p.json";
  SimulationOptions observed;
  run.apply(observed);
  EXPECT_TRUE(observed.observe);
  EXPECT_TRUE(observed.trace_detail);
  EXPECT_TRUE(observed.host_profile);
}

TEST(RunOptions, ExporterWritesArtifactsAndPadsTheReportSeed) {
  RunOptions run;
  run.metrics_out = testing::TempDir() + "run_options_metrics.json";
  run.report_out = testing::TempDir() + "run_options_report.json";
  std::remove(run.metrics_out.c_str());
  std::remove(run.report_out.c_str());
  RunExporter exporter(run);
  SimulationOptions opt;
  opt.seed = 42;
  run.apply(opt);
  Simulation sim(opt);
  const JobConfig cfg;
  JobSpec spec = workloads::make_terasort(sim, gibibytes(1));
  spec.config = cfg;
  const JobResult result = sim.run_job(std::move(spec));
  exporter.write_artifacts(sim);
  exporter.offer_report(sim, "1", {{"app", "terasort"}}, opt.seed,
                        {{&result, &cfg}});
  const std::string report = slurp(run.report_out);
  EXPECT_NE(report.find("00000000000000000042"), std::string::npos);
  EXPECT_NE(report.find("terasort"), std::string::npos);
  EXPECT_EQ(!slurp(run.metrics_out).empty(), sim.recorder() != nullptr);
}

}  // namespace
}  // namespace mron::mapreduce
