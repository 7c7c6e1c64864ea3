#include "mapreduce/run_options.h"

#include <cstdio>
#include <fstream>

#include "common/check.h"
#include "common/flags.h"
#include "mapreduce/report_rollup.h"
#include "mapreduce/simulation.h"

namespace mron::mapreduce {

void RunOptions::apply(SimulationOptions& opt) const {
  opt.cluster = cluster;
  opt.fault_plan = fault_plan;
  opt.host_profile = !profile_out.empty();
  opt.progress = progress;
  if (!observed()) return;
  opt.observe = true;
  opt.trace_detail = trace_detail;
}

RunOptions parse_run_options(const Flags& flags) {
  RunOptions run;
  run.jobs = flags.get("jobs", 1);
  if (run.jobs < 1) {
    throw FlagError("--jobs wants a positive integer, got " +
                    std::to_string(run.jobs));
  }
  auto out_path = [&](const std::string& name, const char* bare) {
    return flags.has(name) ? flags.get(name, std::string(bare)) : "";
  };
  run.metrics_out = out_path("metrics-out", "mron_metrics.json");
  run.trace_out = out_path("trace-out", "mron_trace.json");
  run.audit_out = out_path("audit-out", "mron_audit.jsonl");
  run.report_out = out_path("report-out", "mron_report.json");
  run.trace_detail = flags.get("trace-detail", false);
  const std::string plan_path = flags.get("fault-plan", std::string());
  const std::string fault_spec = flags.get("fault-spec", std::string());
  if (!plan_path.empty() && !fault_spec.empty()) {
    throw FlagError("--fault-plan and --fault-spec are exclusive");
  }
  if (!plan_path.empty()) {
    run.fault_plan = faults::FaultPlan::load(plan_path);
  } else if (!fault_spec.empty()) {
    run.fault_plan = faults::FaultPlan::parse(fault_spec);
  }
  const std::string cluster_spec = flags.get("cluster", std::string());
  if (!cluster_spec.empty()) {
    run.cluster = cluster::load_cluster_spec(cluster_spec);
  }
  return run;
}

void RunExporter::write_artifacts(Simulation& sim) {
  auto* rec = sim.recorder();
  auto* profiler = sim.host_profiler();
  if (rec == nullptr && profiler == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto write = [&](const std::string& path, auto&& writer) {
    if (path.empty()) return;
    std::ofstream out(path);
    MRON_CHECK_MSG(out.good(), "cannot open " << path);
    writer(out);
    written_.insert(path);
  };
  if (rec != nullptr) {
    write(options_.metrics_out,
          [&](std::ostream& o) { rec->metrics().write_json(o); });
    if (!options_.trace_out.empty() && profiler != nullptr) {
      // Optional host-time lane: only profiled traces carry it, so plain
      // traces stay deterministic.
      profiler->emit_trace_track(rec->trace());
    }
    write(options_.trace_out,
          [&](std::ostream& o) { rec->trace().write_chrome_json(o); });
    write(options_.audit_out,
          [&](std::ostream& o) { rec->audit().write_jsonl(o); });
  }
  write(options_.profile_out,
        [&](std::ostream& o) { sim.write_host_profile(o); });
}

void RunExporter::offer_report(const Simulation& sim,
                               const std::string& phase, ReportMeta meta,
                               std::uint64_t seed, const ReportJobs& jobs) {
  if (options_.report_out.empty() || jobs.empty()) return;
  char seed_buf[32];
  std::snprintf(seed_buf, sizeof(seed_buf), "%020llu",
                static_cast<unsigned long long>(seed));
  meta.emplace_back("run_seed", seed_buf);
  reports_.offer(run_report_key(phase, meta, *jobs.front().second),
                 run_report_json(sim, jobs, meta), options_.report_out);
}

void RunExporter::note_written() const {
  for (const auto& path : written_) {
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  if (!options_.report_out.empty() && !reports_.empty()) {
    std::fprintf(stderr, "wrote %s\n", options_.report_out.c_str());
  }
}

}  // namespace mron::mapreduce
