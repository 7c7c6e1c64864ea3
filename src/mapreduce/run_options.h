// Run options: the command-line surface every driver that starts
// simulations shares (mron_cli and the bench binaries). One parse of the
// shared flags, one mapping into SimulationOptions, one exporter. Flags
// only one driver accepts (mron_cli's --profile-out, --progress, --dfs-*;
// --no-eval-cache, which belongs to the tuner) stay in that driver.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_spec.h"
#include "faults/fault_plan.h"
#include "mapreduce/job.h"
#include "obs/report.h"

namespace mron {
class Flags;
}

namespace mron::mapreduce {

class Simulation;
struct SimulationOptions;

struct RunOptions {
  cluster::ClusterSpec cluster;  ///< --cluster; the 19-node testbed
  faults::FaultPlan fault_plan;  ///< --fault-plan / --fault-spec
  int jobs = 1;                  ///< --jobs: worker threads
  bool trace_detail = false;     ///< phase + shuffle-fetch spans
  /// Artifact paths (empty = don't write). Any of the four turns
  /// observation on; profile_out never does, so profiling cannot perturb
  /// the deterministic exports.
  std::string metrics_out, trace_out, audit_out, report_out, profile_out;
  bool progress = false;  ///< stderr heartbeat; never touches an artifact

  [[nodiscard]] bool observed() const {
    return !metrics_out.empty() || !trace_out.empty() ||
           !audit_out.empty() || !report_out.empty();
  }
  void apply(SimulationOptions& opt) const;
};

inline constexpr const char* kRunFlagsUsage =
    " [--jobs=N] [--metrics-out[=F]] [--trace-out[=F]] [--audit-out[=F]]"
    " [--report-out[=F]] [--trace-detail] [--fault-plan=F]"
    " [--fault-spec='directives'] [--cluster=SPEC]";

/// Read the shared flags; a bare --*-out gets mron_metrics.json /
/// mron_trace.json / mron_audit.jsonl / mron_report.json. Throws FlagError
/// on a --jobs that is not a positive integer and on --fault-plan together
/// with --fault-spec.
RunOptions parse_run_options(const Flags& flags);

using ReportJobs = std::vector<std::pair<const JobResult*, const JobConfig*>>;
using ReportMeta = std::vector<std::pair<std::string, std::string>>;

/// Exports finished runs, which may finish on several workers at once:
/// artifact files are rewritten whole under one mutex (the last run wins),
/// the report goes to the greatest-keyed run, so it is byte-identical at
/// any --jobs.
class RunExporter {
 public:
  /// `options` must outlive the exporter; a driver may narrow it between
  /// runs and later exports follow.
  explicit RunExporter(const RunOptions& options) : options_(options) {}

  /// Metrics, trace, audit and host-profile files of a finished run.
  void write_artifacts(Simulation& sim);
  /// Offer a run to the report collector. `meta` gets a trailing
  /// zero-padded "run_seed", so seeds sort the same as text and as numbers;
  /// `phase` ranks runs ahead of meta.
  void offer_report(const Simulation& sim, const std::string& phase,
                    ReportMeta meta, std::uint64_t seed,
                    const ReportJobs& jobs);
  /// One "wrote F" line on stderr per file written so far.
  void note_written() const;

 private:
  const RunOptions& options_;
  std::mutex mu_;
  std::set<std::string> written_;
  obs::ReportCollector reports_;
};

}  // namespace mron::mapreduce
