// JobResult -> RunReport rollup: the MapReduce-aware half of the run
// report.
//
// The AM already rolls task counters up to JobCounters (task -> job); this
// header turns that plus the task reports into the generic obs::ReportJob
// shape (named numbers only), and assembles whole-run reports from a
// Simulation — obs stays MapReduce-agnostic, mapreduce stays
// serialization-agnostic.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "mapreduce/job.h"
#include "obs/report.h"

namespace mron::mapreduce {

class Simulation;

/// Roll one finished job up into a report entry. `config` is the job-level
/// configuration it ran with (tuned runs pass the tuned config); the full
/// extended parameter registry is dumped into ReportJob::config.
obs::ReportJob report_job_from(const JobResult& result,
                               const JobConfig& config);

/// Assemble a whole-run report: meta entries (in order), one ReportJob per
/// (result, config) pair, serialized against the simulation's flight
/// recorder (series/metrics/audit sections are empty when observation is
/// off). Returns the serialized JSON.
std::string run_report_json(
    const Simulation& sim,
    const std::vector<std::pair<const JobResult*, const JobConfig*>>& jobs,
    const std::vector<std::pair<std::string, std::string>>& meta);

/// Deterministic collector key for a run: "<phase>|<meta k=v...>|<config
/// digest>". Lexicographic order on these keys is the export priority —
/// higher phase strings beat lower ones, then meta, then config — and
/// distinct runs always produce distinct keys.
std::string run_report_key(
    const std::string& phase,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const JobConfig& config);

}  // namespace mron::mapreduce
