// One map-task attempt executing inside a container.
//
// Phase pipeline (Section 4/6 mechanics):
//   1. admission  — working set vs. container memory; an over-committed
//                   container fails with OOM after a startup-and-die delay;
//   2. read+map   — input split read (local disk, or remote disk + network
//                   for non-local splits) pipelined with user map() CPU;
//   3. sort+spill — the plan_map_spills() byte/record plan charged to the
//                   local disk plus per-record sort CPU.
//
// Category-III parameters (sort.spill.percent) may be re-pushed while the
// task runs via update_config(); they take effect because the spill plan is
// materialized only when phase 3 begins.
#pragma once

#include <functional>

#include "cluster/fabric.h"
#include "cluster/node.h"
#include "common/rng.h"
#include "dfs/dfs.h"
#include "mapreduce/job.h"
#include "mapreduce/spill_model.h"
#include "mapreduce/task_event_counters.h"
#include "obs/trace.h"
#include "sim/engine.h"

namespace mron::mapreduce {

class MapTask {
 public:
  struct Inputs {
    TaskRef task;
    int attempt = 1;
    Bytes input_bytes;
    cluster::NodeId source;       ///< replica the split is read from
    dfs::Locality locality = dfs::Locality::NodeLocal;
    /// Job-level working-set scale (drawn once per job): the app's memory
    /// footprint is a property of the program, near-constant across tasks.
    double ws_factor = 1.0;
    /// Multiplicative service-time noise CV (JobSpec::noise_cv).
    double noise_cv = 0.08;
    /// Trace lane (container id) for the attempt's phase spans.
    std::int64_t trace_tid = 0;
    /// Critical path (obs/critical_path.h): owning job id, the attempt's
    /// "map_start" node, and whether this is a speculative backup (its
    /// compute segments are then blamed on speculation). cp_job < 0
    /// disables emission (unobserved runs, unit tests).
    std::int64_t cp_job = -1;
    std::int64_t cp_start = -1;
    bool cp_speculative = false;
    /// The owning job's counter handles; required when the engine has a
    /// recorder, and may stay null otherwise (unit tests).
    TaskEventCounters* counters = nullptr;
  };
  /// Fired once, with the attempt's report (failed_oom set on OOM).
  using Done = std::function<void(const TaskReport&)>;

  MapTask(sim::Engine& engine, cluster::Node& node, cluster::Node& source,
          cluster::Fabric& fabric, const AppProfile& profile,
          const JobConfig& config, const Inputs& inputs, Rng rng, Done done);

  MapTask(const MapTask&) = delete;
  MapTask& operator=(const MapTask&) = delete;

  void start();
  /// Push updated (category-III) parameters into the running attempt.
  void update_config(const JobConfig& config);
  /// Kill the attempt (node failure): releases its memory accounting and
  /// suppresses every outstanding callback; `done` never fires. Streams
  /// already submitted to the dead node's servers are left to drain — the
  /// node is gone, so nobody contends with them.
  void abort();
  [[nodiscard]] bool aborted() const { return aborted_; }

  /// Combiner-reduced output bytes this map produces for the shuffle.
  [[nodiscard]] Bytes combined_output_bytes() const;

 private:
  void phase_read_and_map();
  void phase_spill();
  void finish(bool oom);
  /// Close the open phase span (if any) and open `name` when detail tracing
  /// is on; pass nullptr to just close.
  void switch_phase_span(const char* name);

  sim::Engine& engine_;
  cluster::Node& node_;
  cluster::Node& source_;
  cluster::Fabric& fabric_;
  const AppProfile& profile_;
  JobConfig config_;
  Inputs inputs_;
  Rng rng_;
  Done done_;

  Bytes working_set_{0};
  Bytes output_bytes_{0};
  std::int64_t output_records_ = 0;
  double cpu_noise_ = 1.0;
  TaskReport report_;
  bool started_ = false;
  bool aborted_ = false;
  bool finished_ = false;
  obs::SpanId phase_span_ = obs::kInvalidSpan;
};

}  // namespace mron::mapreduce
