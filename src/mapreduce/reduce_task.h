// One reduce-task attempt: shuffle (fetch + buffer accounting), merge, and
// the reduce/write phases.
//
// Fetches are pulled from a queue of completed map outputs with at most
// `shuffle.parallelcopies` concurrent transfers; each fetch pays a fixed
// connection latency plus a flow that contends on the source disk and the
// network fabric. Buffer mechanics are delegated to ShuffleBufferModel, so
// every reduce-side Table-2 parameter shapes the disk traffic this task
// generates. After the last segment lands, on-disk files beyond
// io.sort.factor cost intermediate merge rounds; the final merge streams
// into the user reduce(), which is CPU work pipelined with the disk read,
// and the output is written locally and replicated to one remote node.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "cluster/fabric.h"
#include "cluster/node.h"
#include "common/rng.h"
#include "mapreduce/job.h"
#include "mapreduce/spill_model.h"
#include "mapreduce/task_event_counters.h"
#include "obs/trace.h"
#include "sim/engine.h"

namespace mron::mapreduce {

class ReduceTask {
 public:
  struct Inputs {
    TaskRef task;
    int attempt = 1;
    int total_maps = 0;
    int num_nodes = 1;  ///< cluster size, for output-replica placement
    /// Job-level working-set scale (see MapTask::Inputs::ws_factor).
    double ws_factor = 1.0;
    /// Multiplicative service-time noise CV (JobSpec::noise_cv).
    double noise_cv = 0.08;
    /// Trace lane (container id) for the attempt's phase spans.
    std::int64_t trace_tid = 0;
    /// Critical path (obs/critical_path.h): owning job id; < 0 disables
    /// emission. The attempt's phase-boundary nodes are keyed by
    /// (task.index, attempt), so the AM can address them without handles.
    std::int64_t cp_job = -1;
    std::int64_t cp_start = -1;
    /// See MapTask::Inputs::counters.
    TaskEventCounters* counters = nullptr;
  };
  using Done = std::function<void(const TaskReport&)>;
  /// Resolves a NodeId to the node (for charging source-disk reads).
  using NodeResolver = std::function<cluster::Node&(cluster::NodeId)>;
  /// AM-mediated "is map `map_index`'s output still available at `source`?"
  /// query — the single choke point every fetch passes through (at fetch
  /// start and again at completion, since the source may die mid-transfer).
  /// The task itself never assumes a map host stays reachable.
  using OutputQuery = std::function<bool(int, cluster::NodeId)>;
  /// Fired when a fetch is abandoned because its source disappeared; the AM
  /// re-executes the lost map (or re-delivers from the live copy) and this
  /// reducer accepts the re-delivery.
  using FetchFailure = std::function<void(int, cluster::NodeId)>;

  ReduceTask(sim::Engine& engine, cluster::Node& node, cluster::Fabric& fabric,
             NodeResolver resolver, const AppProfile& profile,
             const JobConfig& config, const Inputs& inputs, Rng rng,
             Done done);

  ReduceTask(const ReduceTask&) = delete;
  ReduceTask& operator=(const ReduceTask&) = delete;

  /// Install the AM's availability query / failure hooks. Must be called
  /// before start(); without them the task falls back to trusting every
  /// source (unit-test mode only).
  void set_output_query(OutputQuery query) { output_query_ = std::move(query); }
  void set_fetch_failure(FetchFailure cb) { fetch_failure_ = std::move(cb); }

  void start();
  /// Feed map `map_index`'s partition for this reducer. Safe to call both
  /// before and after start(); duplicate indices (a map re-executed after a
  /// node failure) are ignored — the first copy was already accepted.
  void add_map_output(int map_index, cluster::NodeId source, Bytes bytes);
  /// Node fail-stop on `node`: drop queued fetches sourced there and forget
  /// their map indices so the AM's re-delivery is accepted. Segments already
  /// fetched are local data and are kept; in-flight transfers are doomed by
  /// the completion-time availability re-check.
  void invalidate_source(cluster::NodeId node);
  /// Push updated category-III parameters into the running attempt.
  void update_config(const JobConfig& config);
  /// Kill the attempt (node failure); `done` never fires. See
  /// MapTask::abort().
  void abort();
  [[nodiscard]] bool aborted() const { return aborted_; }

 private:
  struct PendingFetch {
    int map_index = -1;
    cluster::NodeId source;
    Bytes bytes;
  };
  enum class SegmentState { Queued, Fetching, Fetched };
  /// Where an accepted map output is in its fetch lifecycle; keyed by map
  /// index (replaces the old seen-set, which could not tell a fetched
  /// segment from one lost with its source).
  struct SegmentInfo {
    cluster::NodeId source;
    SegmentState state = SegmentState::Queued;
  };

  void pump_fetches();
  void begin_fetch(PendingFetch fetch);
  void on_fetch_done(const PendingFetch& fetch, std::int64_t fetch_id);
  /// The fetch's source disappeared: un-accept the map (so re-delivery is
  /// taken), tell the AM, and keep the fetch pipeline moving.
  void on_fetch_failed(const PendingFetch& fetch, std::int64_t fetch_id);
  /// Apply the deferred uniform fetch run (see on_fetch_done) through the
  /// closed-form kernel. Must run before any other buffer interaction.
  void drain_fetch_run();
  void maybe_finish_shuffle();
  void phase_merge();
  void phase_reduce();
  void phase_write_output();
  void finish(bool oom);
  /// See MapTask::switch_phase_span.
  void switch_phase_span(const char* name);

  sim::Engine& engine_;
  cluster::Node& node_;
  cluster::Fabric& fabric_;
  NodeResolver resolver_;
  const AppProfile& profile_;
  JobConfig config_;
  Inputs inputs_;
  Rng rng_;
  Done done_;
  OutputQuery output_query_;
  FetchFailure fetch_failure_;

  ShuffleBufferModel buffer_;
  /// Deferred run of equal-sized absorbable segments, not yet applied to
  /// buffer_. Only segments proven side-effect-free (would_absorb) are
  /// deferred, so batching is observationally invisible.
  Bytes fetch_run_segment_{0};
  std::int64_t fetch_run_count_ = 0;
  std::deque<PendingFetch> queue_;
  int active_fetches_ = 0;
  int fetched_maps_ = 0;
  int outstanding_spill_writes_ = 0;
  bool shuffle_done_ = false;
  bool started_ = false;
  bool startup_done_ = false;
  bool oom_ = false;
  bool aborted_ = false;
  bool finished_ = false;
  std::map<int, SegmentInfo> segments_;

  Bytes total_input_{0};
  Bytes resident_memory_{0};
  Bytes committed_memory_{0};
  double cpu_noise_ = 1.0;
  TaskReport report_;
  obs::SpanId phase_span_ = obs::kInvalidSpan;
  std::int64_t next_fetch_seq_ = 0;  ///< async-span id source for fetches
};

/// Per-fetch connection/setup latency (seconds); hidden by parallelcopies.
constexpr double kFetchLatency = 0.05;
/// Average fraction of a buffer that is actually resident over time; used
/// for utilization reporting (capacity is reserved, occupancy fluctuates).
constexpr double kAvgBufferOccupancy = 0.5;

}  // namespace mron::mapreduce
