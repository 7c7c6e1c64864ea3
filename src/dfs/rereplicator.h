// NameNode-style re-replication pipeline.
//
// Drains the DFS's under-replication queue (fewest-live-replicas first) by
// scheduling real copy transfers on the simulated hardware: each copy is a
// disk read stream on the source, a rate-capped Fabric transfer into the
// destination (receiver NIC + rack uplink when cross-rack), and a disk
// write stream on the destination, all concurrent — so recovery traffic
// contends with shuffle and spills for exactly the capacity they use, and
// its cost surfaces in utilization gauges and job critical paths. A work
// limiter bounds the recovery burst: at most `max_streams_per_node` copies
// touch any one node (as source or destination) and each copy's streams are
// capped at `stream_bandwidth` work-units/sec, mirroring HDFS's
// replication-work limits.
//
// Determinism: every decision here is a pure function of simulation state —
// source selection prefers the least-busy live replica, target selection
// prefers racks without a live replica and then the least-busy /
// least-loaded node, all ties broken by node id, and no RNG is drawn. On a
// reliable cluster the queue stays empty and the pipeline schedules
// nothing, so fault-free runs are event-for-event identical with or
// without it. When the source or target of an in-flight copy dies the copy
// is cancelled idempotently and the block simply re-enters the scan.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "cluster/fabric.h"
#include "cluster/node.h"
#include "dfs/dfs.h"
#include "obs/recorder.h"
#include "sim/engine.h"

namespace mron::dfs {

struct RereplicatorOptions {
  /// Max concurrent copies touching one node as source or destination
  /// (HDFS dfs.namenode.replication.max-streams).
  int max_streams_per_node = 2;
  /// Per-copy rate cap on every leg, bytes/sec (HDFS balancer-style
  /// bandwidth throttle; keeps recovery from starving shuffle outright).
  double stream_bandwidth = 64.0 * 1024 * 1024;
};

class Rereplicator {
 public:
  /// Recovery-side tallies; the `dfs` block of the run report reads these.
  struct Stats {
    double bytes_copied = 0.0;
    std::int64_t copies_started = 0;
    std::int64_t copies_completed = 0;
    std::int64_t copies_cancelled = 0;
    /// Most blocks simultaneously under target over the run.
    std::int64_t peak_under_replicated = 0;
    /// When the under-replication queue last drained to empty (0 when it
    /// never had members — or never recovered).
    SimTime last_fully_replicated = 0.0;
  };

  Rereplicator(sim::Engine& engine, Dfs& dfs, cluster::Fabric& fabric,
               std::vector<cluster::Node*> nodes, RereplicatorOptions options);

  Rereplicator(const Rereplicator&) = delete;
  Rereplicator& operator=(const Rereplicator&) = delete;

  /// Wired by the Simulation to the RM watchdog, after the Dfs's own
  /// handlers: cancel copies the dead node was serving (source or target)
  /// and scan for new work. Idempotent.
  void on_node_lost(cluster::NodeId node);
  /// Cancel copies made redundant by the recovered replicas, then rescan
  /// (the recovered node is also a fresh copy target). Idempotent.
  void on_node_recovered(cluster::NodeId node);
  /// Kick the scan outside a liveness event (e.g. a dataset created with a
  /// dead replica host, or created under-replicated on a degenerate
  /// topology).
  void notify_under_replication() { schedule_pump(); }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_copies() const { return copies_.size(); }
  [[nodiscard]] const RereplicatorOptions& options() const {
    return options_;
  }

 private:
  using BlockKey = std::pair<std::int64_t, std::int64_t>;  // (dataset, block)

  /// One in-flight copy: three server streams joined at completion.
  struct Copy {
    BlockKey block;
    cluster::NodeId src;
    cluster::NodeId dst;
    sim::StreamId src_disk;
    sim::StreamId dst_disk;
    cluster::CopyId net;
    double bytes = 0.0;
    int remaining_legs = 3;
  };

  void schedule_pump();
  /// Walk the under-replication queue, most endangered first, starting one
  /// copy per block that has a live source and an eligible target under
  /// the work limits.
  void pump();
  /// Least-busy live replica (ties toward the lowest id), or invalid.
  [[nodiscard]] cluster::NodeId pick_source(const Block& b) const;
  /// Best destination: alive, not already a replica, under the stream
  /// limit; prefer racks holding no live replica, then fewest active copy
  /// streams, then fewest hosted blocks, then lowest id. Invalid when no
  /// node qualifies.
  [[nodiscard]] cluster::NodeId pick_target(const Block& b) const;
  void start_copy(DatasetId ds, std::int64_t block, const Block& b);
  void on_leg_done(std::int64_t copy_id);
  void finish_copy(std::int64_t copy_id);
  /// Tear down a copy's streams and bookkeeping; `done` legs that already
  /// fired make this a no-op (idempotent).
  void cancel_copy(std::int64_t copy_id);
  void note_queue_state();

  sim::Engine& engine_;
  Dfs& dfs_;
  cluster::Fabric& fabric_;
  std::vector<cluster::Node*> nodes_;
  RereplicatorOptions options_;
  Stats stats_;
  bool pump_scheduled_ = false;
  /// True while the under-replication queue has members; the transition
  /// back to empty stamps Stats::last_fully_replicated.
  bool queue_was_under_ = false;
  std::map<std::int64_t, Copy> copies_;
  std::map<BlockKey, std::int64_t> copy_by_block_;
  /// Active copies touching each node (source or destination) — the
  /// streams-per-node work limiter.
  std::vector<int> node_streams_;
  std::int64_t next_copy_id_ = 0;
  struct {
    obs::EventCounter started{"dfs.rerepl.started"};
    obs::EventCounter completed{"dfs.rerepl.completed"};
    obs::EventCounter bytes{"dfs.rerepl.bytes"};
    obs::EventCounter cancelled{"dfs.rerepl.cancelled"};
  } counters_;
};

}  // namespace mron::dfs
