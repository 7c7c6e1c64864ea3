// The fault injector: executes a FaultPlan against a live cluster.
//
// One injector serves one Simulation (one engine). arm() schedules every
// planned crash, restart, and degradation boundary as ordinary engine
// events; per-attempt task-failure verdicts are *hash draws* over
// (plan seed, job, task kind, task index, attempt) rather than sequential
// RNG pulls, so the verdict for a given attempt is identical no matter in
// which order attempts launch — the property that keeps fault runs
// byte-identical at any --jobs level.
//
// Crashes flow through the RM's heartbeat machinery (the node goes silent;
// the watchdog declares it lost after the timeout), matching how a real RM
// learns of a dead NodeManager. Degradations rescale the node's
// SharedServers in place, so running streams slow down mid-flight — the
// straggler generator for LATE-style speculative execution.
//
// Everything the injector does lands in the flight recorder (faults.*
// counters, audit events, trace instants) and in FaultStats, the
// deterministic tally the run report's `faults` block is built from.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/node.h"
#include "faults/fault_plan.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "yarn/resource_manager.h"

namespace mron::faults {

/// Deterministic run tally for the run report `faults` block. The injector
/// owns the crash/restart/degrade counts; the AM reports the recovery-side
/// events (injected attempt kills it acted on, shuffle fetches it failed
/// over, map outputs it re-executed).
struct FaultStats {
  std::int64_t crashes = 0;
  std::int64_t restarts = 0;
  std::int64_t degrade_windows = 0;
  std::int64_t injected_task_failures = 0;
  std::int64_t fetch_failures = 0;
  std::int64_t lost_map_reexecutions = 0;
};

class FaultInjector {
 public:
  FaultInjector(sim::Engine& engine, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Validate the plan against the cluster and schedule every planned
  /// event. Call exactly once, after the RM and nodes exist and before the
  /// engine runs.
  void arm(yarn::ResourceManager& rm, std::vector<cluster::Node*> nodes);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] bool active() const { return !plan_.empty(); }

  /// Order-independent per-attempt failure draw. When it returns true,
  /// `fail_frac` (never null) is where in the attempt's nominal runtime the
  /// injected fault strikes, in (0, 1). kind: 0 = map, 1 = reduce.
  [[nodiscard]] bool should_fail_attempt(std::int64_t job, int kind,
                                         int task_index, int attempt,
                                         double* fail_frac) const;

  /// True when [from, to] overlaps a degradation window on `node` or the
  /// node was crashed at any point of the interval. The AM stamps
  /// TaskReport::faulted with this so the tuner can discard poisoned cost
  /// samples.
  [[nodiscard]] bool node_faulted_during(int node, SimTime from,
                                         SimTime to) const;

  // --- recovery-side bookkeeping (called by the AM) -----------------------
  void record_injected_failure(std::int64_t job, int kind, int task_index,
                               int attempt);
  void record_fetch_failure(std::int64_t job, int reduce_index, int node);
  void record_lost_map_reexecution(std::int64_t job, int map_index, int node);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  void on_crash(const CrashEvent& c);
  void on_restart(const CrashEvent& c);
  /// Re-apply the effective capacity scale of `node` at the current time:
  /// the per-resource minimum across all open degradation windows.
  void refresh_node_scales(int node);
  void audit_event(const char* kind, std::int64_t job, std::string detail);

  sim::Engine& engine_;
  FaultPlan plan_;
  yarn::ResourceManager* rm_ = nullptr;
  std::vector<cluster::Node*> nodes_;
  FaultStats stats_;
  struct {
    obs::EventCounter degrade_windows{"faults.degrade_windows"};
    obs::EventCounter crashes{"faults.crashes"};
    obs::EventCounter restarts{"faults.restarts"};
    obs::EventCounter fetch_failures{"faults.fetch_failures"};
    obs::EventCounter lost_map_reexecutions{"faults.lost_map_reexecutions"};
    obs::EventCounter map_failures{"faults.injected.map_failures"};
    obs::EventCounter reduce_failures{"faults.injected.reduce_failures"};
  } counters_;
};

}  // namespace mron::faults
