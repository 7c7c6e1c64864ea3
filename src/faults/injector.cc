#include "faults/injector.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "obs/host_profile.h"
#include "obs/recorder.h"

namespace mron::faults {

FaultInjector::FaultInjector(sim::Engine& engine, FaultPlan plan)
    : engine_(engine), plan_(std::move(plan)) {}

void FaultInjector::arm(yarn::ResourceManager& rm,
                        std::vector<cluster::Node*> nodes) {
  MRON_CHECK_MSG(rm_ == nullptr, "fault injector armed twice");
  plan_.validate(static_cast<int>(nodes.size()));
  rm_ = &rm;
  nodes_ = std::move(nodes);
  // Every event armed from the plan (crashes, restarts, degradation
  // boundaries) bills to the faults subsystem.
  HOST_PROF_CATEGORY(kFaults);

  // Crashes surface through the heartbeat machinery: the node goes silent
  // and the RM's watchdog declares it lost one timeout later, exactly like
  // a real NodeManager dropping off the network.
  if (!plan_.crashes.empty()) {
    rm.enable_heartbeats(plan_.heartbeat_period, plan_.heartbeat_timeout);
  }
  for (const auto& c : plan_.crashes) {
    engine_.schedule_at(c.at, [this, c] { on_crash(c); });
    if (c.restart_at >= 0.0) {
      engine_.schedule_at(c.restart_at, [this, c] { on_restart(c); });
    }
  }
  // A degradation boundary (open or close) just re-derives the node's
  // effective scale from every window covering the boundary time, which
  // makes overlapping windows compose correctly (per-resource minimum).
  for (const auto& d : plan_.degradations) {
    engine_.schedule_at(d.from, [this, d] {
      ++stats_.degrade_windows;
      refresh_node_scales(d.node);
      if (auto* rec = engine_.recorder()) {
        counters_.degrade_windows.add(rec);
        rec->trace().instant("degrade_open", "fault", d.node, 0,
                             engine_.now());
      }
      audit_event("degrade_open", -1,
                  "node " + std::to_string(d.node) + " until " +
                      std::to_string(d.until));
    });
    engine_.schedule_at(d.until, [this, d] {
      refresh_node_scales(d.node);
      if (auto* rec = engine_.recorder()) {
        rec->trace().instant("degrade_close", "fault", d.node, 0,
                             engine_.now());
      }
    });
  }
}

void FaultInjector::on_crash(const CrashEvent& c) {
  ++stats_.crashes;
  if (auto* rec = engine_.recorder()) {
    counters_.crashes.add(rec);
    rec->trace().instant("node_crash", "fault", c.node, 0, engine_.now());
  }
  audit_event("node_crash", -1, "node " + std::to_string(c.node));
  rm_->mark_node_unresponsive(cluster::NodeId(c.node));
}

void FaultInjector::on_restart(const CrashEvent& c) {
  ++stats_.restarts;
  if (auto* rec = engine_.recorder()) {
    counters_.restarts.add(rec);
    rec->trace().instant("node_restart", "fault", c.node, 0, engine_.now());
  }
  audit_event("node_restart", -1, "node " + std::to_string(c.node));
  rm_->recover_node(cluster::NodeId(c.node));
  // A restarted node comes back with whatever degradation still covers the
  // current time (a crash does not cancel a planned slow-disk window).
  refresh_node_scales(c.node);
}

void FaultInjector::refresh_node_scales(int node) {
  const SimTime now = engine_.now();
  double disk = 1.0, nic = 1.0, cpu = 1.0;
  for (const auto& d : plan_.degradations) {
    if (d.node != node || now < d.from || now >= d.until) continue;
    disk = std::min(disk, d.disk_factor);
    nic = std::min(nic, d.nic_factor);
    cpu = std::min(cpu, d.cpu_factor);
  }
  auto& n = *nodes_[static_cast<std::size_t>(node)];
  n.disk().set_capacity_scale(disk);
  n.nic_in().set_capacity_scale(nic);
  n.cpu().set_capacity_scale(cpu);
}

bool FaultInjector::should_fail_attempt(std::int64_t job, int kind,
                                        int task_index, int attempt,
                                        double* fail_frac) const {
  if (plan_.task_fail_prob <= 0.0) return false;
  // Hash draw, not a sequential RNG pull: the verdict depends only on the
  // attempt's identity, never on when the question is asked.
  std::uint64_t state = plan_.seed ^ 0x66524f4e5f464cULL;
  state += 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(job + 1);
  state += 0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(kind + 1);
  state += 0x94d049bb133111ebULL * static_cast<std::uint64_t>(task_index + 1);
  state += 0xd6e8feb86659fd93ULL * static_cast<std::uint64_t>(attempt + 1);
  const double verdict =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  if (verdict >= plan_.task_fail_prob) return false;
  // Strike somewhere in the attempt's middle 90% so the failure always
  // wastes visible work but never lands exactly on a phase boundary.
  *fail_frac =
      0.05 + 0.9 * (static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53);
  return true;
}

bool FaultInjector::node_faulted_during(int node, SimTime from,
                                        SimTime to) const {
  for (const auto& d : plan_.degradations) {
    if (d.node == node && from < d.until && to >= d.from) return true;
  }
  for (const auto& c : plan_.crashes) {
    if (c.node != node || to < c.at) continue;
    if (c.restart_at < 0.0 || from <= c.restart_at) return true;
  }
  return false;
}

void FaultInjector::record_injected_failure(std::int64_t job, int kind,
                                            int task_index, int attempt) {
  ++stats_.injected_task_failures;
  (kind == 0 ? counters_.map_failures : counters_.reduce_failures)
      .add(engine_.recorder());
  audit_event("task_fault", job,
              std::string(kind == 0 ? "map " : "reduce ") +
                  std::to_string(task_index) + " attempt " +
                  std::to_string(attempt));
}

void FaultInjector::record_fetch_failure(std::int64_t job, int reduce_index,
                                         int node) {
  ++stats_.fetch_failures;
  counters_.fetch_failures.add(engine_.recorder());
  audit_event("fetch_failure", job,
              "reduce " + std::to_string(reduce_index) + " lost source node " +
                  std::to_string(node));
}

void FaultInjector::record_lost_map_reexecution(std::int64_t job,
                                                int map_index, int node) {
  ++stats_.lost_map_reexecutions;
  counters_.lost_map_reexecutions.add(engine_.recorder());
  audit_event("map_reexecution", job,
              "map " + std::to_string(map_index) + " output lost with node " +
                  std::to_string(node));
}

void FaultInjector::audit_event(const char* kind, std::int64_t job,
                                std::string detail) {
  if (auto* rec = engine_.recorder()) {
    obs::AuditEvent ev;
    ev.time = engine_.now();
    ev.kind = kind;
    ev.job = job;
    ev.detail = std::move(detail);
    rec->audit().record(std::move(ev));
  }
}

}  // namespace mron::faults
