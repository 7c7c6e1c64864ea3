#include "mapreduce/map_task.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "obs/recorder.h"

namespace mron::mapreduce {

namespace {
// A task that dies of OOM burns a JVM start plus some fraction of its
// useful work before the container is killed.
constexpr double kOomBaseDelay = 5.0;
constexpr double kOomProgressFraction = 0.3;
}  // namespace

MapTask::MapTask(sim::Engine& engine, cluster::Node& node,
                 cluster::Node& source, cluster::Fabric& fabric,
                 const AppProfile& profile, const JobConfig& config,
                 const Inputs& inputs, Rng rng, Done done)
    : engine_(engine),
      node_(node),
      source_(source),
      fabric_(fabric),
      profile_(profile),
      config_(config),
      inputs_(inputs),
      rng_(rng),
      done_(std::move(done)) {
  MRON_CHECK(done_ != nullptr);
  cpu_noise_ = rng_.lognormal_noise(0.0);  // placeholder; set in start()
}

Bytes MapTask::combined_output_bytes() const {
  // What the shuffle moves: combiner output, compressed if the codec is on.
  const double codec = config_.map_output_compress >= 0.5
                           ? kCodecCompressionRatio
                           : 1.0;
  return output_bytes_ * profile_.combiner_ratio * codec;
}

void MapTask::update_config(const JobConfig& config) {
  // Only category-III fields may change mid-run; buffer sizes and container
  // geometry were fixed at launch, so copy just the live fields.
  config_.sort_spill_percent = config.sort_spill_percent;
  config_.shuffle_merge_percent = config.shuffle_merge_percent;
  config_.shuffle_memory_limit_percent = config.shuffle_memory_limit_percent;
  config_.merge_inmem_threshold = config.merge_inmem_threshold;
  config_.reduce_input_buffer_percent = config.reduce_input_buffer_percent;
}

void MapTask::switch_phase_span(const char* name) {
  auto* rec = engine_.recorder();
  if (rec == nullptr) return;
  rec->trace().end(phase_span_, engine_.now());
  phase_span_ = obs::kInvalidSpan;
  if (name != nullptr && rec->trace().detail()) {
    phase_span_ = rec->trace().begin(
        name, "phase", static_cast<int>(node_.id().value()),
        inputs_.trace_tid, engine_.now());
  }
}

void MapTask::abort() {
  if (aborted_ || finished_) return;
  aborted_ = true;
  switch_phase_span(nullptr);
  if (started_) node_.sub_used_memory(working_set_);
}

void MapTask::start() {
  MRON_CHECK(!started_);
  started_ = true;
  report_.task = inputs_.task;
  report_.attempt = inputs_.attempt;
  report_.start_time = engine_.now();
  report_.config = config_;
  report_.node = node_.id();
  report_.locality = inputs_.locality;

  cpu_noise_ = rng_.lognormal_noise(inputs_.noise_cv);
  const double ws_noise = inputs_.ws_factor * rng_.lognormal_noise(0.01);
  working_set_ =
      profile_.map_working_set * ws_noise + mebibytes(config_.io_sort_mb);
  output_bytes_ = inputs_.input_bytes * profile_.map_output_ratio +
                  profile_.map_output_bytes_fixed;
  output_records_ = static_cast<std::int64_t>(
      std::llround(output_bytes_.as_double() / profile_.map_record_bytes));

  node_.add_used_memory(working_set_);

  if (working_set_ > mebibytes(config_.map_memory_mb)) {
    // Over-committed container: the node manager kills it partway through.
    const double ideal_cpu =
        inputs_.input_bytes.mib() * profile_.map_cpu_secs_per_mib +
        profile_.map_cpu_secs_fixed;
    const double delay = kOomBaseDelay + kOomProgressFraction * ideal_cpu;
    engine_.schedule_after(delay, [this] { finish(/*oom=*/true); });
    return;
  }
  // JVM/container startup before any useful work.
  engine_.schedule_after(profile_.task_startup_secs * rng_.lognormal_noise(0.1),
                         [this] { phase_read_and_map(); });
}

void MapTask::phase_read_and_map() {
  if (aborted_) return;
  switch_phase_span("map_read");
  auto remaining = std::make_shared<int>(0);
  auto arm = [this, remaining]() {
    if (--*remaining == 0) phase_spill();
  };

  // Input read: local disk, or remote disk + network joined.
  if (inputs_.input_bytes > Bytes(0)) {
    if (inputs_.locality == dfs::Locality::NodeLocal) {
      ++*remaining;
      node_.disk().submit(inputs_.input_bytes.as_double(), arm);
    } else {
      ++*remaining;
      auto fetch_done = std::make_shared<int>(2);
      auto fetch_arm = [arm, fetch_done]() {
        if (--*fetch_done == 0) arm();
      };
      source_.disk().submit(inputs_.input_bytes.as_double(), fetch_arm);
      fabric_.transfer(source_.id(), node_.id(), inputs_.input_bytes,
                       fetch_arm);
    }
  }

  // User map() compute, capped by the container's vcore quota and the
  // code's own parallelism.
  const double cpu_work =
      (inputs_.input_bytes.mib() * profile_.map_cpu_secs_per_mib +
       profile_.map_cpu_secs_fixed) *
      cpu_noise_;
  if (cpu_work > 0.0) {
    ++*remaining;
    const double cap =
        std::min(node_.cpu_quota(static_cast<int>(config_.map_cpu_vcores)),
                 profile_.map_cpu_demand_cores);
    report_.counters.cpu_seconds += cpu_work;
    node_.cpu().submit(cpu_work, cap, arm);
  }

  if (*remaining == 0) {
    engine_.schedule_after(0.0, [this] { phase_spill(); });
  }
}

void MapTask::phase_spill() {
  if (aborted_) return;
  switch_phase_span("map_spill");
  // The spill plan is materialized here so that live sort.spill.percent
  // changes pushed during phase 2 are honored.
  const MapSpillPlan plan = plan_map_spills(
      output_bytes_, output_records_, profile_.combiner_ratio, config_);
  if (auto* rec = engine_.recorder()) {
    TaskEventCounters& c = *inputs_.counters;
    c.map_spills.add(rec, static_cast<double>(plan.num_spills));
    c.map_spill_records.add(rec, static_cast<double>(plan.spill_records));
    c.map_spill_bytes.add(rec, plan.disk_write_bytes.as_double());
    c.map_merge_rounds.add(rec, static_cast<double>(plan.merge_rounds));
    // Critical path: read+map ends here; the rest of the attempt is
    // sort/spill/merge. Speculative backups blame their whole compute on
    // the speculation decision that launched them.
    if (inputs_.cp_job >= 0) {
      obs::CriticalPathBuilder& cp = rec->critical_path();
      const obs::CpNode spill = cp.stamped(
          inputs_.cp_job, "map_spill", engine_.now(), inputs_.task.index,
          inputs_.attempt, static_cast<int>(node_.id().value()),
          static_cast<int>(inputs_.trace_tid));
      cp.edge(inputs_.cp_start, spill,
              inputs_.cp_speculative ? obs::Blame::Speculation
                                     : obs::Blame::MapCompute);
    }
  }
  // The codec shrinks every on-disk byte; record counts are unchanged.
  const bool compress = config_.map_output_compress >= 0.5;
  const double codec = compress ? kCodecCompressionRatio : 1.0;
  report_.counters.map_output_records = output_records_;
  report_.counters.combine_output_records = static_cast<std::int64_t>(
      std::llround(static_cast<double>(output_records_) *
                   profile_.combiner_ratio));
  report_.counters.spilled_records = plan.spill_records;
  report_.counters.map_output_bytes = output_bytes_;
  report_.counters.local_disk_write_bytes = plan.disk_write_bytes * codec;
  report_.counters.local_disk_read_bytes = plan.disk_read_bytes * codec;

  const double disk_work =
      (plan.disk_write_bytes + plan.disk_read_bytes).as_double() * codec;
  double sort_cpu = static_cast<double>(plan.spill_records) *
                    profile_.sort_cpu_secs_per_record * cpu_noise_;
  if (compress) {
    // Compression CPU is paid per raw byte pushed through the codec.
    sort_cpu +=
        (plan.disk_write_bytes.mib() + plan.disk_read_bytes.mib()) *
        kCompressCpuSecsPerMib * cpu_noise_;
  }

  auto remaining = std::make_shared<int>(0);
  auto arm = [this, remaining]() {
    if (--*remaining == 0) finish(/*oom=*/false);
  };
  if (disk_work > 0.0) {
    ++*remaining;
    node_.disk().submit(disk_work, arm);
  }
  if (sort_cpu > 0.0) {
    ++*remaining;
    const double cap =
        node_.cpu_quota(static_cast<int>(config_.map_cpu_vcores));
    report_.counters.cpu_seconds += sort_cpu;
    node_.cpu().submit(sort_cpu, cap, arm);
  }
  if (*remaining == 0) {
    engine_.schedule_after(0.0, [this] { finish(false); });
  }
}

void MapTask::finish(bool oom) {
  if (aborted_) return;
  finished_ = true;
  switch_phase_span(nullptr);
  if (!oom && inputs_.cp_job >= 0) {
    if (auto* rec = engine_.recorder()) {
      obs::CriticalPathBuilder& cp = rec->critical_path();
      const obs::CpNode done = cp.stamped(
          inputs_.cp_job, "map_done", engine_.now(), inputs_.task.index,
          inputs_.attempt, static_cast<int>(node_.id().value()),
          static_cast<int>(inputs_.trace_tid));
      cp.edge(cp.node(inputs_.cp_job, "map_spill", inputs_.task.index,
                      inputs_.attempt),
              done,
              inputs_.cp_speculative ? obs::Blame::Speculation
                                     : obs::Blame::SpillMerge);
    }
  }
  node_.sub_used_memory(working_set_);
  report_.end_time = engine_.now();
  report_.failed_oom = oom;
  const double duration = std::max(report_.duration(), 1e-9);
  const double quota =
      node_.cpu_quota(static_cast<int>(config_.map_cpu_vcores));
  report_.cpu_util =
      std::min(1.0, report_.counters.cpu_seconds / (quota * duration));
  const double container = mebibytes(config_.map_memory_mb).as_double();
  // Resident set averages below the commitment: the sort buffer is only
  // half full on average.
  const Bytes resident = working_set_ - mebibytes(config_.io_sort_mb) * 0.5;
  report_.mem_util = resident.as_double() / container;
  report_.mem_commit = working_set_.as_double() / container;
  if (oom) {
    // The attempt produced nothing durable.
    report_.counters = TaskCounters{};
    report_.mem_util = 1.0;
  }
  done_(report_);
}

}  // namespace mron::mapreduce
