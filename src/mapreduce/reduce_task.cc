#include "mapreduce/reduce_task.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "obs/recorder.h"

namespace mron::mapreduce {

namespace {
constexpr double kOomBaseDelay = 5.0;
}  // namespace

ReduceTask::ReduceTask(sim::Engine& engine, cluster::Node& node,
                       cluster::Fabric& fabric, NodeResolver resolver,
                       const AppProfile& profile, const JobConfig& config,
                       const Inputs& inputs, Rng rng, Done done)
    : engine_(engine),
      node_(node),
      fabric_(fabric),
      resolver_(std::move(resolver)),
      profile_(profile),
      config_(config),
      inputs_(inputs),
      rng_(rng),
      done_(std::move(done)),
      // Compressed segments pack records at codec-scaled density, keeping
      // the buffer's record accounting consistent with the wire bytes.
      buffer_(config, profile.map_record_bytes *
                          (config.map_output_compress >= 0.5
                               ? kCodecCompressionRatio
                               : 1.0)) {
  MRON_CHECK(done_ != nullptr);
  MRON_CHECK(resolver_ != nullptr);
  MRON_CHECK(inputs_.total_maps >= 0);
}

void ReduceTask::add_map_output(int map_index, cluster::NodeId source,
                                Bytes bytes) {
  // Duplicate delivery (a map re-executed after a node failure) while the
  // first copy is still accepted: ignore it. A lost copy's entry was erased
  // by invalidate_source()/on_fetch_failed(), so re-delivery lands here
  // with a clean slate.
  if (!segments_.emplace(map_index, SegmentInfo{source}).second) return;
  queue_.push_back(PendingFetch{map_index, source, bytes});
  if (startup_done_ && !oom_ && !aborted_) pump_fetches();
}

void ReduceTask::invalidate_source(cluster::NodeId node) {
  if (aborted_ || finished_) return;
  // Queued fetches sourced on the dead node will never connect; drop them
  // and un-accept their maps so the AM's re-delivery is taken. Segments in
  // state Fetching are doomed by the availability re-check when their
  // transfer lands; Fetched segments are local data and survive the source.
  std::erase_if(queue_, [node](const PendingFetch& f) {
    return f.source == node;
  });
  for (auto it = segments_.begin(); it != segments_.end();) {
    if (it->second.source == node && it->second.state == SegmentState::Queued) {
      it = segments_.erase(it);
    } else {
      ++it;
    }
  }
}

void ReduceTask::switch_phase_span(const char* name) {
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

void ReduceTask::abort() {
  if (aborted_ || finished_) return;
  aborted_ = true;
  switch_phase_span(nullptr);
  if (started_) node_.sub_used_memory(resident_memory_);
}

void ReduceTask::update_config(const JobConfig& config) {
  // The pending run was proven absorbable under the *old* thresholds;
  // settle it before they change.
  drain_fetch_run();
  config_.sort_spill_percent = config.sort_spill_percent;
  config_.shuffle_merge_percent = config.shuffle_merge_percent;
  config_.shuffle_memory_limit_percent = config.shuffle_memory_limit_percent;
  config_.merge_inmem_threshold = config.merge_inmem_threshold;
  config_.reduce_input_buffer_percent = config.reduce_input_buffer_percent;
  buffer_.update_live_params(config_);
}

void ReduceTask::start() {
  MRON_CHECK(!started_);
  started_ = true;
  report_.task = inputs_.task;
  report_.attempt = inputs_.attempt;
  report_.start_time = engine_.now();
  report_.config = config_;
  report_.node = node_.id();
  cpu_noise_ = rng_.lognormal_noise(inputs_.noise_cv);

  const double ws_noise = inputs_.ws_factor * rng_.lognormal_noise(0.01);
  const Bytes ws_full =
      profile_.reduce_working_set * ws_noise + buffer_.shuffle_buffer();
  committed_memory_ = ws_full;
  resident_memory_ = profile_.reduce_working_set * ws_noise +
                     buffer_.shuffle_buffer() * kAvgBufferOccupancy;
  node_.add_used_memory(resident_memory_);

  if (ws_full > mebibytes(config_.reduce_memory_mb)) {
    oom_ = true;
    engine_.schedule_after(kOomBaseDelay, [this] { finish(/*oom=*/true); });
    return;
  }
  // JVM/container startup before the fetchers spin up.
  engine_.schedule_after(
      profile_.task_startup_secs * rng_.lognormal_noise(0.1), [this] {
        startup_done_ = true;
        switch_phase_span("shuffle");
        if (inputs_.total_maps == 0) {
          maybe_finish_shuffle();
        } else {
          pump_fetches();
        }
      });
}

void ReduceTask::pump_fetches() {
  const int max_copies =
      std::max(1, static_cast<int>(config_.shuffle_parallelcopies));
  while (active_fetches_ < max_copies && !queue_.empty()) {
    PendingFetch fetch = queue_.front();
    queue_.pop_front();
    ++active_fetches_;
    begin_fetch(fetch);
  }
}

void ReduceTask::begin_fetch(PendingFetch fetch) {
  auto seg = segments_.find(fetch.map_index);
  MRON_CHECK(seg != segments_.end());
  seg->second.state = SegmentState::Fetching;
  // Fetches overlap on the reducer's lane, so they trace as async b/e
  // pairs keyed by a per-attempt sequence (B/E spans must nest).
  const std::int64_t fetch_id =
      (inputs_.trace_tid << 16) | (next_fetch_seq_++ & 0xffff);
  if (auto* rec = engine_.recorder()) {
    if (rec->trace().detail()) {
      rec->trace().async_begin("shuffle_fetch", "fetch",
                               static_cast<int>(node_.id().value()), fetch_id,
                               engine_.now());
    }
  }
  // Connection setup latency, then a network flow. The source's disk is
  // NOT charged: map outputs were written moments ago and the shuffle
  // service reads them back through the page cache, so shuffle fan-in
  // contends on the fabric, not on source spindles (see DESIGN.md).
  engine_.schedule_after(kFetchLatency, [this, fetch, fetch_id] {
    if (aborted_) return;
    // The AM-mediated choke point: never open a connection to an output
    // the AM no longer vouches for.
    if (output_query_ && !output_query_(fetch.map_index, fetch.source)) {
      on_fetch_failed(fetch, fetch_id);
      return;
    }
    if (fetch.bytes <= Bytes(0)) {
      on_fetch_done(fetch, fetch_id);
      return;
    }
    fabric_.transfer(fetch.source, node_.id(), fetch.bytes,
                     [this, fetch, fetch_id] { on_fetch_done(fetch, fetch_id); });
  });
}

void ReduceTask::on_fetch_failed(const PendingFetch& fetch,
                                 std::int64_t fetch_id) {
  --active_fetches_;
  if (auto* rec = engine_.recorder()) {
    inputs_.counters->fetch_failures.add(rec);
    if (rec->trace().detail()) {
      rec->trace().async_end("shuffle_fetch", "fetch",
                             static_cast<int>(node_.id().value()), fetch_id,
                             engine_.now());
    }
  }
  // Un-accept the map only if this fetch still owns its entry: a fresher
  // copy (already re-delivered from another node) must not be forgotten.
  auto seg = segments_.find(fetch.map_index);
  const bool owns = seg != segments_.end() &&
                    seg->second.source == fetch.source &&
                    seg->second.state != SegmentState::Fetched;
  if (owns) {
    segments_.erase(seg);
    if (fetch_failure_) fetch_failure_(fetch.map_index, fetch.source);
  }
  pump_fetches();
}

void ReduceTask::on_fetch_done(const PendingFetch& fetch,
                               std::int64_t fetch_id) {
  if (aborted_) return;
  // Re-check availability at completion: a source that died mid-transfer
  // delivered garbage, and the fetch must fail over exactly as if it had
  // never connected.
  if (output_query_ && !output_query_(fetch.map_index, fetch.source)) {
    on_fetch_failed(fetch, fetch_id);
    return;
  }
  const Bytes bytes = fetch.bytes;
  auto seg = segments_.find(fetch.map_index);
  MRON_CHECK(seg != segments_.end());
  seg->second.state = SegmentState::Fetched;
  --active_fetches_;
  ++fetched_maps_;
  total_input_ += bytes;
  report_.counters.shuffle_bytes += bytes;
  if (auto* rec = engine_.recorder()) {
    inputs_.counters->fetches.add(rec);
    inputs_.counters->fetch_bytes.add(rec, bytes.as_double());
    if (rec->trace().detail()) {
      rec->trace().async_end("shuffle_fetch", "fetch",
                             static_cast<int>(node_.id().value()), fetch_id,
                             engine_.now());
    }
  }

  // Uniform partitions arrive as long runs of equal-sized segments. A
  // segment the buffer would absorb with no flush has no observable effect
  // (add_segment returns 0 and schedules nothing), so such runs are
  // deferred and later applied in one closed-form add_segments() call —
  // identical state, O(1) bookkeeping per fetch.
  Bytes flushed{0};
  if (fetch_run_count_ > 0 && bytes == fetch_run_segment_ &&
      buffer_.would_absorb(fetch_run_count_, bytes)) {
    ++fetch_run_count_;
  } else if (fetch_run_count_ == 0 && buffer_.would_absorb(0, bytes)) {
    fetch_run_segment_ = bytes;
    fetch_run_count_ = 1;
  } else {
    drain_fetch_run();
    flushed = buffer_.add_segment(bytes);
  }
  if (flushed > Bytes(0)) {
    ++outstanding_spill_writes_;
    node_.disk().submit(flushed.as_double(), [this] {
      --outstanding_spill_writes_;
      maybe_finish_shuffle();
    });
  }
  pump_fetches();
  maybe_finish_shuffle();
}

void ReduceTask::drain_fetch_run() {
  if (fetch_run_count_ == 0) return;
  const Bytes flushed = buffer_.add_segments(
      static_cast<int>(fetch_run_count_), fetch_run_segment_);
  // Every deferred copy passed would_absorb(), so the batch cannot flush.
  MRON_CHECK(flushed == Bytes(0));
  fetch_run_count_ = 0;
  fetch_run_segment_ = Bytes(0);
}

void ReduceTask::maybe_finish_shuffle() {
  if (aborted_) return;
  if (shuffle_done_) return;
  if (fetched_maps_ < inputs_.total_maps) return;
  if (active_fetches_ > 0 || !queue_.empty()) return;
  if (outstanding_spill_writes_ > 0) return;
  shuffle_done_ = true;

  drain_fetch_run();
  const Bytes final_flush = buffer_.finalize();
  if (final_flush > Bytes(0)) {
    node_.disk().submit(final_flush.as_double(), [this] { phase_merge(); });
  } else {
    engine_.schedule_after(0.0, [this] { phase_merge(); });
  }
}

void ReduceTask::phase_merge() {
  if (aborted_) return;
  switch_phase_span("merge");
  // Critical path: the shuffle (all fetches + final flush) ends here. The
  // AM also draws map_done → reduce_shuffle_done edges at delivery time;
  // extraction follows whichever arrival was last.
  if (inputs_.cp_job >= 0) {
    if (auto* rec = engine_.recorder()) {
      obs::CriticalPathBuilder& cp = rec->critical_path();
      const obs::CpNode shuffled = cp.stamped(
          inputs_.cp_job, "reduce_shuffle_done", engine_.now(),
          inputs_.task.index, inputs_.attempt,
          static_cast<int>(node_.id().value()),
          static_cast<int>(inputs_.trace_tid));
      cp.edge(inputs_.cp_start, shuffled, obs::Blame::ShuffleNet);
    }
  }
  report_.counters.spilled_records += buffer_.spilled_records();
  report_.counters.local_disk_write_bytes += buffer_.disk_write_bytes();

  const MergeCost mid = plan_disk_merge(
      buffer_.disk_files(), static_cast<int>(config_.io_sort_factor));
  if (auto* rec = engine_.recorder()) {
    TaskEventCounters& c = *inputs_.counters;
    c.reduce_spill_records.add(
        rec, static_cast<double>(buffer_.spilled_records()));
    if (mid.write > Bytes(0)) c.reduce_merge_passes.add(rec);
  }
  if (mid.write > Bytes(0)) {
    report_.counters.spilled_records += static_cast<std::int64_t>(
        std::llround(mid.write.as_double() / profile_.map_record_bytes));
    report_.counters.local_disk_write_bytes += mid.write;
    report_.counters.local_disk_read_bytes += mid.read;
    node_.disk().submit((mid.read + mid.write).as_double(),
                        [this] { phase_reduce(); });
  } else {
    engine_.schedule_after(0.0, [this] { phase_reduce(); });
  }
}

void ReduceTask::phase_reduce() {
  if (aborted_) return;
  switch_phase_span("reduce");
  if (inputs_.cp_job >= 0) {
    if (auto* rec = engine_.recorder()) {
      obs::CriticalPathBuilder& cp = rec->critical_path();
      const obs::CpNode merged = cp.stamped(
          inputs_.cp_job, "reduce_merge_done", engine_.now(),
          inputs_.task.index, inputs_.attempt,
          static_cast<int>(node_.id().value()),
          static_cast<int>(inputs_.trace_tid));
      cp.edge(cp.node(inputs_.cp_job, "reduce_shuffle_done",
                      inputs_.task.index, inputs_.attempt),
              merged, obs::Blame::SpillMerge);
    }
  }
  // Final merge streams on-disk bytes into reduce(), pipelined with the
  // user CPU work over the full input.
  const Bytes on_disk = buffer_.disk_write_bytes();
  report_.counters.local_disk_read_bytes += on_disk;
  // With map-output compression the fetched bytes are compressed: user
  // reduce() work applies to the logical (decompressed) volume, plus the
  // codec's decompression cost.
  const bool compressed = config_.map_output_compress >= 0.5;
  const double logical_mib =
      compressed ? total_input_.mib() / kCodecCompressionRatio
                 : total_input_.mib();
  double cpu_work =
      logical_mib * profile_.reduce_cpu_secs_per_mib * cpu_noise_;
  if (compressed) {
    cpu_work += logical_mib * kDecompressCpuSecsPerMib * cpu_noise_;
  }

  auto remaining = std::make_shared<int>(0);
  auto arm = [this, remaining]() {
    if (--*remaining == 0) phase_write_output();
  };
  if (on_disk > Bytes(0)) {
    ++*remaining;
    node_.disk().submit(on_disk.as_double(), arm);
  }
  if (cpu_work > 0.0) {
    ++*remaining;
    const double cap = std::min(
        node_.cpu_quota(static_cast<int>(config_.reduce_cpu_vcores)),
        profile_.reduce_cpu_demand_cores);
    report_.counters.cpu_seconds += cpu_work;
    node_.cpu().submit(cpu_work, cap, arm);
  }
  if (*remaining == 0) {
    engine_.schedule_after(0.0, [this] { phase_write_output(); });
  }
}

void ReduceTask::phase_write_output() {
  if (aborted_) return;
  switch_phase_span("write");
  // Output volume follows the logical input, not the compressed wire size.
  const double codec = config_.map_output_compress >= 0.5
                           ? kCodecCompressionRatio
                           : 1.0;
  const Bytes out = total_input_ * (profile_.reduce_output_ratio / codec);
  if (out <= Bytes(0)) {
    engine_.schedule_after(0.0, [this] { finish(false); });
    return;
  }
  // DFS write: local replica on this node's disk plus one remote replica
  // over the fabric (pipelined; the slower leg paces the write).
  auto remaining = std::make_shared<int>(2);
  auto arm = [this, remaining]() {
    if (--*remaining == 0) finish(false);
  };
  node_.disk().submit(out.as_double(), arm);
  // Remote replica target: any other node, chosen by the task's RNG.
  cluster::NodeId replica = node_.id();
  if (inputs_.num_nodes > 1) {
    const std::int64_t offset = rng_.uniform_int(1, inputs_.num_nodes - 1);
    replica =
        cluster::NodeId((node_.id().value() + offset) % inputs_.num_nodes);
  }
  fabric_.transfer(node_.id(), replica, out, arm);
}

void ReduceTask::finish(bool oom) {
  if (aborted_) return;
  finished_ = true;
  switch_phase_span(nullptr);
  // reduce() + output write folded into one compute segment.
  if (!oom && inputs_.cp_job >= 0) {
    if (auto* rec = engine_.recorder()) {
      obs::CriticalPathBuilder& cp = rec->critical_path();
      const obs::CpNode done = cp.stamped(
          inputs_.cp_job, "reduce_done", engine_.now(), inputs_.task.index,
          inputs_.attempt, static_cast<int>(node_.id().value()),
          static_cast<int>(inputs_.trace_tid));
      cp.edge(cp.node(inputs_.cp_job, "reduce_merge_done",
                      inputs_.task.index, inputs_.attempt),
              done, obs::Blame::ReduceCompute);
    }
  }
  node_.sub_used_memory(resident_memory_);
  report_.end_time = engine_.now();
  report_.failed_oom = oom;
  const double duration = std::max(report_.duration(), 1e-9);
  const double quota =
      node_.cpu_quota(static_cast<int>(config_.reduce_cpu_vcores));
  report_.cpu_util =
      std::min(1.0, report_.counters.cpu_seconds / (quota * duration));
  const double container = mebibytes(config_.reduce_memory_mb).as_double();
  report_.mem_util = resident_memory_.as_double() / container;
  report_.mem_commit = committed_memory_.as_double() / container;
  if (oom) {
    report_.counters = TaskCounters{};
    report_.mem_util = 1.0;
  }
  done_(report_);
}

}  // namespace mron::mapreduce
