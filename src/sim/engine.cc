#include "sim/engine.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/host_profile.h"

namespace mron::sim {

namespace {
// Compaction hysteresis: never bother sweeping a tiny queue.
constexpr std::size_t kMinQueueForCompaction = 64;
}  // namespace

EventId Engine::schedule_impl(SimTime t, Callback cb, bool daemon) {
  MRON_CHECK_MSG(t >= now_, "schedule_at(" << t << ") before now=" << now_);
  MRON_CHECK(static_cast<bool>(cb));
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.daemon = daemon;
  // Inherit the scheduling context's subsystem category (a dispatched
  // callback's own category is re-established around cb(), so re-arms
  // inherit transitively). Only read when profiling.
  if (host_profiler_ != nullptr) {
    s.cat = obs::HostProfiler::CatScope::current();
  }
  queue_push(EventEntry{t, next_seq_++, slot, s.gen});
  ++live_events_;
  if (daemon) ++daemon_events_;
  return pack(slot, s.gen);
}

EventId Engine::schedule_at(SimTime t, Callback cb) {
  return schedule_impl(t, std::move(cb), /*daemon=*/false);
}

EventId Engine::schedule_after(SimTime delay, Callback cb) {
  MRON_CHECK_MSG(delay >= 0.0, "negative delay " << delay);
  return schedule_impl(now_ + delay, std::move(cb), /*daemon=*/false);
}

EventId Engine::schedule_daemon_at(SimTime t, Callback cb) {
  return schedule_impl(t, std::move(cb), /*daemon=*/true);
}

EventId Engine::schedule_daemon_after(SimTime delay, Callback cb) {
  MRON_CHECK_MSG(delay >= 0.0, "negative delay " << delay);
  return schedule_impl(now_ + delay, std::move(cb), /*daemon=*/true);
}

void Engine::cancel(EventId id) {
  if (!id.valid()) return;
  const auto packed = static_cast<std::uint64_t>(id.value());
  const auto slot = static_cast<std::uint32_t>(packed & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(packed >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen || !slots_[slot].cb) {
    return;  // already fired, already cancelled, or never issued
  }
  if (slots_[slot].daemon) --daemon_events_;
  release_slot(slot);
  --live_events_;
  // The queue entry stays behind as a tombstone: dropped at pop time, or
  // swept by maybe_compact() before tombstones can outnumber live events.
  ++stale_in_queue_;
  maybe_compact();
}

void Engine::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  s.daemon = false;
  // Wrapping at 2^31 keeps EventId::value() non-negative; a stale handle
  // would have to survive two billion reuses of one slot to collide.
  s.gen = (s.gen + 1) & 0x7fffffffu;
  free_slots_.push_back(slot);
}

void Engine::maybe_compact() {
  if (stale_in_queue_ <= live_events_ ||
      queue_size() < kMinQueueForCompaction) {
    return;
  }
  std::erase_if(heap_, [this](const EventEntry& e) { return !is_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<EventEntry>{});
  stale_in_queue_ = 0;
}

void Engine::queue_push(const EventEntry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<EventEntry>{});
}

EventEntry Engine::queue_pop() {
  const EventEntry e = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<EventEntry>{});
  heap_.pop_back();
  return e;
}

bool Engine::pop_next(Callback* cb, std::uint8_t* cat) {
  while (!heap_.empty()) {
    const EventEntry entry = queue_pop();
    if (!is_live(entry)) {
      --stale_in_queue_;
      continue;
    }
    *cb = std::move(slots_[entry.slot].cb);
    if (slots_[entry.slot].daemon) --daemon_events_;
    *cat = slots_[entry.slot].cat;
    release_slot(entry.slot);
    --live_events_;
    now_ = entry.time;
    ++total_dispatched_;
    return true;
  }
  return false;
}

bool Engine::dispatch_next() {
  Callback cb;
  std::uint8_t cat = 0;
  if (!pop_next(&cb, &cat)) return false;
  if (host_profiler_ != nullptr) {
    // Re-establish the event's category around its callback so anything
    // it schedules inherits it.
    obs::HostProfiler::CatScope scope(static_cast<obs::HostCat>(cat));
    cb();
    return true;
  }
  cb();
  return true;
}

std::int64_t Engine::run(std::int64_t max_events) {
  if (host_profiler_ != nullptr) return run_profiled(max_events);
  std::int64_t fired = 0;
  while (fired < max_events && dispatch_next()) {
    ++fired;
    progress_tick();
  }
  MRON_CHECK_MSG(fired < max_events, "engine hit max_events guard");
  return fired;
}

std::int64_t Engine::run_profiled(std::int64_t max_events) {
  // Clock reads only at category transitions: a contiguous run of
  // same-category events is billed as one batch whose wall is the delta
  // between the boundary reads (callbacks + queue pops + any tombstone
  // skips in between). The boundary deltas partition the loop's wall time,
  // so the per-subsystem totals still sum to it by construction — but the
  // raw_ticks() cost (~20ns virtualized) amortizes across each run instead
  // of taxing every event. Steady-state traffic is long runs of heartbeats
  // punctuated by task events, so runs are typically many events deep.
  obs::HostProfiler::Activation activation(host_profiler_);
  std::int64_t fired = 0;
  std::int64_t t0 = obs::HostProfiler::raw_ticks();
  std::uint8_t run_cat = 0;
  std::int64_t run_len = 0;
  Callback cb;
  std::uint8_t cat = 0;
  while (fired < max_events && pop_next(&cb, &cat)) {
    if (cat != run_cat && run_len != 0) {
      const std::int64_t t1 = obs::HostProfiler::raw_ticks();
      host_profiler_->record_events(run_cat, t1 - t0, run_len);
      t0 = t1;
      run_len = 0;
    }
    run_cat = cat;
    ++run_len;
    {
      // Re-establish the event's category around its callback so anything
      // it schedules inherits it.
      obs::HostProfiler::CatScope scope(static_cast<obs::HostCat>(cat));
      cb();
    }
    ++fired;
    progress_tick();
  }
  if (run_len != 0) {
    host_profiler_->record_events(
        run_cat, obs::HostProfiler::raw_ticks() - t0, run_len);
  }
  MRON_CHECK_MSG(fired < max_events, "engine hit max_events guard");
  return fired;
}

std::int64_t Engine::run_until(SimTime t) {
  MRON_CHECK(t >= now_);
  std::int64_t fired = 0;
  while (!heap_.empty()) {
    // The time check comes first, so tombstones past `t` stay queued until
    // their turn or the compaction sweep. Collecting them early would change
    // stale_entries(), which the `sim.queue.stale` gauge puts in reports.
    const EventEntry entry = heap_.front();
    if (entry.time > t) break;
    if (!is_live(entry)) {
      queue_pop();
      --stale_in_queue_;
      continue;
    }
    dispatch_next();
    ++fired;
  }
  now_ = t;
  return fired;
}

}  // namespace mron::sim
