#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace mron::sim {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(3.0, [&] { order.push_back(3); });
  eng.schedule_at(1.0, [&] { order.push_back(1); });
  eng.schedule_at(2.0, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine eng;
  double fired_at = -1.0;
  eng.schedule_at(5.0, [&] {
    eng.schedule_after(2.5, [&] { fired_at = eng.now(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, CancelPreventsFiring) {
  Engine eng;
  bool fired = false;
  const EventId id = eng.schedule_at(1.0, [&] { fired = true; });
  eng.cancel(id);
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(eng.empty());
}

TEST(Engine, CancelTwiceAndAfterFireAreNoops) {
  Engine eng;
  int count = 0;
  const EventId id = eng.schedule_at(1.0, [&] { ++count; });
  eng.run();
  eng.cancel(id);  // already fired
  eng.cancel(id);
  EXPECT_EQ(count, 1);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine eng;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    eng.schedule_at(t, [&times, &eng] { times.push_back(eng.now()); });
  }
  const auto fired = eng.run_until(2.5);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(eng.now(), 2.5);
  EXPECT_EQ(eng.pending(), 2u);
  eng.run();
  EXPECT_EQ(times.size(), 4u);
}

TEST(Engine, EventsCanChain) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) eng.schedule_after(1.0, chain);
  };
  eng.schedule_after(1.0, chain);
  eng.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(eng.now(), 100.0);
}

TEST(Engine, RejectsPastScheduling) {
  Engine eng;
  eng.schedule_at(10.0, [] {});
  eng.run();
  EXPECT_THROW(eng.schedule_at(5.0, [] {}), CheckError);
  EXPECT_THROW(eng.schedule_after(-1.0, [] {}), CheckError);
}

TEST(Engine, MaxEventsGuardThrows) {
  Engine eng;
  std::function<void()> forever = [&] { eng.schedule_after(1.0, forever); };
  eng.schedule_after(1.0, forever);
  EXPECT_THROW(eng.run(1000), CheckError);
}

// The tombstone-growth regression test: the timeout-heavy pattern
// (speculation timers, heartbeats) schedules far-future events and cancels
// nearly all of them. The old lazy-deleted priority queue grew a tombstone
// per cancel; the slot map + amortized compaction must keep every internal
// structure O(pending()) no matter how long the churn runs.
TEST(Engine, CancelChurnKeepsMemoryBounded) {
  Engine eng;
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = eng.schedule_after(1e9, [] {});
    eng.cancel(id);
  }
  EXPECT_EQ(eng.pending(), 0u);
  // Compaction fires once stale entries outnumber live ones (with a small
  // floor), so the heap never holds more than a constant past that.
  EXPECT_LE(eng.queue_size(), 128u);
  EXPECT_LE(eng.slot_capacity(), 128u);
}

TEST(Engine, CancelRescheduleChurnStaysMemoryBounded) {
  // The reschedule pattern (cancel a timer, arm a later one) keeps ~1 live
  // event through 100k cycles; the queue must stay below a small constant
  // and the surviving event must still fire.
  Engine eng;
  EventId id = eng.schedule_at(1.0, [] {});
  for (int i = 0; i < 100000; ++i) {
    eng.cancel(id);
    id = eng.schedule_at(1.0 + i * 1e-3, [] {});
  }
  EXPECT_LE(eng.queue_size(), 128u);
  EXPECT_LE(eng.stale_entries(), eng.queue_size());
  EXPECT_EQ(eng.pending(), 1u);
  EXPECT_EQ(eng.run(), 1);
}

TEST(Engine, CancelChurnWithLiveEventsStaysProportional) {
  Engine eng;
  std::vector<EventId> live;
  live.reserve(100);
  for (int i = 0; i < 100; ++i) {
    live.push_back(eng.schedule_at(1e6 + i, [] {}));
  }
  for (int i = 0; i < 50'000; ++i) {
    eng.cancel(eng.schedule_after(1e9, [] {}));
  }
  EXPECT_EQ(eng.pending(), 100u);
  EXPECT_LE(eng.queue_size(), 2 * eng.pending() + 128);
  EXPECT_LE(eng.slot_capacity(), 2 * eng.pending() + 128);
  int fired = 0;
  eng.schedule_at(2e6, [&fired] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, StaleHandleAfterSlotReuseIsRejected) {
  Engine eng;
  const EventId a = eng.schedule_at(1.0, [] {});
  eng.cancel(a);
  // The slot is recycled for b; the stale handle a must not cancel b.
  int fired = 0;
  eng.schedule_at(2.0, [&fired] { ++fired; });
  eng.cancel(a);
  eng.cancel(a);  // double-cancel is also a no-op
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, CancelAfterFireIsNoOp) {
  Engine eng;
  const EventId a = eng.schedule_at(1.0, [] {});
  int fired = 0;
  eng.schedule_at(2.0, [&fired] { ++fired; });
  eng.run();
  eng.cancel(a);  // fired long ago; its slot may host someone else now
  EXPECT_EQ(fired, 1);
}

TEST(Engine, AcceptsMoveOnlyCaptures) {
  Engine eng;
  auto payload = std::make_unique<int>(41);
  int got = 0;
  eng.schedule_at(1.0, [p = std::move(payload), &got] { got = *p + 1; });
  eng.run();
  EXPECT_EQ(got, 42);
}

// Randomized property test: one engine under a random schedule/cancel/
// run_until script, checked against a plain model kept by the test. This is
// what keeps compaction, tombstone collection and run_until slicing covered
// under churn.
struct Planned {
  SimTime when;
  bool daemon;
  bool cancelled = false;
  int fired = 0;
};

void run_churn_properties(std::uint64_t seed) {
  Engine eng;
  Rng rng(seed);
  std::vector<Planned> plan;  // index = schedule order
  std::vector<EventId> ids;
  std::vector<std::size_t> stream;  // plan indices in dispatch order
  std::size_t live = 0;
  std::size_t daemons = 0;

  // Settles the model for events fired since `from`, then compares every
  // externally visible counter with it.
  const auto settle = [&](std::size_t from) {
    for (std::size_t i = from; i < stream.size(); ++i) {
      --live;
      if (plan[stream[i]].daemon) --daemons;
    }
    ASSERT_EQ(eng.pending(), live);
    ASSERT_EQ(eng.empty(), live == 0);
    ASSERT_EQ(eng.quiescent(), live == daemons);
    ASSERT_EQ(eng.total_dispatched(),
              static_cast<std::int64_t>(stream.size()));
    // Every queue entry is a live event or a not-yet-collected tombstone.
    ASSERT_EQ(eng.queue_size(), eng.pending() + eng.stale_entries());
  };

  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    const int burst = static_cast<int>(rng.uniform_int(1, 50));
    for (int i = 0; i < burst; ++i) {
      double when = eng.now();
      switch (rng.uniform_int(0, 3)) {
        case 0: break;  // same-instant burst
        case 1: when += rng.uniform(0.0, 5.0); break;     // dense
        case 2: when += rng.uniform(0.0, 500.0); break;   // spread
        default: when += 1e6 + rng.uniform(0.0, 1e6);     // far future
      }
      const bool daemon = rng.uniform_int(0, 9) == 0;
      const std::size_t tag = plan.size();
      plan.push_back({when, daemon});
      auto cb = [&eng, &plan, &stream, tag] {
        EXPECT_EQ(eng.now(), plan[tag].when);
        ++plan[tag].fired;
        stream.push_back(tag);
      };
      ids.push_back(daemon ? eng.schedule_daemon_at(when, cb)
                           : eng.schedule_at(when, cb));
      ++live;
      if (daemon) ++daemons;
    }
    // Cancel a random slice, double cancels and cancels after firing
    // included: those must be no-ops.
    const auto cancels =
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) / 2);
    for (std::int64_t i = 0; i < cancels; ++i) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
      Planned& p = plan[idx];
      if (!p.cancelled && p.fired == 0) {
        p.cancelled = true;
        --live;
        if (p.daemon) --daemons;
      }
      eng.cancel(ids[idx]);
    }
    ASSERT_NO_FATAL_FAILURE(settle(stream.size()));

    const std::size_t before = stream.size();
    // One slice in four is empty: it must still fire the events due now.
    const SimTime until = rng.uniform_int(0, 3) == 0
                              ? eng.now()
                              : eng.now() + rng.uniform(0.0, 200.0);
    const std::int64_t n = eng.run_until(until);
    ASSERT_EQ(n, static_cast<std::int64_t>(stream.size() - before));
    ASSERT_EQ(eng.now(), until);
    ASSERT_NO_FATAL_FAILURE(settle(before));
    // The slice drained everything due by `until` and nothing later.
    for (std::size_t tag = 0; tag < plan.size(); ++tag) {
      const Planned& p = plan[tag];
      if (p.cancelled) continue;
      ASSERT_EQ(p.fired == 1, p.when <= until) << "event " << tag;
    }
  }
  const std::size_t before = stream.size();
  const std::int64_t drained = eng.run();
  EXPECT_EQ(drained, static_cast<std::int64_t>(stream.size() - before));
  ASSERT_NO_FATAL_FAILURE(settle(before));
  EXPECT_TRUE(eng.empty());

  // The fired stream is ordered by (time, schedule order).
  for (std::size_t i = 1; i < stream.size(); ++i) {
    const Planned& a = plan[stream[i - 1]];
    const Planned& b = plan[stream[i]];
    ASSERT_TRUE(a.when < b.when ||
                (a.when == b.when && stream[i - 1] < stream[i]))
        << "dispatch " << i;
  }
  // No cancelled event fired; every other event fired exactly once.
  for (std::size_t tag = 0; tag < plan.size(); ++tag) {
    EXPECT_EQ(plan[tag].fired, plan[tag].cancelled ? 0 : 1) << "event " << tag;
  }
}

TEST(Engine, RandomChurnKeepsDispatchContract) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    run_churn_properties(seed);
  }
}

}  // namespace
}  // namespace mron::sim
