// Discrete-event engine: ordering, stability, cancellation, windowed runs,
// tombstone compaction, and the sharding helpers (partitioning + k-way merge).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "des/event_queue.h"
#include "des/shard.h"

namespace des = gpures::des;

TEST(Engine, FiresInTimeOrder) {
  des::Engine e(0);
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimeIsFifo) {
  des::Engine e(0);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleAfter) {
  des::Engine e(100);
  int fired = 0;
  e.schedule_after(50, [&] { ++fired; });
  e.run();
  EXPECT_EQ(e.now(), 150);
  EXPECT_EQ(fired, 1);
}

TEST(Engine, RejectsPastAndNegative) {
  des::Engine e(100);
  EXPECT_THROW(e.schedule_at(99, [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule_after(-1, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(e.schedule_at(100, [] {}));  // now is allowed
}

TEST(Engine, CancelPreventsExecution) {
  des::Engine e(0);
  int fired = 0;
  const auto id = e.schedule_at(10, [&] { ++fired; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // double-cancel reports failure
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  des::Engine e(0);
  const auto id = e.schedule_at(1, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
  EXPECT_FALSE(e.cancel(0));      // invalid id
  EXPECT_FALSE(e.cancel(999999)); // never issued
}

TEST(Engine, PendingCountsExcludeCancelled) {
  des::Engine e(0);
  const auto a = e.schedule_at(1, [] {});
  e.schedule_at(2, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_FALSE(e.empty());
  e.run();
  EXPECT_TRUE(e.empty());
}

TEST(Engine, RunUntilStopsAndAdvancesClock) {
  des::Engine e(0);
  std::vector<int> fired;
  e.schedule_at(10, [&] { fired.push_back(10); });
  e.schedule_at(20, [&] { fired.push_back(20); });
  e.schedule_at(30, [&] { fired.push_back(30); });
  const auto n = e.run_until(20);
  EXPECT_EQ(n, 2u);  // events at exactly `until` run
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  // Clock advances even with no events in the window.
  e.run_until(25);
  EXPECT_EQ(e.now(), 25);
  e.run_until(100);
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, EventsScheduleEvents) {
  // The simulator's dominant pattern: each event schedules its successor.
  des::Engine e(0);
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) e.schedule_after(3, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(e.now(), 99 * 3);
}

TEST(Engine, StepSingleEvent) {
  des::Engine e(0);
  int fired = 0;
  e.schedule_at(1, [&] { ++fired; });
  e.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, SoakRandomScheduleCancel) {
  // Property: under random schedule/cancel interleavings, dispatched events
  // fire in nondecreasing time order and exactly the non-cancelled ones run.
  gpures::common::Rng rng(99);
  des::Engine e(0);
  std::vector<gpures::common::TimePoint> fired_at;
  std::vector<des::EventId> ids;
  int scheduled = 0;
  int cancelled_ok = 0;

  for (int round = 0; round < 200; ++round) {
    const int burst = 1 + static_cast<int>(rng.uniform_u64(20));
    for (int i = 0; i < burst; ++i) {
      const auto delay =
          static_cast<gpures::common::Duration>(rng.uniform_u64(1000));
      ids.push_back(e.schedule_after(delay, [&fired_at, &e] {
        fired_at.push_back(e.now());
      }));
      ++scheduled;
    }
    // Cancel a random subset of everything ever scheduled.
    for (int i = 0; i < 3 && !ids.empty(); ++i) {
      const auto pick = rng.uniform_u64(ids.size());
      cancelled_ok += e.cancel(ids[pick]);
    }
    // Advance part-way.
    e.run_until(e.now() + static_cast<gpures::common::Duration>(
                              rng.uniform_u64(300)));
  }
  e.run();
  EXPECT_EQ(fired_at.size(),
            static_cast<std::size_t>(scheduled - cancelled_ok));
  for (std::size_t i = 1; i < fired_at.size(); ++i) {
    ASSERT_LE(fired_at[i - 1], fired_at[i]);
  }
  EXPECT_TRUE(e.empty());
}

TEST(Engine, CancelInterleavedWithRunUntil) {
  des::Engine e(0);
  int fired = 0;
  const auto id = e.schedule_at(50, [&] { ++fired; });
  e.schedule_at(10, [&] { e.cancel(id); });
  e.run_until(100);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, TombstoneCompactionReclaimsHeapSlots) {
  // Cancellation is lazy: tombstones pile up in the heap until they exceed
  // half the pending count (with a 64-entry floor), then one rebuild drops
  // them all.  300 scheduled, 100 cancelled leaves 100/200 — exactly at the
  // threshold, no compaction; the 101st cancel (101*2 > 199) triggers it.
  des::Engine e(0);
  std::vector<des::EventId> ids;
  int fired = 0;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(e.schedule_at(1 + i, [&] { ++fired; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(e.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(e.cancelled_tombstones(), 100u);
  EXPECT_EQ(e.pending(), 200u);
  EXPECT_TRUE(e.cancel(ids[100]));
  EXPECT_EQ(e.cancelled_tombstones(), 0u);  // compacted
  EXPECT_EQ(e.pending(), 199u);
  // The rebuilt heap still dispatches the survivors in time order.
  gpures::common::TimePoint last = 0;
  e.run();
  EXPECT_EQ(fired, 199);
  EXPECT_EQ(e.now(), 300);
  (void)last;
}

TEST(Engine, SmallQueuesNeverCompact) {
  // Below the 64-tombstone floor, even cancelling everything leaves the
  // tombstones in place (compaction would thrash tiny queues).
  des::Engine e(0);
  std::vector<des::EventId> ids;
  for (int i = 0; i < 63; ++i) ids.push_back(e.schedule_at(1 + i, [] {}));
  for (const auto id : ids) e.cancel(id);
  EXPECT_EQ(e.cancelled_tombstones(), 63u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_TRUE(e.empty());  // empty() tracks pending, not heap slots
  e.run();
  EXPECT_EQ(e.cancelled_tombstones(), 0u);  // popped as tombstones
}

TEST(Engine, ReserveIsBehaviorNeutral) {
  des::Engine a(0);
  des::Engine b(0);
  b.reserve(1024);
  std::vector<int> fa;
  std::vector<int> fb;
  for (int i = 0; i < 50; ++i) {
    a.schedule_at(100 - i, [&fa, i] { fa.push_back(i); });
    b.schedule_at(100 - i, [&fb, i] { fb.push_back(i); });
  }
  a.run();
  b.run();
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(a.dispatched_total(), 50u);
  EXPECT_EQ(b.dispatched_total(), 50u);
}

TEST(Engine, CancelDuringDispatchOfSameTimestampBatch) {
  // An event's callback cancels a later event carrying the same timestamp:
  // the victim must not fire even though it was already "due".
  des::Engine e(0);
  int fired = 0;
  des::EventId victim = 0;
  e.schedule_at(10, [&] { EXPECT_TRUE(e.cancel(victim)); });
  victim = e.schedule_at(10, [&] { ++fired; });
  e.schedule_at(10, [&] { ++fired; });  // after the victim; still runs
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 10);
}

TEST(Engine, CancelOfAlreadyFiredIdInsideCallback) {
  // Cancelling an id that fired earlier in the same batch reports failure
  // and disturbs nothing.
  des::Engine e(0);
  std::vector<int> order;
  const auto first = e.schedule_at(5, [&] { order.push_back(1); });
  e.schedule_at(5, [&] {
    EXPECT_FALSE(e.cancel(first));
    order.push_back(2);
  });
  e.schedule_at(5, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunUntilBoundaryFromCallback) {
  // A callback at t schedules exactly at the run_until boundary: the new
  // event is inside the window ("events at exactly `until` run") even when
  // it only comes into existence mid-run.
  des::Engine e(0);
  std::vector<int> fired;
  e.schedule_at(10, [&] {
    fired.push_back(10);
    e.schedule_at(20, [&] { fired.push_back(20); });
    e.schedule_at(21, [&] { fired.push_back(21); });
  });
  const auto n = e.run_until(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(e.now(), 20);
  e.run();
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 21}));
}

TEST(Engine, ScheduleInCallbackKeepsFifoStability) {
  // A callback scheduling at the *current* time joins the back of the
  // same-timestamp batch — scheduling order is dispatch order, even across
  // the dispatch boundary.
  des::Engine e(0);
  std::vector<int> order;
  e.schedule_at(7, [&] {
    order.push_back(0);
    e.schedule_at(7, [&] { order.push_back(3); });
    e.schedule_at(7, [&] { order.push_back(4); });
  });
  e.schedule_at(7, [&] { order.push_back(1); });
  e.schedule_at(7, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, CancelRejectsEveryIdThatIsNotPending) {
  // Only a pending id cancels.  A fired id, a second cancel of the same id,
  // the reserved id 0 and ids the engine never handed out all report false
  // and leave the counts alone.
  des::Engine e(0);
  int fired = 0;
  const auto early = e.schedule_at(1, [&] { ++fired; });
  const auto late = e.schedule_at(2, [&] { ++fired; });
  e.run_until(1);
  EXPECT_FALSE(e.cancel(early));  // fired
  EXPECT_TRUE(e.cancel(late));
  EXPECT_FALSE(e.cancel(late));   // second cancel
  EXPECT_FALSE(e.cancel(0));      // never a valid handle
  EXPECT_FALSE(e.cancel(late + 1));
  EXPECT_FALSE(e.cancel(~des::EventId{0}));
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.cancelled_tombstones(), 1u);
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.cancelled_tombstones(), 0u);
  EXPECT_FALSE(e.cancel(late));   // reclaimed tombstone
}

TEST(Engine, CountsHoldAcrossCompaction) {
  // pending() and cancelled_tombstones() are exact before a compaction,
  // after it, and as dispatch drains the rebuilt heap; ids dropped by the
  // compaction stay uncancellable.
  des::Engine e(0);
  std::vector<des::EventId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(e.schedule_at(10 + i, [] {}));
  e.run_until(19);  // fires ids[0..9]
  EXPECT_EQ(e.pending(), 190u);
  EXPECT_EQ(e.cancelled_tombstones(), 0u);
  // Cancel from the back: 63 tombstones is under the floor.
  for (int i = 0; i < 63; ++i) EXPECT_TRUE(e.cancel(ids[199 - i]));
  EXPECT_EQ(e.pending(), 127u);
  EXPECT_EQ(e.cancelled_tombstones(), 63u);
  // The 64th reaches the floor and outnumbers half the 126 pending.
  EXPECT_TRUE(e.cancel(ids[199 - 63]));
  EXPECT_EQ(e.pending(), 126u);
  EXPECT_EQ(e.cancelled_tombstones(), 0u);
  EXPECT_FALSE(e.cancel(ids[199]));
  EXPECT_FALSE(e.cancel(ids[0]));
  // A cancel after the rebuild starts a fresh tombstone count.
  EXPECT_TRUE(e.cancel(ids[10]));
  EXPECT_EQ(e.pending(), 125u);
  EXPECT_EQ(e.cancelled_tombstones(), 1u);
  EXPECT_EQ(e.run_until(70), 50u);  // ids[11..60]; ids[10] is skipped
  EXPECT_EQ(e.pending(), 75u);
  EXPECT_EQ(e.cancelled_tombstones(), 0u);
  EXPECT_EQ(e.run(), 75u);  // ids[61..135]
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.dispatched_total(), 135u);
}

TEST(Engine, MassCancellationKeepsSurvivorOrder) {
  // Schedule many events with heavy timestamp ties, cancel most of them in
  // random order (several compactions fire along the way), and the
  // dispatch order is exactly the survivors' (time, scheduling order).
  gpures::common::Rng rng(7);
  des::Engine e(0);
  struct Planned {
    gpures::common::TimePoint time;
    int index;
    des::EventId id;
  };
  std::vector<Planned> planned;
  std::vector<int> order;
  for (int i = 0; i < 5000; ++i) {
    const auto t = static_cast<gpures::common::TimePoint>(rng.uniform_u64(400));
    planned.push_back({t, i, e.schedule_at(t, [&order, i] {
                         order.push_back(i);
                       })});
  }
  std::vector<bool> cancelled(planned.size(), false);
  for (int k = 0; k < 4000; ++k) {
    const auto pick = static_cast<std::size_t>(rng.uniform_u64(planned.size()));
    EXPECT_EQ(e.cancel(planned[pick].id), !cancelled[pick]);
    cancelled[pick] = true;
  }
  std::vector<Planned> survivors;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    if (!cancelled[i]) survivors.push_back(planned[i]);
  }
  std::stable_sort(survivors.begin(), survivors.end(),
                   [](const Planned& a, const Planned& b) {
                     return a.time < b.time;
                   });
  std::vector<int> expected;
  for (const auto& p : survivors) expected.push_back(p.index);
  EXPECT_EQ(e.pending(), survivors.size());
  e.run();
  EXPECT_EQ(order, expected);
  EXPECT_EQ(e.cancelled_tombstones(), 0u);
}

// ---- sharding helpers ----

TEST(Shard, PartitionRangeCoversContiguouslyAndEvenly) {
  const auto parts = des::partition_range(106, 7);
  ASSERT_EQ(parts.size(), 7u);
  EXPECT_EQ(parts.front().begin, 0);
  EXPECT_EQ(parts.back().end, 106);
  std::int32_t at = 0;
  for (const auto& r : parts) {
    EXPECT_EQ(r.begin, at);  // contiguous, no gaps
    at = r.end;
    EXPECT_GE(r.size(), 106 / 7);
    EXPECT_LE(r.size(), 106 / 7 + 1);
  }
}

TEST(Shard, PartitionRangeClampsDegenerateInputs) {
  EXPECT_EQ(des::partition_range(3, 10).size(), 3u);  // never empty shards
  EXPECT_EQ(des::partition_range(5, 0).size(), 1u);
  EXPECT_EQ(des::partition_range(0, 4).size(), 1u);
  EXPECT_EQ(des::partition_range(0, 4)[0].size(), 0);
}

TEST(Shard, AutoShardCountScalesWithFleet) {
  EXPECT_EQ(des::auto_shard_count(106, 16, 256), 7);
  EXPECT_EQ(des::auto_shard_count(2000, 16, 256), 125);
  EXPECT_EQ(des::auto_shard_count(8, 16, 256), 1);
  EXPECT_EQ(des::auto_shard_count(100000, 16, 256), 256);  // capped
}

TEST(Shard, MergeSortedShardsIsStableTotalOrder) {
  // Ties across shards resolve toward the lower shard index; within a shard
  // the input order is preserved.
  struct Ev {
    int key;
    std::string tag;
  };
  std::vector<std::vector<Ev>> shards;
  shards.push_back({{1, "a0"}, {5, "a1"}, {5, "a2"}});
  shards.push_back({{1, "b0"}, {4, "b1"}});
  shards.push_back({});
  shards.push_back({{0, "d0"}, {5, "d1"}});
  const auto merged = des::merge_sorted_shards(
      std::move(shards), [](const Ev& x, const Ev& y) { return x.key < y.key; });
  std::vector<std::string> tags;
  for (const auto& e : merged) tags.push_back(e.tag);
  EXPECT_EQ(tags, (std::vector<std::string>{"d0", "a0", "b0", "b1", "a1", "a2",
                                            "d1"}));
}
