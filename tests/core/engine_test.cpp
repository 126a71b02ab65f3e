#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/future.hpp"
#include "core/rng.hpp"
#include "core/task.hpp"

namespace xts {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_EQ(e.events_processed(), 0u);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Engine, SameTimeEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i)
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  e.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) e.schedule_after(1.0, chain);
  };
  e.schedule_after(1.0, chain);
  e.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(e.now(), 10.0);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(5.0, [&] {
    EXPECT_THROW(e.schedule_at(1.0, [] {}), UsageError);
  });
  e.run();
}

TEST(Engine, NegativeDelayThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_after(-1.0, [] {}), UsageError);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(10.0, [&] { ++fired; });
  EXPECT_FALSE(e.run_until(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.events_pending(), 1u);
  EXPECT_TRUE(e.run_until(20.0));
  EXPECT_EQ(fired, 2);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunUntilAdvancesNowToDeadline) {
  // Regression: run_until used to leave now() at the last fired event,
  // so a follow-up schedule_after() landed before the deadline.
  Engine e;
  e.schedule_at(1.0, [] {});
  e.schedule_at(10.0, [] {});
  EXPECT_FALSE(e.run_until(5.0));
  EXPECT_EQ(e.now(), 5.0);
  int fired_at_deadline_plus = 0;
  e.schedule_after(1.0, [&] { ++fired_at_deadline_plus; });  // at t=6
  EXPECT_FALSE(e.run_until(7.0));
  EXPECT_EQ(fired_at_deadline_plus, 1);
  EXPECT_EQ(e.now(), 7.0);
  EXPECT_TRUE(e.run_until(20.0));
  EXPECT_EQ(e.now(), 20.0);  // drained: still advances to the deadline
}

TEST(Engine, RunUntilPastDeadlineDoesNotRewindTime) {
  Engine e;
  e.schedule_at(3.0, [] {});
  e.run();
  EXPECT_EQ(e.now(), 3.0);
  EXPECT_TRUE(e.run_until(1.0));  // deadline already in the past
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Engine, SameInstantFifoAndHeapInterleaveBySequence) {
  // Events landing at the same instant fire in schedule order even when
  // some were scheduled earlier (heap) and some at that instant (FIFO).
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] {
    order.push_back(0);
    // Scheduled *at* t=1 while now()==1: takes the same-instant lane.
    e.schedule_after(0.0, [&] { order.push_back(2); });
    e.schedule_at(1.0, [&] { order.push_back(3); });
  });
  e.schedule_at(1.0, [&] { order.push_back(1); });  // heap, seq 1
  e.schedule_at(2.0, [&] { order.push_back(4); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ZeroDelayStormPreservesFifoOrder) {
  // Grow the same-instant ring through several reallocations.
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] {
    for (int i = 0; i < 500; ++i)
      e.schedule_after(0.0, [&order, i] { order.push_back(2 * i); });
  });
  e.schedule_at(1.0, [&] {
    for (int i = 0; i < 500; ++i)
      e.schedule_after(0.0, [&order, i] { order.push_back(2 * i + 1); });
  });
  e.run();
  // Both batches were enqueued before any ring entry fired, so the ring
  // drains the first batch (even values), then the second (odd values).
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], 2 * i);
    EXPECT_EQ(order[static_cast<size_t>(500 + i)], 2 * i + 1);
  }
  EXPECT_EQ(e.now(), 1.0);
}

TEST(Engine, LargeAndNonTrivialCapturesAreBoxedCorrectly) {
  // Callables that exceed the inline buffer (or are not trivially
  // copyable) take the heap-boxed path of InlineFn.
  Engine e;
  auto big = std::make_shared<std::vector<int>>(100, 7);
  long sum = 0;
  double pad[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  e.schedule_at(1.0, [big, &sum] { sum += (*big)[99]; });   // non-trivial
  e.schedule_at(2.0, [pad, &sum] { sum += static_cast<long>(pad[7]); });
  e.run();
  EXPECT_EQ(sum, 15);
  EXPECT_EQ(big.use_count(), 1);  // boxed copy destroyed after firing
}

TEST(Engine, ThrowingHandlerLeavesLaterEventsQueued) {
  // A handler that throws escapes run() with the rest of the queue
  // intact; a later run() executes it in (time, seq) order.
  Engine e;
  std::vector<int> fired;
  e.schedule_at(1.0, [&] { fired.push_back(1); });
  e.schedule_at(2.0, [] { throw SimError("boom"); });
  e.schedule_at(3.0, [&] { fired.push_back(3); });
  e.schedule_at(4.0, [&] { fired.push_back(4); });
  EXPECT_THROW(e.run(), SimError);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(e.events_pending(), 2u);
  e.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, EventCountersTrack) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(static_cast<double>(i), [] {});
  EXPECT_EQ(e.events_pending(), 5u);
  e.run();
  EXPECT_EQ(e.events_processed(), 5u);
  EXPECT_EQ(e.events_pending(), 0u);
}

// -- NaN times -------------------------------------------------------------
// NaN compares false against everything, so it passes a `t < now()`
// check; queued, it would drag now() to NaN.  The bit-ordered heaps
// also rely on every queued time being a number.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Engine, ScheduleAtNaNThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_at(kNaN, [] {}), UsageError);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, ScheduleAfterNaNThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_after(kNaN, [] {}), UsageError);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, DelayNaNThrows) {
  Engine e;
  EXPECT_THROW(Delay(e, kNaN), UsageError);
  EXPECT_THROW(Delay(e, -1.0), UsageError);
}

TEST(Engine, RunUntilNaNDeadlineThrows) {
  // No event time compares greater than a NaN deadline, so the loop
  // would step past the drained queue forever.
  Engine e;
  e.schedule_at(1.0, [] {});
  EXPECT_THROW(e.run_until(kNaN), UsageError);
  EXPECT_EQ(e.events_pending(), 1u);
}

TEST(EngineTimer, ArmAtNaNOrPastThrows) {
  Engine e;
  Engine::Timer t(e, [] {});
  EXPECT_THROW(t.arm_at(kNaN), UsageError);
  EXPECT_FALSE(t.armed());
  e.schedule_at(2.0, [&] { EXPECT_THROW(t.arm_at(1.0), UsageError); });
  e.run();
  EXPECT_FALSE(t.armed());
}

// -- Timer lifecycle -------------------------------------------------------

TEST(EngineTimer, FiresOnceAndMayRearmFromItsCallback) {
  Engine e;
  std::vector<double> at;
  Engine::Timer* self = nullptr;
  Engine::Timer t(e, [&] {
    at.push_back(e.now());
    EXPECT_FALSE(self->armed());  // disarmed before the callback
    if (at.size() < 3) self->arm_at(e.now() + 1.0);
  });
  self = &t;
  t.arm_at(1.0);
  e.run();
  EXPECT_EQ(at, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(e.events_processed(), 3u);
  EXPECT_FALSE(t.armed());
}

TEST(EngineTimer, RearmReplacesThePendingFiring) {
  Engine e;
  std::vector<double> at;
  Engine::Timer t(e, [&] { at.push_back(e.now()); });
  t.arm_at(5.0);
  t.arm_at(2.0);  // earlier
  t.arm_at(3.0);  // later again
  EXPECT_EQ(e.events_pending(), 1u);
  e.run();
  EXPECT_EQ(at, (std::vector<double>{3.0}));
  EXPECT_EQ(e.events_processed(), 1u);
}

TEST(EngineTimer, DestroyingAnArmedTimerDropsItsEvent) {
  Engine e;
  std::vector<int> fired;
  auto a = std::make_unique<Engine::Timer>(e, [&] { fired.push_back(0); });
  auto b = std::make_unique<Engine::Timer>(e, [&] { fired.push_back(1); });
  auto c = std::make_unique<Engine::Timer>(e, [&] { fired.push_back(2); });
  c->arm_at(3.0);
  a->arm_at(1.0);
  b->arm_at(2.0);
  EXPECT_EQ(e.events_pending(), 3u);
  b.reset();  // an interior entry of the timer heap
  EXPECT_EQ(e.events_pending(), 2u);
  e.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
  EXPECT_EQ(e.events_processed(), 2u);
}

TEST(EngineTimer, OutlivingItsEngineLeavesItDisarmed) {
  auto e = std::make_unique<Engine>();
  Engine::Timer t(*e, [] {});
  t.arm_at(1.0);
  e.reset();
  EXPECT_FALSE(t.armed());  // and its destructor touches no engine
}

TEST(EngineTimer, RunUntilStopsAtATimer) {
  Engine e;
  int fired = 0;
  Engine::Timer t(e, [&] { ++fired; });
  t.arm_at(5.0);
  EXPECT_FALSE(e.run_until(3.0));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now(), 3.0);
  EXPECT_TRUE(t.armed());
  EXPECT_FALSE(e.run_until(5.0 - 1e-9));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(e.run_until(10.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 10.0);
  EXPECT_FALSE(t.armed());
}

TEST(EngineTimer, EventsPendingCountsArmedTimers) {
  Engine e;
  Engine::Timer a(e, [] {});
  Engine::Timer b(e, [] {});
  e.schedule_at(1.0, [] {});
  a.arm_at(2.0);
  b.arm_at(0.0);  // due now: still a timer, not a ring entry
  EXPECT_EQ(e.events_pending(), 3u);
  a.arm_at(4.0);
  EXPECT_EQ(e.events_pending(), 3u);
  a.cancel();
  a.cancel();  // idempotent
  EXPECT_EQ(e.events_pending(), 2u);
  e.run();
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_EQ(e.events_processed(), 2u);
}

TEST(EngineTimer, TimerDueNowOrdersBySequenceAgainstTheRing) {
  Engine e;
  std::vector<int> order;
  Engine::Timer t(e, [&] { order.push_back(1); });
  e.schedule_at(1.0, [&] {
    e.schedule_after(0.0, [&] { order.push_back(0); });
    t.arm_at(1.0);  // same instant, scheduled after the ring entry
    e.schedule_after(0.0, [&] { order.push_back(2); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// -- Order oracle ----------------------------------------------------------
// Seeded differential test: events fired from the engine re-enter it with
// a random mix of schedule_at, schedule_after(0) and timer arm, re-arm and
// cancel, on a coarse time grid so that same-instant ties are common.  A
// reference model keeps every pending event as a (time, seq) key in an
// ordered map, taking a fresh seq on each schedule and each arm (none on
// cancel); each firing must be the model's least key.

class EngineOrderOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineOrderOracle, FiringOrderMatchesOrderedSetModel) {
  using Key = std::pair<double, std::uint64_t>;
  constexpr int kTimers = 5;
  constexpr std::array<double, 5> kSteps{0.0, 0.25, 0.5, 1.0, 2.0};

  Engine e;
  Rng rng(GetParam());
  std::map<Key, int> model;  // pending key -> label
  std::uint64_t seq = 0;
  std::array<std::optional<Key>, kTimers> timer_key;
  int next_label = kTimers;  // labels below kTimers name the timers
  int budget = 3000;         // random operations left
  std::size_t fired = 0;

  std::vector<std::unique_ptr<Engine::Timer>> timers;
  std::function<void(int)> on_fire;
  for (int k = 0; k < kTimers; ++k)
    timers.push_back(
        std::make_unique<Engine::Timer>(e, [&on_fire, k] { on_fire(k); }));

  auto random_op = [&] {
    const double t = e.now() + kSteps[rng.below(kSteps.size())];
    const auto k = static_cast<std::size_t>(rng.below(kTimers));
    switch (rng.below(4)) {
      case 0: {
        const int label = next_label++;
        e.schedule_at(t, [&on_fire, label] { on_fire(label); });
        model.emplace(Key{t, seq++}, label);
        break;
      }
      case 1: {
        const int label = next_label++;
        e.schedule_after(0.0, [&on_fire, label] { on_fire(label); });
        model.emplace(Key{e.now(), seq++}, label);
        break;
      }
      case 2:
        timers[k]->arm_at(t);
        if (timer_key[k]) model.erase(*timer_key[k]);
        timer_key[k] = Key{t, seq++};
        model.emplace(*timer_key[k], static_cast<int>(k));
        break;
      default:
        timers[k]->cancel();
        if (timer_key[k]) model.erase(*timer_key[k]);
        timer_key[k].reset();
        break;
    }
    ASSERT_EQ(e.events_pending(), model.size());
  };

  on_fire = [&](int label) {
    ASSERT_FALSE(model.empty());
    const auto first = model.begin();
    ASSERT_EQ(first->second, label) << "firing #" << fired;
    ASSERT_EQ(first->first.first, e.now());
    if (label < kTimers) timer_key[static_cast<std::size_t>(label)].reset();
    model.erase(first);
    ++fired;
    for (auto n = rng.below(4); n > 0 && budget > 0; --n, --budget)
      random_op();
  };

  while (budget > 0) {  // reseed whenever the event population dies out
    for (int i = 0; i < 8 && budget > 0; ++i, --budget) random_op();
    e.run();
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(e.events_processed(), fired);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrderOracle,
                         ::testing::Values(1u, 2u, 3u, 17u, 2024u));

}  // namespace
}  // namespace xts
