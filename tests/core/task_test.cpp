#include "core/task.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/block_cache.hpp"
#include "core/future.hpp"
#include "runner/sweep.hpp"

namespace xts {
namespace {

Task<int> answer() { co_return 42; }

Task<int> add(int a, int b) {
  int x = co_await answer();
  co_return a + b + x - 42;
}

TEST(Task, SpawnedRootRuns) {
  Engine e;
  bool ran = false;
  spawn(e, [](bool& flag) -> Task<void> {
    flag = true;
    co_return;
  }(ran));
  EXPECT_FALSE(ran) << "tasks are lazy until the engine runs";
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Task, NestedAwaitsPropagateValues) {
  Engine e;
  int result = 0;
  spawn(e, [](Engine&, int& out) -> Task<void> {
    out = co_await add(1, 2);
  }(e, result));
  e.run();
  EXPECT_EQ(result, 3);
}

TEST(Task, DelayAdvancesSimulatedTime) {
  Engine e;
  SimTime observed = -1.0;
  spawn(e, [](Engine& eng, SimTime& out) -> Task<void> {
    co_await Delay(eng, 2.5);
    co_await Delay(eng, 1.5);
    out = eng.now();
  }(e, observed));
  e.run();
  EXPECT_DOUBLE_EQ(observed, 4.0);
}

TEST(Task, ExceptionsPropagateToAwaiter) {
  Engine e;
  bool caught = false;
  auto thrower = []() -> Task<int> {
    throw UsageError("boom");
    co_return 0;  // unreachable
  };
  spawn(e, [](auto fn, bool& flag) -> Task<void> {
    try {
      (void)co_await fn();
    } catch (const UsageError&) {
      flag = true;
    }
  }(thrower, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    spawn(e, [](Engine& eng, std::vector<int>& log, int id) -> Task<void> {
      co_await Delay(eng, 1.0 + id % 3);
      log.push_back(id);
    }(e, order, i));
  }
  e.run();
  ASSERT_EQ(order.size(), 50u);
  // Delay groups by (id % 3); within a group, spawn order is preserved.
  std::vector<int> expected;
  for (int r = 0; r < 3; ++r)
    for (int i = 0; i < 50; ++i)
      if (i % 3 == r) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Task, DeepChainDoesNotOverflowStack) {
  Engine e;
  // 100k-deep sequential awaits; symmetric transfer keeps native stack flat.
  struct Chain {
    static Task<int> run(int depth) {
      if (depth == 0) co_return 0;
      int below = co_await run(depth - 1);
      co_return below + 1;
    }
  };
  int result = 0;
  spawn(e, [](int& out) -> Task<void> {
    out = co_await Chain::run(100000);
  }(result));
  e.run();
  EXPECT_EQ(result, 100000);
}

TEST(SimFuture, ValueSetBeforeAwaitIsImmediate) {
  Engine e;
  SimPromise<int> p(e);
  p.set_value(7);
  int got = 0;
  spawn(e, [](SimFuture<int> f, int& out) -> Task<void> {
    out = co_await std::move(f);
  }(p.future(), got));
  e.run();
  EXPECT_EQ(got, 7);
}

TEST(SimFuture, ValueSetAfterAwaitResumesWaiter) {
  Engine e;
  SimPromise<std::string> p(e);
  std::string got;
  spawn(e, [](SimFuture<std::string> f, std::string& out) -> Task<void> {
    out = co_await std::move(f);
  }(p.future(), got));
  e.schedule_at(3.0, [p] { p.set_value("hello"); });
  e.run();
  EXPECT_EQ(got, "hello");
}

TEST(SimFuture, DoubleSetThrows) {
  Engine e;
  SimPromise<int> p(e);
  p.set_value(1);
  EXPECT_THROW(p.set_value(2), UsageError);
}

TEST(SimFuture, AwaitingCompletedFutureAfterDelayGivesMaxSemantics) {
  // The pattern used for compute/memory overlap: start a server job,
  // sleep for the compute time, then await the job — total time is the
  // max of the two.
  Engine e;
  SimPromise<Done> p(e);
  SimTime finished = -1.0;
  spawn(e, [](Engine& eng, SimFuture<Done> f, SimTime& out) -> Task<void> {
    co_await Delay(eng, 5.0);  // compute
    (void)co_await std::move(f);  // memory flow completed at t=2
    out = eng.now();
  }(e, p.future(), finished));
  e.schedule_at(2.0, [p] { p.set_value(Done{}); });
  e.run();
  EXPECT_DOUBLE_EQ(finished, 5.0);
}

// -- recycled future state and coroutine frames (core/block_cache.hpp) --

// Every cycle draws its state from the block the previous cycle freed;
// none of a value, an error, a waiter or a consumed mark may leak
// through.
TEST(BlockCache, RecycledFutureStateStartsEmpty) {
  using detail::BlockCache;
  // Empty the state's size class first, so the cycles below can only
  // stay level on the cache by reusing the one block they free.
  constexpr std::size_t kStateBytes = sizeof(detail::FutureState<std::string>);
  std::vector<void*> drained;
  for (std::size_t k = 0; k < BlockCache::kCap; ++k)
    drained.push_back(BlockCache::allocate(kStateBytes));
  const std::size_t base = BlockCache::cached();

  Engine e;
  for (int i = 0; i < 10000; ++i) {
    {
      SimPromise<std::string> p(e);
      SimFuture<std::string> f = p.future();
      ASSERT_FALSE(f.await_ready()) << "stale value or error, cycle " << i;
      // Throws if a stale waiter were still registered.
      f.await_suspend(std::noop_coroutine());
      if (i % 2 == 0) {
        p.set_value(std::to_string(i));
      } else {
        p.set_error(std::make_exception_ptr(UsageError(std::to_string(i))));
      }
      e.run();
      ASSERT_TRUE(f.await_ready());
      if (i % 2 == 0) {
        ASSERT_EQ(f.await_resume(), std::to_string(i));  // throws if consumed
      } else {
        try {
          (void)f.await_resume();
          FAIL() << "no error, cycle " << i;
        } catch (const UsageError& err) {
          ASSERT_EQ(std::string(err.what()), std::to_string(i));
        }
      }
    }
    ASSERT_EQ(BlockCache::cached(), base + 1) << "cycle " << i;
  }
  for (void* b : drained) BlockCache::deallocate(b, kStateBytes);
}

TEST(BlockCache, FutureOutlivesItsPromise) {
  Engine e;
  std::optional<SimFuture<std::string>> f;
  {
    SimPromise<std::string> p(e);
    f.emplace(p.future());
    p.set_value("kept");
  }
  ASSERT_TRUE(f->await_ready());
  EXPECT_EQ(f->await_resume(), "kept");
}

TEST(BlockCache, PromiseOutlivesItsFuture) {
  Engine e;
  SimPromise<std::string> p(e);
  (void)p.future();
  { SimFuture<std::string> f = p.future(); }
  p.set_value("nobody listens");  // no waiter: schedules nothing
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_THROW(p.set_value("again"), UsageError);
}

TEST(BlockCache, PromiseDroppedUnsetNeverResumes) {
  Engine e;
  bool resumed = false;
  std::optional<SimPromise<int>> p(std::in_place, e);
  auto waiter = [](SimFuture<int> f, bool& flag) -> Task<void> {
    (void)co_await std::move(f);
    flag = true;
  };
  auto h = waiter(p->future(), resumed).release();
  h.resume();  // runs to the co_await and parks on the future
  p.reset();
  e.run();
  EXPECT_FALSE(resumed);
  EXPECT_EQ(e.events_processed(), 0u);
  h.destroy();  // the frame's future holds the state's last reference
}

Task<std::uint64_t> big_frame(Engine& e, std::uint8_t seed) {
  std::array<std::uint8_t, 4096> buf{};  // live across the suspension
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(seed + i);
  co_await Delay(e, 1.0);
  std::uint64_t sum = 0;
  for (const std::uint8_t b : buf) sum += b;
  co_return sum;
}

TEST(BlockCache, FrameLargerThanOneKibRoundTrips) {
  Engine e;
  std::vector<std::uint64_t> sums;
  for (int round = 0; round < 3; ++round) {
    spawn(e, [](Engine& eng, std::vector<std::uint64_t>& out) -> Task<void> {
      out.push_back(co_await big_frame(eng, 7));
      out.push_back(co_await big_frame(eng, 9));
    }(e, sums));
  }
  e.run();
  std::uint64_t want7 = 0;
  std::uint64_t want9 = 0;
  for (std::size_t i = 0; i < 4096; ++i) {
    want7 += static_cast<std::uint8_t>(7 + i);
    want9 += static_cast<std::uint8_t>(9 + i);
  }
  ASSERT_EQ(sums.size(), 6u);
  for (std::size_t i = 0; i < sums.size(); i += 2) {
    EXPECT_EQ(sums[i], want7);
    EXPECT_EQ(sums[i + 1], want9);
  }
}

// Frames and future state allocated on one set of sweep worker threads
// and freed on another (the label puts this under ThreadSanitizer).
TEST(BlockCache, FramesCrossSweepWorkerThreadsCleanly) {
  static constexpr std::size_t kPoints = 8;
  static constexpr int kTasks = 200;
  // Allocate lazy (unstarted) frames and promises on the workers, after
  // a World-like churn so each worker's cache is warm.
  struct Parcel {
    std::vector<Task<int>> tasks;
    std::vector<SimPromise<int>> promises;
  };
  std::vector<Parcel> parcels =
      runner::sweep_index(kPoints, 4, [](std::size_t i) {
        Engine e;
        int done = 0;
        for (int k = 0; k < kTasks; ++k)
          spawn(e, [](Engine& eng, int& n) -> Task<void> {
            co_await Delay(eng, 1.0);
            ++n;
          }(e, done));
        e.run();
        Parcel p;
        for (int k = 0; k < kTasks; ++k)
          p.tasks.push_back(add(static_cast<int>(i), k));
        static Engine unused;  // promises are only dropped, never set
        for (int k = 0; k < kTasks; ++k) p.promises.emplace_back(unused);
        EXPECT_EQ(done, kTasks);
        return p;
      });
  // Run and free them on a second pool, each point taking another
  // point's parcel.
  const std::vector<int> sums =
      runner::sweep_index(kPoints, 4, [&parcels](std::size_t i) {
        Parcel mine = std::move(parcels[(i + 3) % kPoints]);
        Engine e;
        int sum = 0;
        spawn(e, [](std::vector<Task<int>> ts, int& out) -> Task<void> {
          for (Task<int>& t : ts) out += co_await std::move(t);
        }(std::move(mine.tasks), sum));
        e.run();
        return sum;
      });
  for (std::size_t i = 0; i < kPoints; ++i) {
    const int src = static_cast<int>((i + 3) % kPoints);
    EXPECT_EQ(sums[i], kTasks * src + kTasks * (kTasks - 1) / 2) << i;
  }
}

}  // namespace
}  // namespace xts
