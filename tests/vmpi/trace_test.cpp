#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "machine/presets.hpp"
#include "obsv/session.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

namespace xts::vmpi {
namespace {

// Every delivered message ends in one msg.rx span on the receiver's
// lane, carrying the message id, its byte count and, as t1, the
// delivery instant; the sender's msg.tx span shares that id.
TEST(Trace, RecordsDeliveredMessages) {
  obsv::Options opt;
  opt.tracing = true;
  obsv::Session& session = obsv::Session::start(opt);
  std::vector<obsv::TraceEvent> events;
  {
    WorldConfig cfg;
    cfg.machine = machine::xt4();
    cfg.nranks = 2;
    World w(std::move(cfg));
    w.run([](Comm& c) -> Task<void> {
      if (c.rank() == 0) {
        co_await c.send_wait(1, 0, 64.0);
        co_await c.send_wait(1, 1, 128.0);
      } else {
        (void)co_await c.recv(0, 0);
        (void)co_await c.recv(0, 1);
      }
    });
    events = session.sink().snapshot();
  }
  const std::uint32_t rx = session.sink().intern("msg.rx");
  const std::uint32_t tx = session.sink().intern("msg.tx");
  obsv::Session::stop();

  std::vector<obsv::TraceEvent> delivered;
  std::map<std::uint64_t, std::int32_t> sender;
  for (const obsv::TraceEvent& e : events) {
    if (e.name == rx) delivered.push_back(e);
    if (e.name == tx) sender[e.id] = e.lane;
  }
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].lane, 1);
  EXPECT_EQ(delivered[1].lane, 1);
  EXPECT_EQ(sender.at(delivered[0].id), 0);
  EXPECT_EQ(sender.at(delivered[1].id), 0);
  EXPECT_DOUBLE_EQ(delivered[0].a0, 64.0);
  EXPECT_DOUBLE_EQ(delivered[1].a0, 128.0);
  EXPECT_GT(delivered[1].t1, delivered[0].t1);
}

// Golden run: the determinism contract.  A mixed round (ring sendrecv,
// allreduce, alltoallv, barrier, a 1 MB send) over 8 ranks must replay
// bit-for-bit — identical span stream (order, names, lanes, ids, byte
// arguments and exact double-equal timestamps) and identical makespan
// — across independent Worlds, and tracing must not move the makespan.
// Any change to (time, seq) event ordering, flow completion order, or
// rate arithmetic shows up here.
TEST(Trace, GoldenTraceReplaysBitForBit) {
  auto round = [](Comm& c) -> Task<void> {
    const int right = (c.rank() + 1) % c.size();
    {
      auto sent = co_await c.send(right, 0, 4096.0);
      (void)co_await c.recv((c.rank() + c.size() - 1) % c.size(), 0);
      (void)co_await std::move(sent);
    }
    std::vector<double> v(4, static_cast<double>(c.rank()));
    (void)co_await c.allreduce_sum(std::move(v));
    co_await c.alltoallv_bytes(
        std::vector<double>(static_cast<std::size_t>(c.size()), 512.0));
    co_await c.barrier();
    co_await c.send_wait(right, 1, 1.0e6);
    (void)co_await c.recv(kAnySource, 1);
  };
  auto make_cfg = [] {
    WorldConfig cfg;
    cfg.machine = machine::xt4();
    cfg.nranks = 8;
    return cfg;
  };
  auto traced = [&] {
    obsv::Options opt;
    opt.tracing = true;
    obsv::Session& session = obsv::Session::start(opt);
    SimTime makespan = 0.0;
    {
      World w(make_cfg());
      makespan = w.run(round);
    }
    auto events = session.sink().snapshot();
    obsv::Session::stop();
    return std::pair<std::vector<obsv::TraceEvent>, SimTime>(
        std::move(events), makespan);
  };
  const auto [trace_a, end_a] = traced();
  const auto [trace_b, end_b] = traced();
  World plain(make_cfg());
  const SimTime end_plain = plain.run(round);
  EXPECT_GT(end_a, 0.0);
  EXPECT_EQ(end_a, end_b);  // exact, not approximate
  EXPECT_EQ(end_a, end_plain);
  ASSERT_EQ(trace_a.size(), trace_b.size());
  ASSERT_FALSE(trace_a.empty());
  for (std::size_t i = 0; i < trace_a.size(); ++i) {
    const obsv::TraceEvent& a = trace_a[i];
    const obsv::TraceEvent& b = trace_b[i];
    EXPECT_EQ(a.t0, b.t0) << i;
    EXPECT_EQ(a.t1, b.t1) << i;
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_EQ(a.a0, b.a0) << i;
    EXPECT_EQ(a.a1, b.a1) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.world, b.world) << i;
    EXPECT_EQ(a.lane, b.lane) << i;
    EXPECT_EQ(static_cast<int>(a.cat), static_cast<int>(b.cat)) << i;
  }
}

TEST(Trace, PeakFlowsTracked) {
  WorldConfig cfg;
  cfg.machine = machine::xt4();
  cfg.mode = machine::ExecMode::kSN;
  cfg.nranks = 8;
  World w(std::move(cfg));
  w.run([](Comm& c) -> Task<void> {
    // All ranks exchange with their opposite: 8 simultaneous flows.
    const int partner = c.size() - 1 - c.rank();
    auto f = co_await c.send(partner, 0, 1.0e6);
    (void)co_await c.recv(partner, 0);
    (void)co_await std::move(f);
  });
  EXPECT_GE(w.network().peak_flows(), 4u);
}

}  // namespace
}  // namespace xts::vmpi
