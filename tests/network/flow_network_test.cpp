#include "network/flow_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/future.hpp"
#include "core/rng.hpp"
#include "core/task.hpp"

namespace xts::net {
namespace {

NetConfig cfg(double link = 4.0, double inj = 2.0) {
  NetConfig c;
  c.link_bw = link;           // units: bytes/s (test-scale numbers)
  c.injection_bw = inj;
  c.per_hop_latency = 0.1;
  return c;
}

SimTime run_one_transfer(Engine& e, FlowNetwork& net, NodeId src, NodeId dst,
                         double bytes) {
  SimTime done = -1.0;
  spawn(e, [](Engine& eng, FlowNetwork& n, NodeId s, NodeId d, double b,
              SimTime& out) -> Task<void> {
    co_await n.transfer_flow(s, d, b);
    out = eng.now();
  }(e, net, src, dst, bytes, done));
  e.run();
  return done;
}

TEST(FlowNetwork, SingleFlowLimitedByInjection) {
  Engine e;
  FlowNetwork net(e, Torus3D({4, 1, 1}), cfg(4.0, 2.0));
  // 8 bytes at min(inj 2, link 4, ej 2) = 2 B/s -> 4 s.
  EXPECT_NEAR(run_one_transfer(e, net, 0, 1, 8.0), 4.0, 1e-9);
  EXPECT_NEAR(net.total_delivered(), 8.0, 1e-6);
}

TEST(FlowNetwork, SingleFlowLimitedByLink) {
  Engine e;
  FlowNetwork net(e, Torus3D({4, 1, 1}), cfg(1.0, 2.0));
  EXPECT_NEAR(run_one_transfer(e, net, 0, 1, 8.0), 8.0, 1e-9);
}

TEST(FlowNetwork, ZeroByteTransferCompletesImmediately) {
  Engine e;
  FlowNetwork net(e, Torus3D({2, 1, 1}), cfg());
  EXPECT_NEAR(run_one_transfer(e, net, 0, 1, 0.0), 0.0, 1e-12);
}

TEST(FlowNetwork, NegativeSizeThrows) {
  Engine e;
  FlowNetwork net(e, Torus3D({2, 1, 1}), cfg());
  EXPECT_THROW((void)net.transfer_flow(0, 1, -1.0), UsageError);
}

TEST(FlowNetwork, TwoFlowsShareInjectionLink) {
  Engine e;
  FlowNetwork net(e, Torus3D({4, 1, 1}), cfg(8.0, 2.0));
  std::vector<SimTime> done(2, -1.0);
  // Same source, different destinations: share the injection link.
  const NodeId dst[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    spawn(e, [](Engine& eng, FlowNetwork& n, NodeId d, SimTime& out)
                 -> Task<void> {
      co_await n.transfer_flow(0, d, 4.0);
      out = eng.now();
    }(e, net, dst[i], done[static_cast<size_t>(i)]));
  }
  e.run();
  // Each gets 1 B/s on the 2 B/s injection link -> 4 s.
  EXPECT_NEAR(done[0], 4.0, 1e-9);
  EXPECT_NEAR(done[1], 4.0, 1e-9);
}

TEST(FlowNetwork, DisjointFlowsDoNotInterfere) {
  Engine e;
  FlowNetwork net(e, Torus3D({4, 4, 1}), cfg(4.0, 2.0));
  Torus3D t({4, 4, 1});
  std::vector<SimTime> done(2, -1.0);
  const NodeId srcs[2] = {t.id_of({0, 0, 0}), t.id_of({2, 2, 0})};
  const NodeId dsts[2] = {t.id_of({0, 1, 0}), t.id_of({2, 3, 0})};
  for (int i = 0; i < 2; ++i) {
    spawn(e, [](Engine& eng, FlowNetwork& n, NodeId s, NodeId d,
                SimTime& out) -> Task<void> {
      co_await n.transfer_flow(s, d, 8.0);
      out = eng.now();
    }(e, net, srcs[i], dsts[i], done[static_cast<size_t>(i)]));
  }
  e.run();
  EXPECT_NEAR(done[0], 4.0, 1e-9);  // full injection rate each
  EXPECT_NEAR(done[1], 4.0, 1e-9);
}

TEST(FlowNetwork, LateFlowSlowsSharedLink) {
  Engine e;
  // Ring of 8; flows 0->2 and 1->2 share link 1->2 and ejection at 2.
  FlowNetwork net(e, Torus3D({8, 1, 1}), cfg(2.0, 100.0));
  SimTime first = -1.0, second = -1.0;
  spawn(e, [](Engine& eng, FlowNetwork& n, SimTime& out) -> Task<void> {
    co_await n.transfer_flow(0, 2, 8.0);
    out = eng.now();
  }(e, net, first));
  spawn(e, [](Engine& eng, FlowNetwork& n, SimTime& out) -> Task<void> {
    co_await Delay(eng, 2.0);
    co_await n.transfer_flow(1, 2, 2.0);
    out = eng.now();
  }(e, net, second));
  e.run();
  // Flow A: 4 bytes by t=2 (rate 2), then shares: rate 1 each.
  // Flow B: 2 bytes at rate 1 -> done t=4. A: 2 more bytes in [2,4],
  // then 2 bytes alone at rate 2 -> done t=5.
  EXPECT_NEAR(second, 4.0, 1e-9);
  EXPECT_NEAR(first, 5.0, 1e-9);
}

TEST(FlowNetwork, ConservationAcrossManyRandomFlows) {
  Engine e;
  Torus3D topo({4, 4, 4});
  FlowNetwork net(e, topo, cfg(3.0, 2.0));
  double total = 0.0;
  int finished = 0;
  const int kFlows = 200;
  Rng rng_src(1), rng_dst(2);
  for (int i = 0; i < kFlows; ++i) {
    const auto src = static_cast<NodeId>(rng_src.below(64));
    auto dst = static_cast<NodeId>(rng_dst.below(64));
    if (dst == src) dst = (dst + 1) % 64;
    const double bytes = 1.0 + static_cast<double>(i % 17);
    total += bytes;
    spawn(e, [](Engine& eng, FlowNetwork& n, NodeId s, NodeId d, double b,
                int delay, int& count) -> Task<void> {
      co_await Delay(eng, 0.25 * delay);
      co_await n.transfer_flow(s, d, b);
      ++count;
    }(e, net, src, dst, bytes, i % 7, finished));
  }
  e.run();
  EXPECT_EQ(finished, kFlows);
  EXPECT_NEAR(net.total_delivered(), total, 1e-6);
  EXPECT_EQ(net.active_flows(), 0u);
  for (LinkId l = 0; l < topo.total_link_count(); ++l)
    EXPECT_EQ(net.link_load(l), 0);
}

TEST(FlowNetwork, RouteLatencyScalesWithHops) {
  Engine e;
  FlowNetwork net(e, Torus3D({8, 1, 1}), cfg());
  EXPECT_NEAR(net.route_latency(0, 1), 0.1, 1e-12);
  EXPECT_NEAR(net.route_latency(0, 4), 0.4, 1e-12);
}

TEST(FlowNetwork, DeterministicReplay) {
  auto run = [] {
    Engine e;
    FlowNetwork net(e, Torus3D({4, 4, 1}), cfg(2.5, 1.5));
    std::vector<SimTime> done;
    for (int i = 0; i < 20; ++i) {
      NodeId s = static_cast<NodeId>(i % 16);
      NodeId d = static_cast<NodeId>((i * 5 + 1) % 16);
      if (s == d) d = (d + 1) % 16;
      spawn(e, [](Engine& eng, FlowNetwork& n, NodeId src, NodeId dst,
                  double b, std::vector<SimTime>& log) -> Task<void> {
        co_await n.transfer_flow(src, dst, b);
        log.push_back(eng.now());
      }(e, net, s, d, 1.0 + i, done));
    }
    e.run();
    return done;
  };
  EXPECT_EQ(run(), run());
}

// Property: N identical flows through one bottleneck finish in N x solo
// time (fair sharing), for a sweep of N.
class FlowFairness : public ::testing::TestWithParam<int> {};

TEST_P(FlowFairness, BottleneckSharedEqually) {
  const int n = GetParam();
  Engine e;
  // All flows eject at node 1: ejection link is the bottleneck.
  FlowNetwork net(e, Torus3D({16, 1, 1}), cfg(100.0, 2.0));
  std::vector<SimTime> done(static_cast<size_t>(n), -1.0);
  for (int i = 0; i < n; ++i) {
    const auto src = static_cast<NodeId>(2 + i);
    spawn(e, [](Engine& eng, FlowNetwork& net2, NodeId s, SimTime& out)
                 -> Task<void> {
      co_await net2.transfer_flow(s, 1, 4.0);
      out = eng.now();
    }(e, net, src, done[static_cast<size_t>(i)]));
  }
  e.run();
  const double expected = static_cast<double>(n) * 4.0 / 2.0;
  for (const auto t : done) EXPECT_NEAR(t, expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, FlowFairness,
                         ::testing::Values(1, 2, 3, 5, 9, 14));

// 32 disjoint same-instant transfers must coalesce into a handful of
// rate-allocation passes (one absorbing all arrivals, one per
// completion wave) — not one pass per transfer.
TEST(FlowNetwork, SameInstantArrivalsCoalesceIntoOnePass) {
  Engine e;
  FlowNetwork net(e, Torus3D({64, 1, 1}), cfg(100.0, 2.0));
  int finished = 0;
  for (int i = 0; i < 32; ++i) {
    const auto src = static_cast<NodeId>(2 * i);
    const auto dst = static_cast<NodeId>(2 * i + 1);
    spawn(e, [](FlowNetwork& n, NodeId s, NodeId d, int& count)
                 -> Task<void> {
      co_await n.transfer_flow(s, d, 8.0);
      ++count;
    }(net, src, dst, finished));
  }
  e.run();
  EXPECT_EQ(finished, 32);
  // Disjoint equal flows: one arrival pass, one completion wave.
  EXPECT_GE(net.recompute_passes(), 1u);
  EXPECT_LE(net.recompute_passes(), 4u);
}

// A min-share pass revisits the flows on the links whose load changed
// and no others: a fourth flow on its own route re-rates itself alone,
// however few flows the network holds.
TEST(FlowNetwork, MinSharePassRevisitsOnlyFlowsOnDirtyLinks) {
  Engine e;
  const Torus3D topo({16, 1, 1});
  FlowNetwork net(e, topo, cfg());
  auto start = [&](NodeId src) {
    ASSERT_EQ(topo.hop_count(src, src + 2), 2);  // 4 links with inj/ej
    spawn(e, [](FlowNetwork& n, NodeId s) -> Task<void> {
      co_await n.transfer_flow(s, s + 2, 1000.0);
    }(net, src));
  };
  for (const NodeId src : {0, 4, 8}) start(src);
  e.run_until(1.0);
  ASSERT_EQ(net.active_flows(), 3u);
  const std::uint64_t before = net.rate_updates();
  EXPECT_EQ(before, 3u);

  start(12);
  e.run_until(2.0);
  ASSERT_EQ(net.active_flows(), 4u);
  EXPECT_EQ(net.rate_updates(), before + 1);
  e.run();
  EXPECT_EQ(net.active_flows(), 0u);
}

// Four identical flows on disjoint routes complete at the same instant
// and resume their waiters in flow-slot order — submission order here,
// since slots are allocated sequentially from an empty network.
TEST(FlowNetwork, SameInstantCompletionsFireInFlowIndexOrder) {
  Engine e;
  FlowNetwork net(e, Torus3D({8, 1, 1}), cfg());
  std::vector<int> order;
  std::vector<SimTime> done(4, -1.0);
  for (int i = 0; i < 4; ++i) {
    spawn(e, [](Engine& eng, FlowNetwork& n, int idx, std::vector<int>& ord,
                std::vector<SimTime>& at) -> Task<void> {
      co_await n.transfer_flow(static_cast<NodeId>(2 * idx),
                               static_cast<NodeId>(2 * idx + 1), 16.0);
      at[static_cast<size_t>(idx)] = eng.now();
      ord.push_back(idx);
    }(e, net, i, order, done));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  for (int i = 1; i < 4; ++i)
    EXPECT_EQ(done[static_cast<size_t>(i)], done[0]);
}

// Three-way contention where the two fairness policies provably
// diverge.  Flows B, C, D share ejection(2) (the bottleneck, 1 B/s
// each); A shares injection(0) with B.  Min-share caps A at
// inj/2 = 1.5 B/s even though B cannot use its half; max-min hands the
// slack to A (2 B/s), finishing it a full second earlier.
TEST(FlowNetwork, FairnessPoliciesDivergeWhenBottleneckStrandsCapacity) {
  struct Result {
    SimTime a, b, c, d;
  };
  auto run = [](Fairness fairness) {
    Engine e;
    NetConfig c = cfg(100.0, 3.0);  // links never bind; NICs do
    c.fairness = fairness;
    FlowNetwork net(e, Torus3D({4, 1, 1}), c);
    Result r{};
    auto xfer = [](Engine& eng, FlowNetwork& n, NodeId s, NodeId d,
                   double bytes, SimTime& out) -> Task<void> {
      co_await n.transfer_flow(s, d, bytes);
      out = eng.now();
    };
    spawn(e, xfer(e, net, 0, 1, 6.0, r.a));
    spawn(e, xfer(e, net, 0, 2, 4.0, r.b));
    spawn(e, xfer(e, net, 1, 2, 4.0, r.c));
    spawn(e, xfer(e, net, 3, 2, 4.0, r.d));
    e.run();
    return r;
  };

  const Result ms = run(Fairness::kMinShare);
  EXPECT_NEAR(ms.a, 4.0, 1e-9);  // held to 1.5 B/s by B's unused share
  EXPECT_NEAR(ms.b, 4.0, 1e-9);
  EXPECT_NEAR(ms.c, 4.0, 1e-9);
  EXPECT_NEAR(ms.d, 4.0, 1e-9);

  const Result mm = run(Fairness::kMaxMin);
  EXPECT_NEAR(mm.a, 3.0, 1e-9);  // picks up the slack: 2 B/s
  EXPECT_NEAR(mm.b, 4.0, 1e-9);
  EXPECT_NEAR(mm.c, 4.0, 1e-9);
  EXPECT_NEAR(mm.d, 4.0, 1e-9);
}

// Byte conservation and full teardown under staggered churn, across
// the incremental/full-pass and min-share/max-min matrix.
class FlowChurnModes
    : public ::testing::TestWithParam<std::tuple<bool, Fairness>> {};

TEST_P(FlowChurnModes, ConservesBytesAndTearsDownCleanly) {
  const auto [incremental, fairness] = GetParam();
  Engine e;
  Torus3D topo({4, 4, 4});
  NetConfig c = cfg(3.0, 2.0);
  c.incremental = incremental;
  c.fairness = fairness;
  FlowNetwork net(e, topo, c);
  double total = 0.0;
  int finished = 0;
  const int kFlows = 150;
  Rng rng_src(7), rng_dst(11);
  for (int i = 0; i < kFlows; ++i) {
    const auto src = static_cast<NodeId>(rng_src.below(64));
    auto dst = static_cast<NodeId>(rng_dst.below(64));
    if (dst == src) dst = (dst + 1) % 64;
    const double bytes = 1.0 + static_cast<double>(i % 23);
    total += bytes;
    spawn(e, [](Engine& eng, FlowNetwork& n, NodeId s, NodeId d, double b,
                int delay, int& count) -> Task<void> {
      co_await Delay(eng, 0.3 * delay);
      co_await n.transfer_flow(s, d, b);
      ++count;
    }(e, net, src, dst, bytes, i % 11, finished));
  }
  e.run();
  EXPECT_EQ(finished, kFlows);
  EXPECT_NEAR(net.total_delivered(), total, 1e-6);
  EXPECT_EQ(net.active_flows(), 0u);
  for (LinkId l = 0; l < topo.total_link_count(); ++l)
    EXPECT_EQ(net.link_load(l), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FlowChurnModes,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(Fairness::kMinShare,
                                         Fairness::kMaxMin)));

// Every rate pass re-predicts the next completion by re-arming one
// engine timer, so superseded predictions never linger in the queue: at
// any moment it holds at most one network event (the timer or the
// pending same-instant pass) besides one event per process that is not
// inside a flow (its Delay or its resumption).
TEST_P(FlowChurnModes, QueueHoldsNoStaleCompletionEvents) {
  const auto [incremental, fairness] = GetParam();
  Engine e;
  NetConfig c = cfg(3.0, 2.0);
  c.incremental = incremental;
  c.fairness = fairness;
  FlowNetwork net(e, Torus3D({4, 4, 4}), c);
  constexpr int kProcs = 24;
  Rng rng(5);
  for (int p = 0; p < kProcs; ++p) {
    spawn(e, [](Engine& eng, FlowNetwork& n, Rng& r) -> Task<void> {
      for (int round = 0; round < 6; ++round) {
        co_await Delay(eng, 0.1 * static_cast<double>(r.below(10)));
        const auto s = static_cast<NodeId>(r.below(64));
        const auto d = static_cast<NodeId>((s + 1 + r.below(63)) % 64);
        co_await n.transfer_flow(s, d, 1.0 + static_cast<double>(r.below(9)));
      }
    }(e, net, rng));
  }
  std::size_t peak = 0;
  while (e.step()) {
    const std::size_t live = kProcs - net.active_flows() + 1;
    ASSERT_LE(e.events_pending(), live) << "at t=" << e.now();
    peak = std::max(peak, e.events_pending());
  }
  EXPECT_GT(peak, 1u);
  EXPECT_EQ(net.active_flows(), 0u);
}

// Exact event count of a fixed scenario, so that a stale-event pattern
// cannot come back unnoticed.  A (8 B, 0->1) runs alone at 2 B/s; at
// t=1 B (8 B, 0->2) joins on node 0's injection link, both drop to
// 1 B/s, and A's prediction for t=4 is superseded by one for t=7; B
// then finishes alone at t=8.  Nine events: two spawns, B's delay, two
// same-instant passes (A's and B's arrivals), the completion timer at
// 7 and at 8, and the two resumptions.  A queued stale timer at t=4
// would make ten.
TEST(FlowNetwork, SupersededCompletionLeavesNoEvent) {
  for (const bool incremental : {true, false}) {
    Engine e;
    NetConfig c = cfg(4.0, 2.0);
    c.incremental = incremental;
    FlowNetwork net(e, Torus3D({4, 1, 1}), c);
    SimTime a = -1.0, b = -1.0;
    spawn(e, [](Engine& eng, FlowNetwork& n, SimTime& out) -> Task<void> {
      co_await n.transfer_flow(0, 1, 8.0);
      out = eng.now();
    }(e, net, a));
    spawn(e, [](Engine& eng, FlowNetwork& n, SimTime& out) -> Task<void> {
      co_await Delay(eng, 1.0);
      co_await n.transfer_flow(0, 2, 8.0);
      out = eng.now();
    }(e, net, b));
    e.run();
    EXPECT_DOUBLE_EQ(a, 7.0) << "incremental=" << incremental;
    EXPECT_DOUBLE_EQ(b, 8.0) << "incremental=" << incremental;
    EXPECT_EQ(e.events_processed(), 9u) << "incremental=" << incremental;
  }
}

// The incremental path must produce the same completion times as the
// full-pass fallback — they are two implementations of one model.
TEST(FlowNetwork, IncrementalMatchesFullPassCompletionTimes) {
  auto run = [](bool incremental, Fairness fairness) {
    Engine e;
    NetConfig c = cfg(2.5, 1.5);
    c.incremental = incremental;
    c.fairness = fairness;
    FlowNetwork net(e, Torus3D({4, 4, 1}), c);
    std::vector<SimTime> done(40, -1.0);
    for (int i = 0; i < 40; ++i) {
      auto s = static_cast<NodeId>(i % 16);
      auto d = static_cast<NodeId>((i * 5 + 1) % 16);
      if (s == d) d = (d + 1) % 16;
      spawn(e, [](Engine& eng, FlowNetwork& n, NodeId src, NodeId dst,
                  double b, int delay, SimTime& out) -> Task<void> {
        co_await Delay(eng, 0.5 * delay);
        co_await n.transfer_flow(src, dst, b);
        out = eng.now();
      }(e, net, s, d, 1.0 + i % 13, i % 5,
        done[static_cast<std::size_t>(i)]));
    }
    e.run();
    return done;
  };
  for (const Fairness f : {Fairness::kMinShare, Fairness::kMaxMin}) {
    const auto inc = run(true, f);
    const auto full = run(false, f);
    ASSERT_EQ(inc.size(), full.size());
    for (std::size_t i = 0; i < inc.size(); ++i)
      EXPECT_NEAR(inc[i], full[i], 1e-7) << "flow " << i;
  }
}

// While a flow is in flight it holds one unit of load on exactly the
// links of its dimension-ordered route (injection, torus hops,
// ejection) and on no other link.
TEST(FlowNetwork, FlowLoadsExactlyItsDimensionOrderedRoute) {
  Engine e;
  const Torus3D topo({4, 4, 4});
  FlowNetwork net(e, topo, cfg());
  const NodeId src = topo.id_of({0, 3, 1});
  const NodeId dst = topo.id_of({2, 0, 3});
  Route route;
  topo.route_into(src, dst, route);
  ASSERT_EQ(route.size(),
            static_cast<std::size_t>(2 + topo.hop_count(src, dst)));
  spawn(e, [](FlowNetwork& n, NodeId s, NodeId d) -> Task<void> {
    co_await n.transfer_flow(s, d, 8.0);
  }(net, src, dst));
  e.run_until(1.0);  // 8 bytes at 2 B/s: in flight until t = 4
  ASSERT_EQ(net.active_flows(), 1u);
  std::vector<int> on_route(static_cast<std::size_t>(topo.total_link_count()),
                            0);
  for (const LinkId l : route) on_route[static_cast<std::size_t>(l)] = 1;
  for (LinkId l = 0; l < topo.total_link_count(); ++l)
    EXPECT_EQ(net.link_load(l), on_route[static_cast<std::size_t>(l)])
        << "link " << l;
  e.run();
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FlowNetwork, LinkStatsConserveBytes) {
  Engine e;
  NetConfig c = cfg();
  c.link_stats = true;
  const Torus3D topo({4, 4, 1});
  FlowNetwork net(e, topo, c);
  run_one_transfer(e, net, 0, 5, 64.0);
  run_one_transfer(e, net, 3, 12, 1024.0);
  run_one_transfer(e, net, 15, 2, 16.0);
  ASSERT_TRUE(net.stats_enabled());
  // Every route crosses exactly one ejection link, so ejection-class
  // bytes must equal the network's delivered total; same for injection.
  double inj = 0.0, ej = 0.0;
  for (LinkId l = 0; l < topo.total_link_count(); ++l) {
    const auto st = net.link_stats(l);
    if (net.link_class(l) == 6) inj += st.bytes;
    if (net.link_class(l) == 7) ej += st.bytes;
  }
  EXPECT_NEAR(ej, net.total_delivered(), 1e-6);
  EXPECT_NEAR(inj, net.total_delivered(), 1e-6);
}

TEST(FlowNetwork, LinkStatsBusyAndContention) {
  Engine e;
  NetConfig c = cfg(8.0, 2.0);
  c.link_stats = true;
  FlowNetwork net(e, Torus3D({4, 1, 1}), c);
  std::vector<SimTime> done(2, -1.0);
  const NodeId dst[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    spawn(e, [](Engine& eng, FlowNetwork& n, NodeId d, SimTime& out)
                 -> Task<void> {
      co_await n.transfer_flow(0, d, 4.0);
      out = eng.now();
    }(e, net, dst[i], done[static_cast<std::size_t>(i)]));
  }
  e.run();
  // Both flows share node 0's injection link (link 24 on a 4x1x1
  // torus) for the full 4 s: busy == contended == 4 s, peak load 2.
  const LinkId inj0 = 24;
  EXPECT_EQ(net.link_class(inj0), 6);
  const auto st = net.link_stats(inj0);
  EXPECT_NEAR(st.bytes, 8.0, 1e-9);
  EXPECT_NEAR(st.busy_time, 4.0, 1e-9);
  EXPECT_NEAR(st.contended_time, 4.0, 1e-9);
  EXPECT_EQ(st.peak_load, 2);
}

TEST(FlowNetwork, LinkStatsOffByDefault) {
  Engine e;
  FlowNetwork net(e, Torus3D({2, 1, 1}), cfg());
  EXPECT_FALSE(net.stats_enabled());
  EXPECT_THROW((void)net.link_stats(0), UsageError);
}

// Back-to-back transfers over the same pair each re-derive the route
// and take the same 1 s (2 bytes at 2 B/s injection).
TEST(FlowNetwork, RepeatedPairTransfersTakeEqualTime) {
  Engine e;
  FlowNetwork net(e, Torus3D({4, 4, 1}), cfg());
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(run_one_transfer(e, net, 0, 1, 2.0), 1.0 + i, 1e-9);
}

}  // namespace
}  // namespace xts::net
