#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "machine/presets.hpp"
#include "obsv/attrib.hpp"
#include "obsv/profile.hpp"
#include "obsv/session.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

namespace xts::obsv {
namespace {

using machine::ExecMode;

/// Start a profiling-only session, run `program` on an `nranks`-rank
/// world, tear the world down (which folds its profile into the
/// session), and return the single resulting profile.  The caller must
/// call Session::stop().
WorldProfileResult run_profiled(int nranks, ExecMode mode,
                                const vmpi::World::RankProgram& program) {
  Options opt;
  opt.profiling = true;
  Session& session = Session::start(opt);
  {
    vmpi::WorldConfig cfg;
    cfg.machine = machine::xt4();
    cfg.nranks = nranks;
    cfg.mode = mode;
    vmpi::World w(std::move(cfg));
    w.run(program);
  }
  EXPECT_EQ(session.profiles().size(), 1u);
  return session.profiles().back();
}

double bucket(const BucketArray& a, Bucket b) {
  return a[static_cast<std::size_t>(b)];
}

double bucket_sum(const BucketArray& a) {
  double s = 0.0;
  for (const double x : a) s += x;
  return s;
}

const MatrixEntry* find_pair(const WorldProfileResult& p, int src,
                             int dst) {
  for (const MatrixEntry& m : p.matrix)
    if (m.src == src && m.dst == dst) return &m;
  return nullptr;
}

TEST(Profile, OffByDefaultAndNoSpansLeakIntoSink) {
  Options opt;
  opt.profiling = true;  // tracing stays off
  Session& session = Session::start(opt);
  {
    vmpi::WorldConfig cfg;
    cfg.machine = machine::xt4();
    cfg.nranks = 2;
    vmpi::World w(std::move(cfg));
    ASSERT_NE(w.obs(), nullptr);
    EXPECT_TRUE(w.obs()->profiling());
    EXPECT_TRUE(w.obs()->spans_enabled());
    EXPECT_FALSE(w.obs()->tracing());
    w.run([](vmpi::Comm& c) -> Task<void> {
      if (c.rank() == 0) co_await c.send_wait(1, 7, 64.0);
      if (c.rank() == 1) (void)co_await c.recv(0, 7);
    });
  }
  // Profiling must not fill the trace ring.
  EXPECT_EQ(session.sink().size(), 0u);
  EXPECT_EQ(session.profiles().size(), 1u);
  Session::stop();
}

/// The tentpole's matrix-exactness criterion: a ring pattern on N
/// ranks, k messages of B bytes per edge, must produce exactly the
/// N-edge matrix with exact byte and message counts.
TEST(CommMatrix, RingExact) {
  static constexpr int kN = 5;
  static constexpr int kMsgs = 3;
  static constexpr double kBytes = 4096.0;
  const WorldProfileResult p =
      run_profiled(kN, ExecMode::kSN, [](vmpi::Comm& c) -> Task<void> {
        const int next = (c.rank() + 1) % c.size();
        const int prev = (c.rank() + c.size() - 1) % c.size();
        for (int i = 0; i < kMsgs; ++i) {
          co_await c.send_wait(next, 7, kBytes);
          (void)co_await c.recv(prev, 7);
        }
      });
  Session::stop();

  ASSERT_EQ(p.matrix.size(), static_cast<std::size_t>(kN));
  for (int r = 0; r < kN; ++r) {
    const MatrixEntry* m = find_pair(p, r, (r + 1) % kN);
    ASSERT_NE(m, nullptr) << "missing ring edge from rank " << r;
    EXPECT_EQ(m->messages, static_cast<std::uint64_t>(kMsgs));
    EXPECT_DOUBLE_EQ(m->bytes, kMsgs * kBytes);
    EXPECT_GT(m->latency_sum, 0.0);
  }
  EXPECT_EQ(p.messages, static_cast<std::uint64_t>(kN * kMsgs));
  EXPECT_DOUBLE_EQ(p.bytes, kN * kMsgs * kBytes);
}

/// Pairwise-exchange alltoall: every ordered pair carries exactly one
/// message of exactly B bytes.
TEST(CommMatrix, AlltoallExact) {
  static constexpr int kN = 4;
  static constexpr double kBytes = 1024.0;
  const WorldProfileResult p =
      run_profiled(kN, ExecMode::kSN, [](vmpi::Comm& c) -> Task<void> {
        std::vector<double> to(static_cast<std::size_t>(c.size()), kBytes);
        to[static_cast<std::size_t>(c.rank())] = 0.0;
        co_await c.alltoallv_bytes(std::move(to));
      });
  Session::stop();

  ASSERT_EQ(p.matrix.size(), static_cast<std::size_t>(kN * (kN - 1)));
  for (int s = 0; s < kN; ++s) {
    for (int d = 0; d < kN; ++d) {
      if (s == d) continue;
      const MatrixEntry* m = find_pair(p, s, d);
      ASSERT_NE(m, nullptr) << "missing pair " << s << "->" << d;
      EXPECT_EQ(m->messages, 1u) << s << "->" << d;
      EXPECT_DOUBLE_EQ(m->bytes, kBytes) << s << "->" << d;
    }
  }
}

/// Hand-built 3-rank pipeline with an analytically known critical
/// path: rank 0 computes then sends to rank 1, which computes and
/// sends to rank 2, which computes last.  The dependency chain covers
/// the whole run, so the critical path must walk 0 -> 1 -> 2 through
/// both messages and its length must equal the wall window.
TEST(CritPath, ThreeRankPipeline) {
  const machine::Work slab{1e8, 1.0, 0.0, 0.0};  // ~ms-scale compute
  const WorldProfileResult p = run_profiled(
      3, ExecMode::kSN, [slab](vmpi::Comm& c) -> Task<void> {
        constexpr double kBytes = 32768.0;
        switch (c.rank()) {
          case 0:
            co_await c.compute(slab);
            co_await c.send_wait(1, 5, kBytes);
            break;
          case 1:
            (void)co_await c.recv(0, 5);
            co_await c.compute(slab);
            co_await c.send_wait(2, 5, kBytes);
            break;
          default:
            (void)co_await c.recv(1, 5);
            co_await c.compute(slab);
        }
      });
  Session::stop();

  const CritPath& cp = p.critical_path;
  EXPECT_FALSE(cp.truncated);
  EXPECT_EQ(cp.messages, 2u);
  ASSERT_EQ(cp.ranks.size(), 3u);
  EXPECT_EQ(cp.ranks[0], 0);
  EXPECT_EQ(cp.ranks[1], 1);
  EXPECT_EQ(cp.ranks[2], 2);

  // The chain tiles the whole run and never exceeds it.
  EXPECT_NEAR(cp.length, p.wall(), 1e-9);
  EXPECT_NEAR(bucket_sum(cp.buckets), cp.length, 1e-9);
  // All three compute slabs lie on the path and dominate it.
  EXPECT_GT(bucket(cp.buckets, Bucket::kCompute), 0.5 * cp.length);
  // Two inter-node messages cross injection and ejection links.
  EXPECT_FALSE(cp.links.empty());
  std::uint64_t inj = 0;
  for (const CritLink& l : cp.links)
    if (l.cls == 6) inj += l.count;
  EXPECT_EQ(inj, 2u);

  // Steps are contiguous backward-to-forward.
  ASSERT_FALSE(cp.steps.empty());
  for (std::size_t i = 1; i < cp.steps.size(); ++i)
    EXPECT_NEAR(cp.steps[i].t0, cp.steps[i - 1].t1, 1e-9);
}

/// Acceptance criterion: every rank's exclusive buckets tile the wall
/// window to 1e-9 s, on a workload mixing phases, collectives, compute,
/// and p2p in VN mode.
TEST(Profile, BucketsTileWallTime) {
  const machine::Work slab{2e7, 0.5, 1e6, 0.0};
  const WorldProfileResult p = run_profiled(
      6, ExecMode::kVN, [slab](vmpi::Comm& c) -> Task<void> {
        {
          auto ph = c.phase("test.exchange");
          const int next = (c.rank() + 1) % c.size();
          const int prev = (c.rank() + c.size() - 1) % c.size();
          co_await c.send_wait(next, 3, 1e5);
          (void)co_await c.recv(prev, 3);
        }
        {
          auto ph = c.phase("test.solve");
          co_await c.compute(slab.scaled(1.0 + c.rank()));
          co_await c.barrier();
        }
        std::vector<double> contrib(2, 1.0);
        (void)co_await c.allreduce_sum(std::move(contrib));
      });
  Session::stop();

  ASSERT_EQ(p.ranks.size(), 6u);
  ASSERT_GT(p.wall(), 0.0);
  for (std::size_t r = 0; r < p.ranks.size(); ++r) {
    EXPECT_NEAR(bucket_sum(p.ranks[r].buckets), p.wall(), 1e-9)
        << "rank " << r;
  }
  // Phase totals partition total rank time across all phase keys.
  double phase_total = 0.0;
  for (const PhaseProfile& ph : p.phases) phase_total += bucket_sum(ph.total);
  EXPECT_NEAR(phase_total, p.wall() * 6.0, 6e-9);
  EXPECT_LE(p.critical_path.length, p.wall() + 1e-9);
  // Skewed compute (rank 5 does 6x rank 0's work): rank 5 is the
  // compute-imbalance argmax and the others accumulate wait time.
  EXPECT_EQ(p.bucket_imbalance[static_cast<std::size_t>(Bucket::kCompute)]
                .argmax,
            5);
  EXPECT_GT(bucket(p.ranks[0].buckets, Bucket::kCollective) +
                bucket(p.ranks[0].buckets, Bucket::kBlocked) +
                bucket(p.ranks[0].buckets, Bucket::kIdle),
            0.0);
}

/// Exact folding of hand-made spans on a 2-rank world, including the
/// edge cases real runs rarely produce: spans on the world lane and on
/// a lane past nranks (they widen the wall window but own no buckets),
/// zero-length spans, an rx with no sender span (no matrix cell), and
/// a recv.wait whose message never completed (the critical path stays
/// on the blocked rank's timeline).
TEST(Profile, SyntheticSpansFoldExactly) {
  TraceSink sink(16);
  WorldProfile prof(sink, 0);
  const auto tx_wait = sink.intern("msg.tx.wait");
  const auto tx = sink.intern("msg.tx");
  const auto hops = sink.intern("msg.hops");
  const auto flow = sink.intern("msg.flow");
  const auto rx_wait = sink.intern("msg.rx.wait");
  const auto rx = sink.intern("msg.rx");
  const auto recv_wait = sink.intern("recv.wait");
  const auto solve = sink.intern("test.solve");
  const auto empty = sink.intern("test.empty");
  const auto none = sink.intern("test.none");

  // Outside the ranks: widen the window to [0, 11] only.
  prof.on_span(kWorldLane, Cat::kCompute, none, 0.0, 1.0, 0, 0.0);
  prof.on_span(5, Cat::kCollective, none, 10.0, 11.0, 0, 0.0);
  // Message 1, rank 0 -> rank 1, 100 B, posted at 2, delivered at 5.
  prof.on_span(0, Cat::kCompute, none, 1.0, 2.0, 0, 0.0);
  prof.on_span(0, Cat::kMessage, tx_wait, 2.0, 2.0, 1, 100.0);
  prof.on_span(0, Cat::kMessage, tx, 2.0, 3.0, 1, 100.0);
  prof.on_span(0, Cat::kMessage, hops, 3.0, 3.5, 1, 100.0);
  prof.on_span(0, Cat::kMessage, flow, 3.5, 4.0, 1, 100.0);
  prof.on_span(1, Cat::kMessage, rx_wait, 4.0, 4.5, 1, 100.0);
  prof.on_span(1, Cat::kMessage, rx, 4.5, 5.0, 1, 100.0);
  prof.on_span(1, Cat::kMessage, recv_wait, 1.0, 5.0, 1, 100.0);
  // Zero-length spans: no bucket time, and a phase that never opens.
  prof.on_span(1, Cat::kCompute, none, 5.0, 5.0, 0, 0.0);
  prof.on_span(0, Cat::kPhase, empty, 3.0, 3.0, 0, 0.0);
  // Message 2: an rx with no sender span.
  prof.on_span(0, Cat::kMessage, rx, 5.0, 6.0, 2, 50.0);
  // Message 3, rank 0 -> rank 1: posted, never delivered, yet rank 1's
  // recv.wait names it.
  prof.on_span(0, Cat::kMessage, tx_wait, 6.0, 6.0, 3, 8.0);
  prof.on_span(0, Cat::kMessage, tx, 6.0, 7.0, 3, 8.0);
  prof.on_span(1, Cat::kCompute, none, 5.0, 9.0, 0, 0.0);
  prof.on_span(1, Cat::kPhase, solve, 5.0, 9.5, 0, 0.0);
  prof.on_span(1, Cat::kMessage, recv_wait, 9.0, 9.5, 3, 8.0);

  const WorldProfileResult p = prof.finalize(2, nullptr);
  auto buckets = [](std::initializer_list<std::pair<Bucket, double>> l) {
    BucketArray a{};
    for (const auto& [b, v] : l) a[static_cast<std::size_t>(b)] = v;
    return a;
  };
  EXPECT_EQ(p.t_start, 0.0);
  EXPECT_EQ(p.t_end, 11.0);
  ASSERT_EQ(p.ranks.size(), 2u);
  EXPECT_EQ(p.ranks[0].buckets,
            buckets({{Bucket::kCompute, 1.0},
                     {Bucket::kTx, 2.0},
                     {Bucket::kFlow, 1.0},
                     {Bucket::kRx, 1.0},
                     {Bucket::kIdle, 6.0}}));
  EXPECT_EQ(p.ranks[1].buckets,
            buckets({{Bucket::kCompute, 4.0},
                     {Bucket::kRx, 0.5},
                     {Bucket::kRxWait, 0.5},
                     {Bucket::kBlocked, 3.5},
                     {Bucket::kIdle, 2.5}}));

  ASSERT_EQ(p.phases.size(), 2u);
  EXPECT_EQ(p.phases[0].name, "");
  EXPECT_EQ(p.phases[0].total,
            buckets({{Bucket::kCompute, 1.0},
                     {Bucket::kTx, 2.0},
                     {Bucket::kFlow, 1.0},
                     {Bucket::kRx, 1.5},
                     {Bucket::kRxWait, 0.5},
                     {Bucket::kBlocked, 3.0},
                     {Bucket::kIdle, 8.5}}));
  EXPECT_EQ(p.phases[1].name, "test.solve");
  EXPECT_EQ(p.phases[1].total,
            buckets({{Bucket::kCompute, 4.0}, {Bucket::kBlocked, 0.5}}));
  EXPECT_EQ(p.phases[1].time.max, 4.5);
  EXPECT_EQ(p.phases[1].time.argmax, 1);
  EXPECT_EQ(p.phases[1].stragglers, (std::vector<int>{1, 0}));

  ASSERT_EQ(p.matrix.size(), 1u);
  EXPECT_EQ(p.matrix[0].src, 0);
  EXPECT_EQ(p.matrix[0].dst, 1);
  EXPECT_EQ(p.matrix[0].messages, 1u);
  EXPECT_EQ(p.matrix[0].bytes, 100.0);
  EXPECT_EQ(p.matrix[0].latency_sum, 3.0);
  EXPECT_EQ(p.messages, 1u);
  EXPECT_EQ(p.bytes, 100.0);
  EXPECT_EQ(p.dropped_records, 0u);

  const CritPath& cp = p.critical_path;
  EXPECT_EQ(cp.t_start, 0.0);
  EXPECT_EQ(cp.t_end, 9.5);
  EXPECT_EQ(cp.length, 9.5);
  EXPECT_EQ(cp.messages, 1u);
  EXPECT_FALSE(cp.truncated);
  EXPECT_TRUE(cp.links.empty());
  EXPECT_EQ(cp.ranks, (std::vector<int>{0, 1}));
  ASSERT_EQ(cp.steps.size(), 4u);
  const CritStep& s0 = cp.steps[0];
  EXPECT_EQ(s0.kind, CritStep::Kind::kLocal);
  EXPECT_EQ(s0.rank, 0);
  EXPECT_EQ(s0.t0, 0.0);
  EXPECT_EQ(s0.t1, 2.0);
  EXPECT_EQ(s0.buckets,
            buckets({{Bucket::kCompute, 1.0}, {Bucket::kIdle, 1.0}}));
  const CritStep& s1 = cp.steps[1];
  EXPECT_EQ(s1.kind, CritStep::Kind::kMessage);
  EXPECT_EQ(s1.rank, 0);
  EXPECT_EQ(s1.other, 1);
  EXPECT_EQ(s1.t0, 2.0);
  EXPECT_EQ(s1.t1, 5.0);
  EXPECT_EQ(s1.bytes, 100.0);
  EXPECT_EQ(s1.buckets, buckets({{Bucket::kTx, 1.0},
                                 {Bucket::kFlow, 1.0},
                                 {Bucket::kRxWait, 0.5},
                                 {Bucket::kRx, 0.5}}));
  const CritStep& s2 = cp.steps[2];
  EXPECT_EQ(s2.kind, CritStep::Kind::kLocal);
  EXPECT_EQ(s2.rank, 1);
  EXPECT_EQ(s2.t0, 5.0);
  EXPECT_EQ(s2.t1, 9.0);
  EXPECT_EQ(s2.buckets, buckets({{Bucket::kCompute, 4.0}}));
  // Message 3 never completed: its recv.wait stays local.
  const CritStep& s3 = cp.steps[3];
  EXPECT_EQ(s3.kind, CritStep::Kind::kLocal);
  EXPECT_EQ(s3.rank, 1);
  EXPECT_EQ(s3.t0, 9.0);
  EXPECT_EQ(s3.t1, 9.5);
  EXPECT_EQ(s3.buckets, buckets({{Bucket::kBlocked, 0.5}}));
  EXPECT_EQ(cp.buckets, buckets({{Bucket::kCompute, 5.0},
                                 {Bucket::kTx, 1.0},
                                 {Bucket::kFlow, 1.0},
                                 {Bucket::kRx, 0.5},
                                 {Bucket::kRxWait, 0.5},
                                 {Bucket::kBlocked, 0.5},
                                 {Bucket::kIdle, 1.0}}));
}

TEST(Attrib, VerdictsFromSyntheticBuckets) {
  auto mk = [](Bucket b, double v) {
    BucketArray a{};
    a[static_cast<std::size_t>(b)] = v;
    return a;
  };
  EXPECT_EQ(attribute(mk(Bucket::kCompute, 1.0), 0.0).verdict,
            Verdict::kCompute);
  EXPECT_EQ(attribute(mk(Bucket::kTxWait, 1.0), 0.0).verdict,
            Verdict::kInjection);
  EXPECT_EQ(attribute(mk(Bucket::kBlocked, 1.0), 0.0).verdict,
            Verdict::kWait);
  EXPECT_EQ(attribute(mk(Bucket::kIdle, 1.0), 0.0).verdict, Verdict::kWait);
  // Exposed flow time splits by the contended ratio.
  const Attribution low = attribute(mk(Bucket::kFlow, 1.0), 0.1);
  EXPECT_EQ(low.verdict, Verdict::kInjection);
  const Attribution high = attribute(mk(Bucket::kFlow, 1.0), 0.9);
  EXPECT_EQ(high.verdict, Verdict::kContention);
  EXPECT_NEAR(high.contention_score, 0.9, 1e-12);

  // I/O verdicts: the dominant io bucket picks the subclass.
  EXPECT_EQ(attribute(mk(Bucket::kIoMds, 1.0), 0.0).verdict,
            Verdict::kIoMeta);
  EXPECT_EQ(attribute(mk(Bucket::kIoQueue, 1.0), 0.0).verdict,
            Verdict::kIoStripe);
  EXPECT_EQ(attribute(mk(Bucket::kIoXfer, 1.0), 0.0).verdict,
            Verdict::kIo);
  const Attribution io = attribute(mk(Bucket::kIoXfer, 1.0), 0.0);
  EXPECT_NEAR(io.io_score, 1.0, 1e-12);

  // Scores always sum to 1 for nonzero time.
  BucketArray mixed{};
  for (int b = 0; b < kBuckets; ++b)
    mixed[static_cast<std::size_t>(b)] = 1.0 + b;
  const Attribution a = attribute(mixed, 0.3);
  EXPECT_NEAR(a.compute_score + a.injection_score + a.contention_score +
                  a.wait_score + a.io_score,
              1.0, 1e-12);

  // Zero time: all scores zero, defaulting to compute.
  const Attribution zero = attribute(BucketArray{}, 0.5);
  EXPECT_EQ(zero.verdict, Verdict::kCompute);
  EXPECT_EQ(zero.compute_score, 0.0);
}

TEST(Attrib, ContentionWeightFromSummary) {
  WorldSummary s;
  // Torus link: 2s busy, 1s contended; ejection link ignored.
  s.links.push_back({0, 0, 1e6, 2.0, 1.0, 3});
  s.links.push_back({9, 7, 1e9, 5.0, 5.0, 9});
  EXPECT_NEAR(contention_weight(s), 0.5, 1e-12);
  WorldSummary empty;
  EXPECT_EQ(contention_weight(empty), 0.0);
}

/// The JSON report round-trips through the text writers without a
/// session mismatch (full schema validation lives in check_trace.py).
TEST(Attrib, WriteProfileEmitsMarkerAndVerdict) {
  (void)run_profiled(2, ExecMode::kSN, [](vmpi::Comm& c) -> Task<void> {
    if (c.rank() == 0) co_await c.send_wait(1, 1, 256.0);
    if (c.rank() == 1) (void)co_await c.recv(0, 1);
  });
  Session* session = Session::active();
  ASSERT_NE(session, nullptr);
  std::ostringstream os;
  write_profile(os, *session);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"xtsim_profile\":1"), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\""), std::string::npos);
  const std::string table = profile_table(*session);
  EXPECT_NE(table.find("verdict:"), std::string::npos);
  Session::stop();
}

}  // namespace
}  // namespace xts::obsv
