#pragma once

/// \file profile.hpp
/// Per-world profiling: communication matrix, exclusive time-accounting
/// buckets, and critical-path extraction.
///
/// A WorldProfile is an *online accumulator* fed by the same span
/// emission sites that feed the TraceSink (WorldObs::span forwards to
/// it), so it works with tracing off and costs the usual single null
/// check when profiling is off.  It records
///
///  - the rank-to-rank communication matrix (message count, bytes,
///    summed post-to-delivery latency per ordered pair), folded online
///    as each message's rx segment arrives into a flat (src, dst) index;
///  - per-rank span intervals, appended to that rank's buffers as they
///    arrive and folded at finalize(), one rank at a time, into
///    *exclusive* buckets (compute, tx, tx.wait, rendezvous, flow, rx,
///    rx.wait, blocked, collective, idle) by a priority sweep: each
///    instant of a rank's wall time is attributed to exactly one bucket,
///    so the bucket sums tile the wall window to 1e-9 s by construction.
///    Overlap (a flow in flight while the rank computes) goes to the
///    higher-priority bucket — compute wins, so the flow bucket counts
///    only *exposed* network time;
///  - message dependency records (which message unblocked which recv)
///    and one dense record per message id (sender, receiver, post time,
///    segment durations), used by the critical-path walk: starting from
///    the last recorded completion, walk backward — local rank time
///    until the rank was blocked in a recv, then through the unblocking
///    message's segments to its sender at post time, and so on.  The
///    path tiles [walk end, t_end], so its length is <= the wall window.
///
/// finalize() folds everything into a WorldProfileResult, which the
/// Session keeps after the World is gone (mirroring WorldSummary);
/// obsv/attrib.hpp turns results into attribution reports.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/units.hpp"
#include "obsv/trace.hpp"

namespace xts::obsv {

/// Exclusive time-accounting bucket.  Priority for overlap resolution
/// is kBucketPriority below (compute wins over exposed network time).
enum class Bucket : std::uint8_t {
  kCompute = 0,  ///< Comm::compute work on the rank's core
  kTx,           ///< sender CPU overhead (msg.tx)
  kTxWait,       ///< NIC doorbell wait on the sender (msg.tx.wait)
  kRendezvous,   ///< rendezvous control round-trip (msg.rendezvous)
  kFlow,         ///< exposed network time (msg.hops + msg.flow)
  kRx,           ///< receiver CPU overhead (msg.rx, msg.copy)
  kRxWait,       ///< NIC doorbell wait on the receiver (msg.rx.wait)
  kIoXfer,       ///< filesystem data movement (io.rpc, io.ost.xfer)
  kIoQueue,      ///< exposed OST queue / lock wait (io.ost.queue)
  kIoMds,        ///< metadata service time + queueing (io.mds.*, io.create)
  kBlocked,      ///< blocked in an unmatched recv (recv.wait)
  kCollective,   ///< collective-internal residue (awaiting sends, skew)
  kIdle,         ///< no recorded activity
};

inline constexpr int kBuckets = 13;
inline constexpr std::string_view kBucketNames[kBuckets] = {
    "compute", "tx",      "tx.wait",  "rendezvous", "flow",
    "rx",      "rx.wait", "io.xfer",  "io.queue",   "io.mds",
    "blocked", "collective", "idle"};

/// Overlap priority, highest first (kIdle is the implicit fallback).
/// Data movement outranks exposed queue time: an instant with one chunk
/// transferring and another queued counts as transfer, so io.queue is
/// only time the rank made *no* forward I/O progress.
inline constexpr Bucket kBucketPriority[kBuckets - 1] = {
    Bucket::kCompute,    Bucket::kTx,      Bucket::kRx,
    Bucket::kTxWait,     Bucket::kRxWait,  Bucket::kRendezvous,
    Bucket::kFlow,       Bucket::kIoXfer,  Bucket::kIoQueue,
    Bucket::kIoMds,      Bucket::kBlocked, Bucket::kCollective};

using BucketArray = std::array<double, kBuckets>;

/// One ordered-pair cell of the communication matrix.
struct MatrixEntry {
  int src = 0;
  int dst = 0;
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double latency_sum = 0.0;  ///< post-to-delivery seconds, summed
};

/// Cross-rank spread of one per-rank series.
struct Imbalance {
  double mean = 0.0;
  double max = 0.0;
  double stddev = 0.0;
  int argmax = -1;  ///< rank holding the maximum (-1 if empty)
};

struct RankProfile {
  BucketArray buckets{};  ///< exclusive seconds; sums to the wall window
};

struct PhaseProfile {
  std::string name;       ///< phase span name ("" = outside any phase)
  BucketArray total{};    ///< summed over ranks
  Imbalance time;         ///< per-rank time spent in this phase
  std::vector<int> stragglers;  ///< top ranks by phase time, descending
};

/// One step of the critical path, ordered start -> end after finalize.
struct CritStep {
  enum class Kind : std::uint8_t {
    kLocal,    ///< time on `rank`'s exclusive timeline
    kMessage,  ///< a message's journey `rank` -> `other`
  };
  Kind kind = Kind::kLocal;
  int rank = -1;   ///< kLocal: the rank; kMessage: source rank
  int other = -1;  ///< kMessage: destination rank
  SimTime t0 = 0.0;
  SimTime t1 = 0.0;
  double bytes = 0.0;      ///< kMessage payload
  BucketArray buckets{};   ///< breakdown of t1 - t0
};

/// Per-link traversal count along the critical path.
struct CritLink {
  std::int32_t link = 0;
  int cls = 0;  ///< link class (see kLinkClassNames)
  std::uint64_t count = 0;
};

struct CritPath {
  std::vector<CritStep> steps;  ///< start -> end
  BucketArray buckets{};        ///< summed over steps
  double length = 0.0;          ///< == t_end - walk end <= wall window
  SimTime t_start = 0.0;        ///< where the backward walk ended
  SimTime t_end = 0.0;          ///< last recorded completion
  std::uint64_t messages = 0;   ///< message steps on the path
  std::vector<int> ranks;       ///< distinct ranks, in path order
  std::vector<CritLink> links;  ///< traversal counts, busiest first
  bool truncated = false;       ///< walk hit the step cap
};

struct WorldProfileResult {
  std::uint32_t world = 0;
  int nranks = 0;
  SimTime t_start = 0.0;  ///< profile wall window (shared by all ranks)
  SimTime t_end = 0.0;
  std::vector<RankProfile> ranks;
  std::vector<PhaseProfile> phases;  ///< deterministic (name-id) order
  std::array<Imbalance, kBuckets> bucket_imbalance{};
  std::vector<int> stragglers;  ///< top ranks by blocked+coll+idle time
  std::vector<MatrixEntry> matrix;  ///< sorted by (src, dst)
  std::uint64_t messages = 0;       ///< total matrix messages
  double bytes = 0.0;               ///< total matrix bytes
  CritPath critical_path;
  std::uint64_t dropped_records = 0;  ///< msg records past the cap

  [[nodiscard]] double wall() const noexcept { return t_end - t_start; }
};

/// Visitor over the links of one route (link id, link class).
using LinkVisitor = std::function<void(std::int32_t, int)>;
/// Route resolver supplied by the World at finalize: invokes the
/// visitor for every link on the src-rank -> dst-rank route (no links
/// for intra-node pairs).
using RouteFn =
    std::function<void(int src, int dst, const LinkVisitor& visit)>;

/// Online accumulator; owned by WorldObs while a profiling session is
/// active.  Span classification keys off interned name ids from the
/// session's TraceSink, so forwarding a span costs one id compare
/// chain plus an append.
class WorldProfile {
 public:
  WorldProfile(TraceSink& sink, std::uint32_t world);

  /// Forwarded from WorldObs::span for every emitted span.  Message
  /// spans carry `id` from WorldObs::next_msg_id (dense from 1 within
  /// the world); a message's msg.rx span retires its record, and later
  /// spans with that id feed only the rank timelines.
  void on_span(std::int32_t lane, Cat cat, std::uint32_t name, SimTime t0,
               SimTime t1, std::uint64_t id, double a0);

  /// Fold the accumulated state into a result.  `route_fn` resolves
  /// rank-pair routes for critical-path link attribution (may be null).
  [[nodiscard]] WorldProfileResult finalize(int nranks,
                                            const RouteFn& route_fn);

  /// Completed-message records usable by the critical path are capped;
  /// past the cap the matrix stays exact but the path may degrade to
  /// local attribution (counted in dropped_records).  The record table
  /// itself holds one record per message id, like the span buffers.
  static constexpr std::size_t kMaxMsgRecords = std::size_t{1} << 22;

 private:
  struct PSpan {
    SimTime t0;
    SimTime t1;
    Bucket bucket;
  };
  struct PhaseSpan {
    SimTime t0;
    SimTime t1;
    std::uint32_t name;
  };
  /// A blocking recv that message `mid` unblocked at t1.
  struct Dep {
    SimTime t0;
    SimTime t1;
    std::uint64_t mid;
  };
  /// One rank's recorded spans of positive length, in arrival order.
  struct Lane {
    std::vector<PSpan> spans;
    std::vector<PhaseSpan> phases;
    std::vector<Dep> deps;
  };
  /// Message buckets kTx..kRxWait, the only ones a message's segments
  /// fall into, are MsgRec::seg[0..5].
  static constexpr int kFirstMsgBucket = static_cast<int>(Bucket::kTx);
  static constexpr int kMsgBuckets =
      static_cast<int>(Bucket::kRxWait) - kFirstMsgBucket + 1;
  enum class MsgState : std::uint8_t {
    kNone,
    kInFlight,
    kCompleted,
    kDropped,
  };
  /// Per-message record, indexed by message id - 1.
  struct MsgRec {
    SimTime posted = 0.0;
    double bytes = 0.0;
    std::array<double, kMsgBuckets> seg{};  ///< gapless segment durations
    std::int32_t src = -1;
    std::int32_t dst = -1;
    MsgState state = MsgState::kNone;
  };

  void message_span(std::int32_t lane, std::uint32_t name, SimTime t0,
                    SimTime t1, std::uint64_t id, double a0);
  void io_span(std::int32_t lane, std::uint32_t name, SimTime t0, SimTime t1);
  /// Widen the wall-window extent to [t0, t1].
  void extend(SimTime t0, SimTime t1);
  /// extend(); true when the span belongs in its lane's
  /// buffers (a rank lane and positive length — the sweep skips others).
  bool widen(std::int32_t lane, SimTime t0, SimTime t1);
  Lane& lane_at(std::int32_t lane);
  void add_span(std::int32_t lane, SimTime t0, SimTime t1, Bucket b);
  MatrixEntry& cell(std::int32_t src, std::int32_t dst);

  TraceSink& sink_;
  std::uint32_t world_;

  // Interned span-name ids resolved once at construction.
  std::uint32_t id_tx_wait_, id_tx_, id_rendezvous_, id_hops_, id_flow_,
      id_rx_wait_, id_rx_, id_copy_, id_recv_wait_, id_run_;
  std::uint32_t id_io_create_, id_io_mds_wait_, id_io_rpc_, id_io_stripe_,
      id_io_queue_, id_io_xfer_;

  std::vector<Lane> lanes_;  ///< by lane number (ranks; grown on demand)
  std::vector<MsgRec> msgs_;
  std::size_t completed_ = 0;  ///< records in MsgState::kCompleted
  std::uint64_t dropped_records_ = 0;
  /// Matrix cells in first-delivery order, found through an
  /// open-addressing index of cell number + 1 (0 = empty slot).
  std::vector<MatrixEntry> cells_;
  std::vector<std::uint32_t> cell_index_;

  // Extent of every world.run, bucket and phase span, whatever its lane.
  bool saw_span_ = false;
  SimTime span_t0_ = 0.0;
  SimTime span_t1_ = 0.0;
};

}  // namespace xts::obsv
