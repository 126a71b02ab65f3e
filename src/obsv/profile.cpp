#include "obsv/profile.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace xts::obsv {

namespace {

/// Walk cap: a backstop against malformed dependency cycles, far above
/// any real path (one step per message hop on the chain).
constexpr std::size_t kMaxPathSteps = std::size_t{1} << 20;

/// Sweep event: a span boundary on one rank's timeline.  `phase` is
/// the interned phase-name id + 1 for phase spans, 0 for bucket spans.
struct SweepEvent {
  SimTime t;
  bool start;
  Bucket bucket;
  std::uint32_t phase;
};

/// Exclusive segment of one rank's folded timeline (critical-path
/// slicing input).
struct Segment {
  SimTime t0;
  SimTime t1;
  Bucket bucket;
};

Imbalance spread(const std::vector<double>& v) {
  Imbalance s;
  if (v.empty()) return s;
  double sum = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    sum += v[i];
    if (v[i] > s.max || s.argmax < 0) {
      s.max = v[i];
      s.argmax = static_cast<int>(i);
    }
  }
  s.mean = sum / static_cast<double>(v.size());
  double var = 0.0;
  for (const double x : v) var += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(v.size()));
  return s;
}

std::vector<int> top_ranks(const std::vector<double>& score, int k) {
  std::vector<int> order(score.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return score[static_cast<std::size_t>(a)] >
           score[static_cast<std::size_t>(b)];
  });
  if (static_cast<int>(order.size()) > k) order.resize(static_cast<std::size_t>(k));
  return order;
}

/// Home slot of the (src, dst) pair in a power-of-two matrix index.
std::size_t pair_slot(std::int32_t src, std::int32_t dst, std::size_t mask) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
}

}  // namespace

WorldProfile::WorldProfile(TraceSink& sink, std::uint32_t world)
    : sink_(sink),
      world_(world),
      id_tx_wait_(sink.intern("msg.tx.wait")),
      id_tx_(sink.intern("msg.tx")),
      id_rendezvous_(sink.intern("msg.rendezvous")),
      id_hops_(sink.intern("msg.hops")),
      id_flow_(sink.intern("msg.flow")),
      id_rx_wait_(sink.intern("msg.rx.wait")),
      id_rx_(sink.intern("msg.rx")),
      id_copy_(sink.intern("msg.copy")),
      id_recv_wait_(sink.intern("recv.wait")),
      id_run_(sink.intern("world.run")),
      id_io_create_(sink.intern("io.create")),
      id_io_mds_wait_(sink.intern("io.mds.wait")),
      id_io_rpc_(sink.intern("io.rpc")),
      id_io_stripe_(sink.intern("io.stripe")),
      id_io_queue_(sink.intern("io.ost.queue")),
      id_io_xfer_(sink.intern("io.ost.xfer")) {}

void WorldProfile::extend(SimTime t0, SimTime t1) {
  span_t0_ = saw_span_ ? std::min(span_t0_, t0) : t0;
  span_t1_ = saw_span_ ? std::max(span_t1_, t1) : t1;
  saw_span_ = true;
}

bool WorldProfile::widen(std::int32_t lane, SimTime t0, SimTime t1) {
  extend(t0, t1);
  return lane >= 0 && t1 > t0;
}

WorldProfile::Lane& WorldProfile::lane_at(std::int32_t lane) {
  const auto i = static_cast<std::size_t>(lane);
  if (i >= lanes_.size()) lanes_.resize(i + 1);
  return lanes_[i];
}

void WorldProfile::add_span(std::int32_t lane, SimTime t0, SimTime t1,
                            Bucket b) {
  if (widen(lane, t0, t1)) lane_at(lane).spans.push_back({t0, t1, b});
}

MatrixEntry& WorldProfile::cell(std::int32_t src, std::int32_t dst) {
  if (2 * (cells_.size() + 1) > cell_index_.size()) {
    // Keep the load factor <= 1/2: rebuild at twice the size.
    const std::size_t slots = std::max<std::size_t>(64, 2 * cell_index_.size());
    cell_index_.assign(slots, 0);
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      std::size_t slot = pair_slot(cells_[c].src, cells_[c].dst, slots - 1);
      while (cell_index_[slot] != 0) slot = (slot + 1) & (slots - 1);
      cell_index_[slot] = static_cast<std::uint32_t>(c + 1);
    }
  }
  const std::size_t mask = cell_index_.size() - 1;
  std::size_t slot = pair_slot(src, dst, mask);
  while (cell_index_[slot] != 0) {
    MatrixEntry& e = cells_[cell_index_[slot] - 1];
    if (e.src == src && e.dst == dst) return e;
    slot = (slot + 1) & mask;
  }
  cells_.push_back({src, dst, 0, 0.0, 0.0});
  cell_index_[slot] = static_cast<std::uint32_t>(cells_.size());
  return cells_.back();
}

void WorldProfile::message_span(std::int32_t lane, std::uint32_t name,
                                SimTime t0, SimTime t1, std::uint64_t id,
                                double a0) {
  // recv.wait is the receiver blocked in matching — a rank-timeline
  // bucket and a dependency edge, but not part of the message's gapless
  // segment breakdown.
  if (name == id_recv_wait_) {
    add_span(lane, t0, t1, Bucket::kBlocked);
    if (id != 0 && lane >= 0) lane_at(lane).deps.push_back({t0, t1, id});
    return;
  }

  Bucket b;
  bool sender_side = true;
  if (name == id_tx_wait_) {
    b = Bucket::kTxWait;
  } else if (name == id_tx_) {
    b = Bucket::kTx;
  } else if (name == id_rendezvous_) {
    b = Bucket::kRendezvous;
  } else if (name == id_hops_ || name == id_flow_) {
    b = Bucket::kFlow;
  } else if (name == id_copy_) {
    b = Bucket::kRx;  // intra-node memcpy, emitted on the source lane
  } else if (name == id_rx_wait_) {
    b = Bucket::kRxWait;
    sender_side = false;
  } else if (name == id_rx_) {
    b = Bucket::kRx;
    sender_side = false;
  } else {
    return;  // unknown message span name
  }
  add_span(lane, t0, t1, b);
  if (id == 0) return;

  if (id > msgs_.size()) msgs_.resize(static_cast<std::size_t>(id));
  MsgRec& m = msgs_[static_cast<std::size_t>(id - 1)];
  if (m.state == MsgState::kNone) m.state = MsgState::kInFlight;
  if (m.state != MsgState::kInFlight) return;  // already delivered
  m.seg[static_cast<std::size_t>(static_cast<int>(b) - kFirstMsgBucket)] +=
      t1 - t0;
  if (sender_side) {
    m.src = lane;
    if (name == id_tx_wait_) m.posted = t0;
  } else {
    m.dst = lane;
  }
  if (m.bytes == 0.0) m.bytes = a0;
  if (name == id_rx_) {
    // Delivery: fold into the matrix now (exact regardless of the
    // record cap) and keep the record for critical-path lookup.
    if (m.src >= 0 && m.dst >= 0) {
      MatrixEntry& c = cell(m.src, m.dst);
      ++c.messages;
      c.bytes += m.bytes;
      c.latency_sum += t1 - m.posted;
    }
    if (completed_ < kMaxMsgRecords) {
      m.state = MsgState::kCompleted;
      ++completed_;
    } else {
      m.state = MsgState::kDropped;
      ++dropped_records_;
    }
  }
}

void WorldProfile::io_span(std::int32_t lane, std::uint32_t name, SimTime t0,
                           SimTime t1) {
  // io.stripe is the whole-operation envelope over the striped phase;
  // the per-chunk io.ost.queue/io.ost.xfer spans cover exactly the same
  // window, so only the chunk spans feed the exclusive sweep.
  Bucket b;
  if (name == id_io_mds_wait_ || name == id_io_create_) {
    b = Bucket::kIoMds;
  } else if (name == id_io_queue_) {
    b = Bucket::kIoQueue;
  } else if (name == id_io_rpc_ || name == id_io_xfer_) {
    b = Bucket::kIoXfer;
  } else {
    return;  // io.stripe or an unknown io span name
  }
  add_span(lane, t0, t1, b);
}

void WorldProfile::on_span(std::int32_t lane, Cat cat, std::uint32_t name,
                           SimTime t0, SimTime t1, std::uint64_t id,
                           double a0) {
  switch (cat) {
    case Cat::kMessage:
      message_span(lane, name, t0, t1, id, a0);
      break;
    case Cat::kCompute:
      add_span(lane, t0, t1, Bucket::kCompute);
      break;
    case Cat::kCollective:
      add_span(lane, t0, t1, Bucket::kCollective);
      break;
    case Cat::kPhase:
      if (widen(lane, t0, t1)) lane_at(lane).phases.push_back({t0, t1, name});
      break;
    case Cat::kEngine:
      if (name == id_run_) extend(t0, t1);
      break;
    case Cat::kIo:
      io_span(lane, name, t0, t1);
      break;
    case Cat::kNetwork:
      break;
  }
}

WorldProfileResult WorldProfile::finalize(int nranks,
                                          const RouteFn& route_fn) {
  WorldProfileResult r;
  r.world = world_;
  r.nranks = nranks;
  r.dropped_records = dropped_records_;

  // --- wall window: the extent of the run and every other span ------
  if (!saw_span_) return r;  // nothing recorded
  const SimTime lo = span_t0_;
  const SimTime hi = span_t1_;
  r.t_start = lo;
  r.t_end = hi;
  lanes_.resize(std::max(lanes_.size(), static_cast<std::size_t>(nranks)));

  // --- per-rank priority sweep --------------------------------------
  // Bucket the rank's wall window exclusively: at each elementary
  // interval the highest-priority active bucket wins, idle fills the
  // rest.  Phase attribution follows the innermost active phase span.
  r.ranks.resize(static_cast<std::size_t>(nranks));
  // phase-name id -> per-rank bucket arrays (0 = outside any phase).
  std::map<std::uint32_t, std::vector<BucketArray>> phase_acc;
  // Folded exclusive segments per rank, for critical-path slicing.
  std::vector<std::vector<Segment>> segments(
      static_cast<std::size_t>(nranks));

  // Rank holding the last recorded activity: the walk's anchor.
  int last_rank = -1;
  SimTime last_t = lo;

  std::vector<SweepEvent> ev;  // one rank's events, reused
  std::vector<std::uint32_t> phase_stack;
  for (int rank = 0; rank < nranks; ++rank) {
    Lane& lane = lanes_[static_cast<std::size_t>(rank)];
    ev.clear();
    for (const PSpan& s : lane.spans) {
      ev.push_back({s.t0, true, s.bucket, 0});
      ev.push_back({s.t1, false, s.bucket, 0});
    }
    for (const PhaseSpan& s : lane.phases) {
      ev.push_back({s.t0, true, Bucket::kIdle, s.name + 1});
      ev.push_back({s.t1, false, Bucket::kIdle, s.name + 1});
    }
    std::vector<PSpan>().swap(lane.spans);
    std::vector<PhaseSpan>().swap(lane.phases);
    // Ends before starts on ties so zero-length gaps cannot leave a
    // counter transiently negative-looking; then deterministic order.
    std::stable_sort(ev.begin(), ev.end(),
                     [](const SweepEvent& a, const SweepEvent& b) {
                       if (a.t != b.t) return a.t < b.t;
                       return !a.start && b.start;
                     });
    std::array<int, kBuckets> active{};
    phase_stack.clear();
    // Accumulator row of the innermost phase, looked up when the first
    // interval inside it is accounted.
    std::uint32_t ph = 0;
    std::vector<BucketArray>* ph_acc = nullptr;
    BucketArray& totals = r.ranks[static_cast<std::size_t>(rank)].buckets;
    auto& segs = segments[static_cast<std::size_t>(rank)];
    SimTime prev = lo;

    auto account = [&](SimTime upto) {
      if (upto <= prev) return;
      Bucket win = Bucket::kIdle;
      for (const Bucket b : kBucketPriority) {
        if (active[static_cast<std::size_t>(b)] > 0) {
          win = b;
          break;
        }
      }
      const double dt = upto - prev;
      totals[static_cast<std::size_t>(win)] += dt;
      if (ph_acc == nullptr) {
        auto it = phase_acc.find(ph);
        if (it == phase_acc.end())
          it = phase_acc
                   .emplace(ph, std::vector<BucketArray>(
                                    static_cast<std::size_t>(nranks)))
                   .first;
        ph_acc = &it->second;
      }
      (*ph_acc)[static_cast<std::size_t>(rank)]
               [static_cast<std::size_t>(win)] += dt;
      if (!segs.empty() && segs.back().bucket == win &&
          segs.back().t1 == prev)
        segs.back().t1 = upto;
      else
        segs.push_back({prev, upto, win});
      prev = upto;
    };

    for (const SweepEvent& e : ev) {
      account(e.t);
      if (e.phase != 0) {
        if (e.start) {
          phase_stack.push_back(e.phase);
        } else {
          for (std::size_t i = phase_stack.size(); i > 0; --i) {
            if (phase_stack[i - 1] == e.phase) {
              phase_stack.erase(phase_stack.begin() +
                                static_cast<std::ptrdiff_t>(i - 1));
              break;
            }
          }
        }
        const std::uint32_t top =
            phase_stack.empty() ? 0 : phase_stack.back();
        if (top != ph) {
          ph = top;
          ph_acc = nullptr;
        }
      } else {
        active[static_cast<std::size_t>(e.bucket)] += e.start ? 1 : -1;
      }
      if (e.t > last_t || last_rank < 0) {
        last_t = e.t;
        last_rank = rank;
      }
    }
    account(hi);  // idle tail up to the common window end
  }

  // --- phase profiles + imbalance -----------------------------------
  const int k = std::min(nranks, 8);
  for (auto& [name_id, per_rank] : phase_acc) {
    PhaseProfile p;
    p.name = name_id == 0 ? std::string() : sink_.name(name_id - 1);
    std::vector<double> rank_time(static_cast<std::size_t>(nranks), 0.0);
    for (int rank = 0; rank < nranks; ++rank) {
      const BucketArray& a = per_rank[static_cast<std::size_t>(rank)];
      for (int b = 0; b < kBuckets; ++b) {
        p.total[static_cast<std::size_t>(b)] +=
            a[static_cast<std::size_t>(b)];
        rank_time[static_cast<std::size_t>(rank)] +=
            a[static_cast<std::size_t>(b)];
      }
    }
    p.time = spread(rank_time);
    p.stragglers = top_ranks(rank_time, k);
    r.phases.push_back(std::move(p));
  }

  std::vector<double> series(static_cast<std::size_t>(nranks));
  for (int b = 0; b < kBuckets; ++b) {
    for (int rank = 0; rank < nranks; ++rank)
      series[static_cast<std::size_t>(rank)] =
          r.ranks[static_cast<std::size_t>(rank)]
              .buckets[static_cast<std::size_t>(b)];
    r.bucket_imbalance[static_cast<std::size_t>(b)] = spread(series);
  }
  std::vector<double> wait_score(static_cast<std::size_t>(nranks));
  for (int rank = 0; rank < nranks; ++rank) {
    const BucketArray& a = r.ranks[static_cast<std::size_t>(rank)].buckets;
    wait_score[static_cast<std::size_t>(rank)] =
        a[static_cast<std::size_t>(Bucket::kBlocked)] +
        a[static_cast<std::size_t>(Bucket::kCollective)] +
        a[static_cast<std::size_t>(Bucket::kIdle)];
  }
  r.stragglers = top_ranks(wait_score, k);

  // --- communication matrix -----------------------------------------
  // Totals are summed in the written (src, dst) order, so they do not
  // depend on the order in which pairs first delivered.
  r.matrix = std::move(cells_);
  std::vector<std::uint32_t>().swap(cell_index_);
  std::sort(r.matrix.begin(), r.matrix.end(),
            [](const MatrixEntry& a, const MatrixEntry& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  for (const MatrixEntry& cell : r.matrix) {
    r.messages += cell.messages;
    r.bytes += cell.bytes;
  }

  // --- critical path -------------------------------------------------
  // Sort dependencies per rank by completion time for the walk.
  for (int rank = 0; rank < nranks; ++rank) {
    auto& v = lanes_[static_cast<std::size_t>(rank)].deps;
    std::sort(v.begin(), v.end(),
              [](const Dep& a, const Dep& b) { return a.t1 < b.t1; });
  }

  CritPath& cp = r.critical_path;
  cp.t_end = last_rank >= 0 ? last_t : lo;
  std::map<std::int32_t, CritLink> link_hits;
  auto local_step = [&](int rank, SimTime a, SimTime b) {
    if (b <= a) return;
    CritStep st;
    st.kind = CritStep::Kind::kLocal;
    st.rank = rank;
    st.t0 = a;
    st.t1 = b;
    for (const Segment& s : segments[static_cast<std::size_t>(rank)]) {
      if (s.t1 <= a) continue;
      if (s.t0 >= b) break;
      st.buckets[static_cast<std::size_t>(s.bucket)] +=
          std::min(b, s.t1) - std::max(a, s.t0);
    }
    cp.steps.push_back(st);
  };

  if (last_rank >= 0) {
    int rank = last_rank;
    SimTime t = last_t;
    while (t > lo) {
      if (cp.steps.size() >= kMaxPathSteps) {
        cp.truncated = true;
        break;
      }
      const auto& rd = lanes_[static_cast<std::size_t>(rank)].deps;
      // Latest blocking recv on this rank completing at or before t.
      const auto it = std::upper_bound(
          rd.begin(), rd.end(), t,
          [](SimTime v, const Dep& d) { return v < d.t1; });
      if (it == rd.begin()) {
        local_step(rank, lo, t);
        t = lo;
        break;
      }
      const Dep& d = *(it - 1);
      local_step(rank, d.t1, t);
      const MsgRec* m = d.mid <= msgs_.size()
                            ? &msgs_[static_cast<std::size_t>(d.mid - 1)]
                            : nullptr;
      if (m == nullptr || m->state != MsgState::kCompleted ||
          m->posted >= d.t1 || m->src < 0) {
        // No usable message record (capped or incomplete): the blocked
        // interval itself stays on this rank's timeline.
        local_step(rank, d.t0, d.t1);
        t = d.t0;
        continue;
      }
      CritStep st;
      st.kind = CritStep::Kind::kMessage;
      st.rank = m->src;
      st.other = m->dst;
      st.t0 = m->posted;
      st.t1 = d.t1;
      st.bytes = m->bytes;
      std::copy(m->seg.begin(), m->seg.end(),
                st.buckets.begin() + kFirstMsgBucket);
      cp.steps.push_back(st);
      ++cp.messages;
      if (route_fn) {
        route_fn(m->src, m->dst, [&](std::int32_t link, int cls) {
          CritLink& hit = link_hits[link];
          hit.link = link;
          hit.cls = cls;
          ++hit.count;
        });
      }
      rank = m->src;
      t = m->posted;
    }
    cp.t_start = t;
    std::reverse(cp.steps.begin(), cp.steps.end());
    for (const CritStep& st : cp.steps) {
      for (int b = 0; b < kBuckets; ++b)
        cp.buckets[static_cast<std::size_t>(b)] +=
            st.buckets[static_cast<std::size_t>(b)];
      if (cp.ranks.empty() || cp.ranks.back() != st.rank)
        cp.ranks.push_back(st.rank);
      // A message step visits its source then its destination.
      if (st.kind == CritStep::Kind::kMessage &&
          cp.ranks.back() != st.other)
        cp.ranks.push_back(st.other);
    }
    cp.length = cp.t_end - cp.t_start;
    cp.links.reserve(link_hits.size());
    for (const auto& [link, hit] : link_hits) {
      (void)link;
      cp.links.push_back(hit);
    }
    std::stable_sort(cp.links.begin(), cp.links.end(),
                     [](const CritLink& a, const CritLink& b) {
                       return a.count > b.count;
                     });
  }

  return r;
}

}  // namespace xts::obsv
