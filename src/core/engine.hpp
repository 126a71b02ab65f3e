#pragma once

/// \file engine.hpp
/// The discrete-event simulation engine.
///
/// Events are (time, sequence) ordered: two events at the same simulated
/// time fire in the order they were scheduled, which makes every run with
/// the same seed bit-for-bit reproducible.  All coroutine resumptions go
/// through the event queue, so there is never re-entrant resumption and
/// native stack depth stays bounded regardless of how many simulated
/// processes signal one another.
///
/// Internally the queue is three structures, each ordered by
/// (time, seq), with `seq` taken from one counter:
///  - a binary min-heap of 24-byte {time bits, seq, slot} entries for
///    future events (core/key_heap.hpp); the callables stay put in a
///    slot table with a free list while the entries sift;
///  - an O(1) FIFO ring for events scheduled at exactly the current
///    instant — the schedule_after(0.0) traffic of coroutine
///    resumption, promise delivery, and flow-network dirtying, which
///    dominates the event mix and never needs heap ordering.  Every
///    ring entry is due at now(): the ring drains before time can
///    advance past it;
///  - a small indexed heap of armed `Timer`s: re-armable event slots
///    that their owners keep.  Re-arming moves the one entry instead
///    of leaving a superseded event in the queue, so a component that
///    re-predicts its next deadline on every change (the flow network,
///    a processor-sharing server) holds exactly one pending event.
/// step() fires the least (time, seq) across the three, so the order is
/// exactly that of one queue.  Times are never NaN and never below
/// now() >= +0.0, so their IEEE bit patterns order like the values.
///
/// One World owns one Engine and drives it from one host thread; host
/// parallelism lives above the World, in the sweep runner that builds
/// independent Worlds on worker threads (docs/PARALLELISM.md).

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/inline_fn.hpp"
#include "core/key_heap.hpp"
#include "core/progress.hpp"
#include "core/units.hpp"

namespace xts {

class Engine {
 public:
  /// A re-armable event slot.  The owner constructs it once with its
  /// callback and then arms, re-arms or cancels it; at most one firing
  /// is pending at a time.  arm_at() takes a fresh sequence number
  /// exactly as schedule_at() would, so replacing "schedule a new event
  /// and ignore the old one when it fires" by a Timer leaves the firing
  /// order unchanged.  The timer is disarmed before its callback runs,
  /// so the callback may re-arm it; it must not destroy it.  A Timer
  /// may outlive its Engine only disarmed (~Engine disarms them all).
  class Timer {
   public:
    template <typename F>
    Timer(Engine& engine, F&& fn)
        : engine_(&engine), fn_(std::forward<F>(fn)) {}
    ~Timer() { cancel(); }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    /// Fire at absolute time \p t (>= now()), replacing any pending
    /// firing.
    void arm_at(SimTime t) { engine_->timer_arm(*this, t); }
    /// Drop the pending firing, if any.
    void cancel() noexcept {
      if (armed()) engine_->timer_cancel(*this);
    }
    [[nodiscard]] bool armed() const noexcept { return pos_ != kUnarmed; }

   private:
    friend class Engine;
    static constexpr std::uint32_t kUnarmed = ~std::uint32_t{0};

    Engine* engine_;
    InlineFn fn_;
    std::uint32_t pos_ = kUnarmed;  ///< index in Engine::timers_
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() {
    for (const TimerEntry& e : timers_) e.timer->pos_ = Timer::kUnarmed;
  }

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Heartbeat progress sink (null => off, the default).  While set,
  /// step() refreshes it every kProgressStride events with relaxed
  /// stores — no clock reads, no effect on event order or output.
  void set_progress(RunProgress* progress) noexcept { progress_ = progress; }

  /// Push the current counters to the progress sink now (no-op when
  /// none is set).  Callers invoke this after run() so the final
  /// sub-stride tail is visible to the sampler.
  void publish_progress() noexcept {
    if (progress_ == nullptr) return;
    progress_->sim_time.store(now_, std::memory_order_relaxed);
    progress_->events.fetch_add(events_processed_ - progress_published_,
                                std::memory_order_relaxed);
    progress_published_ = events_processed_;
    progress_->queue_depth.store(events_pending(),
                                 std::memory_order_relaxed);
  }

  /// Schedule \p fn to run at absolute simulated time \p t (>= now()).
  void schedule_at(SimTime t, InlineFn fn) {
    if (!(t >= now_)) bad_time("Engine::schedule_at", t);
    if (t == now_) {
      fifo_push(std::move(fn));
    } else {
      heap_push(t, std::move(fn));
    }
  }

  /// Schedule \p fn to run \p dt seconds from now.
  void schedule_after(SimTime dt, InlineFn fn) {
    if (!(dt >= 0)) {
      throw UsageError(std::isnan(dt)
                           ? "Engine::schedule_after: NaN delay"
                           : "Engine::schedule_after: negative delay");
    }
    schedule_at(now_ + dt, std::move(fn));
  }

  /// Run one event.  Returns false when the queue is empty.
  bool step() {
    // The next event is the least (time, seq) among the ring front (due
    // now), the heap top and the timer top; an empty source never wins
    // against the all-ones key, which no real key reaches (NaN bits).
    keyheap::Key best = ~keyheap::Key{0};
    Source src = Source::kNone;
    if (fifo_count_ > 0) {
      best = (keyheap::Key{std::bit_cast<std::uint64_t>(now_)} << 64) |
             fifo_[fifo_head_].seq;
      src = Source::kFifo;
    }
    if (!heap_.empty() && keyheap::key(heap_[0]) < best) {
      best = keyheap::key(heap_[0]);
      src = Source::kHeap;
    }
    if (!timers_.empty() && keyheap::key(timers_[0]) < best)
      src = Source::kTimer;

    InlineFn fn;
    switch (src) {
      case Source::kNone:
        return false;
      case Source::kFifo:
        fn = fifo_pop();
        break;
      case Source::kHeap: {
        const HeapEntry top = heap_[0];
        keyheap::erase(heap_, 0);
        now_ = std::bit_cast<SimTime>(top.hi);
        fn = std::move(fns_[top.slot]);
        free_fns_.push_back(top.slot);
        break;
      }
      case Source::kTimer: {
        Timer* timer = timers_[0].timer;
        now_ = std::bit_cast<SimTime>(timers_[0].hi);
        keyheap::erase(timers_, 0, TimerTrack{});
        timer->pos_ = Timer::kUnarmed;
        count_event();
        timer->fn_();
        return true;
      }
    }
    count_event();
    fn();
    return true;
  }

  /// Run until no events remain.
  void run() {
    while (step()) {
    }
  }

  /// Run until no events remain or simulated time would exceed
  /// \p deadline.  Returns true if the queue drained, false if the
  /// deadline stopped it.  Either way now() advances to \p deadline (if
  /// later), so callers composing run_until with schedule_after observe
  /// the simulated interval as fully elapsed.
  bool run_until(SimTime deadline) {
    if (std::isnan(deadline))
      throw UsageError("Engine::run_until: NaN deadline");
    for (;;) {
      if (next_event_time() > deadline) {
        const bool drained = events_pending() == 0;
        if (deadline > now_) now_ = deadline;
        return drained;
      }
      step();
    }
  }

  [[nodiscard]] std::size_t events_processed() const noexcept {
    return events_processed_;
  }
  /// Events still to fire: scheduled callbacks plus armed timers.
  [[nodiscard]] std::size_t events_pending() const noexcept {
    return fifo_count_ + heap_.size() + timers_.size();
  }

 private:
  static constexpr std::size_t kProgressStride = 1024;

  enum class Source { kNone, kFifo, kHeap, kTimer };

  /// Future event: time bits and seq form the key; the callable waits
  /// in fns_[slot].
  struct HeapEntry {
    std::uint64_t hi = 0;  ///< bit pattern of the (positive) time
    std::uint64_t lo = 0;  ///< seq
    std::uint32_t slot = 0;
  };

  struct TimerEntry {
    std::uint64_t hi = 0;  ///< bit pattern of the time
    std::uint64_t lo = 0;  ///< seq
    Timer* timer = nullptr;
  };

  /// Keeps each armed Timer's pos_ equal to its index in timers_.
  struct TimerTrack {
    void operator()(const TimerEntry& e, std::size_t i) const noexcept {
      e.timer->pos_ = static_cast<std::uint32_t>(i);
    }
  };

  struct FifoEntry {
    std::uint64_t seq = 0;
    InlineFn fn;
  };

  /// Reject a NaN time or one before now() (the caller tested
  /// `!(t >= now_)`).
  [[noreturn]] static void bad_time(const char* who, SimTime t) {
    throw UsageError(std::string(who) +
                     (std::isnan(t) ? ": NaN time" : ": time in the past"));
  }

  void count_event() noexcept {
    ++events_processed_;
    if (progress_ != nullptr &&
        (events_processed_ & (kProgressStride - 1)) == 0)
      publish_progress();
  }

  [[nodiscard]] SimTime next_event_time() const noexcept {
    if (fifo_count_ > 0) return now_;  // ring entries are always at now_
    SimTime t = std::numeric_limits<double>::infinity();
    if (!heap_.empty()) t = std::bit_cast<SimTime>(heap_[0].hi);
    if (!timers_.empty() && std::bit_cast<SimTime>(timers_[0].hi) < t)
      t = std::bit_cast<SimTime>(timers_[0].hi);
    return t;
  }

  // -- future events: key heap + callable slot table ---------------------

  void heap_push(SimTime t, InlineFn&& fn) {
    std::uint32_t slot;
    if (free_fns_.empty()) {
      slot = static_cast<std::uint32_t>(fns_.size());
      fns_.push_back(std::move(fn));
    } else {
      slot = free_fns_.back();
      free_fns_.pop_back();
      fns_[slot] = std::move(fn);
    }
    keyheap::push(heap_, HeapEntry{std::bit_cast<std::uint64_t>(t),
                                   next_seq_++, slot});
  }

  // -- timers ------------------------------------------------------------

  void timer_arm(Timer& timer, SimTime t) {
    if (!(t >= now_)) bad_time("Engine::Timer::arm_at", t);
    if (timer.armed()) keyheap::erase(timers_, timer.pos_, TimerTrack{});
    // t == now_ stores now_'s bits, so a -0.0 at time zero keys as +0.0.
    const SimTime at = t == now_ ? now_ : t;
    keyheap::push(timers_,
                  TimerEntry{std::bit_cast<std::uint64_t>(at), next_seq_++,
                             &timer},
                  TimerTrack{});
  }

  void timer_cancel(Timer& timer) noexcept {
    keyheap::erase(timers_, timer.pos_, TimerTrack{});
    timer.pos_ = Timer::kUnarmed;
  }

  // -- same-instant FIFO ring (power-of-two capacity) --------------------

  void fifo_push(InlineFn&& fn) {
    if (fifo_count_ == fifo_.size()) fifo_grow();
    FifoEntry& slot = fifo_[(fifo_head_ + fifo_count_) & (fifo_.size() - 1)];
    slot.seq = next_seq_++;
    slot.fn = std::move(fn);
    ++fifo_count_;
  }

  InlineFn fifo_pop() {
    InlineFn fn = std::move(fifo_[fifo_head_].fn);
    fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
    --fifo_count_;
    return fn;
  }

  void fifo_grow() {
    const std::size_t cap = fifo_.empty() ? 16 : fifo_.size() * 2;
    std::vector<FifoEntry> grown(cap);
    for (std::size_t i = 0; i < fifo_count_; ++i)
      grown[i] = std::move(fifo_[(fifo_head_ + i) & (fifo_.size() - 1)]);
    fifo_ = std::move(grown);
    fifo_head_ = 0;
  }

  RunProgress* progress_ = nullptr;
  std::size_t progress_published_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_processed_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<InlineFn> fns_;            ///< callables of heap_ entries
  std::vector<std::uint32_t> free_fns_;  ///< recycled fns_ slots (LIFO)
  std::vector<TimerEntry> timers_;       ///< armed timers, indexed heap
  std::vector<FifoEntry> fifo_;
  std::size_t fifo_head_ = 0;
  std::size_t fifo_count_ = 0;
};

}  // namespace xts
