#pragma once

/// \file future.hpp
/// One-shot cross-coroutine signalling.
///
/// `SimPromise<T>` / `SimFuture<T>` connect a producer event (message
/// delivery, resource grant, flow completion) to a waiting coroutine.
/// The future is awaitable exactly once; setting the value resumes the
/// waiter through the event queue at the current simulated time.
/// Also provides `Delay`, the awaitable returned by Engine-based
/// contexts to advance simulated time.
///
/// The shared state is reference counted without atomics and drawn
/// from the per-thread block cache (core/block_cache.hpp): a promise
/// and its futures live on the thread that runs their World.

#include <cmath>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#include "core/block_cache.hpp"
#include "core/engine.hpp"
#include "core/error.hpp"

namespace xts {

namespace detail {

template <typename T>
struct FutureState {
  explicit FutureState(Engine& e) noexcept : engine(&e) {}

  Engine* engine;
  std::optional<T> value;
  std::exception_ptr error;
  std::coroutine_handle<> waiter{};
  std::uint32_t refs = 1;
  bool consumed = false;

  static FutureState* make(Engine& e) {
    static_assert(alignof(FutureState) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    return ::new (BlockCache::allocate(sizeof(FutureState))) FutureState(e);
  }

  void release() noexcept {
    if (--refs != 0) return;
    this->~FutureState();
    BlockCache::deallocate(this, sizeof(FutureState));
  }

  void deliver() {
    if (waiter) {
      auto h = std::exchange(waiter, {});
      engine->schedule_after(0.0, [h] { h.resume(); });
    }
  }
};

/// Counted handle to a FutureState: copies share the state, the last
/// one to go returns it to the block cache.
template <typename T>
class StateRef {
 public:
  StateRef() noexcept = default;
  explicit StateRef(Engine& e) : s_(FutureState<T>::make(e)) {}
  StateRef(const StateRef& o) noexcept : s_(o.s_) {
    if (s_ != nullptr) ++s_->refs;
  }
  StateRef(StateRef&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
  StateRef& operator=(StateRef o) noexcept {
    std::swap(s_, o.s_);
    return *this;
  }
  ~StateRef() {
    if (s_ != nullptr) s_->release();
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return s_ != nullptr;
  }
  FutureState<T>* operator->() const noexcept { return s_; }

 private:
  FutureState<T>* s_ = nullptr;
};

}  // namespace detail

template <typename T>
class SimFuture;

/// Producer side.  Copyable handle to the shared state so it can be
/// captured by callbacks registered with the engine.
template <typename T>
class SimPromise {
 public:
  /// Empty promise (no shared state): a placeholder slot that can be
  /// move-assigned a live promise later.  Calling set_value/set_error
  /// or future() on it is a usage error.
  SimPromise() noexcept = default;

  explicit SimPromise(Engine& engine) : state_(engine) {}

  /// True when this promise owns shared state (was not
  /// default-constructed or moved from).
  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(state_);
  }

  void set_value(T v) const {
    if (!state_) throw UsageError("SimPromise: empty promise");
    if (state_->value || state_->error)
      throw UsageError("SimPromise: value already set");
    state_->value.emplace(std::move(v));
    state_->deliver();
  }

  void set_error(std::exception_ptr e) const {
    if (!state_) throw UsageError("SimPromise: empty promise");
    if (state_->value || state_->error)
      throw UsageError("SimPromise: value already set");
    state_->error = std::move(e);
    state_->deliver();
  }

  [[nodiscard]] SimFuture<T> future() const;

 private:
  detail::StateRef<T> state_;
};

/// Consumer side: `T result = co_await promise.future();`
template <typename T>
class [[nodiscard]] SimFuture {
 public:
  bool await_ready() const noexcept {
    return state_->value.has_value() || state_->error != nullptr;
  }

  void await_suspend(std::coroutine_handle<> h) {
    if (state_->waiter)
      throw UsageError("SimFuture: at most one waiter is supported");
    state_->waiter = h;
  }

  T await_resume() {
    if (state_->consumed) throw UsageError("SimFuture: already consumed");
    state_->consumed = true;
    if (state_->error) std::rethrow_exception(state_->error);
    return std::move(*state_->value);
  }

 private:
  friend class SimPromise<T>;
  explicit SimFuture(detail::StateRef<T> s) noexcept : state_(std::move(s)) {}

  detail::StateRef<T> state_;
};

template <typename T>
SimFuture<T> SimPromise<T>::future() const {
  if (!state_) throw UsageError("SimPromise: empty promise");
  return SimFuture<T>(state_);
}

/// Monostate-like unit type for futures that only signal completion.
struct Done {};

using SimPromiseV = SimPromise<Done>;
using SimFutureV = SimFuture<Done>;

/// Awaitable that advances simulated time by a fixed delay.
class [[nodiscard]] Delay {
 public:
  Delay(Engine& engine, SimTime dt) : engine_(&engine), dt_(dt) {
    if (!(dt >= 0)) {
      throw UsageError(std::isnan(dt) ? "Delay: NaN duration"
                                      : "Delay: negative duration");
    }
  }

  bool await_ready() const noexcept { return dt_ == 0.0; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine_->schedule_after(dt_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Engine* engine_;
  SimTime dt_;
};

}  // namespace xts
