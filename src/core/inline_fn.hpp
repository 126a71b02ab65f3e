#pragma once

/// \file inline_fn.hpp
/// Small-buffer-optimized move-only callable for the event loop.
///
/// The common event captures — a coroutine handle, an object pointer,
/// a context pointer — are a handful of words.  InlineFn stores any
/// trivially-copyable callable of up to kInlineSize bytes in place and
/// boxes everything else on the heap.  Either representation is
/// trivially relocatable (an ops pointer plus raw bytes), so containers
/// owned by the engine can move events with a plain byte copy and no
/// per-move indirect calls — unlike std::function, whose every move
/// goes through its manager function.

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace xts {

class InlineFn {
 public:
  /// Inline capture budget; larger/non-trivial callables are boxed.
  /// Three words covers the hot captures (a coroutine handle, an object
  /// pointer, a context pointer) in a 32-byte callable.
  static constexpr std::size_t kInlineSize = 24;

  InlineFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                     // lambda arguments at every schedule_* call site.
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
                  std::is_trivially_copyable_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &inline_ops<D>;
    } else {
      auto* boxed = new D(std::forward<F>(f));
      std::memcpy(static_cast<void*>(storage_), &boxed, sizeof(boxed));
      ops_ = &boxed_ops<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    std::memcpy(storage_, other.storage_, kInlineSize);
    other.ops_ = nullptr;
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      std::memcpy(storage_, other.storage_, kInlineSize);
      other.ops_ = nullptr;
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;  ///< null when destruction is a no-op
  };

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  template <typename D>
  static void invoke_inline(void* s) {
    (*std::launder(reinterpret_cast<D*>(s)))();
  }

  template <typename D>
  static void invoke_boxed(void* s) {
    D* boxed;
    std::memcpy(&boxed, s, sizeof(boxed));
    (*boxed)();
  }

  template <typename D>
  static void destroy_boxed(void* s) noexcept {
    D* boxed;
    std::memcpy(&boxed, s, sizeof(boxed));
    delete boxed;
  }

  template <typename D>
  static constexpr Ops inline_ops{&invoke_inline<D>, nullptr};
  template <typename D>
  static constexpr Ops boxed_ops{&invoke_boxed<D>, &destroy_boxed<D>};

  static constexpr std::size_t kInlineAlign = alignof(void*);

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
};

}  // namespace xts
