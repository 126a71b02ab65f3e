#pragma once

/// \file block_cache.hpp
/// Per-thread recycling of the coroutine layer's small heap blocks.
///
/// Every simulated message allocates a handful of short-lived blocks of
/// a few fixed sizes: coroutine frames (Task<T>, core/task.hpp) and
/// promise/future shared state (core/future.hpp).  A World runs on one
/// host thread (docs/PARALLELISM.md), so a thread-local LIFO free list
/// per size class hands those blocks back without a trip through the
/// global allocator and without any atomic.
///
///  - Size classes are the powers of two from 64 B to 1 KiB; a request
///    rounds up to its class.  Larger requests go straight to
///    ::operator new / ::operator delete.
///  - At most kCap blocks per class stay cached (about 62 KiB per
///    thread); a block freed into a full class returns to the global
///    allocator, so peak memory tracks the allocator's, not the cache's.
///  - A block freed on a thread other than the one that allocated it
///    joins the freeing thread's cache.  Each thread releases every
///    block it still caches when it exits.
///  - Under AddressSanitizer a cached block is poisoned, so a use after
///    free still reports; otherwise the poisoning compiles to nothing.

#include <bit>
#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define XTS_POISON_BLOCK(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define XTS_UNPOISON_BLOCK(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define XTS_POISON_BLOCK(p, n) ((void)(p), (void)(n))
#define XTS_UNPOISON_BLOCK(p, n) ((void)(p), (void)(n))
#endif

namespace xts::detail {

class BlockCache {
 public:
  static constexpr std::size_t kMinBlock = 64;
  static constexpr std::size_t kMaxBlock = 1024;
  static constexpr std::size_t kClasses = 5;  ///< 64, 128, 256, 512, 1024
  /// Blocks kept per class.  32 covers the frames and states live
  /// around one message; a deeper cache only adds peak memory.
  static constexpr std::size_t kCap = 32;

  [[nodiscard]] static void* allocate(std::size_t n) {
    if (n > kMaxBlock) return ::operator new(n);
    const std::size_t c = size_class(n);
    Lists& l = lists_;
    Node* b = l.head[c];
    if (b == nullptr) return ::operator new(block_size(c));
    XTS_UNPOISON_BLOCK(b, block_size(c));
    l.head[c] = b->next;
    --l.count[c];
    return b;
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    if (n > kMaxBlock) {
      ::operator delete(p, n);
      return;
    }
    const std::size_t c = size_class(n);
    Lists& l = lists_;
    if (l.count[c] == kCap || l.closed) {
      ::operator delete(p, block_size(c));
      return;
    }
    if (!l.armed) arm();
    Node* b = ::new (p) Node{l.head[c]};
    l.head[c] = b;
    ++l.count[c];
    XTS_POISON_BLOCK(b, block_size(c));
  }

  /// Blocks this thread currently caches, over all classes (tests).
  [[nodiscard]] static std::size_t cached() noexcept {
    std::size_t total = 0;
    for (const std::size_t n : lists_.count) total += n;
    return total;
  }

 private:
  struct Node {
    Node* next;
  };
  /// Trivially destructible, so reaching it costs no TLS guard; the
  /// thread-exit drain lives in arm()'s Reaper instead.
  struct Lists {
    Node* head[kClasses];
    std::size_t count[kClasses];
    bool armed;   ///< Reaper registered for this thread
    bool closed;  ///< thread is exiting: bypass the cache
  };

  static constexpr std::size_t size_class(std::size_t n) noexcept {
    return static_cast<std::size_t>(
        std::bit_width((n < kMinBlock ? kMinBlock : n) - 1) -
        std::countr_zero(kMinBlock));
  }
  static constexpr std::size_t block_size(std::size_t c) noexcept {
    return kMinBlock << c;
  }

  /// Register the thread-exit drain on this thread's first cached free.
  static void arm() noexcept {
    struct Reaper {
      ~Reaper() {
        Lists& l = lists_;
        l.closed = true;
        for (std::size_t c = 0; c < kClasses; ++c) {
          while (Node* b = l.head[c]) {
            XTS_UNPOISON_BLOCK(b, block_size(c));
            l.head[c] = b->next;
            ::operator delete(b, block_size(c));
          }
          l.count[c] = 0;
        }
      }
    };
    static thread_local Reaper reaper;
    (void)reaper;
    lists_.armed = true;
  }

  static inline thread_local constinit Lists lists_{};
};

static_assert(std::has_single_bit(BlockCache::kMinBlock) &&
              BlockCache::kMinBlock << (BlockCache::kClasses - 1) ==
                  BlockCache::kMaxBlock);

}  // namespace xts::detail
