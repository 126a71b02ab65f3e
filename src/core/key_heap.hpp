#pragma once

/// \file key_heap.hpp
/// Binary min-heap primitives over 128-bit keys.
///
/// An entry is any copyable struct with `std::uint64_t hi, lo` members.
/// Entries order as the unsigned 128-bit value hi:lo, so one compare
/// (cmp + sbb on x86-64) replaces a two-field lexicographic test, and
/// the sift-down picks the smaller child by adding the compare result
/// to the index instead of branching on it.  A time that is >= +0.0
/// and not NaN may be stored as its IEEE bits in `hi`: for such doubles
/// the bit order is the numeric order.
///
/// The heap is a std::vector.  An optional `track(entry, index)` hook
/// runs whenever an entry lands at a new index, so an owner can keep
/// its entry's position (the engine's indexed timer heap).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xts::keyheap {

__extension__ using Key = unsigned __int128;

template <typename E>
[[nodiscard]] inline Key key(const E& e) noexcept {
  return (Key{e.hi} << 64) | e.lo;
}

/// Default hook: positions are not tracked.
struct NoTrack {
  template <typename E>
  void operator()(const E& /*entry*/, std::size_t /*index*/) const noexcept {}
};

namespace detail {

/// Bubble `e` up from the hole at `i`, never above `top`, and place it.
template <typename E, typename Track>
void sift_up(E* a, std::size_t i, const E e, std::size_t top,
             const Track& track) {
  const Key k = key(e);
  while (i > top) {
    const std::size_t p = (i - 1) / 2;
    if (!(k < key(a[p]))) break;
    a[i] = a[p];
    track(a[i], i);
    i = p;
  }
  a[i] = e;
  track(a[i], i);
}

/// Move the hole at `i` down to a leaf of the n-entry heap along the
/// smaller-child path (one compare per level, no branch on its result)
/// and return the leaf.  Placing the displaced entry there and sifting
/// it up (Floyd's method) costs fewer compares than a classic
/// sift-down: it almost always belongs near the leaves.
template <typename E, typename Track>
std::size_t descend(E* a, std::size_t i, std::size_t n, const Track& track) {
  std::size_t c = 2 * i + 1;
  while (c + 1 < n) {
    c += static_cast<std::size_t>(key(a[c + 1]) < key(a[c]));
    a[i] = a[c];
    track(a[i], i);
    i = c;
    c = 2 * i + 1;
  }
  if (c < n) {  // a lone last child
    a[i] = a[c];
    track(a[i], i);
    i = c;
  }
  return i;
}

}  // namespace detail

template <typename E, typename Track = NoTrack>
void push(std::vector<E>& h, const E& e, const Track& track = {}) {
  h.emplace_back();
  detail::sift_up(h.data(), h.size() - 1, e, 0, track);
}

/// Remove the entry at index `i` (the minimum when i == 0).
template <typename E, typename Track = NoTrack>
void erase(std::vector<E>& h, std::size_t i, const Track& track = {}) {
  const E last = h.back();
  h.pop_back();
  if (i == h.size()) return;  // it was the last entry
  E* a = h.data();
  detail::sift_up(a, detail::descend(a, i, h.size(), track), last, 0, track);
}

/// Arrange an arbitrary vector into a heap in O(n).
template <typename E>
void make(std::vector<E>& h) {
  E* a = h.data();
  const NoTrack track;
  for (std::size_t i = h.size() / 2; i-- > 0;) {
    const E e = a[i];
    detail::sift_up(a, detail::descend(a, i, h.size(), track), e, i, track);
  }
}

}  // namespace xts::keyheap
