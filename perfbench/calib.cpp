#include "calib.hpp"

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

// Heap and map together stay under 1 MB, inside the core's own caches:
// a kernel with a 2^17-key map slowed more than the simulator when the
// host was busy, and over-corrected (README.md).
constexpr int kPending = 1 << 15;         // events in the heap at any time
constexpr std::uint64_t kKeys = 1 << 13;  // distinct hash-map keys
constexpr int kSteps = 400000;            // pop-one-push-one steps

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double calibration_kernel() {
  using Event = std::pair<double, std::uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint64_t, double> hits;
  hits.reserve(kKeys);
  std::uint64_t state = 12345;
  // Braced initialisers evaluate left to right, so the draws are fixed.
  for (int i = 0; i < kPending; ++i)
    queue.push({static_cast<double>(splitmix64(state) % 1000),
                splitmix64(state)});
  double now = 0.0, sum = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const Event e = queue.top();
    queue.pop();
    now = e.first;
    sum += (hits[e.second % kKeys] += 1.0);
    queue.push({now + static_cast<double>(splitmix64(state) % 1000),
                splitmix64(state)});
  }
  return sum + now;
}

}  // namespace perfbench
