#pragma once

/// \file warm.hpp
/// Warm-start reuse of immutable World build artifacts across sweep
/// points.
///
/// Every World of the same platform *shape* — rank count, node count,
/// cores per node, placement policy (and seed, for random placement) —
/// builds the exact same rank→(node, core) placement table.  The table
/// is a pure function of those inputs, read-only after construction,
/// and for million-rank Worlds it is the single largest per-World
/// allocation that does not depend on traffic.  This cache shares one
/// immutable table per shape across all concurrently-live Worlds in a
/// sweep (and across sequential points), so a 28-point figure sweep
/// builds each distinct shape once instead of 28 times.
///
/// What is deliberately NOT shared: anything with mutable state (link
/// stats, node queues).  Sharing those would make their exported
/// counters depend on which sweep points ran concurrently — breaking
/// byte-identical --metrics output across --jobs counts.  Placement
/// sharing is safe precisely because the shared object is
/// content-identical to what each World would have built alone.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace xts::cache {

/// Immutable rank→(node, core) placement (indexes parallel by rank).
struct PlacementTable {
  std::vector<std::int32_t> rank_node;
  std::vector<std::uint8_t> rank_core;  ///< cores_per_node <= 255
};

/// Everything the placement builder reads.  `seed` must be passed as 0
/// for deterministic policies (block, round-robin) so Worlds differing
/// only in RNG seed still share — only random placement keys on it.
struct PlacementShape {
  std::int64_t nranks = 0;
  std::int64_t nnodes = 0;
  std::int32_t cores_active = 0;
  std::int32_t placement = 0;  ///< vmpi::Placement as int
  std::uint64_t seed = 0;      ///< 0 unless placement == kRandom

  friend bool operator==(const PlacementShape&,
                         const PlacementShape&) = default;
};

/// Look up (or build via `builder` and insert) the shared table for
/// `shape`.  Thread-safe; bounded LRU (distinct shapes per process are
/// few — bench grids sweep rank counts, not placement policies).  Bumps
/// ScenarioCacheStats::warm_builds / warm_shares.
[[nodiscard]] std::shared_ptr<const PlacementTable> shared_placement(
    const PlacementShape& shape,
    const std::function<PlacementTable()>& builder);

/// Drop all shared tables (tests).
void clear_placement_cache() noexcept;

/// Number of tables currently cached (tests).
[[nodiscard]] std::size_t placement_cache_size() noexcept;

}  // namespace xts::cache
