/// \file calib.hpp
/// Host-speed calibration kernel and random stream for perfbench.
///
/// A fixed piece of work shaped like a discrete-event simulator's inner
/// loop: a binary heap of timed events and a hash map keyed by event.
/// It is built as a library of its own that links nothing from src/, so
/// no change to the simulator or to its compile options can alter it.
/// perfbench times it before and after every pass and scales the pass's
/// times by how fast the host ran it (README.md, "Host-speed scaling").
#pragma once

#include <cstdint>

namespace perfbench {

/// The splitmix64 generator, advancing `state`.  It drives the kernel
/// and the alltoall payloads, so neither depends on the simulator's RNG.
std::uint64_t splitmix64(std::uint64_t& state);

/// The kernel's time on the reference host.  A scaled time reads as the
/// time on a host that runs the kernel in exactly this many seconds.
inline constexpr double kCalibReferenceSeconds = 0.07;

/// Run the kernel once.  Returns a checksum that is the same on every
/// call, so the work cannot be optimised away unnoticed.
double calibration_kernel();

}  // namespace perfbench
