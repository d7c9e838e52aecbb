// Host speed, measured with a reference workload frozen in the benchmark.
//
// On a shared host the same work takes tens of percent longer for seconds
// or minutes at a time, whatever the program does: a run-to-run spread that
// no median within a run removes. So the batch workloads run the reference
// workload between their operations, on the same CPU, and scale their host
// times by how fast it ran: an operation's scaled time is its wall time x
// kReferenceUnitSeconds / (the reference unit's measured time). A change to
// the program moves the operation and not the reference, so the scaled time
// moves with it; a host slowdown moves both, and cancels.
//
// The reference workload is a small register-machine interpreter: fetch,
// switch dispatch, ALU work, branches and loads from a 256 KiB table, the mix
// a cycle-level simulator's inner loop is made of. Every unit executes the
// same instructions, so its time depends on the host alone.
#pragma once

#include <cstdint>

namespace perfbench {

/// The reference unit's time on the host the benchmark was tuned on (a
/// 4-vCPU Xeon VM, at its quietest): scaled times read as times on that host.
inline constexpr double kReferenceUnitSeconds = 130e-6;

/// Reference units run over some stretch of a measurement.
struct ReferenceTime {
  double seconds = 0.0;
  std::uint64_t units = 0;

  ReferenceTime& operator+=(const ReferenceTime& other) noexcept {
    seconds += other.seconds;
    units += other.units;
    return *this;
  }
  /// kReferenceUnitSeconds / measured seconds per unit: below 1 while the
  /// host runs slower than the reference host. 1 when nothing was run.
  [[nodiscard]] double scale() const noexcept {
    return units == 0 || seconds <= 0.0 ? 1.0
                                        : kReferenceUnitSeconds * static_cast<double>(units) / seconds;
  }
};

/// Run reference units on the calling thread for about `seconds`, at least one.
[[nodiscard]] ReferenceTime run_reference(double seconds);

/// Run reference units for about `seconds` on `threads` threads at once, each
/// pinned to its own CPU of the caller's affinity set: the host speed a pool
/// of that many workers sees. The units and seconds of all threads add up.
[[nodiscard]] ReferenceTime run_reference_parallel(double seconds, unsigned threads);

}  // namespace perfbench
