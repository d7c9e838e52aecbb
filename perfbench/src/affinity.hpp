// CPU rotation for single-threaded measurements.
#pragma once

#include <sched.h>
#include <vector>

namespace perfbench {

/// Pins the calling thread to each CPU of its affinity set in turn, one per
/// round or set-up repetition, so a single-threaded measurement samples every
/// vCPU equally rather than the one the scheduler happened to leave it on:
/// on a shared host their speeds differ by tens of percent, and that
/// difference was the largest part of the run-to-run spread. Restores the
/// original set on destruction.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t round) const {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[round % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);  // best effort: a failure only skips the rotation
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

}  // namespace perfbench
