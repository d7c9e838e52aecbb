#include "sim/barrier.hpp"

namespace copift::sim {

bool HwBarrier::try_pass(unsigned h) {
  if (released_[h]) {
    released_[h] = false;  // consume the pending release from the last round
    return true;
  }
  if (!arrived_[h]) {
    arrived_[h] = true;
    ++count_;
  }
  if (count_ < num_harts_) return false;
  // Full set: start a new round; this hart passes now, the rest on their
  // next poll.
  count_ = 0;
  ++rounds_;
  for (unsigned i = 0; i < num_harts_; ++i) {
    arrived_[i] = false;
    released_[i] = (i != h);
  }
  return true;
}

}  // namespace copift::sim
