#include "mem/tcdm.hpp"

#include <bit>

#include "common/error.hpp"

namespace copift::mem {

std::uint64_t TcdmArbiter::arbitrate(std::span<const TcdmRequest> requests) {
  if (requests.size() > 64) throw SimError("too many TCDM requests in one cycle");

  // Fast path: when every request targets a distinct bank, the priority
  // order cannot matter and the walk below would grant all of them.
  if (num_banks_ <= 64) {
    std::uint64_t banks = 0;
    for (const TcdmRequest& r : requests) banks |= std::uint64_t{1} << bank_of(r.addr);
    const auto n = static_cast<unsigned>(requests.size());
    if (static_cast<unsigned>(std::popcount(banks)) == n) {
      grants_ += n;
      rr_ = (rr_ + 1) % num_requesters_;
      return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    }
  }

  std::uint64_t granted = 0;
  // Lazily size the persistent scratch; after warm-up no cycle allocates
  // (this loop runs every simulated cycle of every run in a sweep).
  if (bank_taken_.size() < num_banks_) bank_taken_.assign(num_banks_, 0);
  if (head_.size() < num_requesters_) head_.assign(num_requesters_, -1);
  if (next_.size() < requests.size()) next_.resize(requests.size());

  // Bucket the requests by requester id, preserving original order within a
  // bucket (build the chains back-to-front).
  const auto id_of = [&](const TcdmRequest& r) {
    return (r.hart * kNumTcdmPorts + static_cast<unsigned>(r.port)) % num_requesters_;
  };
  for (int i = static_cast<int>(requests.size()) - 1; i >= 0; --i) {
    const unsigned id = id_of(requests[static_cast<unsigned>(i)]);
    next_[static_cast<unsigned>(i)] = head_[id];
    head_[id] = i;
  }

  // Visit requesters in rotating priority order: the requester whose id
  // matches the current priority head rr_ goes first. Equivalent to sorting
  // the requests by (id - rr_) mod R with a stable tie-break, without the
  // per-cycle sort.
  for (unsigned k = 0; k < num_requesters_; ++k) {
    unsigned id = rr_ + k;
    if (id >= num_requesters_) id -= num_requesters_;
    for (int i = head_[id]; i >= 0; i = next_[static_cast<unsigned>(i)]) {
      const unsigned bank = bank_of(requests[static_cast<unsigned>(i)].addr);
      if (bank_taken_[bank]) {
        ++conflicts_;
        continue;
      }
      bank_taken_[bank] = 1;
      granted |= (std::uint64_t{1} << static_cast<unsigned>(i));
      ++grants_;
    }
    head_[id] = -1;  // reset for the next cycle as we go
  }
  // Clear only the banks this cycle touched.
  for (const TcdmRequest& r : requests) bank_taken_[bank_of(r.addr)] = 0;

  rr_ = (rr_ + 1) % num_requesters_;
  return granted;
}

}  // namespace copift::mem
