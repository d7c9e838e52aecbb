#include "frep/frep.hpp"

#include "common/error.hpp"
#include "sim/decode.hpp"

namespace copift::frep {

void FrepSequencer::configure(unsigned body_size, std::uint64_t extra_reps, Mode mode) {
  if (state_ != State::kIdle) throw SimError("nested FREP configuration");
  if (body_size == 0) throw SimError("FREP body must contain at least one instruction");
  if (body_size > capacity_) {
    throw SimError("FREP body of " + std::to_string(body_size) +
                   " instructions exceeds buffer capacity " + std::to_string(capacity_));
  }
  buffer_.clear();
  body_size_ = body_size;
  extra_reps_ = extra_reps;
  mode_ = mode;
  state_ = State::kRecording;
  pending_replays_ = static_cast<std::uint64_t>(body_size) * extra_reps;
  if (pending_replays_ == 0) {
    // Degenerate single-iteration loop: nothing to replay.
    state_ = State::kIdle;
    body_size_ = 0;
  }
}

void FrepSequencer::record(const FrepEntry& entry) {
  if (state_ != State::kRecording) throw SimError("FREP record while not recording");
  const isa::InstrInfo& meta = isa::info(entry.op->mnemonic);
  if (!meta.offloaded()) {
    throw SimError("non-FP instruction inside FREP body: " + std::string(meta.name));
  }
  if (meta.unit == isa::ExecUnit::kFpLoad || meta.unit == isa::ExecUnit::kFpStore) {
    throw SimError("FP load/store inside FREP body (map it to an SSR instead)");
  }
  buffer_.push_back(entry);
  if (mode_ == Mode::kInner) {
    // Repeat this instruction immediately extra_reps_ more times.
    pos_ = static_cast<unsigned>(buffer_.size()) - 1;
    inner_reps_left_ = extra_reps_;
    if (inner_reps_left_ > 0) {
      state_ = State::kReplaying;
      return;
    }
  }
  if (buffer_.size() == body_size_) {
    if (mode_ == Mode::kOuter) {
      pos_ = 0;
      reps_left_ = extra_reps_;
      state_ = reps_left_ > 0 ? State::kReplaying : State::kIdle;
    } else {
      state_ = State::kIdle;
    }
    if (state_ == State::kIdle) body_size_ = 0;
  }
}

const FrepEntry& FrepSequencer::current() const {
  if (state_ != State::kReplaying) throw SimError("FREP current() while not replaying");
  return buffer_[pos_];
}

void FrepSequencer::advance() {
  if (state_ != State::kReplaying) throw SimError("FREP advance() while not replaying");
  --pending_replays_;
  if (mode_ == Mode::kInner) {
    if (--inner_reps_left_ == 0) {
      // Back to recording until the body is fully recorded, or idle.
      state_ = buffer_.size() < body_size_ ? State::kRecording : State::kIdle;
      if (state_ == State::kIdle) body_size_ = 0;
    }
    return;
  }
  ++pos_;
  if (pos_ == buffer_.size()) {
    pos_ = 0;
    if (--reps_left_ == 0) {
      state_ = State::kIdle;
      body_size_ = 0;
    }
  }
}

}  // namespace copift::frep
