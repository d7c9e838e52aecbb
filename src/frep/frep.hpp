// FREP hardware-loop sequencer.
//
// `frep.o rs1, n` marks the next `n` FP instructions as a loop body to be
// executed rs1+1 times. The first iteration flows through the offload FIFO
// as usual and is recorded into the sequencer's buffer; the remaining
// iterations are replayed from the buffer while the integer core keeps
// fetching its own stream — this is Snitch's pseudo dual-issue mechanism.
// `frep.i` repeats each instruction rs1+1 times back-to-back instead.
#pragma once

#include <cstdint>
#include <vector>

namespace copift::sim {
struct MicroOp;
}

namespace copift::frep {

/// One buffered FP instruction: its decoded micro-op and the integer operand
/// captured when it was offloaded (fcvt.d.w's source, say). `epoch` is the
/// COPIFT synchronization epoch the instruction belongs to (see
/// sim/fpss.hpp); replayed copies inherit the operand and epoch of the
/// recorded original.
struct FrepEntry {
  const sim::MicroOp* op = nullptr;
  std::uint32_t operand = 0;
  std::uint64_t epoch = 0;
};

class FrepSequencer {
 public:
  explicit FrepSequencer(unsigned capacity = 16) : capacity_(capacity) {}

  enum class Mode { kOuter, kInner };

  /// Arm the sequencer: record the next `body_size` instructions and replay
  /// the body `extra_reps` more times (outer) / each instruction
  /// `extra_reps` more times (inner). Throws if a loop is already active or
  /// the body exceeds the buffer capacity.
  void configure(unsigned body_size, std::uint64_t extra_reps, Mode mode);

  /// True while instructions popped from the offload FIFO must be recorded.
  [[nodiscard]] bool recording() const noexcept { return state_ == State::kRecording; }

  /// Record one instruction (the FPSS calls this as it issues the first
  /// iteration). May transition to replaying (outer) or trigger inner
  /// repetitions.
  void record(const FrepEntry& entry);

  /// True when the sequencer (not the FIFO) supplies the next instruction.
  [[nodiscard]] bool replaying() const noexcept { return state_ == State::kReplaying; }

  /// Current replay instruction; only valid while replaying().
  [[nodiscard]] const FrepEntry& current() const;

  /// Advance past the current replay instruction (called after issue).
  void advance();

  [[nodiscard]] bool idle() const noexcept { return state_ == State::kIdle; }

  /// Number of replay issues still owed (for barrier bookkeeping/tests).
  [[nodiscard]] std::uint64_t pending_replays() const noexcept { return pending_replays_; }

  [[nodiscard]] unsigned capacity() const noexcept { return capacity_; }

 private:
  enum class State { kIdle, kRecording, kReplaying };

  unsigned capacity_;
  State state_ = State::kIdle;
  Mode mode_ = Mode::kOuter;
  std::vector<FrepEntry> buffer_;
  unsigned body_size_ = 0;
  std::uint64_t extra_reps_ = 0;
  // Replay cursor.
  unsigned pos_ = 0;
  std::uint64_t reps_left_ = 0;       // outer: body repetitions remaining
  std::uint64_t inner_reps_left_ = 0; // inner: repeats of current instruction
  std::uint64_t pending_replays_ = 0;
};

}  // namespace copift::frep
