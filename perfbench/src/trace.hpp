// In-memory span recorder for perfbench's traced runs.
//
// Spans are recorded from the benchmark's own thread around each call into
// a layer's public functions, kept in memory, and written out at the end as
// Chrome trace-event JSON (the format `copift_sim --trace-json` emits), so a
// traced run loads in Perfetto next to the simulator's own traces. A span's
// layer is its name up to the first '.', e.g. "sim.run" -> "sim"; its self
// time is its duration minus the time its child spans cover.
//
// When the recorder is disabled a Span costs one branch; the untraced run
// the end-to-end metrics come from records nothing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

class Trace {
 public:
  struct SpanRecord {
    const char* name = nullptr;  // static string
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
  };
  /// A request's lifetime, possibly overlapping other requests; exported as
  /// an async slice and kept out of the self-time accounting.
  struct AsyncRecord {
    const char* name = nullptr;
    std::uint64_t id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  Trace() : origin_(Clock::now()) {}

  /// Switch recording on or off; only between root spans.
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] std::int64_t ns(Clock::time_point t) const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  std::int32_t open(const char* name);
  void close(std::int32_t index);
  void add_async(const char* name, std::uint64_t id, Clock::time_point start,
                 Clock::time_point end);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Self time per layer and total root-span time over spans [first, size()).
  struct LayerTimes {
    std::map<std::string, double> self_ns;
    double root_ns = 0.0;
  };
  [[nodiscard]] LayerTimes layer_times(std::size_t first = 0) const;
  /// Summed duration per span name over spans [first, size()).
  [[nodiscard]] std::map<std::string, double> totals_ns(std::size_t first = 0) const;

  /// Chrome trace-event JSON; `other` lands under "otherData". At most
  /// `max_events` spans are written (the statistics above cover all).
  void write_chrome(std::ostream& os, const copift::serve::Json& other,
                    std::size_t max_events = 200000) const;

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<AsyncRecord> async_;
};

/// RAII span on `trace`; records nothing while the trace is disabled.
class Span {
 public:
  Span(Trace& trace, const char* name)
      : trace_(trace), index_(trace.enabled() ? trace.open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) trace_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace& trace_;
  std::int32_t index_;
};

/// "sim.run" -> "sim".
[[nodiscard]] std::string layer_of(std::string_view span_name);

}  // namespace perfbench
