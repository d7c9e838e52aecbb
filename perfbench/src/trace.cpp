#include "trace.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"

namespace perfbench {

using copift::serve::Json;

std::string layer_of(std::string_view span_name) {
  return std::string(span_name.substr(0, span_name.find('.')));
}

void Trace::set_enabled(bool on) {
  if (!stack_.empty()) throw copift::Error("Trace::set_enabled inside an open span");
  enabled_ = on;
}

std::int32_t Trace::open(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.start_ns = ns(Clock::now());
  spans_.push_back(rec);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Trace::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = ns(Clock::now());
  if (stack_.empty() || stack_.back() != index) throw copift::Error("Trace: spans closed out of order");
  stack_.pop_back();
}

void Trace::add_async(const char* name, std::uint64_t id, Clock::time_point start,
                      Clock::time_point end) {
  if (enabled_) async_.push_back(AsyncRecord{name, id, ns(start), ns(end)});
}

Trace::LayerTimes Trace::layer_times(std::size_t first) const {
  std::vector<double> self(spans_.size() - std::min(first, spans_.size()));
  for (std::size_t i = first; i < spans_.size(); ++i) {
    self[i - first] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    const auto parent = spans_[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) >= first) {
      self[static_cast<std::size_t>(parent) - first] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  LayerTimes out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    out.self_ns[layer_of(spans_[i].name)] += self[i - first];
    if (spans_[i].parent < 0) {
      out.root_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  return out;
}

std::map<std::string, double> Trace::totals_ns(std::size_t first) const {
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  return out;
}

void Trace::write_chrome(std::ostream& os, const Json& other, std::size_t max_events) const {
  const auto us = [](std::int64_t ns) { return Json::number(static_cast<double>(ns) / 1000.0); };
  Json::Array events;
  events.push_back(Json::object({{"name", Json::string("thread_name")},
                                 {"ph", Json::string("M")},
                                 {"pid", Json::number(std::uint64_t{1})},
                                 {"tid", Json::number(std::uint64_t{1})},
                                 {"args", Json::object({{"name", Json::string("perfbench")}})}}));
  for (std::size_t i = 0; i < spans_.size() && i < max_events; ++i) {
    const auto& s = spans_[i];
    events.push_back(Json::object({{"name", Json::string(s.name)},
                                   {"cat", Json::string(layer_of(s.name))},
                                   {"ph", Json::string("X")},
                                   {"ts", us(s.start_ns)},
                                   {"dur", us(s.end_ns - s.start_ns)},
                                   {"pid", Json::number(std::uint64_t{1})},
                                   {"tid", Json::number(std::uint64_t{1})}}));
  }
  for (std::size_t i = 0; i < async_.size() && i < max_events; ++i) {
    const auto& a = async_[i];
    for (const auto& [ph, ts] : {std::pair{"b", a.start_ns}, std::pair{"e", a.end_ns}}) {
      events.push_back(Json::object({{"name", Json::string(a.name)},
                                     {"cat", Json::string(layer_of(a.name))},
                                     {"ph", Json::string(ph)},
                                     {"id", Json::number(a.id)},
                                     {"ts", us(ts)},
                                     {"pid", Json::number(std::uint64_t{1})},
                                     {"tid", Json::number(std::uint64_t{1})}}));
    }
  }
  os << Json::object({{"displayTimeUnit", Json::string("ns")},
                      {"traceEvents", Json::array(std::move(events))},
                      {"otherData", other}})
            .dump()
     << '\n';
}

}  // namespace perfbench
