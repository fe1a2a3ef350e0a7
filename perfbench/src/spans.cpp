#include "spans.hpp"

#include <fstream>

#include "util/error.hpp"

namespace perfbench {

std::int64_t SpanRecorder::begin(std::string name, std::int64_t parent,
                                 std::int64_t request_id) {
  if (!enabled_) return -1;
  const Clock::time_point now = Clock::now();
  spans_.push_back(Span{std::move(name), parent, request_id, now, now});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::end(std::int64_t index) {
  if (!enabled_ || index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
}

void SpanRecorder::add(std::string name, std::int64_t parent,
                       std::int64_t request_id, Clock::time_point start,
                       Clock::time_point end) {
  if (!enabled_) return;
  spans_.push_back(Span{std::move(name), parent, request_id, start, end});
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw memstress::Error("perfbench: cannot write spans to " + path);
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"request\":" << s.request_id
        << ",\"start_us\":" << us(s.start) << ",\"end_us\":" << us(s.end)
        << "}\n";
  }
}

}  // namespace perfbench
