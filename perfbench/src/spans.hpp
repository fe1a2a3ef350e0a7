// The benchmark's own trace: spans it records around each public call it
// makes into the memstress layers (name, start, end, parent, and the id of
// the request the span belongs to). Spans stay in memory while the
// workload runs and are written out once at the end, so recording costs a
// clock read and a vector append.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t parent = -1;      ///< index of the parent span, -1 = root
    std::int64_t request_id = -1;  ///< shared by every span of one request
    Clock::time_point start;
    Clock::time_point end;
  };

  /// A disabled recorder ignores every call (the untraced runs).
  explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index (-1 when disabled).
  std::int64_t begin(std::string name, std::int64_t parent = -1,
                     std::int64_t request_id = -1);
  void end(std::int64_t index);

  /// Records a span whose times are already known.
  void add(std::string name, std::int64_t parent, std::int64_t request_id,
           Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per line: {"id","name","parent","request",
  /// "start_us","end_us"}, times relative to the first span.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII form of begin()/end().
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::int64_t parent = -1,
             std::int64_t request_id = -1)
      : recorder_(recorder),
        index_(recorder.begin(std::move(name), parent, request_id)) {}
  ~ScopedSpan() { recorder_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return index_; }

 private:
  SpanRecorder& recorder_;
  std::int64_t index_;
};

}  // namespace perfbench
