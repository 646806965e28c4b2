// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened by the benchmark around its own calls into the library
// (never inside it). Each records name, start, end, the span open on the
// same thread when it began (its parent), and a request id shared by every
// span of one operation. Records stay in memory and are written once, as
// Chrome trace-event JSON, when the run ends. A disabled Tracer records
// nothing.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRec {
  std::string name;
  std::uint64_t id = 0;      ///< 1-based; 0 is "no span"
  std::uint64_t parent = 0;  ///< id of the enclosing span, 0 at the root
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;  ///< since the Tracer was created
  std::uint64_t end_ns = 0;
  int lane = 0;  ///< small per-thread index, for the trace viewer

  std::uint64_t dur_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span. Its parent is the span open on the calling thread when it
  /// begins; spans close in reverse order of opening per thread, which
  /// scoping guarantees.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    SpanRec rec_;
    std::uint64_t saved_parent_ = 0;
  };

  /// Number of spans closed so far; spans_since(mark()) later returns the
  /// spans closed in between.
  std::size_t mark() const;
  std::vector<SpanRec> spans_since(std::size_t mark) const;

  /// Chrome trace-event JSON ("X" events, one tid per lane), the format
  /// `mcrtl --trace-out` writes. `metadata` is a JSON object placed under
  /// "otherData".
  std::string chrome_json(const std::string& metadata) const;

 private:
  std::uint64_t now_ns() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex m_;
  std::vector<SpanRec> spans_;  // guarded by m_
  std::uint64_t next_id_ = 1;   // guarded by m_
  int next_lane_ = 0;           // guarded by m_
};

/// Self time per span: its duration minus the part of it that its direct
/// children cover (children of one span run on its thread, one after
/// another, so their covered time is the sum of their durations clipped to
/// the parent). `violations` counts spans whose children sum to more than
/// the span itself, which a correct recorder never produces.
struct SelfTimes {
  std::map<std::string, double> self_ms;   ///< summed per span name
  std::map<std::string, double> total_ms;  ///< inclusive, summed per name
  std::map<std::string, std::size_t> calls;
  std::size_t violations = 0;
};
SelfTimes self_times(const std::vector<SpanRec>& spans);

}  // namespace perfbench
