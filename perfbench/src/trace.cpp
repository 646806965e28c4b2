#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::uint64_t t_open_span = 0;
thread_local const Tracer* t_lane_owner = nullptr;
thread_local int t_lane = 0;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t request)
    : t_(&t) {
  if (!t.enabled_) return;
  {
    std::lock_guard<std::mutex> lk(t.m_);
    rec_.id = t.next_id_++;
    if (t_lane_owner != &t) {
      t_lane_owner = &t;
      t_lane = t.next_lane_++;
    }
  }
  rec_.name = name;
  rec_.request = request;
  rec_.parent = t_open_span;
  rec_.lane = t_lane;
  saved_parent_ = t_open_span;
  t_open_span = rec_.id;
  rec_.start_ns = t.now_ns();
}

Tracer::Scope::~Scope() {
  if (!t_->enabled_) return;
  rec_.end_ns = t_->now_ns();
  t_open_span = saved_parent_;
  std::lock_guard<std::mutex> lk(t_->m_);
  t_->spans_.push_back(std::move(rec_));
}

std::size_t Tracer::mark() const {
  std::lock_guard<std::mutex> lk(m_);
  return spans_.size();
}

std::vector<SpanRec> Tracer::spans_since(std::size_t mark) const {
  std::lock_guard<std::mutex> lk(m_);
  if (mark >= spans_.size()) return {};
  return {spans_.begin() + static_cast<std::ptrdiff_t>(mark), spans_.end()};
}

std::string Tracer::chrome_json(const std::string& metadata) const {
  std::vector<SpanRec> recs = spans_since(0);
  std::stable_sort(recs.begin(), recs.end(),
                   [](const SpanRec& a, const SpanRec& b) {
                     return a.start_ns < b.start_ns;
                   });
  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": " +
                    metadata + ", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const SpanRec& r = recs[i];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"cat\": \"perfbench\", \"name\": \"",
                  r.lane, static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.dur_ns()) / 1e3);
    out += buf;
    out += json_escape(r.name);
    std::snprintf(buf, sizeof buf,
                  "\", \"args\": {\"id\": %llu, \"parent\": %llu, "
                  "\"request\": %llu}}%s\n",
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<unsigned long long>(r.request),
                  i + 1 < recs.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  return out;
}

SelfTimes self_times(const std::vector<SpanRec>& spans) {
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  std::unordered_map<std::uint64_t, const SpanRec*> by_id;
  for (const SpanRec& s : spans) by_id.emplace(s.id, &s);
  for (const SpanRec& s : spans) {
    if (s.parent != 0 && by_id.count(s.parent) != 0) {
      child_ns[s.parent] += s.dur_ns();
    }
  }
  SelfTimes st;
  for (const SpanRec& s : spans) {
    const auto it = child_ns.find(s.id);
    const std::uint64_t covered = it == child_ns.end() ? 0 : it->second;
    if (covered > s.dur_ns()) ++st.violations;
    const std::uint64_t self = covered > s.dur_ns() ? 0 : s.dur_ns() - covered;
    st.self_ms[s.name] += static_cast<double>(self) / 1e6;
    st.total_ms[s.name] += static_cast<double>(s.dur_ns()) / 1e6;
    ++st.calls[s.name];
  }
  return st;
}

}  // namespace perfbench
