#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> intervals,
                     int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

SpanRecorder::Track& SpanRecorder::TrackForThisThread() {
  auto [it, inserted] = tracks_.try_emplace(std::this_thread::get_id());
  if (inserted) it->second.index = static_cast<int>(tracks_.size()) - 1;
  return it->second;
}

int64_t SpanRecorder::Begin(const std::string& name) {
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  Track& track = TrackForThisThread();
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{name, track.index, now, now,
                        track.open.empty() ? -1 : track.open.back()});
  track.open.push_back(id);
  return id;
}

void SpanRecorder::End(int64_t id) {
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  Track& track = TrackForThisThread();
  if (!track.open.empty() && track.open.back() == id) track.open.pop_back();
  spans_[static_cast<size_t>(id)].end = now;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

SpanTotals Summarize(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                              span.end);
    }
  }
  SpanTotals totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const int64_t duration = span.end - span.start;
    const int64_t covered =
        CoveredNanos(std::move(children[i]), span.start, span.end);
    totals.duration_s[span.name] += static_cast<double>(duration) * 1e-9;
    totals.self_s[span.name] += static_cast<double>(duration - covered) * 1e-9;
  }
  return totals;
}

double ResidueShare(const std::vector<Span>& spans, int64_t window_start,
                    int64_t window_end, int tracks, int64_t idle_ns) {
  if (window_end - window_start <= idle_ns || tracks <= 0) return 0.0;
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> roots;
  for (const Span& span : spans) {
    if (span.parent < 0) roots[span.track].emplace_back(span.start, span.end);
  }
  int64_t covered = 0;
  for (auto& [track, intervals] : roots) {
    covered += CoveredNanos(std::move(intervals), window_start, window_end);
  }
  const double capacity =
      static_cast<double>(window_end - window_start - idle_ns) * tracks;
  return 1.0 - static_cast<double>(covered) / capacity;
}

bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"schema\": \"kgacc-perfbench-spans-v1\", \"spans\": [\n", out);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"track\": %d, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld}%s\n",
                 s.name.c_str(), s.track, static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<long long>(s.parent),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
