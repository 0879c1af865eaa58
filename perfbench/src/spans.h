#pragma once

// In-memory span recorder for the benchmark's traced run. Spans are recorded
// from the benchmark's own files, around calls into the program's public
// functions, and written out once the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the recorder's epoch.
int64_t NowNanos();

struct Span {
  std::string name;
  int track = 0;        ///< thread that recorded the span.
  int64_t start = 0;    ///< ns.
  int64_t end = 0;      ///< ns; >= start once closed.
  int64_t parent = -1;  ///< index into the span list, -1 for a root span.
};

/// Thread-safe span store. Each thread gets its own track; spans opened on a
/// track nest under the span that is open on that track.
class SpanRecorder {
 public:
  /// Opens a span on the calling thread's track; returns its id.
  int64_t Begin(const std::string& name);
  /// Closes span `id` (must be the innermost open span of its track).
  void End(int64_t id);

  std::vector<Span> Spans() const;

 private:
  struct Track {
    int index = 0;
    std::vector<int64_t> open;
  };
  Track& TrackForThisThread();

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, Track> tracks_;
};

/// Opens a span for its lifetime; a null recorder records nothing, so the
/// untraced run pays one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() { Finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Finish() {
    if (recorder_ != nullptr && id_ >= 0) recorder_->End(id_);
    id_ = -1;
  }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

/// Per-name totals over a span list, in seconds.
struct SpanTotals {
  std::map<std::string, double> duration_s;  ///< sum of durations.
  std::map<std::string, double> self_s;      ///< durations minus children.
};

/// A span's self time is its duration minus the part of it that its child
/// spans cover (children may overlap one another; their union counts once).
SpanTotals Summarize(const std::vector<Span>& spans);

/// The share of `tracks` x [window_start, window_end] that no root span
/// covers: 1 - (covered track-time) / (tracks * (window - idle_ns)).
/// `idle_ns` is time within the window in which every track was idle by
/// design (the benchmark's reference kernel), so it is not residue.
double ResidueShare(const std::vector<Span>& spans, int64_t window_start,
                    int64_t window_end, int tracks, int64_t idle_ns = 0);

/// Writes the spans as one JSON document (name, track, start/end ns, parent).
bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
