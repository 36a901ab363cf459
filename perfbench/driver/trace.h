#pragma once

// In-memory span recorder for the benchmark driver.
//
// Spans are recorded only around calls the driver makes into the tuning
// stack's public functions; the stack itself is not instrumented. Each
// span has a name "<layer>.<what>", start and end on the steady clock,
// the span that was open on the same thread when it began (its parent),
// and a request id shared by every span of one Ask or Tell. Recording
// is off until Enable(true); a Timer still measures its own duration
// when recording is off, so the driver's samples do not depend on it.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
  int thread = 0;
};

/// Per-layer totals from a span set: the layer is the name up to its
/// first '.', self time is a span's duration minus the part of it that
/// its children cover.
struct LayerTime {
  double total_ms = 0.0;
  double self_ms = 0.0;
  int64_t spans = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on);

  /// Drops every recorded span.
  void Clear();

  std::vector<Span> Snapshot() const;

  /// Writes the recorded spans as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

  /// Self and total time per layer over the recorded spans.
  std::map<std::string, LayerTime> LayerTimes() const;

 private:
  friend class Timer;
  Tracer() = default;
  int64_t NextId();
  void Record(const Span& span);
};

/// Request id for one Ask or Tell: the same triple always gives the same
/// id, so the wire round trip and its in-process replay share it.
uint64_t RequestId(int tenant, int session, int64_t trial, bool tell);

/// \brief Scoped timer around one call into a layer. Appends its
/// duration in milliseconds to `sink` (when given) and records a span
/// when tracing is on. `request` 0 inherits the parent's request id.
class Timer {
 public:
  Timer(const char* name, std::vector<double>* sink, uint64_t request = 0);
  ~Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Stops the timer early and returns the elapsed milliseconds.
  double Stop();

 private:
  Span span_;
  std::vector<double>* sink_;
  Clock::time_point start_;
  int64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
  bool tracing_ = false;
  bool stopped_ = false;
  double elapsed_ms_ = 0.0;
};

}  // namespace perfbench
