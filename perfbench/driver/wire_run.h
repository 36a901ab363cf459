#pragma once

// The measured part of a run: a TuningServer in a child process, driven
// over loopback TCP by a closed loop of tenants (each sends its next
// request only after the previous reply), with evaluation on the client
// side as the Ask/Tell protocol intends.

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/trial.h"
#include "src/net/message.h"
#include "driver/workloads.h"

namespace perfbench {

struct TrialRecord {
  llamatune::Trial trial;
  llamatune::TrialResult result;
  /// Client-observed round trips of this trial's Ask and Tell.
  double ask_ms = 0.0;
  double tell_ms = 0.0;
  /// Traced pass only: the records the server appended to the session's
  /// WAL for this Ask and this Tell, read back from its WAL file.
  std::vector<std::string> ask_wal, tell_wal;
  /// False when a record could not be read back, e.g. an autosave
  /// sweep truncated the WAL before the Tell's record was read.
  bool wal_observed = false;
};

/// Everything one wire session produced, for the replay oracle.
struct SessionRecord {
  int tenant = 0;
  int index = 0;
  uint64_t seed = 0;
  std::vector<TrialRecord> trials;
  std::string checkpoint;
  llamatune::net::WireCloseResult closed;
  /// Ran its whole iteration budget (sessions still open when the
  /// window ends are checkpointed and closed early).
  bool complete = false;
};

struct WireResult {
  /// One entry per set-up: server start to every tenant's first Ask
  /// answered.
  std::vector<double> setup_s;
  double window_s = 0.0;
  /// Ask -> evaluate -> Tell iterations completed in the window.
  int64_t window_iterations = 0;
  /// Gated tenants' round trips completed in the window.
  std::vector<double> ask_ms, tell_ms;
  /// Lifecycles (create to close) completed in the window.
  std::vector<double> session_s;
  /// Every client-side evaluation of the run.
  std::vector<double> eval_ms;
  int64_t crashed = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  long peak_rss_kb = 0;
  /// CPU time of the measured server process over its whole life, and
  /// the Ask -> Tell iterations it served (set-up and quality-session
  /// tails included).
  double server_cpu_s = 0.0;
  int64_t served_iterations = 0;
  llamatune::net::WireServerStats server_stats;
  std::vector<SessionRecord> sessions;
  std::vector<std::string> errors;
};

/// Client threads for `tenants` tenants: one each, at most one per core;
/// a thread with several tenants steps them in turn.
int ClientThreads(int tenants);

/// Runs `setups` set-ups (all but the last are torn down again), then
/// the closed loop for `seconds` on the last server. Sessions whose
/// index is below the workload's quality_sessions always complete, even
/// past the window. `server_exe` is the server binary; its files live
/// under `workdir`. With `capture_wal`, every Ask and Tell reads back
/// the records the server appended to the session's WAL.
WireResult RunWire(const WorkloadDef& def, uint64_t seed, double seconds,
                   int setups, const std::string& server_exe,
                   const std::string& workdir, bool capture_wal);

}  // namespace perfbench
