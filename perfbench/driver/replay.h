#pragma once

// The replay oracle: every wire session is replayed in-process, through
// a TuningSession built from the same registry keys and seed and told
// the same results. Each Trial handed out, the committed trajectory
// (the checkpoint text), the best value and the best configuration must
// match the wire run bit for bit. The replay's adapter and optimizer are
// wrapped in timing decorators, which is where the per-layer core and
// optimizer figures come from. The traced run adds a second replay
// through TuningService, appending the WAL records the server wrote for
// each request to a TrialWal, for the service figures; it runs one
// session at a time, over each gated tenant's first 100 or so trials. It
// also times the message and frame codecs on the run's own messages.

#include <cstdint>
#include <string>
#include <vector>

#include "driver/wire_run.h"
#include "driver/workloads.h"

namespace perfbench {

/// Per-session figures the quality metrics need.
struct SessionQuality {
  int tenant = 0;
  int index = 0;
  bool complete = false;
  double best = 0.0;
  double default_performance = 0.0;
  /// Committed internal objective of each iteration after the baseline.
  std::vector<double> objectives;
};

struct ReplayResult {
  int sessions = 0;
  int mismatches = 0;
  /// The first few mismatch descriptions.
  std::vector<std::string> messages;
  std::vector<SessionQuality> quality;

  /// Layer samples below come from gated tenants only; the vanilla
  /// baseline's Suggest times are kept here.
  std::vector<double> vanilla_suggest_ms;

  /// TuningSession pass (milliseconds).
  std::vector<double> session_ask_ms, session_tell_ms;
  std::vector<double> suggest_ms, observe_ms, project_ms;
  int64_t iterations = 0;

  /// TuningService pass (traced run only).
  std::vector<double> service_ask_ms, service_tell_ms;
  std::vector<double> wal_append_ms, checkpoint_ms, checkpoint_bytes;
  /// The server's WAL records and bytes (newlines included) over the
  /// iterations whose records were all read back.
  int64_t wal_records = 0;
  int64_t wal_bytes = 0;
  int64_t wal_iterations = 0;
  /// Per trial, aligned: the wire round trip and the in-process service
  /// call plus its WAL append.
  std::vector<double> ask_wire_ms, ask_layer_ms, tell_wire_ms, tell_layer_ms;

  /// Codecs over the run's messages (traced run only).
  double msg_codec_us = 0.0;
  double frame_codec_us = 0.0;
  double create_request_bytes = 0.0;
  double ask_reply_bytes = 0.0;
  double tell_request_bytes = 0.0;
};

/// Replays `sessions`. With `traced`, also runs the TuningService pass
/// (its WAL files under `workdir`) and the codec timing.
ReplayResult Replay(const WorkloadDef& def,
                    const std::vector<SessionRecord>& sessions, bool traced,
                    const std::string& workdir);

}  // namespace perfbench
