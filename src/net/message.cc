#include "src/net/message.h"

#include <utility>

#include "src/common/serde.h"

namespace llamatune {
namespace net {

WireError WireErrorFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireError::kInternal;  // callers must not encode OK as error
    case StatusCode::kInvalidArgument:
      return WireError::kInvalidArgument;
    case StatusCode::kOutOfRange:
      return WireError::kOutOfRange;
    case StatusCode::kNotFound:
      return WireError::kNotFound;
    case StatusCode::kAlreadyExists:
      return WireError::kAlreadyExists;
    case StatusCode::kFailedPrecondition:
      return WireError::kFailedPrecondition;
    case StatusCode::kInternal:
      return WireError::kInternal;
    case StatusCode::kNotImplemented:
      return WireError::kNotImplemented;
    case StatusCode::kSessionNotFound:
      return WireError::kSessionNotFound;
    case StatusCode::kSessionAlreadyExists:
      return WireError::kSessionAlreadyExists;
    case StatusCode::kUnavailable:
      return WireError::kBusy;
    case StatusCode::kResourceExhausted:
      return WireError::kQuotaExceeded;
    case StatusCode::kTrialExpired:
      return WireError::kTrialExpired;
  }
  return WireError::kInternal;
}

Status StatusFromWireError(WireError code, std::string message) {
  switch (code) {
    case WireError::kMalformed:
      return Status::InvalidArgument(std::move(message));
    case WireError::kUnknownKind:
      return Status::NotImplemented(std::move(message));
    case WireError::kBadFrame:
      return Status::InvalidArgument(std::move(message));
    case WireError::kBusy:
      return Status::Unavailable(std::move(message));
    case WireError::kQuotaExceeded:
      return Status::ResourceExhausted(std::move(message));
    case WireError::kSessionNotFound:
      return Status::SessionNotFound(std::move(message));
    case WireError::kSessionAlreadyExists:
      return Status::SessionAlreadyExists(std::move(message));
    case WireError::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case WireError::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case WireError::kNotFound:
      return Status::NotFound(std::move(message));
    case WireError::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case WireError::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case WireError::kInternal:
      return Status::Internal(std::move(message));
    case WireError::kNotImplemented:
      return Status::NotImplemented(std::move(message));
    case WireError::kShuttingDown:
      return Status::Unavailable(std::move(message));
    case WireError::kTrialExpired:
      return Status::TrialExpired(std::move(message));
    case WireError::kOverloaded:
      return Status::Unavailable(std::move(message));
  }
  return Status::Internal("unknown wire error code: " + std::move(message));
}

namespace {

constexpr char kWire[] = "wire";

void EncodeKnob(TokenWriter* out, const KnobSpec& knob) {
  out->Word("knob").Word("name").Str(knob.name);
  out->Word("type").Int(static_cast<int>(knob.type));
  out->Word("min").Bits(knob.min_value).Word("max").Bits(knob.max_value);
  out->Word("log").Bool(knob.log_scale);
  out->Word("default").Bits(knob.default_value);
  out->Word("cats").Count(knob.categories.size());
  for (const std::string& category : knob.categories) out->Str(category);
  out->Word("specials").Doubles(knob.special_values);
  out->Word("unit").Str(knob.unit);
}

KnobSpec DecodeKnob(TokenReader* in) {
  KnobSpec knob;
  knob.name = in->Expect("knob").Expect("name").Str();
  knob.type = static_cast<KnobType>(in->Expect("type").IntIn(
      0, static_cast<int64_t>(KnobType::kCategorical)));
  knob.min_value = in->Expect("min").Bits();
  knob.max_value = in->Expect("max").Bits();
  knob.log_scale = in->Expect("log").Bool();
  knob.default_value = in->Expect("default").Bits();
  for (int64_t i = 0, n = in->Expect("cats").Count(&knob.categories);
       i < n && in->ok(); ++i) {
    knob.categories.push_back(in->Str());
  }
  knob.special_values = in->Expect("specials").Doubles();
  knob.unit = in->Expect("unit").Str();
  return knob;
}

void EncodeSpecInto(TokenWriter* out, const WireSessionSpec& spec) {
  out->Word("spec").Int(3).Word("workload").Str(spec.workload);
  out->Word("knobs").Count(spec.space_knobs.size());
  for (const KnobSpec& knob : spec.space_knobs) EncodeKnob(out, knob);
  out->Word("maximize").Bool(spec.maximize);
  out->Word("optimizer").Str(spec.optimizer_key);
  out->Word("adapter").Str(spec.adapter_key);
  out->Word("seed").U64(spec.seed);
  out->Word("iterations").Int(spec.num_iterations);
  out->Word("batch").Int(spec.batch_size);
  out->Word("threads").Int(spec.num_threads);
  out->Word("deadline").Int(spec.pending_deadline_ms);
  out->Word("racing").Bool(spec.racing);
  if (spec.racing) {
    out->Word("cohort").Int(spec.racing_cohort);
    out->Word("rungs").Int(spec.racing_rungs);
    out->Word("minfid").Bits(spec.racing_min_fidelity);
    out->Word("eta").Bits(spec.racing_eta);
    out->Word("ciz").Bits(spec.racing_ci_z);
  }
}

WireSessionSpec DecodeSpecFrom(TokenReader* in) {
  // v2 appended the pending-deadline field, v3 the racing block; v1/v2
  // payloads (older peers, pre-upgrade autosave files) still decode,
  // with the deadline at 0 and racing off.
  const std::string_view version = in->Expect("spec").Word("spec version");
  if (in->ok() && version != "1" && version != "2" && version != "3") {
    in->Fail("expected 'spec 1|2|3' section");
  }
  WireSessionSpec spec;
  spec.workload = in->Expect("workload").Str();
  for (int64_t i = 0, n = in->Expect("knobs").Count(&spec.space_knobs);
       i < n && in->ok(); ++i) {
    spec.space_knobs.push_back(DecodeKnob(in));
  }
  if (in->ok() && spec.workload.empty() == spec.space_knobs.empty()) {
    in->Fail(
        "spec must carry exactly one source (workload name or knob space)");
  }
  spec.maximize = in->Expect("maximize").Bool();
  spec.optimizer_key = in->Expect("optimizer").Str();
  spec.adapter_key = in->Expect("adapter").Str();
  spec.seed = in->Expect("seed").U64();
  spec.num_iterations = in->Expect("iterations").Int32();
  spec.batch_size = in->Expect("batch").Int32();
  spec.num_threads = in->Expect("threads").Int32();
  if (version != "1") spec.pending_deadline_ms = in->Expect("deadline").Int();
  if (version == "3") spec.racing = in->Expect("racing").Bool();
  if (spec.racing) {
    spec.racing_cohort = in->Expect("cohort").Int32();
    spec.racing_rungs = in->Expect("rungs").Int32();
    spec.racing_min_fidelity = in->Expect("minfid").Bits();
    spec.racing_eta = in->Expect("eta").Bits();
    spec.racing_ci_z = in->Expect("ciz").Bits();
  }
  return spec;
}

void EncodeStatusInto(TokenWriter* out, const WireSessionStatus& s) {
  out->Word("status").Word("name").Str(s.status.name);
  out->Word("optimizer").Str(s.status.optimizer_key);
  out->Word("adapter").Str(s.status.adapter_key);
  out->Word("external").Bool(s.status.external);
  out->Word("iters").Int(s.status.iterations_run);
  out->Word("total").Int(s.status.num_iterations);
  out->Word("pending").Int(s.status.pending_trials);
  out->Word("finished").Bool(s.status.finished);
  out->Word("defperf").Bits(s.status.default_performance);
  out->Word("bestperf").Bits(s.status.best_performance);
  out->Word("created").Int(s.status.created_unix_ms);
  out->Word("active").Int(s.status.last_activity_unix_ms);
  out->Word("driving").Bool(s.driving);
}

WireSessionStatus DecodeStatusFrom(TokenReader* in) {
  WireSessionStatus out;
  out.status.name = in->Expect("status").Expect("name").Str();
  out.status.optimizer_key = in->Expect("optimizer").Str();
  out.status.adapter_key = in->Expect("adapter").Str();
  out.status.external = in->Expect("external").Bool();
  out.status.iterations_run = in->Expect("iters").Int32();
  out.status.num_iterations = in->Expect("total").Int32();
  out.status.pending_trials = in->Expect("pending").Int32();
  out.status.finished = in->Expect("finished").Bool();
  out.status.default_performance = in->Expect("defperf").Bits();
  out.status.best_performance = in->Expect("bestperf").Bits();
  out.status.created_unix_ms = in->Expect("created").Int();
  out.status.last_activity_unix_ms = in->Expect("active").Int();
  out.driving = in->Expect("driving").Bool();
  return out;
}

/// Nested trials and results travel as a count, then one x-hex token
/// of their own serialized line each.
template <typename T>
void EncodeNested(TokenWriter* out, const std::vector<T>& items,
                  std::string (*serialize)(const T&)) {
  out->Word("n").Count(items.size());
  for (const T& item : items) out->Str(serialize(item));
}

template <typename T>
std::vector<T> DecodeNested(TokenReader* in,
                            Result<T> (*parse)(const std::string&)) {
  std::vector<T> items;
  for (int64_t i = 0, n = in->Expect("n").Count(&items); i < n && in->ok();
       ++i) {
    Result<T> item = parse(in->Str());
    if (in->ok() && !item.ok()) in->Fail(item.status().message());
    if (item.ok()) items.push_back(std::move(item).ValueOrDie());
  }
  return items;
}

ServerLifecycle DecodeLifecycle(TokenReader* in) {
  return static_cast<ServerLifecycle>(in->Expect("lifecycle").IntIn(
      0, static_cast<int64_t>(ServerLifecycle::kStopped)));
}

}  // namespace

std::string EncodeHello(const std::string& tenant) {
  return TokenWriter().Word("hello").Word("tenant").Str(tenant).Take();
}

Result<std::string> DecodeHello(const std::string& payload) {
  TokenReader in(payload, kWire);
  std::string tenant = in.Expect("hello").Expect("tenant").Str();
  return in.Finish(std::move(tenant));
}

std::string EncodeSessionSpec(const WireSessionSpec& spec) {
  TokenWriter out;
  EncodeSpecInto(&out.Word("specdoc"), spec);
  return out.Take();
}

Result<WireSessionSpec> DecodeSessionSpec(const std::string& payload) {
  TokenReader in(payload, kWire);
  WireSessionSpec spec = DecodeSpecFrom(&in.Expect("specdoc"));
  return in.Finish(std::move(spec));
}

std::string EncodeCreateSession(const std::string& name,
                                const WireSessionSpec& spec) {
  TokenWriter out;
  EncodeSpecInto(&out.Word("create").Word("name").Str(name), spec);
  return out.Take();
}

Status DecodeCreateSession(const std::string& payload, std::string* name,
                           WireSessionSpec* spec) {
  TokenReader in(payload, kWire);
  std::string got_name = in.Expect("create").Expect("name").Str();
  WireSessionSpec got_spec = DecodeSpecFrom(&in);
  LT_RETURN_NOT_OK(in.status());
  *name = std::move(got_name);
  *spec = std::move(got_spec);
  return Status::OK();
}

std::string EncodeResume(const std::string& name, const WireSessionSpec& spec,
                         const std::string& checkpoint) {
  TokenWriter out;
  out.Word("resume").Word("name").Str(name);
  EncodeSpecInto(&out.Word("checkpoint").Str(checkpoint), spec);
  return out.Take();
}

Status DecodeResume(const std::string& payload, std::string* name,
                    WireSessionSpec* spec, std::string* checkpoint) {
  TokenReader in(payload, kWire);
  std::string got_name = in.Expect("resume").Expect("name").Str();
  std::string got_checkpoint = in.Expect("checkpoint").Str();
  WireSessionSpec got_spec = DecodeSpecFrom(&in);
  LT_RETURN_NOT_OK(in.status());
  *name = std::move(got_name);
  *checkpoint = std::move(got_checkpoint);
  *spec = std::move(got_spec);
  return Status::OK();
}

std::string EncodeNameOnly(const std::string& name) {
  return TokenWriter().Word("session").Word("name").Str(name).Take();
}

Result<std::string> DecodeNameOnly(const std::string& payload) {
  TokenReader in(payload, kWire);
  std::string name = in.Expect("session").Expect("name").Str();
  return in.Finish(std::move(name));
}

std::string EncodeAskBatch(const std::string& name, int n) {
  return TokenWriter()
      .Word("askbatch").Word("name").Str(name).Word("n").Int(n).Take();
}

Status DecodeAskBatch(const std::string& payload, std::string* name, int* n) {
  TokenReader in(payload, kWire);
  std::string got_name = in.Expect("askbatch").Expect("name").Str();
  int got_n = in.Expect("n").Int32();
  LT_RETURN_NOT_OK(in.status());
  *name = std::move(got_name);
  *n = got_n;
  return Status::OK();
}

std::string EncodeTell(const std::string& name, const TrialResult& result) {
  return TokenWriter()
      .Word("tell").Word("name").Str(name)
      .Word("result").Str(SerializeTrialResult(result))
      .Take();
}

Status DecodeTell(const std::string& payload, std::string* name,
                  TrialResult* result) {
  TokenReader in(payload, kWire);
  std::string got_name = in.Expect("tell").Expect("name").Str();
  std::string line = in.Expect("result").Str();
  LT_RETURN_NOT_OK(in.status());
  Result<TrialResult> got_result = ParseTrialResult(line);
  LT_RETURN_NOT_OK(got_result.status());
  *name = std::move(got_name);
  *result = std::move(got_result).ValueOrDie();
  return Status::OK();
}

std::string EncodeTellBatch(const std::string& name,
                            const std::vector<TrialResult>& results) {
  TokenWriter out;
  EncodeNested(&out.Word("tellbatch").Word("name").Str(name), results,
               SerializeTrialResult);
  return out.Take();
}

Status DecodeTellBatch(const std::string& payload, std::string* name,
                       std::vector<TrialResult>* results) {
  TokenReader in(payload, kWire);
  std::string got_name = in.Expect("tellbatch").Expect("name").Str();
  std::vector<TrialResult> got = DecodeNested(&in, ParseTrialResult);
  LT_RETURN_NOT_OK(in.status());
  *name = std::move(got_name);
  *results = std::move(got);
  return Status::OK();
}

std::string EncodeError(WireError code, const std::string& message,
                        int64_t retry_after_ms) {
  TokenWriter out;
  out.Word("error").Word("code").Int(static_cast<int>(code));
  out.Word("message").Str(message);
  // Optional trailing hint: pre-hint decoders stop after 'message' and
  // never see it (the append-only payload evolution rule).
  if (retry_after_ms > 0) out.Word("retryms").Int(retry_after_ms);
  return out.Take();
}

Status DecodeError(const std::string& payload, WireError* code,
                   std::string* message, int64_t* retry_after_ms) {
  TokenReader in(payload, kWire);
  int64_t got_code = in.Expect("error").Expect("code").Int();
  std::string got_message = in.Expect("message").Str();
  LT_RETURN_NOT_OK(in.status());
  if (retry_after_ms != nullptr) {
    // A malformed or absent hint is no hint: read it on a copy so its
    // failure cannot fail the reply.
    TokenReader hint = in;
    int64_t ms = hint.Expect("retryms").Int();
    *retry_after_ms = hint.ok() && ms > 0 ? ms : 0;
  }
  *code = static_cast<WireError>(got_code);
  *message = std::move(got_message);
  return Status::OK();
}

std::string EncodeTrialReply(const Trial& trial) {
  return TokenWriter()
      .Word("trialreply").Word("trial").Str(SerializeTrial(trial))
      .Take();
}

Result<Trial> DecodeTrialReply(const std::string& payload) {
  TokenReader in(payload, kWire);
  std::string line = in.Expect("trialreply").Expect("trial").Str();
  LT_RETURN_NOT_OK(in.status());
  return ParseTrial(line);
}

std::string EncodeTrialsReply(const std::vector<Trial>& trials) {
  TokenWriter out;
  EncodeNested(&out.Word("trialsreply"), trials, SerializeTrial);
  return out.Take();
}

Result<std::vector<Trial>> DecodeTrialsReply(const std::string& payload) {
  TokenReader in(payload, kWire);
  std::vector<Trial> trials =
      DecodeNested(&in.Expect("trialsreply"), ParseTrial);
  return in.Finish(std::move(trials));
}

std::string EncodeSteppedReply(bool progressed) {
  return TokenWriter().Word("stepped").Word("progressed").Bool(progressed)
      .Take();
}

Result<bool> DecodeSteppedReply(const std::string& payload) {
  TokenReader in(payload, kWire);
  bool progressed = in.Expect("stepped").Expect("progressed").Bool();
  return in.Finish(progressed);
}

std::string EncodeStatusReply(const WireSessionStatus& status) {
  TokenWriter out;
  EncodeStatusInto(&out.Word("statusreply"), status);
  return out.Take();
}

Result<WireSessionStatus> DecodeStatusReply(const std::string& payload) {
  TokenReader in(payload, kWire);
  WireSessionStatus status = DecodeStatusFrom(&in.Expect("statusreply"));
  return in.Finish(std::move(status));
}

std::string EncodeStatusListReply(const std::vector<WireSessionStatus>& list) {
  TokenWriter out;
  out.Word("statuslist").Word("n").Count(list.size());
  for (const WireSessionStatus& status : list) EncodeStatusInto(&out, status);
  return out.Take();
}

Result<std::vector<WireSessionStatus>> DecodeStatusListReply(
    const std::string& payload) {
  TokenReader in(payload, kWire);
  std::vector<WireSessionStatus> list;
  for (int64_t i = 0, n = in.Expect("statuslist").Expect("n").Count(&list);
       i < n && in.ok(); ++i) {
    list.push_back(DecodeStatusFrom(&in));
  }
  return in.Finish(std::move(list));
}

std::string EncodeCheckpointReply(const std::string& checkpoint) {
  return TokenWriter()
      .Word("checkpointreply").Word("checkpoint").Str(checkpoint)
      .Take();
}

Result<std::string> DecodeCheckpointReply(const std::string& payload) {
  TokenReader in(payload, kWire);
  std::string checkpoint =
      in.Expect("checkpointreply").Expect("checkpoint").Str();
  return in.Finish(std::move(checkpoint));
}

std::string EncodeClosedReply(const WireCloseResult& result) {
  return TokenWriter()
      .Word("closed").Word("iterations").Int(result.iterations_run)
      .Word("best").Bits(result.best_performance)
      .Word("default").Bits(result.default_performance)
      .Take();
}

Result<WireCloseResult> DecodeClosedReply(const std::string& payload) {
  TokenReader in(payload, kWire);
  WireCloseResult result;
  result.iterations_run = in.Expect("closed").Expect("iterations").Int32();
  result.best_performance = in.Expect("best").Bits();
  result.default_performance = in.Expect("default").Bits();
  return in.Finish(result);
}

std::string EncodePendingReply(int64_t next_trial_id,
                               const std::vector<Trial>& trials) {
  TokenWriter out;
  out.Word("pendingreply").Word("next").Int(next_trial_id);
  EncodeNested(&out, trials, SerializeTrial);
  return out.Take();
}

Status DecodePendingReply(const std::string& payload, int64_t* next_trial_id,
                          std::vector<Trial>* trials) {
  TokenReader in(payload, kWire);
  int64_t next = in.Expect("pendingreply").Expect("next").Int();
  std::vector<Trial> got = DecodeNested(&in, ParseTrial);
  LT_RETURN_NOT_OK(in.status());
  *next_trial_id = next;
  *trials = std::move(got);
  return Status::OK();
}

std::string EncodeHealthReply(const WireServerHealth& health) {
  return TokenWriter()
      .Word("health").Word("lifecycle").Int(static_cast<int>(health.lifecycle))
      .Word("pending").Int(health.pending_requests)
      .Word("sessions").Int(health.sessions)
      .Take();
}

Result<WireServerHealth> DecodeHealthReply(const std::string& payload) {
  TokenReader in(payload, kWire);
  WireServerHealth health;
  health.lifecycle = DecodeLifecycle(&in.Expect("health"));
  health.pending_requests = in.Expect("pending").Int();
  health.sessions = in.Expect("sessions").Int();
  return in.Finish(health);
}

std::string EncodeStatsReply(const WireServerStats& stats) {
  TokenWriter out;
  out.Word("stats").Word("lifecycle").Int(static_cast<int>(stats.lifecycle));
  out.Word("pending").Int(stats.pending_requests);
  out.Word("pendingexp").Int(stats.pending_expensive);
  out.Word("sessions").Int(stats.sessions);
  out.Word("busy").Int(stats.busy_rejections);
  out.Word("shedover").Int(stats.shed_overload);
  out.Word("shedddl").Int(stats.shed_deadline);
  out.Word("evicted").Int(stats.sessions_evicted);
  out.Word("autosaves").Int(stats.autosaves_written);
  out.Word("restored").Int(stats.sessions_restored);
  out.Word("tenants").Count(stats.tenant_sessions.size());
  for (const auto& [tenant, count] : stats.tenant_sessions) {
    out.Str(tenant).Int(count);
  }
  return out.Take();
}

Result<WireServerStats> DecodeStatsReply(const std::string& payload) {
  TokenReader in(payload, kWire);
  WireServerStats stats;
  stats.lifecycle = DecodeLifecycle(&in.Expect("stats"));
  stats.pending_requests = in.Expect("pending").Int();
  stats.pending_expensive = in.Expect("pendingexp").Int();
  stats.sessions = in.Expect("sessions").Int();
  stats.busy_rejections = in.Expect("busy").Int();
  stats.shed_overload = in.Expect("shedover").Int();
  stats.shed_deadline = in.Expect("shedddl").Int();
  stats.sessions_evicted = in.Expect("evicted").Int();
  stats.autosaves_written = in.Expect("autosaves").Int();
  stats.sessions_restored = in.Expect("restored").Int();
  for (int64_t i = 0, n = in.Expect("tenants").Count(&stats.tenant_sessions);
       i < n && in.ok(); ++i) {
    std::string tenant = in.Str();
    stats.tenant_sessions.emplace_back(std::move(tenant), in.Int());
  }
  return in.Finish(std::move(stats));
}

void AppendDeadlineRider(std::string* payload, int64_t deadline_ms) {
  if (deadline_ms <= 0) return;
  *payload += " ddl " + std::to_string(deadline_ms);
}

int64_t DeadlineRiderMs(const std::string& payload) {
  // The rider is the last two whitespace-delimited tokens: 'ddl' N.
  // Scanning from the tail keeps this O(rider) on large payloads.
  size_t end = payload.find_last_not_of(" \t\n");
  if (end == std::string::npos) return 0;
  size_t value_start = payload.find_last_of(" \t\n", end);
  if (value_start == std::string::npos) return 0;
  size_t tag_end = payload.find_last_not_of(" \t\n", value_start);
  if (tag_end == std::string::npos) return 0;
  size_t tag_start = payload.find_last_of(" \t\n", tag_end);
  size_t tag_from = tag_start == std::string::npos ? 0 : tag_start + 1;
  if (payload.compare(tag_from, tag_end - tag_from + 1, "ddl") != 0) return 0;
  Result<int64_t> value =
      ParseInt64(payload.substr(value_start + 1, end - value_start));
  if (!value.ok() || *value <= 0) return 0;
  return *value;
}

}  // namespace net
}  // namespace llamatune
