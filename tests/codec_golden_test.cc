// Golden-bytes corpus for every text codec that carries a trajectory:
// wire payloads, trial lines, optimizer history, WAL records and
// session checkpoints. Each item is pinned to committed bytes, then
// decoded and re-encoded to the same bytes. The formats are protocol:
// a codec rewrite must leave every literal below untouched.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/serde.h"
#include "src/core/adapter_registry.h"
#include "src/core/trial.h"
#include "src/core/tuning_session.h"
#include "src/knobs/config_space.h"
#include "src/net/message.h"
#include "src/net/tuning_client.h"
#include "src/net/tuning_server.h"
#include "src/optimizer/history_io.h"
#include "src/optimizer/random_search.h"
#include "src/service/trial_wal.h"

namespace llamatune {
namespace net {
namespace {

/// Committed golden bytes, keyed by corpus item name.
const std::map<std::string, std::string>& Golden() {
  static const auto* golden = new std::map<std::string, std::string>{
      {"hello", "hello tenant x7465616d2061"},
      {"hello-empty", "hello tenant x"},
      {"specdoc-space",
       "specdoc spec 3 workload x knobs 4 knob name x63616368655f6d62 type 0 "
       "min 0000000000000000 max 4059000000000000 log 0 default "
       "4049000000000000 cats 0 specials 0 unit x4d42 knob name "
       "x696f20636f7374 type 1 min 3fe0000000000000 max 4050000000000000 log "
       "1 default 4010000000000000 cats 0 specials 0 unit x knob name "
       "x77616c5f6c6576656c type 2 min 0000000000000000 max 3ff0000000000000 "
       "log 0 default 3ff0000000000000 cats 3 x6d696e696d616c x7265706c696361 "
       "x specials 0 unit x knob name x64656c6179 type 0 min 0000000000000000 "
       "max 4059000000000000 log 0 default 0000000000000000 cats 0 specials 2 "
       "0000000000000000 bff0000000000000 unit x maximize 0 optimizer "
       "x6770626f adapter x686573626f38 seed 18446744073709551615 iterations "
       "30 batch 2 threads 3 deadline 1500 racing 1 cohort 4 rungs 3 minfid "
       "3fd0000000000000 eta 4000000000000000 ciz 3fe0000000000000"},
      {"specdoc-workload",
       "specdoc spec 3 workload x5450432d43 knobs 0 maximize 1 optimizer "
       "x736d6163 adapter x6c6c616d6174756e65 seed 7 iterations 12 batch 1 "
       "threads 0 deadline 0 racing 0"},
      {"create",
       "create name x6a6f622d31 spec 3 workload x5450432d43 knobs 0 maximize "
       "1 optimizer x736d6163 adapter x6c6c616d6174756e65 seed 7 iterations "
       "12 batch 1 threads 0 deadline 0 racing 0"},
      {"resume",
       "resume name x6a6f622032 checkpoint "
       "x6c6c616d6174756e652d636865636b706f696e742076330a737475620a spec 3 "
       "workload x knobs 4 knob name x63616368655f6d62 type 0 min "
       "0000000000000000 max 4059000000000000 log 0 default 4049000000000000 "
       "cats 0 specials 0 unit x4d42 knob name x696f20636f7374 type 1 min "
       "3fe0000000000000 max 4050000000000000 log 1 default 4010000000000000 "
       "cats 0 specials 0 unit x knob name x77616c5f6c6576656c type 2 min "
       "0000000000000000 max 3ff0000000000000 log 0 default 3ff0000000000000 "
       "cats 3 x6d696e696d616c x7265706c696361 x specials 0 unit x knob name "
       "x64656c6179 type 0 min 0000000000000000 max 4059000000000000 log 0 "
       "default 0000000000000000 cats 0 specials 2 0000000000000000 "
       "bff0000000000000 unit x maximize 0 optimizer x6770626f adapter "
       "x686573626f38 seed 18446744073709551615 iterations 30 batch 2 threads "
       "3 deadline 1500 racing 1 cohort 4 rungs 3 minfid 3fd0000000000000 eta "
       "4000000000000000 ciz 3fe0000000000000"},
      {"session", "session name x6a6f622d31"},
      {"askbatch", "askbatch name x6a6f622d31 n 4"},
      {"tell",
       "tell name x6a6f622d31 result "
       "x726573756c74203620322062666638303030303030303030303030206d6574726963"
       "732032203366633030303030303030303030303020343030383030303030303030303"
       "03030206669642033666430303030303030303030303030"},
      {"tellbatch",
       "tellbatch name x6a6f622d31 n 2 "
       "x726573756c74203520302034303933346130303030303030303030206d657472696373"
       "2030 "
       "x726573756c74203620322062666638303030303030303030303030206d6574726963"
       "732032203366633030303030303030303030303020343030383030303030303030303"
       "03030206669642033666430303030303030303030303030"},
      {"error", "error code 6 message x6e6f20737563682073657373696f6e"},
      {"error-retryms", "error code 17 message x73686564 retryms 125"},
      {"trialreply",
       "trialreply trial "
       "x747269616c2035203020706f696e7420322033666430303030303030303030303030"
       "203366653830303030303030303030303020636f6e666967203220343034393030303"
       "030303030303030302033666530303030303030303030303030"},
      {"trialsreply",
       "trialsreply n 2 "
       "x747269616c2035203020706f696e742032203366643030303030303030303030303020"
       "3366653830303030303030303030303020636f6e6669672032203430343930303030303"
       "03030303030302033666530303030303030303030303030 "
       "x747269616c2036203020706f696e7420312033666530303030303030303030303030"
       "20636f6e6669672031203430323830303030303030303030303020666964203366653"
       "0303030303030303030303030"},
      {"stepped", "stepped progressed 1"},
      {"statusreply",
       "statusreply status name x6a6f622d31 optimizer x736d6163 adapter "
       "x6c6c616d6174756e65 external 1 iters 3 total 10 pending 1 finished 0 "
       "defperf 408f400000000000 bestperf 40938a0000000000 created "
       "1700000000000 active 1700000000500 driving 1"},
      {"statuslist",
       "statuslist n 2 status name x6a6f622d31 optimizer x736d6163 adapter "
       "x6c6c616d6174756e65 external 1 iters 3 total 10 pending 1 finished 0 "
       "defperf 408f400000000000 bestperf 40938a0000000000 created "
       "1700000000000 active 1700000000500 driving 1 status name x776c "
       "optimizer x72616e646f6d adapter x6964656e74697479 external 0 iters 12 "
       "total 12 pending 0 finished 1 defperf 4000000000000000 bestperf "
       "4010000000000000 created 0 active 0 driving 0"},
      {"checkpointreply",
       "checkpointreply checkpoint "
       "x6c6c616d6174756e652d636865636b706f696e742076330a737475620a"},
      {"closed",
       "closed iterations 7 best 40934a0000000000 default 408f420000000000"},
      {"pendingreply",
       "pendingreply next 9 n 1 "
       "x747269616c2036203020706f696e7420312033666530303030303030303030303030"
       "20636f6e6669672031203430323830303030303030303030303020666964203366653"
       "0303030303030303030303030"},
      {"health", "health lifecycle 1 pending 3 sessions 2"},
      {"stats",
       "stats lifecycle 1 pending 1 pendingexp 2 sessions 3 busy 4 shedover 5 "
       "shedddl 6 evicted 7 autosaves 8 restored 9 tenants 2 x 1 "
       "x7465616d2d61 2"},
      {"ddl-rider", "session name x6a6f622d31 ddl 250"},
      {"trial",
       "trial 5 0 point 2 3fd0000000000000 3fe8000000000000 config 2 "
       "4049000000000000 3fe0000000000000"},
      {"trial-fid",
       "trial 6 0 point 1 3fe0000000000000 config 1 4028000000000000 fid "
       "3fe0000000000000"},
      {"trial-baseline",
       "trial 1 1 point 0 config 2 4049000000000000 3fe0000000000000"},
      {"result", "result 5 0 40934a0000000000 metrics 0"},
      {"result-fid",
       "result 6 2 bff8000000000000 metrics 2 3fc0000000000000 "
       "4008000000000000 fid 3fd0000000000000"},
      {"history",
       "obs 2 3fd0000000000000 3fe8000000000000 40934a0000000000\nobs 0 "
       "8000000000000000\n"},
  };
  return *golden;
}

/// One corpus entry: the bytes an encoder produces, and a decode →
/// re-encode round trip applied to the committed bytes.
struct GoldenItem {
  const char* name;
  std::string actual;
  std::function<std::string(const std::string&)> reencode;
};

std::string Failed(const Status& status) {
  return "<decode failed: " + status.ToString() + ">";
}

void CheckCorpus(const std::vector<GoldenItem>& corpus) {
  for (const GoldenItem& item : corpus) {
    const std::string& expected = Golden().at(item.name);
    EXPECT_EQ(item.actual, expected)
        << item.name << " actual bytes:\n@@" << item.actual << "@@";
    EXPECT_EQ(item.reencode(expected), expected)
        << item.name << ": decode → re-encode changed the bytes";
  }
}

// ---------------------------------------------------------------------------
// Fixtures: small values whose bit patterns read easily in hex.
// ---------------------------------------------------------------------------

WireSessionSpec SpaceSpec() {
  WireSessionSpec spec;
  KnobSpec cache = IntegerKnob("cache_mb", 0, 100, 50);
  cache.unit = "MB";
  spec.space_knobs = {
      cache,
      WithLogScale(RealKnob("io cost", 0.5, 64.0, 4.0)),
      CategoricalKnob("wal_level", {"minimal", "replica", ""}, 1),
      WithSpecialValues(IntegerKnob("delay", 0, 100, 0), {0.0, -1.0}),
  };
  spec.maximize = false;
  spec.optimizer_key = "gpbo";
  spec.adapter_key = "hesbo8";
  spec.seed = 18446744073709551615ULL;
  spec.num_iterations = 30;
  spec.batch_size = 2;
  spec.num_threads = 3;
  spec.pending_deadline_ms = 1500;
  spec.racing = true;
  spec.racing_cohort = 4;
  spec.racing_rungs = 3;
  spec.racing_min_fidelity = 0.25;
  spec.racing_eta = 2.0;
  spec.racing_ci_z = 0.5;
  return spec;
}

WireSessionSpec WorkloadSpec() {
  WireSessionSpec spec;
  spec.workload = "TPC-C";
  spec.optimizer_key = "smac";
  spec.adapter_key = "llamatune";
  spec.seed = 7;
  spec.num_iterations = 12;
  return spec;
}

Trial PlainTrial() {
  Trial trial;
  trial.id = 5;
  trial.point = {0.25, 0.75};
  trial.config = Configuration({50.0, 0.5});
  return trial;
}

Trial FidelityTrial() {
  Trial trial;
  trial.id = 6;
  trial.point = {0.5};
  trial.config = Configuration({12.0});
  trial.fidelity = 0.5;
  return trial;
}

Trial BaselineTrial() {
  Trial trial;
  trial.id = 1;
  trial.is_baseline = true;
  trial.config = Configuration({50.0, 0.5});
  return trial;
}

TrialResult PlainResult() {
  TrialResult result;
  result.trial_id = 5;
  result.value = 1234.5;
  return result;
}

TrialResult FidelityResult() {
  TrialResult result;
  result.trial_id = 6;
  result.value = -1.5;
  result.outcome = TrialOutcome::kTimedOut;
  result.metrics = {0.125, 3.0};
  result.fidelity = 0.25;
  return result;
}

WireSessionStatus ExternalStatus() {
  WireSessionStatus s;
  s.status.name = "job-1";
  s.status.optimizer_key = "smac";
  s.status.adapter_key = "llamatune";
  s.status.external = true;
  s.status.iterations_run = 3;
  s.status.num_iterations = 10;
  s.status.pending_trials = 1;
  s.status.default_performance = 1000.0;
  s.status.best_performance = 1250.5;
  s.status.created_unix_ms = 1700000000000;
  s.status.last_activity_unix_ms = 1700000000500;
  s.driving = true;
  return s;
}

WireSessionStatus FinishedStatus() {
  WireSessionStatus s;
  s.status.name = "wl";
  s.status.optimizer_key = "random";
  s.status.adapter_key = "identity";
  s.status.iterations_run = 12;
  s.status.num_iterations = 12;
  s.status.finished = true;
  s.status.default_performance = 2.0;
  s.status.best_performance = 4.0;
  return s;
}

WireServerStats Stats() {
  WireServerStats stats;
  stats.lifecycle = ServerLifecycle::kDraining;
  stats.pending_requests = 1;
  stats.pending_expensive = 2;
  stats.sessions = 3;
  stats.busy_rejections = 4;
  stats.shed_overload = 5;
  stats.shed_deadline = 6;
  stats.sessions_evicted = 7;
  stats.autosaves_written = 8;
  stats.sessions_restored = 9;
  stats.tenant_sessions = {{"", 1}, {"team-a", 2}};
  return stats;
}

// ---------------------------------------------------------------------------
// Wire payloads
// ---------------------------------------------------------------------------

TEST(CodecGoldenTest, WirePayloads) {
  const std::string checkpoint_text = "llamatune-checkpoint v3\nstub\n";
  std::string rider = EncodeNameOnly("job-1");
  AppendDeadlineRider(&rider, 250);

  auto hello = [](const std::string& b) {
    Result<std::string> t = DecodeHello(b);
    return t.ok() ? EncodeHello(*t) : Failed(t.status());
  };
  auto spec = [](const std::string& b) {
    Result<WireSessionSpec> s = DecodeSessionSpec(b);
    return s.ok() ? EncodeSessionSpec(*s) : Failed(s.status());
  };
  auto error = [](const std::string& b) {
    WireError code = WireError::kInternal;
    std::string message;
    int64_t retry = -1;
    Status s = DecodeError(b, &code, &message, &retry);
    return s.ok() ? EncodeError(code, message, retry) : Failed(s);
  };

  CheckCorpus({
      {"hello", EncodeHello("team a"), hello},
      {"hello-empty", EncodeHello(""), hello},
      {"specdoc-space", EncodeSessionSpec(SpaceSpec()), spec},
      {"specdoc-workload", EncodeSessionSpec(WorkloadSpec()), spec},
      {"create", EncodeCreateSession("job-1", WorkloadSpec()),
       [](const std::string& b) {
         std::string name;
         WireSessionSpec s;
         Status st = DecodeCreateSession(b, &name, &s);
         return st.ok() ? EncodeCreateSession(name, s) : Failed(st);
       }},
      {"resume", EncodeResume("job 2", SpaceSpec(), checkpoint_text),
       [](const std::string& b) {
         std::string name, checkpoint;
         WireSessionSpec s;
         Status st = DecodeResume(b, &name, &s, &checkpoint);
         return st.ok() ? EncodeResume(name, s, checkpoint) : Failed(st);
       }},
      {"session", EncodeNameOnly("job-1"),
       [](const std::string& b) {
         Result<std::string> n = DecodeNameOnly(b);
         return n.ok() ? EncodeNameOnly(*n) : Failed(n.status());
       }},
      {"askbatch", EncodeAskBatch("job-1", 4),
       [](const std::string& b) {
         std::string name;
         int n = 0;
         Status st = DecodeAskBatch(b, &name, &n);
         return st.ok() ? EncodeAskBatch(name, n) : Failed(st);
       }},
      {"tell", EncodeTell("job-1", FidelityResult()),
       [](const std::string& b) {
         std::string name;
         TrialResult r;
         Status st = DecodeTell(b, &name, &r);
         return st.ok() ? EncodeTell(name, r) : Failed(st);
       }},
      {"tellbatch", EncodeTellBatch("job-1", {PlainResult(), FidelityResult()}),
       [](const std::string& b) {
         std::string name;
         std::vector<TrialResult> r;
         Status st = DecodeTellBatch(b, &name, &r);
         return st.ok() ? EncodeTellBatch(name, r) : Failed(st);
       }},
      {"error", EncodeError(WireError::kSessionNotFound, "no such session"),
       error},
      {"error-retryms", EncodeError(WireError::kOverloaded, "shed", 125),
       error},
      {"trialreply", EncodeTrialReply(PlainTrial()),
       [](const std::string& b) {
         Result<Trial> t = DecodeTrialReply(b);
         return t.ok() ? EncodeTrialReply(*t) : Failed(t.status());
       }},
      {"trialsreply", EncodeTrialsReply({PlainTrial(), FidelityTrial()}),
       [](const std::string& b) {
         Result<std::vector<Trial>> t = DecodeTrialsReply(b);
         return t.ok() ? EncodeTrialsReply(*t) : Failed(t.status());
       }},
      {"stepped", EncodeSteppedReply(true),
       [](const std::string& b) {
         Result<bool> p = DecodeSteppedReply(b);
         return p.ok() ? EncodeSteppedReply(*p) : Failed(p.status());
       }},
      {"statusreply", EncodeStatusReply(ExternalStatus()),
       [](const std::string& b) {
         Result<WireSessionStatus> s = DecodeStatusReply(b);
         return s.ok() ? EncodeStatusReply(*s) : Failed(s.status());
       }},
      {"statuslist",
       EncodeStatusListReply({ExternalStatus(), FinishedStatus()}),
       [](const std::string& b) {
         Result<std::vector<WireSessionStatus>> s = DecodeStatusListReply(b);
         return s.ok() ? EncodeStatusListReply(*s) : Failed(s.status());
       }},
      {"checkpointreply", EncodeCheckpointReply(checkpoint_text),
       [](const std::string& b) {
         Result<std::string> c = DecodeCheckpointReply(b);
         return c.ok() ? EncodeCheckpointReply(*c) : Failed(c.status());
       }},
      {"closed", EncodeClosedReply({7, 1234.5, 1000.25}),
       [](const std::string& b) {
         Result<WireCloseResult> c = DecodeClosedReply(b);
         return c.ok() ? EncodeClosedReply(*c) : Failed(c.status());
       }},
      {"pendingreply", EncodePendingReply(9, {FidelityTrial()}),
       [](const std::string& b) {
         int64_t next = 0;
         std::vector<Trial> trials;
         Status st = DecodePendingReply(b, &next, &trials);
         return st.ok() ? EncodePendingReply(next, trials) : Failed(st);
       }},
      {"health", EncodeHealthReply({ServerLifecycle::kDraining, 3, 2}),
       [](const std::string& b) {
         Result<WireServerHealth> h = DecodeHealthReply(b);
         return h.ok() ? EncodeHealthReply(*h) : Failed(h.status());
       }},
      {"stats", EncodeStatsReply(Stats()),
       [](const std::string& b) {
         Result<WireServerStats> s = DecodeStatsReply(b);
         return s.ok() ? EncodeStatsReply(*s) : Failed(s.status());
       }},
      {"ddl-rider", rider,
       [](const std::string& b) {
         Result<std::string> n = DecodeNameOnly(b);
         if (!n.ok()) return Failed(n.status());
         std::string out = EncodeNameOnly(*n);
         AppendDeadlineRider(&out, DeadlineRiderMs(b));
         return out;
       }},
  });
}

TEST(CodecGoldenTest, LegacySpecPayloadsDecodeToTheCurrentEncoding) {
  // v1 predates the pending deadline, v2 the racing block; both decode
  // and re-encode as the v3 form of the same spec.
  const std::string v1 =
      "specdoc spec 1 workload x5450432d43 knobs 0 maximize 1 optimizer "
      "x736d6163 adapter x6c6c616d6174756e65 seed 7 iterations 12 batch 1 "
      "threads 0";
  const std::string v2 =
      "specdoc spec 2 workload x5450432d43 knobs 0 maximize 1 optimizer "
      "x736d6163 adapter x6c6c616d6174756e65 seed 7 iterations 12 batch 1 "
      "threads 0 deadline 0";
  for (const std::string& legacy : {v1, v2}) {
    Result<WireSessionSpec> spec = DecodeSessionSpec(legacy);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_EQ(EncodeSessionSpec(*spec), Golden().at("specdoc-workload"));
  }
}

// ---------------------------------------------------------------------------
// Trial lines and optimizer history
// ---------------------------------------------------------------------------

TEST(CodecGoldenTest, TrialsResultsAndHistory) {
  auto trial = [](const std::string& b) {
    Result<Trial> t = ParseTrial(b);
    return t.ok() ? SerializeTrial(*t) : Failed(t.status());
  };
  auto result = [](const std::string& b) {
    Result<TrialResult> r = ParseTrialResult(b);
    return r.ok() ? SerializeTrialResult(*r) : Failed(r.status());
  };
  std::vector<Observation> history(2);
  history[0].point = {0.25, 0.75};
  history[0].value = 1234.5;
  history[1].value = -0.0;

  CheckCorpus({
      {"trial", SerializeTrial(PlainTrial()), trial},
      {"trial-fid", SerializeTrial(FidelityTrial()), trial},
      {"trial-baseline", SerializeTrial(BaselineTrial()), trial},
      {"result", SerializeTrialResult(PlainResult()), result},
      {"result-fid", SerializeTrialResult(FidelityResult()), result},
      {"history", SerializeHistory(history),
       [](const std::string& b) {
         Result<std::vector<Observation>> h = ParseHistory(b, 2);
         return h.ok() ? SerializeHistory(*h) : Failed(h.status());
       }},
  });
}

// ---------------------------------------------------------------------------
// WAL records, as a live server writes them
// ---------------------------------------------------------------------------

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "llamatune-golden-" + tag + "-" +
                    std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::vector<std::string> WalRecords(const std::string& dir,
                                    const std::string& session) {
  Result<std::vector<std::string>> records = service::TrialWal::ReadRecords(
      dir + "/" + EncodeBytes(session) + ".wal");
  return records.ok() ? *records : std::vector<std::string>{};
}

TEST(CodecGoldenTest, WalRecords) {
  TuningServerOptions options;
  options.autosave_dir = FreshDir("wal");
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // External session: ask1, tell, askb, tell, then the event loop's
  // deadline sweep expires the untold slot. No autosave runs, so the
  // WAL keeps every record.
  WireSessionSpec external;
  external.space_knobs = {IntegerKnob("cache_mb", 0, 100, 50),
                          RealKnob("ratio", 0.0, 1.0, 0.5)};
  external.optimizer_key = "random";
  external.adapter_key = "identity";
  external.num_iterations = 6;
  external.pending_deadline_ms = 400;
  ASSERT_TRUE(client.CreateSession("ext", external).ok());
  Result<Trial> baseline = client.Ask("ext");
  ASSERT_TRUE(baseline.ok());
  TrialResult told = PlainResult();
  told.trial_id = baseline->id;
  ASSERT_TRUE(client.Tell("ext", told).ok());
  Result<std::vector<Trial>> batch = client.AskBatch("ext", 2);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  TrialResult timed_out = FidelityResult();
  timed_out.trial_id = (*batch)[0].id;
  ASSERT_TRUE(client.Tell("ext", timed_out).ok());
  for (int wait = 0; wait < 100; ++wait) {
    Result<WireSessionStatus> status = client.GetStatus("ext");
    ASSERT_TRUE(status.ok());
    if (status->status.pending_trials == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Workload session: one Step (the baseline evaluation).
  ASSERT_TRUE(client.CreateSession("wl", WorkloadSpec()).ok());
  bool progressed = false;
  ASSERT_TRUE(client.Step("wl", &progressed).ok());
  ASSERT_TRUE(progressed);

  const std::vector<std::string> ext = WalRecords(options.autosave_dir, "ext");
  const std::vector<std::string> wl = WalRecords(options.autosave_dir, "wl");
  server.Stop();

  const std::vector<std::string> expected_ext = {
      "ask1 1",
      "tell x726573756c74203120302034303933346130303030303030303030206d65"
      "74726963732030",
      "askb 2 2",
      "tell x726573756c74203220322062666638303030303030303030303030206d65"
      "7472696373203220336663303030303030303030303030302034303038303030303030"
      "303030303030206669642033666430303030303030303030303030",
      "expire 3",
  };
  EXPECT_EQ(ext, expected_ext);
  EXPECT_EQ(wl, std::vector<std::string>{"step 0"});

  // Tell records embed a trial-result line; it round-trips exactly.
  for (const std::string& record : expected_ext) {
    if (record.rfind("tell x", 0) != 0) continue;
    Result<std::string> line = DecodeBytes(record.substr(6));
    ASSERT_TRUE(line.ok());
    Result<TrialResult> result = ParseTrialResult(*line);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ("tell x" + EncodeBytes(SerializeTrialResult(*result)), record);
  }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// A deterministic stateful objective: its evaluation counter is the
/// checkpointed state, and an unused instance saves an empty state.
class CountingObjective : public ObjectiveFunction {
 public:
  explicit CountingObjective(const ConfigSpace* space) : space_(space) {}

  EvalResult Evaluate(const Configuration& config) override {
    ++evals_;
    EvalResult result;
    result.value = 100.0 + config[0] + 0.5 * evals_;
    result.metrics = {static_cast<double>(evals_), 0.25};
    return result;
  }
  const ConfigSpace& config_space() const override { return *space_; }
  std::unique_ptr<ObjectiveFunction> Clone() const override {
    return std::make_unique<CountingObjective>(space_);
  }
  std::optional<std::string> SaveState() const override {
    return evals_ == 0 ? std::string() : "evals " + std::to_string(evals_);
  }
  Status RestoreState(const std::string& state) override {
    if (state.empty()) {
      evals_ = 0;
      return Status::OK();
    }
    Result<int64_t> evals = ParseInt64(state.substr(6));
    if (!evals.ok()) return evals.status();
    evals_ = static_cast<int>(*evals);
    return Status::OK();
  }

 private:
  const ConfigSpace* space_;
  int evals_ = 0;
};

struct CheckpointStack {
  explicit CheckpointStack(SessionOptions options)
      : space(*ConfigSpace::Create({IntegerKnob("cache_mb", 0, 100, 50),
                                    RealKnob("ratio", 0.0, 1.0, 0.5)})),
        objective(&space) {
    adapter = std::move(AdapterRegistry::Global().Create("identity", &space, 1))
                  .ValueOrDie();
    optimizer =
        std::make_unique<RandomSearchOptimizer>(adapter->search_space(), 1);
    session = std::make_unique<TuningSession>(&objective, adapter.get(),
                                              optimizer.get(), options);
  }

  TrialResult Measure(const Trial& trial) {
    EvalResult eval = objective.Evaluate(trial.config);
    TrialResult result;
    result.trial_id = trial.id;
    result.value = eval.value;
    result.metrics = eval.metrics;
    return result;
  }

  ConfigSpace space;
  CountingObjective objective;
  std::unique_ptr<SpaceAdapter> adapter;
  std::unique_ptr<Optimizer> optimizer;
  std::unique_ptr<TuningSession> session;
};

/// The "state" line's last token is accumulated wall-clock optimizer
/// seconds: the one checkpoint token that is not a pure function of
/// the trajectory.
std::string NormalizeSeconds(const std::string& checkpoint) {
  std::string out;
  size_t begin = 0;
  while (begin < checkpoint.size()) {
    size_t end = checkpoint.find('\n', begin);
    if (end == std::string::npos) end = checkpoint.size();
    std::string line = checkpoint.substr(begin, end - begin);
    if (line.rfind("state ", 0) == 0) {
      line = line.substr(0, line.find_last_of(' ')) + " <wall-clock>";
    }
    out += line + '\n';
    begin = end + 1;
  }
  return out;
}

void CheckCheckpoint(const SessionOptions& options, const std::string& saved,
                     const char* expected) {
  EXPECT_EQ(NormalizeSeconds(saved), expected)
      << "actual bytes:\n@@" << NormalizeSeconds(saved) << "@@";
  CheckpointStack fresh(options);
  Status restored = fresh.session->Restore(saved);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  EXPECT_EQ(NormalizeSeconds(fresh.session->Save()), expected);
}

TEST(CodecGoldenTest, CheckpointWithBaselineSingleBatchAndExpiredRounds) {
  SessionOptions options;
  options.num_iterations = 5;
  options.batch_size = 4;
  CheckpointStack stack(options);
  TuningSession& session = *stack.session;
  ASSERT_TRUE(session.Step());  // round D
  Result<Trial> single = session.Ask();  // round S
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(session.Tell(stack.Measure(*single)).ok());
  Result<std::vector<Trial>> batch = session.AskBatch(2);  // round B
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  ASSERT_TRUE(session.Expire((*batch)[0].id).ok());
  TrialResult timed_out;
  timed_out.trial_id = (*batch)[1].id;
  timed_out.outcome = TrialOutcome::kTimedOut;
  ASSERT_TRUE(session.Tell(timed_out).ok());
  // Round B through the clone pool: three slots of budget are left,
  // so the fourth clone stays unused and saves an empty state.
  ASSERT_TRUE(session.Step());
  CheckCheckpoint(options, session.Save(),
      "llamatune-checkpoint v3\n"
      "maximize 1\n"
      "options 5 4 4010000000000000 4010000000000000 4010000000000000 0 0 "
      "racing 0\n"
      "state 5 <wall-clock>\n"
      "baseline 1 4062d00000000000 2 3ff0000000000000 3fd0000000000000\n"
      "objective 1 7 6576616c732032\n"
      "clones 4\n"
      "clone 1 7 6576616c732031\n"
      "clone 1 7 6576616c732031\n"
      "clone 1 7 6576616c732031\n"
      "clone 1 0 \n"
      "rounds 4\n"
      "round D 1 1\n"
      "round S 1 1\n"
      "told 0 405c800000000000 2 4000000000000000 3fd0000000000000\n"
      "round B 2 2\n"
      "expired\n"
      "told 2 403c800000000000 0\n"
      "round B 3 3\n"
      "told 0 4062700000000000 2 3ff0000000000000 3fd0000000000000\n"
      "told 0 4063b00000000000 2 3ff0000000000000 3fd0000000000000\n"
      "told 0 405b600000000000 2 3ff0000000000000 3fd0000000000000\n"
      "history 5\n"
      "obs 2 3fc0a3d70a3d70a4 3fc175c928118c7d 405c800000000000\n"
      "obs 2 3fd6666666666667 3fed29d85a57326d 403c800000000000\n"
      "obs 2 3fde147ae147ae15 3fb30d84f91bf14b 4062700000000000\n"
      "obs 2 3fe23d70a3d70a3e 3fe453d06b81c890 4063b00000000000\n"
      "obs 2 3fb70a3d70a3d70a 3fe1cc37b0ce96c6 405b600000000000\n"
      "end\n");
}

TEST(CodecGoldenTest, CheckpointWithRacingRungRounds) {
  SessionOptions options;
  options.num_iterations = 2;
  RacingOptions racing;
  racing.cohort = 2;
  racing.rungs = 2;
  racing.min_fidelity = 0.5;
  racing.eta = 2.0;
  racing.ci_z = 0.0;
  options.racing = racing;
  CheckpointStack stack(options);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(stack.session->Step());
  CheckCheckpoint(options, stack.session->Save(),
      "llamatune-checkpoint v3\n"
      "maximize 1\n"
      "options 2 1 4010000000000000 4010000000000000 4010000000000000 0 0 "
      "racing 1 2 2 3fe0000000000000 4000000000000000 0000000000000000\n"
      "state 1 <wall-clock>\n"
      "baseline 1 4062d00000000000 2 3ff0000000000000 3fd0000000000000\n"
      "objective 1 7 6576616c732032\n"
      "clones 2\n"
      "clone 1 7 6576616c732031\n"
      "clone 1 7 6576616c732031\n"
      "rounds 3\n"
      "round D 1 1\n"
      "round R 2 2\n"
      "rung 0 405c600000000000 3fe0000000000000 2 3ff0000000000000 "
      "3fd0000000000000\n"
      "rung 0 4062300000000000 3fe0000000000000 2 3ff0000000000000 "
      "3fd0000000000000\n"
      "round R 1 1\n"
      "rung 0 4062400000000000 3ff0000000000000 2 4000000000000000 "
      "3fd0000000000000\n"
      "history 1\n"
      "obs 2 3fdccccccccccccd 3f95876015e4d702 4062400000000000\n"
      "end\n");
}

}  // namespace
}  // namespace net
}  // namespace llamatune
