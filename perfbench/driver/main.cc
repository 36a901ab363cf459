// perfbench_driver: one benchmark run of the tuning service.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --server <serve_remote binary>
//                    --workdir <dir> --out <results.json>
//
// Starts the server binary (examples/serve_remote.cpp) in a child
// process, drives it over loopback TCP for --seconds, replays every wire
// session in-process as the correctness oracle and writes the raw
// samples to --out. perfbench/run.py turns them into the benchmark's
// metrics.
//
// --trace 1 splits --seconds into two passes of the workload: untraced,
// then with spans recorded, so the tracing overhead can be read off.
// The traced pass reads back the server's WAL records, adds the
// in-process service replay and the codec timing, and writes a Chrome
// trace-event file to <workdir>/trace.json.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "driver/replay.h"
#include "driver/server_process.h"
#include "driver/trace.h"
#include "driver/wire_run.h"
#include "driver/workloads.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is the fastest of them.
constexpr int kSetups = 41;

/// Minimal JSON writer for the results file.
class Json {
 public:
  explicit Json(FILE* out) : out_(out) {}

  void Open(const char* key = nullptr) { Key(key); Raw("{"); first_ = true; }
  void Close() { Raw("}"); first_ = false; }
  void OpenArray(const char* key = nullptr) {
    Key(key);
    Raw("[");
    first_ = true;
  }
  void CloseArray() { Raw("]"); first_ = false; }

  void Number(const char* key, double v) {
    Key(key);
    std::fprintf(out_, "%.17g", v);
  }
  void Int(const char* key, long long v) {
    Key(key);
    std::fprintf(out_, "%lld", v);
  }
  void Bool(const char* key, bool v) {
    Key(key);
    Raw(v ? "true" : "false");
  }
  void String(const char* key, const std::string& v) {
    Key(key);
    Raw("\"");
    for (char c : v) {
      if (c == '"' || c == '\\') {
        std::fputc('\\', out_);
        std::fputc(c, out_);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(out_, "\\u%04x", static_cast<unsigned char>(c));
      } else {
        std::fputc(c, out_);
      }
    }
    Raw("\"");
  }
  void Numbers(const char* key, const std::vector<double>& values) {
    OpenArray(key);
    for (double v : values) Number(nullptr, v);
    CloseArray();
  }
  void Strings(const char* key, const std::vector<std::string>& values) {
    OpenArray(key);
    for (const std::string& v : values) String(nullptr, v);
    CloseArray();
  }

 private:
  void Key(const char* key) {
    if (!first_) Raw(",");
    first_ = false;
    if (key != nullptr) std::fprintf(out_, "\"%s\":", key);
  }
  void Raw(const char* s) { std::fputs(s, out_); }

  FILE* out_;
  bool first_ = true;
};

void WriteDef(Json* j, const WorkloadDef& def) {
  j->Open("workload_def");
  j->Int("iterations", def.iterations);
  j->Int("quality_sessions", def.quality_sessions);
  j->Int("des_transactions", def.des_transactions);
  j->OpenArray("tenants");
  for (const TenantDef& t : def.tenants) {
    j->Open();
    j->String("optimizer", t.optimizer);
    j->String("adapter", t.adapter);
    j->Int("seed_slot", t.seed_slot);
    j->Bool("gated", t.gated);
    j->Bool("vanilla", t.vanilla);
    j->Close();
  }
  j->CloseArray();
  j->Close();
}

/// Seed slots whose sessions take part in a vanilla comparison.
std::vector<int> PairedSlots(const WorkloadDef& def) {
  std::vector<int> slots;
  for (const TenantDef& t : def.tenants) {
    if (t.vanilla) slots.push_back(t.seed_slot);
  }
  return slots;
}

struct Phase {
  bool traced = false;
  WireResult wire;
  ReplayResult replay;
  std::map<std::string, LayerTime> layers;
};

void WritePhase(Json* j, const WorkloadDef& def, const Phase& p) {
  const WireResult& w = p.wire;
  const ReplayResult& r = p.replay;
  j->Open();
  j->Bool("traced", p.traced);
  j->Numbers("setup_s", w.setup_s);
  j->Number("window_s", w.window_s);
  j->Int("window_iterations", w.window_iterations);
  j->Numbers("ask_ms", w.ask_ms);
  j->Numbers("tell_ms", w.tell_ms);
  j->Numbers("session_s", w.session_s);
  j->Numbers("eval_ms", w.eval_ms);
  j->Int("crashed", w.crashed);
  j->Int("attempted", w.attempted);
  j->Int("failed", w.failed);
  j->Strings("errors", w.errors);
  j->Int("peak_rss_kb", w.peak_rss_kb);
  j->Number("server_cpu_s", w.server_cpu_s);
  j->Int("served_iterations", w.served_iterations);
  j->Open("server_stats");
  j->Int("busy_rejections", w.server_stats.busy_rejections);
  j->Int("shed_overload", w.server_stats.shed_overload);
  j->Int("shed_deadline", w.server_stats.shed_deadline);
  j->Int("autosaves_written", w.server_stats.autosaves_written);
  j->Close();

  j->Open("replay");
  j->Int("sessions", r.sessions);
  j->Int("mismatches", r.mismatches);
  j->Strings("messages", r.messages);
  j->Int("iterations", r.iterations);
  j->Numbers("session_ask_ms", r.session_ask_ms);
  j->Numbers("session_tell_ms", r.session_tell_ms);
  j->Numbers("suggest_ms", r.suggest_ms);
  j->Numbers("observe_ms", r.observe_ms);
  j->Numbers("project_ms", r.project_ms);
  j->Numbers("service_ask_ms", r.service_ask_ms);
  j->Numbers("service_tell_ms", r.service_tell_ms);
  j->Numbers("wal_append_ms", r.wal_append_ms);
  j->Numbers("checkpoint_ms", r.checkpoint_ms);
  j->Numbers("checkpoint_bytes", r.checkpoint_bytes);
  j->Int("wal_records", r.wal_records);
  j->Int("wal_bytes", r.wal_bytes);
  j->Int("wal_iterations", r.wal_iterations);
  j->Numbers("ask_wire_ms", r.ask_wire_ms);
  j->Numbers("ask_layer_ms", r.ask_layer_ms);
  j->Numbers("tell_wire_ms", r.tell_wire_ms);
  j->Numbers("tell_layer_ms", r.tell_layer_ms);
  j->Numbers("vanilla_suggest_ms", r.vanilla_suggest_ms);
  j->Number("msg_codec_us", r.msg_codec_us);
  j->Number("frame_codec_us", r.frame_codec_us);
  j->Number("create_request_bytes", r.create_request_bytes);
  j->Number("ask_reply_bytes", r.ask_reply_bytes);
  j->Number("tell_request_bytes", r.tell_request_bytes);
  j->Close();

  const std::vector<int> paired = PairedSlots(def);
  j->OpenArray("quality");
  for (const SessionQuality& q : r.quality) {
    j->Open();
    j->Int("tenant", q.tenant);
    j->Int("index", q.index);
    j->Bool("complete", q.complete);
    j->Number("best", q.best);
    j->Number("default", q.default_performance);
    const int slot = def.tenants[q.tenant].seed_slot;
    if (std::find(paired.begin(), paired.end(), slot) != paired.end()) {
      j->Numbers("objectives", q.objectives);
    }
    j->Close();
  }
  j->CloseArray();

  j->Open("layer_times");
  for (const auto& [layer, t] : p.layers) {
    j->Open(layer.c_str());
    j->Number("total_ms", t.total_ms);
    j->Number("self_ms", t.self_ms);
    j->Int("spans", t.spans);
    j->Close();
  }
  j->Close();
  j->Close();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --server <binary> "
               "--workdir <dir> --out <file>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, server_exe, workdir, out_path;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--server") {
      server_exe = value;
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return Usage();
    }
  }
  const WorkloadDef* found = FindWorkload(workload);
  if (found == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      server_exe.empty() || workdir.empty() || out_path.empty() ||
      argc % 2 == 0) {
    return Usage();
  }
  // The quality figures are end-to-end metrics, reported by untraced
  // runs only; a traced run does not finish sessions past its windows.
  WorkloadDef def = *found;
  if (trace == 1) def.quality_sessions = 0;

  std::vector<Phase> phases;
  for (int pass = 0; pass <= trace; ++pass) {
    Phase phase;
    phase.traced = pass == 1;
    Tracer::Get().Clear();
    Tracer::Get().Enable(phase.traced);
    const std::string dir = workdir + "/pass-" + std::to_string(pass);
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
      return 1;
    }
    phase.wire = RunWire(def, seed, seconds / (trace + 1), kSetups,
                         server_exe, dir, /*capture_wal=*/phase.traced);
    phase.replay = Replay(def, phase.wire.sessions, phase.traced, dir);
    Tracer::Get().Enable(false);
    if (phase.traced) {
      phase.layers = Tracer::Get().LayerTimes();
      if (!Tracer::Get().WriteChromeTrace(workdir + "/trace.json")) {
        std::fprintf(stderr, "perfbench: cannot write the trace file\n");
        return 1;
      }
      Tracer::Get().Clear();
    }
    phases.push_back(std::move(phase));
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  Json j(out);
  j.Open();
  j.String("workload", def.name);
  j.Int("seed", static_cast<long long>(seed));
  j.Number("seconds", seconds);
  j.Open("context");
  j.Int("nproc", ::sysconf(_SC_NPROCESSORS_ONLN));
  j.Int("pool_threads", llamatune::ThreadPool::DefaultThreads());
  j.String("build_type", PERFBENCH_BUILD_TYPE);
  j.String("compiler", PERFBENCH_COMPILER);
  j.Int("client_threads",
        ClientThreads(static_cast<int>(def.tenants.size())));
  j.Int("setups", kSetups);
  j.Int("autosave_interval_ms", kAutosaveIntervalMs);
  j.Close();
  WriteDef(&j, def);
  j.OpenArray("phases");
  for (const Phase& p : phases) WritePhase(&j, def, p);
  j.CloseArray();
  j.Close();
  std::fputc('\n', out);
  if (std::fclose(out) != 0) return 1;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
