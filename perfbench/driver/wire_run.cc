#include "driver/wire_run.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "src/common/serde.h"
#include "src/dbsim/simulated_postgres.h"
#include "src/net/tuning_client.h"
#include "driver/server_process.h"
#include "driver/trace.h"

namespace perfbench {
namespace {

using llamatune::Result;
using llamatune::Status;
using llamatune::Trial;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Counts tenants into the end of set-up and releases them together
/// into the measured window.
class Gate {
 public:
  explicit Gate(int parties) : waiting_(parties) {}

  /// Called by each tenant thread once its tenants are set up; blocks
  /// until Release and returns the window start.
  Clock::time_point ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    --waiting_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return window_start_;
  }

  void WaitAllArrived() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return waiting_ == 0; });
  }

  void Release(Clock::time_point window_start) {
    std::lock_guard<std::mutex> lock(mu_);
    window_start_ = window_start;
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_;
  bool released_ = false;
  Clock::time_point window_start_;
};

/// One tenant: its own connection, sessions run back to back.
class Tenant {
 public:
  /// `wal_dir` is the server's autosave directory when this tenant
  /// reads back its sessions' WAL records, else empty.
  Tenant(const WorkloadDef& def, int index, uint64_t workload_seed,
         std::string wal_dir)
      : def_(def),
        tdef_(def.tenants[index]),
        index_(index),
        workload_seed_(workload_seed),
        name_("tenant-" + std::to_string(index)),
        wal_dir_(std::move(wal_dir)) {}

  Status Connect(uint16_t port) {
    if (!Track(client_.Connect("127.0.0.1", port))) return last_;
    Track(client_.Hello(name_));
    return last_;
  }

  /// Creates the next session and asks for its baseline trial.
  Status Open() {
    session_ = SessionRecord();
    session_.tenant = index_;
    session_.index = next_session_;
    session_.seed = SessionSeed(workload_seed_, tdef_.seed_slot, next_session_);
    ++next_session_;
    session_name_ = "t" + std::to_string(index_) + "-s" +
                    std::to_string(session_.index);
    wal_seen_ = 0;
    objective_ = MakeObjective(def_, session_.seed);
    session_start_ = Clock::now();
    if (def_.lifecycle_calls) {
      Timer t("net.hello", nullptr);
      if (!Track(client_.Hello(name_))) return last_;
    }
    {
      Timer t("net.create", nullptr);
      if (!Track(client_.CreateSession(
              session_name_, MakeWireSpec(def_, tdef_, session_.seed)))) {
        return last_;
      }
    }
    open_ = true;
    if (!wal_dir_.empty()) {
      // The server keeps each session's WAL at <autosave dir>/<hex
      // name>.wal; a missing file means that layout changed and the
      // WAL figures would silently read zero.
      struct stat st;
      const std::string path =
          wal_dir_ + "/" + llamatune::EncodeBytes(session_name_) + ".wal";
      if (::stat(path.c_str(), &st) != 0) {
        ++attempted_;
        ++failed_;
        last_ = Status::Internal("server WAL not found at " + path);
        return last_;
      }
      wal_path_ = path;
    }
    return Ask();
  }

  /// Discards an opened set-up session (throwaway set-ups).
  Status CloseUnfinished() {
    open_ = false;
    Track(client_.Close(session_name_).status());
    return last_;
  }

  /// Moves the clock of the open session so that its pre-window active
  /// time ends at the window start.
  void EnterWindow(Clock::time_point window_start, Clock::time_point deadline) {
    session_start_ = window_start - (Clock::now() - session_start_);
    deadline_ = deadline;
    in_window_ = true;
  }

  bool done() const { return done_; }

  /// One iteration of the closed loop (opening or finishing a session
  /// around it when due).
  void Step() {
    if (!open_) {
      if (StopStarting()) {
        done_ = true;
        return;
      }
      if (!Open().ok()) return Fail();
    } else if (!pending_) {
      if (!Ask().ok()) return Fail();
    }
    if (!EvaluateAndTell().ok()) return Fail();
    if (static_cast<int>(session_.trials.size()) == def_.iterations + 1) {
      session_.complete = true;
      if (!Finish().ok()) return Fail();
      ++completed_;
    } else if (StopStarting()) {
      if (!Finish().ok()) return Fail();
      done_ = true;
    }
  }

  /// Moves this tenant's samples and sessions into `out`.
  void Collect(WireResult* out) {
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&out->ask_ms, ask_ms_);
    append(&out->tell_ms, tell_ms_);
    append(&out->session_s, session_s_);
    out->window_iterations += window_iterations_;
    append(&out->eval_ms, eval_ms_);
    out->crashed += crashed_;
    out->attempted += attempted_;
    out->failed += failed_;
    for (SessionRecord& s : sessions_) out->sessions.push_back(std::move(s));
    if (!last_.ok()) out->errors.push_back(name_ + ": " + last_.ToString());
  }

 private:
  bool Track(const Status& status) {
    ++attempted_;
    if (!status.ok()) {
      ++failed_;
      last_ = status;
    }
    return status.ok();
  }

  void Fail() { done_ = true; }

  bool InWindow(Clock::time_point t) const { return in_window_ && t <= deadline_; }

  /// The records (newline-terminated lines, see TrialWal) the server
  /// appended to the session's WAL since the last read. The server
  /// appends under the session's lock before it replies, and its
  /// autosave sweep truncates the WAL only while no trial is pending,
  /// i.e. between a Tell and the next Ask. So a WAL that shrank before
  /// an Ask's read holds exactly the Ask's records; one that shrank
  /// before a Tell's read lost the Tell's, and `*observed` turns false.
  std::vector<std::string> ReadWal(bool tell, bool* observed) {
    *observed = true;
    std::vector<std::string> fresh;
    if (wal_path_.empty()) return fresh;
    std::string bytes;
    const int fd = ::open(wal_path_.c_str(), O_RDONLY | O_CLOEXEC);
    struct stat st;
    if (fd < 0 || ::fstat(fd, &st) != 0) {
      if (fd >= 0) ::close(fd);
      *observed = false;
      return fresh;
    }
    off_t from = wal_seen_;
    if (st.st_size < wal_seen_) {
      from = 0;
      if (tell) *observed = false;
    }
    bytes.resize(static_cast<size_t>(st.st_size - from));
    const ssize_t n = ::pread(fd, bytes.data(), bytes.size(), from);
    ::close(fd);
    if (n != static_cast<ssize_t>(bytes.size())) {
      *observed = false;
      return fresh;
    }
    wal_seen_ = st.st_size;
    size_t start = 0;
    for (size_t end; (end = bytes.find('\n', start)) != std::string::npos;
         start = end + 1) {
      fresh.push_back(bytes.substr(start, end - start));
    }
    return fresh;
  }

  bool StopStarting() const {
    return in_window_ && Clock::now() > deadline_ &&
           completed_ >= def_.quality_sessions;
  }

  Status Ask() {
    const int64_t id = static_cast<int64_t>(session_.trials.size()) + 1;
    Timer t("net.ask", nullptr, RequestId(index_, session_.index, id, false));
    Result<Trial> trial = client_.Ask(session_name_);
    const double ms = t.Stop();
    if (!Track(trial.status())) return last_;
    TrialRecord record;
    record.trial = std::move(trial).ValueOrDie();
    record.ask_ms = ms;
    record.ask_wal = ReadWal(false, &record.wal_observed);
    if (tdef_.gated && InWindow(Clock::now())) ask_ms_.push_back(ms);
    session_.trials.push_back(std::move(record));
    pending_ = true;
    return Status::OK();
  }

  Status EvaluateAndTell() {
    TrialRecord& record = session_.trials.back();
    const uint64_t tell_request =
        RequestId(index_, session_.index, record.trial.id, true);
    llamatune::EvalResult eval;
    {
      Timer t("dbsim.evaluate", &eval_ms_, tell_request);
      eval = objective_->Evaluate(record.trial.config);
    }
    if (eval.EffectiveOutcome() == llamatune::TrialOutcome::kCrashed) {
      ++crashed_;
    }
    record.result.trial_id = record.trial.id;
    record.result.value = eval.value;
    record.result.outcome = eval.EffectiveOutcome();
    record.result.metrics = eval.metrics;
    record.result.fidelity = eval.fidelity;
    Timer t("net.tell", nullptr, tell_request);
    Status told = client_.Tell(session_name_, record.result);
    const double ms = t.Stop();
    if (!Track(told)) return last_;
    record.tell_ms = ms;
    bool observed = true;
    record.tell_wal = ReadWal(true, &observed);
    record.wal_observed = record.wal_observed && observed;
    pending_ = false;
    if (InWindow(Clock::now())) {
      if (tdef_.gated) tell_ms_.push_back(ms);
      ++window_iterations_;
    }
    return Status::OK();
  }

  Status Finish() {
    if (def_.lifecycle_calls) {
      Timer t("net.status", nullptr);
      if (!Track(client_.GetStatus(session_name_).status())) return last_;
    }
    {
      Timer t("net.checkpoint", nullptr);
      Result<std::string> checkpoint = client_.Checkpoint(session_name_);
      if (!Track(checkpoint.status())) return last_;
      session_.checkpoint = std::move(checkpoint).ValueOrDie();
    }
    {
      Timer t("net.close", nullptr);
      Result<llamatune::net::WireCloseResult> closed =
          client_.Close(session_name_);
      if (!Track(closed.status())) return last_;
      session_.closed = *closed;
    }
    open_ = false;
    const Clock::time_point end = Clock::now();
    if (session_.complete && InWindow(end)) {
      session_s_.push_back(Seconds(end - session_start_));
    }
    sessions_.push_back(std::move(session_));
    return Status::OK();
  }

  const WorkloadDef& def_;
  const TenantDef& tdef_;
  const int index_;
  const uint64_t workload_seed_;
  const std::string name_;
  const std::string wal_dir_;
  llamatune::net::TuningClient client_;

  SessionRecord session_;
  std::string session_name_;
  std::string wal_path_;
  off_t wal_seen_ = 0;
  std::unique_ptr<llamatune::dbsim::SimulatedPostgres> objective_;
  int next_session_ = 0;
  int completed_ = 0;
  bool open_ = false;
  bool pending_ = false;
  bool done_ = false;
  bool in_window_ = false;
  Clock::time_point session_start_;
  Clock::time_point deadline_;

  std::vector<double> ask_ms_, tell_ms_, session_s_;
  int64_t window_iterations_ = 0;
  std::vector<double> eval_ms_;
  std::vector<SessionRecord> sessions_;
  int64_t crashed_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  Status last_;
};

}  // namespace

int ClientThreads(int tenants) {
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::max(1L, std::min<long>(tenants, cores)));
}

WireResult RunWire(const WorkloadDef& def, uint64_t seed, double seconds,
                   int setups, const std::string& server_exe,
                   const std::string& workdir, bool capture_wal) {
  WireResult out;
  const int num_tenants = static_cast<int>(def.tenants.size());
  const int num_threads = ClientThreads(num_tenants);
  for (int setup = 0; setup < setups; ++setup) {
    const bool measured = setup + 1 == setups;
    const std::string autosave_dir =
        workdir + "/autosave-" + std::to_string(setup);
    std::vector<std::unique_ptr<Tenant>> tenants;
    for (int i = 0; i < num_tenants; ++i) {
      tenants.push_back(std::make_unique<Tenant>(
          def, i, seed, measured && capture_wal ? autosave_dir : ""));
    }
    // Write back what the previous set-up left dirty, so this set-up's
    // fsyncs do not queue behind it.
    ::sync();
    const Clock::time_point start = Clock::now();
    ServerProcess server;
    Status started = server.Start(server_exe, autosave_dir);
    if (!started.ok()) {
      out.errors.push_back("server: " + started.ToString());
      ++out.attempted;
      ++out.failed;
      return out;
    }
    Gate gate(num_threads);
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<Tenant*> mine;
        for (int i = t; i < num_tenants; i += num_threads) {
          mine.push_back(tenants[i].get());
        }
        bool ok = true;
        for (Tenant* tenant : mine) {
          ok = ok && tenant->Connect(server.port()).ok() && tenant->Open().ok();
        }
        const Clock::time_point window_start = gate.ArriveAndWait();
        if (!ok) return;
        if (!measured) {
          for (Tenant* tenant : mine) tenant->CloseUnfinished();
          return;
        }
        const Clock::time_point deadline =
            window_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        for (Tenant* tenant : mine) tenant->EnterWindow(window_start, deadline);
        bool any = true;
        while (any) {
          any = false;
          for (Tenant* tenant : mine) {
            if (tenant->done()) continue;
            tenant->Step();
            any = true;
          }
        }
      });
    }
    gate.WaitAllArrived();
    const Clock::time_point window_start = Clock::now();
    out.setup_s.push_back(Seconds(window_start - start));
    gate.Release(window_start);
    for (std::thread& thread : threads) thread.join();
    if (measured) out.window_s = seconds;
    for (auto& tenant : tenants) tenant->Collect(&out);
    if (measured) {
      llamatune::net::TuningClient stats_client;
      ++out.attempted;
      Result<llamatune::net::WireServerStats> stats =
          stats_client.Connect("127.0.0.1", server.port()).ok()
              ? stats_client.ServerStats()
              : Result<llamatune::net::WireServerStats>(
                    Status::Internal("connect for stats failed"));
      if (stats.ok()) {
        out.server_stats = *stats;
      } else {
        ++out.failed;
        out.errors.push_back("stats: " + stats.status().ToString());
      }
    }
    ServerProcess::Usage usage;
    Status stopped = server.Stop(&usage);
    if (!stopped.ok()) {
      out.errors.push_back("server: " + stopped.ToString());
      ++out.failed;
    }
    if (measured) {
      out.peak_rss_kb = usage.peak_rss_kb;
      out.server_cpu_s = usage.cpu_s;
      for (const SessionRecord& s : out.sessions) {
        out.served_iterations += static_cast<int64_t>(s.trials.size());
      }
    }
  }
  return out;
}

}  // namespace perfbench
