#include "driver/replay.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "src/core/adapter_registry.h"
#include "src/core/tuning_session.h"
#include "src/net/frame.h"
#include "src/net/message.h"
#include "src/optimizer/optimizer_registry.h"
#include "src/service/trial_wal.h"
#include "src/service/tuning_service.h"
#include "driver/trace.h"

namespace perfbench {
namespace {

using llamatune::Configuration;
using llamatune::Result;
using llamatune::Status;
using llamatune::Trial;

constexpr size_t kMaxMessages = 8;

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameTrial(const Trial& a, const Trial& b) {
  return a.id == b.id && a.is_baseline == b.is_baseline &&
         BitsEqual(a.fidelity, b.fidelity) && BitsEqual(a.point, b.point) &&
         BitsEqual(a.config.values(), b.config.values());
}

/// The checkpoint's "state" line carries the optimizer's cumulative
/// wall-clock seconds, which no two runs share. Only that token is
/// dropped; every other byte is compared.
std::string WithoutWallClock(const std::string& checkpoint) {
  const size_t line = checkpoint.find("\nstate ");
  if (line == std::string::npos) return checkpoint;
  const size_t iterations_end = checkpoint.find(' ', line + 7);
  const size_t line_end = checkpoint.find('\n', line + 1);
  if (iterations_end == std::string::npos || line_end == std::string::npos ||
      iterations_end > line_end) {
    return checkpoint;
  }
  return checkpoint.substr(0, iterations_end) + checkpoint.substr(line_end);
}

/// Times SpaceAdapter::Project.
class TimedAdapter : public llamatune::SpaceAdapter {
 public:
  TimedAdapter(std::unique_ptr<llamatune::SpaceAdapter> inner,
               std::vector<double>* project_ms)
      : inner_(std::move(inner)), project_ms_(project_ms) {}

  const llamatune::SearchSpace& search_space() const override {
    return inner_->search_space();
  }
  const llamatune::ConfigSpace& config_space() const override {
    return inner_->config_space();
  }
  Configuration Project(const std::vector<double>& point) const override {
    Timer t("core.project", project_ms_);
    return inner_->Project(point);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<llamatune::SpaceAdapter> inner_;
  std::vector<double>* project_ms_;
};

/// Times Optimizer::Suggest and Observe. The base-class history the
/// session checkpoints is kept in step with the inner optimizer's.
class TimedOptimizer : public llamatune::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<llamatune::Optimizer> inner,
                 std::vector<double>* suggest_ms,
                 std::vector<double>* observe_ms)
      : Optimizer(inner->space()),
        inner_(std::move(inner)),
        suggest_ms_(suggest_ms),
        observe_ms_(observe_ms) {}

  std::vector<double> Suggest() override {
    Timer t("optimizer.suggest", suggest_ms_);
    return inner_->Suggest();
  }
  std::vector<std::vector<double>> SuggestBatch(int n) override {
    Timer t("optimizer.suggest", suggest_ms_);
    return inner_->SuggestBatch(n);
  }
  void Observe(const std::vector<double>& point, double value) override {
    {
      Timer t("optimizer.observe", observe_ms_);
      inner_->Observe(point, value);
    }
    Optimizer::Observe(point, value);
  }
  void ObserveBatch(const std::vector<std::vector<double>>& points,
                    const std::vector<double>& values) override {
    {
      Timer t("optimizer.observe", observe_ms_);
      inner_->ObserveBatch(points, values);
    }
    for (size_t i = 0; i < points.size() && i < values.size(); ++i) {
      Optimizer::Observe(points[i], values[i]);
    }
  }
  void ObserveMetrics(const std::vector<double>& metrics) override {
    inner_->ObserveMetrics(metrics);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<llamatune::Optimizer> inner_;
  std::vector<double>* suggest_ms_;
  std::vector<double>* observe_ms_;
};

class Checker {
 public:
  explicit Checker(ReplayResult* out) : out_(out) {}

  bool Expect(bool ok, const SessionRecord& s, const std::string& what) {
    if (ok) return true;
    ++out_->mismatches;
    if (out_->messages.size() < kMaxMessages) {
      out_->messages.push_back("tenant " + std::to_string(s.tenant) +
                               " session " + std::to_string(s.index) + ": " +
                               what);
    }
    return false;
  }

 private:
  ReplayResult* out_;
};

std::string TrialLabel(const Trial& t) { return "trial " + std::to_string(t.id); }

void ReplaySession(const WorkloadDef& def, const SessionRecord& s,
                   ReplayResult* out) {
  Checker check(out);
  const TenantDef& tdef = def.tenants[s.tenant];
  const llamatune::ConfigSpace& space = CatalogSpace();
  Result<std::unique_ptr<llamatune::SpaceAdapter>> adapter =
      llamatune::AdapterRegistry::Global().Create(tdef.adapter, &space, s.seed);
  if (!check.Expect(adapter.ok(), s, "adapter: " + adapter.status().ToString())) {
    return;
  }
  TimedAdapter timed_adapter(std::move(adapter).ValueOrDie(), &out->project_ms);
  Result<std::unique_ptr<llamatune::Optimizer>> optimizer =
      llamatune::OptimizerRegistry::Global().Create(
          tdef.optimizer, timed_adapter.search_space(), s.seed);
  if (!check.Expect(optimizer.ok(), s,
                    "optimizer: " + optimizer.status().ToString())) {
    return;
  }
  TimedOptimizer timed_optimizer(std::move(optimizer).ValueOrDie(),
                                 &out->suggest_ms, &out->observe_ms);
  llamatune::SessionOptions options;
  options.num_iterations = def.iterations;
  llamatune::TuningSession session(&space, /*maximize=*/true, &timed_adapter,
                                   &timed_optimizer, options);

  for (const TrialRecord& record : s.trials) {
    const Trial& wire = record.trial;
    Result<Trial> asked = Status::Internal("not asked");
    {
      Timer t("core.ask", &out->session_ask_ms,
              RequestId(s.tenant, s.index, wire.id, false));
      asked = session.Ask();
    }
    if (!check.Expect(asked.ok(), s, TrialLabel(wire) + " ask failed: " +
                                         asked.status().ToString()) ||
        !check.Expect(SameTrial(*asked, wire), s,
                      TrialLabel(wire) + " differs from the wire trial")) {
      return;
    }
    Status told;
    {
      Timer t("core.tell", &out->session_tell_ms,
              RequestId(s.tenant, s.index, wire.id, true));
      told = session.Tell(record.result);
    }
    if (!check.Expect(told.ok(), s,
                      TrialLabel(wire) + " tell failed: " + told.ToString())) {
      return;
    }
    ++out->iterations;
  }

  check.Expect(WithoutWallClock(session.Save()) == WithoutWallClock(s.checkpoint),
               s, "committed trajectory differs from the wire checkpoint");
  const llamatune::SessionResult snapshot = session.Snapshot();
  check.Expect(BitsEqual(snapshot.best_performance, s.closed.best_performance),
               s, "best value differs");
  check.Expect(BitsEqual(snapshot.default_performance,
                         s.closed.default_performance),
               s, "default value differs");
  check.Expect(snapshot.iterations_run == s.closed.iterations_run, s,
               "iteration count differs");
  // The knowledge base holds every committed trial but the baseline.
  check.Expect(snapshot.kb.size() + 1 == static_cast<int>(s.trials.size()), s,
               "committed trial count differs");
  const int best = snapshot.kb.BestIndex();
  if (best >= 0 && best + 1 < static_cast<int>(s.trials.size())) {
    check.Expect(BitsEqual(snapshot.best_config.values(),
                           s.trials[best + 1].trial.config.values()),
                 s, "best configuration differs from the wire trial");
  }

  SessionQuality quality;
  quality.tenant = s.tenant;
  quality.index = s.index;
  quality.complete = s.complete;
  quality.best = s.closed.best_performance;
  quality.default_performance = s.closed.default_performance;
  for (const llamatune::IterationRecord& r : snapshot.kb.records()) {
    quality.objectives.push_back(r.objective);
  }
  out->quality.push_back(std::move(quality));
}

/// Mirrors what TuningServer does for each Ask and Tell of a
/// WAL-backed session: the service call, then a fsync'd append of each
/// record the server wrote to the session's WAL for that request.
void ReplayService(const WorkloadDef& def, const SessionRecord& s,
                   const std::string& workdir, ReplayResult* out) {
  Checker check(out);
  const TenantDef& tdef = def.tenants[s.tenant];
  llamatune::service::TuningService service;
  llamatune::service::SessionSpec spec;
  spec.space = &CatalogSpace();
  spec.maximize = true;
  spec.optimizer_key = tdef.optimizer;
  spec.adapter_key = tdef.adapter;
  spec.seed = s.seed;
  spec.num_iterations = def.iterations;
  const std::string name =
      "t" + std::to_string(s.tenant) + "-s" + std::to_string(s.index);
  Status created = service.CreateSession(name, spec);
  if (!check.Expect(created.ok(), s, "service create: " + created.ToString())) {
    return;
  }
  const std::string wal_path = workdir + "/" + name + ".wal";
  llamatune::service::TrialWal wal;
  Status opened = wal.Open(wal_path);
  if (!check.Expect(opened.ok() && wal.Truncate().ok(), s,
                    "wal open: " + opened.ToString())) {
    return;
  }
  auto append = [&](const std::vector<std::string>& records,
                    uint64_t request) {
    double ms = 0.0;
    for (const std::string& record : records) {
      Timer t("service.wal_append", &out->wal_append_ms, request);
      Status appended = wal.Append(record);
      ms += t.Stop();
      check.Expect(appended.ok(), s, "wal append: " + appended.ToString());
    }
    return ms;
  };

  for (const TrialRecord& record : s.trials) {
    const Trial& wire = record.trial;
    const uint64_t ask_request = RequestId(s.tenant, s.index, wire.id, false);
    const uint64_t tell_request = RequestId(s.tenant, s.index, wire.id, true);
    Result<Trial> asked = Status::Internal("not asked");
    double ask_ms = 0.0;
    {
      Timer t("service.ask", &out->service_ask_ms, ask_request);
      asked = service.Ask(name);
      ask_ms = t.Stop();
      if (asked.ok()) ask_ms += append(record.ask_wal, ask_request);
    }
    if (!check.Expect(asked.ok() && SameTrial(*asked, wire), s,
                      TrialLabel(wire) + " differs in the service replay")) {
      return;
    }
    Status told;
    double tell_ms = 0.0;
    {
      Timer t("service.tell", &out->service_tell_ms, tell_request);
      told = service.Tell(name, record.result);
      tell_ms = t.Stop();
      if (told.ok()) tell_ms += append(record.tell_wal, tell_request);
    }
    if (!check.Expect(told.ok(), s,
                      TrialLabel(wire) + " service tell: " + told.ToString())) {
      return;
    }
    if (record.wal_observed) {
      ++out->wal_iterations;
      for (const auto* records : {&record.ask_wal, &record.tell_wal}) {
        for (const std::string& r : *records) {
          ++out->wal_records;
          out->wal_bytes += static_cast<int64_t>(r.size()) + 1;
        }
      }
    }
    out->ask_wire_ms.push_back(record.ask_ms);
    out->ask_layer_ms.push_back(ask_ms);
    out->tell_wire_ms.push_back(record.tell_ms);
    out->tell_layer_ms.push_back(tell_ms);
  }
  Result<std::string> checkpoint = Status::Internal("not taken");
  {
    Timer t("service.checkpoint", &out->checkpoint_ms);
    checkpoint = service.Checkpoint(name);
  }
  if (check.Expect(checkpoint.ok(), s, "service checkpoint failed")) {
    out->checkpoint_bytes.push_back(static_cast<double>(checkpoint->size()));
    check.Expect(WithoutWallClock(*checkpoint) == WithoutWallClock(s.checkpoint),
                 s, "service checkpoint differs from the wire checkpoint");
  }
  service.Close(name).status();
  wal.Close();
  ::unlink(wal_path.c_str());
}

/// Encodes and decodes every request and reply of the run the way the
/// client and server do, then frames and deframes them, timing each
/// codec per message. Inputs are built before the timed loops.
void TimeCodecs(const WorkloadDef& def, const std::vector<SessionRecord>& sessions,
                ReplayResult* out) {
  namespace net = llamatune::net;
  std::vector<std::string> names;
  std::vector<net::WireSessionSpec> specs;
  for (const SessionRecord& s : sessions) {
    names.push_back("t" + std::to_string(s.tenant) + "-s" +
                    std::to_string(s.index));
    specs.push_back(MakeWireSpec(def, def.tenants[s.tenant], s.seed));
  }
  std::vector<std::pair<net::MessageKind, std::string>> payloads;
  int64_t broken = 0;
  std::string decoded_name;
  const Clock::time_point msg_start = Clock::now();
  for (size_t i = 0; i < sessions.size(); ++i) {
    const SessionRecord& s = sessions[i];
    std::string create = net::EncodeCreateSession(names[i], specs[i]);
    net::WireSessionSpec spec;
    if (!net::DecodeCreateSession(create, &decoded_name, &spec).ok() ||
        spec.space_knobs.size() != specs[i].space_knobs.size()) {
      ++broken;
    }
    payloads.emplace_back(net::MessageKind::kCreateSession, std::move(create));
    for (const TrialRecord& record : s.trials) {
      std::string ask = net::EncodeNameOnly(names[i]);
      if (!net::DecodeNameOnly(ask).ok()) ++broken;
      std::string reply = net::EncodeTrialReply(record.trial);
      Result<Trial> trial = net::DecodeTrialReply(reply);
      if (!trial.ok() || !SameTrial(*trial, record.trial)) ++broken;
      std::string tell = net::EncodeTell(names[i], record.result);
      llamatune::TrialResult result;
      if (!net::DecodeTell(tell, &decoded_name, &result).ok() ||
          !BitsEqual(result.value, record.result.value)) {
        ++broken;
      }
      payloads.emplace_back(net::MessageKind::kAsk, std::move(ask));
      payloads.emplace_back(net::MessageKind::kTrialReply, std::move(reply));
      payloads.emplace_back(net::MessageKind::kTell, std::move(tell));
    }
    std::string checkpoint = net::EncodeCheckpointReply(s.checkpoint);
    Result<std::string> back = net::DecodeCheckpointReply(checkpoint);
    if (!back.ok() || *back != s.checkpoint) ++broken;
    payloads.emplace_back(net::MessageKind::kCheckpointReply,
                          std::move(checkpoint));
  }
  const double msg_us =
      std::chrono::duration<double, std::micro>(Clock::now() - msg_start)
          .count();

  net::FrameDecoder decoder;
  std::vector<size_t> frame_bytes;
  frame_bytes.reserve(payloads.size());
  const Clock::time_point frame_start = Clock::now();
  for (const auto& [kind, payload] : payloads) {
    const std::string frame = net::EncodeFrame(kind, payload);
    decoder.Feed(frame.data(), frame.size());
    Result<std::optional<net::Frame>> next = decoder.Next();
    if (!next.ok() || !next->has_value() || (*next)->payload != payload) {
      ++broken;
    }
    frame_bytes.push_back(frame.size());
  }
  const double frame_us =
      std::chrono::duration<double, std::micro>(Clock::now() - frame_start)
          .count();
  if (broken > 0) {
    ++out->mismatches;
    out->messages.push_back(std::to_string(broken) +
                            " messages did not survive their codec");
  }
  if (payloads.empty()) return;
  const double n = static_cast<double>(payloads.size());
  out->msg_codec_us = msg_us / n;
  out->frame_codec_us = frame_us / n;
  double create = 0, ask = 0, tell = 0;
  int64_t creates = 0, asks = 0, tells = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    const double bytes = static_cast<double>(frame_bytes[i]);
    switch (payloads[i].first) {
      case net::MessageKind::kCreateSession:
        create += bytes;
        ++creates;
        break;
      case net::MessageKind::kTrialReply:
        ask += bytes;
        ++asks;
        break;
      case net::MessageKind::kTell:
        tell += bytes;
        ++tells;
        break;
      default:
        break;
    }
  }
  out->create_request_bytes = create / static_cast<double>(creates);
  out->ask_reply_bytes = ask / static_cast<double>(asks);
  out->tell_request_bytes = tell / static_cast<double>(tells);
}

void Merge(ReplayResult&& from, ReplayResult* into) {
  auto append = [](std::vector<double>* to, const std::vector<double>& v) {
    to->insert(to->end(), v.begin(), v.end());
  };
  into->sessions += from.sessions;
  into->mismatches += from.mismatches;
  for (std::string& m : from.messages) {
    if (into->messages.size() < kMaxMessages) into->messages.push_back(m);
  }
  for (SessionQuality& q : from.quality) into->quality.push_back(std::move(q));
  append(&into->session_ask_ms, from.session_ask_ms);
  append(&into->session_tell_ms, from.session_tell_ms);
  append(&into->suggest_ms, from.suggest_ms);
  append(&into->observe_ms, from.observe_ms);
  append(&into->project_ms, from.project_ms);
  into->iterations += from.iterations;
  append(&into->service_ask_ms, from.service_ask_ms);
  append(&into->service_tell_ms, from.service_tell_ms);
  append(&into->wal_append_ms, from.wal_append_ms);
  append(&into->checkpoint_ms, from.checkpoint_ms);
  append(&into->checkpoint_bytes, from.checkpoint_bytes);
  into->wal_records += from.wal_records;
  into->wal_bytes += from.wal_bytes;
  into->wal_iterations += from.wal_iterations;
  append(&into->ask_wire_ms, from.ask_wire_ms);
  append(&into->ask_layer_ms, from.ask_layer_ms);
  append(&into->tell_wire_ms, from.tell_wire_ms);
  append(&into->tell_layer_ms, from.tell_layer_ms);
  append(&into->vanilla_suggest_ms, from.vanilla_suggest_ms);
}

/// A tenant outside the gated set (the vanilla baseline) is checked
/// like any other, but only its suggest times are kept, apart.
void MergeUngated(ReplayResult&& from, ReplayResult* into) {
  into->sessions += from.sessions;
  into->mismatches += from.mismatches;
  for (std::string& m : from.messages) {
    if (into->messages.size() < kMaxMessages) into->messages.push_back(m);
  }
  for (SessionQuality& q : from.quality) into->quality.push_back(std::move(q));
  into->vanilla_suggest_ms.insert(into->vanilla_suggest_ms.end(),
                                  from.suggest_ms.begin(), from.suggest_ms.end());
}

/// Trials per gated tenant the TuningService pass replays: enough for
/// stable medians, few enough that a DDPG run (≈30-50 ms per Tell) stays
/// well inside the benchmark's time limit.
constexpr size_t kServiceReplayTrials = 100;

/// The TuningService pass over the gated tenants' first sessions, one
/// after another: each call runs alone, so the wire round trip minus it
/// is what the wire path adds, contention between tenants included.
void ReplayServices(const WorkloadDef& def,
                    const std::vector<SessionRecord>& sessions,
                    const std::string& workdir, ReplayResult* out) {
  std::vector<size_t> replayed(def.tenants.size(), 0);
  for (const SessionRecord& s : sessions) {
    if (!def.tenants[s.tenant].gated ||
        replayed[s.tenant] >= kServiceReplayTrials) {
      continue;
    }
    ReplayService(def, s, workdir, out);
    replayed[s.tenant] += s.trials.size();
  }
}

}  // namespace

ReplayResult Replay(const WorkloadDef& def,
                    const std::vector<SessionRecord>& sessions, bool traced,
                    const std::string& workdir) {
  // Sessions are independent: replay them on one thread per core.
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  const int num_threads = static_cast<int>(std::max(1L, cores));
  std::vector<ReplayResult> partial(num_threads);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next++; i < sessions.size(); i = next++) {
        const SessionRecord& s = sessions[i];
        ReplayResult ungated;
        ReplayResult* out =
            def.tenants[s.tenant].gated ? &partial[t] : &ungated;
        ++out->sessions;
        ReplaySession(def, s, out);
        if (out == &ungated) MergeUngated(std::move(ungated), &partial[t]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ReplayResult out;
  for (ReplayResult& p : partial) Merge(std::move(p), &out);
  std::sort(out.quality.begin(), out.quality.end(),
            [](const SessionQuality& a, const SessionQuality& b) {
              return std::make_pair(a.tenant, a.index) <
                     std::make_pair(b.tenant, b.index);
            });
  if (traced) {
    ReplayServices(def, sessions, workdir, &out);
    TimeCodecs(def, sessions, &out);
  }
  return out;
}

}  // namespace perfbench
