#include "src/core/tuning_session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string_view>
#include <utility>

#include "src/common/serde.h"
#include "src/common/thread_pool.h"
#include "src/optimizer/history_io.h"

namespace llamatune {

namespace {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

int64_t NowUnixMillis() {
  using Clock = std::chrono::system_clock;
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

constexpr char kCheckpointHeader[] = "llamatune-checkpoint";
// v2: per-outcome penalty options, pending-trial deadlines, "told"
// lines carry a typed outcome code, and expired round slots are
// recorded as "expired" so replay reproduces the drop.
// v3: the options line carries a trailing racing block, and racing
// rung rounds serialize as tag 'R' with per-slot "rung" lines
// (outcome, value, fidelity, metrics). Restore still accepts v2
// files — they simply predate racing and fidelity, so every recorded
// measurement is full-fidelity.
constexpr int kCheckpointVersion = 3;
constexpr int kMinCheckpointVersion = 2;

}  // namespace

Status RacingOptions::Validate() const {
  if (cohort < 1) {
    return Status::InvalidArgument("RacingOptions: cohort must be >= 1, got " +
                                   std::to_string(cohort));
  }
  if (rungs < 1) {
    return Status::InvalidArgument("RacingOptions: rungs must be >= 1, got " +
                                   std::to_string(rungs));
  }
  if (!(min_fidelity > 0.0) || min_fidelity > 1.0) {
    return Status::InvalidArgument(
        "RacingOptions: min_fidelity must be in (0, 1]");
  }
  if (!(eta > 1.0)) {
    return Status::InvalidArgument("RacingOptions: eta must be > 1");
  }
  if (ci_z < 0.0) {
    return Status::InvalidArgument("RacingOptions: ci_z must be >= 0");
  }
  return Status::OK();
}

Status SessionOptions::Validate() const {
  if (num_iterations < 0) {
    return Status::InvalidArgument(
        "SessionOptions: num_iterations must be >= 0, got " +
        std::to_string(num_iterations));
  }
  if (batch_size < 1) {
    return Status::InvalidArgument(
        "SessionOptions: batch_size must be >= 1, got " +
        std::to_string(batch_size));
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "SessionOptions: num_threads must be >= 0 (0 = shared pool size), "
        "got " +
        std::to_string(num_threads));
  }
  if (!(crash_penalty_divisor > 0.0)) {
    return Status::InvalidArgument(
        "SessionOptions: crash_penalty_divisor must be > 0");
  }
  if (!(timeout_penalty_divisor > 0.0)) {
    return Status::InvalidArgument(
        "SessionOptions: timeout_penalty_divisor must be > 0");
  }
  if (!(lost_penalty_divisor > 0.0)) {
    return Status::InvalidArgument(
        "SessionOptions: lost_penalty_divisor must be > 0");
  }
  if (pending_deadline_ms < 0) {
    return Status::InvalidArgument(
        "SessionOptions: pending_deadline_ms must be >= 0 (0 = no deadline), "
        "got " +
        std::to_string(pending_deadline_ms));
  }
  if (racing.has_value()) {
    LT_RETURN_NOT_OK(racing->Validate());
  }
  return Status::OK();
}

TuningSession::TuningSession(ObjectiveFunction* objective,
                             SpaceAdapter* adapter, Optimizer* optimizer,
                             SessionOptions options)
    : objective_(objective),
      config_space_(&objective->config_space()),
      maximize_(objective->maximize()),
      adapter_(adapter),
      optimizer_(optimizer),
      options_(std::move(options)),
      init_status_(options_.Validate()) {}

TuningSession::TuningSession(const ConfigSpace* config_space, bool maximize,
                             SpaceAdapter* adapter, Optimizer* optimizer,
                             SessionOptions options)
    : objective_(nullptr),
      config_space_(config_space),
      maximize_(maximize),
      adapter_(adapter),
      optimizer_(optimizer),
      options_(std::move(options)),
      init_status_(options_.Validate()) {}

double TuningSession::Penalized(double divisor) const {
  // Internal objectives are always maximize-convention; the paper
  // assigns a quarter of the worst seen so far.
  if (worst_objective_ >= 0.0) {
    return worst_objective_ / divisor;
  }
  return worst_objective_ * divisor;
}

double TuningSession::PenaltyDivisorFor(TrialOutcome outcome) const {
  switch (outcome) {
    case TrialOutcome::kTimedOut:
      return options_.timeout_penalty_divisor;
    case TrialOutcome::kLost:
      return options_.lost_penalty_divisor;
    case TrialOutcome::kCrashed:
    case TrialOutcome::kOk:
      break;
  }
  return options_.crash_penalty_divisor;
}

void TuningSession::ScoreResult(const TrialResult& result,
                                double* objective_value, double* measured) {
  if (IsFailure(result.outcome)) {
    *objective_value = Penalized(PenaltyDivisorFor(result.outcome));
    *measured = maximize_ ? *objective_value : -*objective_value;
  } else {
    *objective_value = maximize_ ? result.value : -result.value;
    *measured = result.value;
    worst_objective_ = std::min(worst_objective_, *objective_value);
  }
}

void TuningSession::AppendRecord(const Trial& trial, const TrialResult& result,
                                 double objective_value, double measured) {
  IterationRecord record;
  record.iteration = ++iterations_run_;
  record.point = trial.point;
  record.config = trial.config;
  record.measured = measured;
  record.objective = objective_value;
  record.crashed = result.crashed();
  record.outcome = result.outcome;
  record.metrics = result.metrics;
  kb_.Add(std::move(record));

  if (options_.early_stopping.has_value()) {
    double best = kb_.BestSoFarObjective().back();
    if (options_.early_stopping->Update(best)) {
      stopped_ = true;
    }
  }
  if (iterations_run_ >= options_.num_iterations) stopped_ = true;
}

int TuningSession::RemainingBudget() const {
  // A race is one budget iteration however many rung trials it holds
  // pending; in a racing session all non-baseline pending trials
  // belong to the active race.
  if (options_.racing.has_value()) {
    return options_.num_iterations - iterations_run_ -
           (race_.has_value() ? 1 : 0);
  }
  int pending = static_cast<int>(pending_.size());
  if (baseline_pending_) --pending;
  return options_.num_iterations - iterations_run_ - pending;
}

bool TuningSession::finished() const {
  if (!init_status_.ok()) return true;
  if (stopped_) return true;
  if (!baseline_done_) return false;
  // An active race counts as one budget iteration, so RemainingBudget
  // hits 0 while its later rungs still hand out trials — the session is
  // not finished until the champion commits.
  if (race_.has_value()) return false;
  return RemainingBudget() <= 0;
}

double TuningSession::RungFidelity(int rung) const {
  const RacingOptions& racing = *options_.racing;
  // Geometric ladder min_fidelity^((R-1-r)/(R-1)): rung 0 runs at
  // min_fidelity, the final rung at exactly 1.0 (the literal, not a
  // computed power — full-fidelity rung trials must evaluate
  // bit-identically to ordinary trials).
  if (racing.rungs <= 1 || rung >= racing.rungs - 1) return 1.0;
  double exponent = static_cast<double>(racing.rungs - 1 - rung) /
                    static_cast<double>(racing.rungs - 1);
  return std::pow(racing.min_fidelity, exponent);
}

Status TuningSession::StartRace() {
  const RacingOptions& racing = *options_.racing;
  double t0 = NowSeconds();
  std::vector<std::vector<double>> points;
  if (racing.cohort == 1) {
    // The single-candidate draw goes through Suggest(), exactly like a
    // non-racing Ask — the degenerate race must consume the identical
    // optimizer call sequence.
    points.push_back(optimizer_->Suggest());
  } else {
    points = optimizer_->SuggestBatch(racing.cohort);
    if (static_cast<int>(points.size()) > racing.cohort) {
      points.resize(racing.cohort);
    }
  }
  optimizer_seconds_ += NowSeconds() - t0;
  if (points.empty()) {
    stopped_ = true;
    return Status::OutOfRange("Ask: optimizer returned no race candidates");
  }
  race_.emplace();
  race_->candidates.reserve(points.size());
  for (auto& point : points) {
    RaceCandidate candidate;
    candidate.config = adapter_->Project(point);
    candidate.point = std::move(point);
    race_->candidates.push_back(std::move(candidate));
  }
  StartRung();
  return Status::OK();
}

void TuningSession::StartRung() {
  double fidelity = RungFidelity(race_->rung);
  Round round;
  round.kind = Round::Kind::kRung;
  race_->slot_candidates.clear();
  race_->slot_of_id.clear();
  race_->unserved.clear();
  for (size_t c = 0; c < race_->candidates.size(); ++c) {
    if (!race_->candidates[c].alive) continue;
    Trial trial;
    trial.id = next_trial_id_++;
    trial.point = race_->candidates[c].point;
    trial.config = race_->candidates[c].config;
    trial.fidelity = fidelity;
    int slot = static_cast<int>(round.ids.size());
    round.ids.push_back(trial.id);
    race_->slot_candidates.push_back(static_cast<int>(c));
    race_->slot_of_id.emplace(trial.id, slot);
    race_->unserved.push_back(trial.id);
    pending_.emplace(trial.id,
                     PendingTrial{std::move(trial), std::nullopt,
                                  NowUnixMillis()});
  }
  round.requested = static_cast<int>(round.ids.size());
  open_rounds_.push_back(std::move(round));
}

void TuningSession::EliminateAfterRung() {
  const RacingOptions& racing = *options_.racing;
  std::vector<int> alive;
  for (size_t c = 0; c < race_->candidates.size(); ++c) {
    if (race_->candidates[c].alive) alive.push_back(static_cast<int>(c));
  }
  if (alive.size() <= 1) return;
  // CI-overlap rule: a candidate whose upper confidence bound lies
  // below the best candidate's lower bound cannot win; drop it. With
  // fewer than two samples the half-width is infinite, so nothing is
  // eliminated on confidence alone — the rank cap below still bites.
  if (racing.ci_z > 0.0) {
    double best_lower = -std::numeric_limits<double>::infinity();
    for (int c : alive) {
      const RunningStat& stat = race_->candidates[c].stat;
      double lower = stat.Mean() - stat.CiHalfWidth(racing.ci_z);
      if (lower > best_lower) best_lower = lower;
    }
    for (int c : alive) {
      const RunningStat& stat = race_->candidates[c].stat;
      if (stat.Mean() + stat.CiHalfWidth(racing.ci_z) < best_lower) {
        race_->candidates[c].alive = false;
      }
    }
  }
  // Successive-halving cap: at most ceil(alive / eta) candidates
  // advance, ranked by accumulated mean; stable sort keeps draw order
  // on ties, so the cut is deterministic.
  int target = std::max(
      1, static_cast<int>(std::ceil(static_cast<double>(alive.size()) /
                                    racing.eta)));
  std::vector<int> survivors;
  for (int c : alive) {
    if (race_->candidates[c].alive) survivors.push_back(c);
  }
  if (static_cast<int>(survivors.size()) <= target) return;
  std::stable_sort(survivors.begin(), survivors.end(), [this](int a, int b) {
    return race_->candidates[a].stat.Mean() >
           race_->candidates[b].stat.Mean();
  });
  for (size_t rank = target; rank < survivors.size(); ++rank) {
    race_->candidates[survivors[rank]].alive = false;
  }
}

void TuningSession::CommitRungRound(Round& round) {
  const RacingOptions& racing = *options_.racing;
  int n = static_cast<int>(round.ids.size());
  std::vector<Trial> trials;
  trials.reserve(n);
  round.rung_results.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto it = pending_.find(round.ids[i]);
    trials.push_back(std::move(it->second.trial));
    round.rung_results.push_back(std::move(*it->second.result));
    pending_.erase(it);
  }
  std::vector<int> slot_candidates = race_->slot_candidates;
  // Feed the accumulated statistics in slot (= draw) order; a failure
  // outcome kills the candidate outright. Rung measurements never
  // touch the penalty floor — only the committed champion does.
  for (int i = 0; i < n; ++i) {
    RaceCandidate& candidate = race_->candidates[slot_candidates[i]];
    const TrialResult& result = round.rung_results[i];
    simulated_work_ += trials[i].fidelity;
    if (IsFailure(result.outcome)) {
      candidate.alive = false;
    } else {
      candidate.stat.Push(maximize_ ? result.value : -result.value);
    }
  }
  bool final_rung = race_->rung >= racing.rungs - 1;
  bool any_alive = false;
  for (const RaceCandidate& candidate : race_->candidates) {
    if (candidate.alive) {
      any_alive = true;
      break;
    }
  }
  if (!final_rung && any_alive) {
    EliminateAfterRung();
    ++race_->rung;
    StartRung();
    return;
  }

  // Final rung (or every candidate failed): commit exactly ONE
  // observation for the whole race — the champion's full-fidelity
  // result, chosen by best accumulated mean among surviving candidates
  // (ties go to draw order). When nothing survived, the first slot's
  // failure commits instead and scores its outcome's penalty, so a
  // race always costs exactly one budget iteration.
  round.final_rung = true;
  int champion_slot = -1;
  for (int i = 0; i < n; ++i) {
    const RaceCandidate& candidate = race_->candidates[slot_candidates[i]];
    if (!candidate.alive || IsFailure(round.rung_results[i].outcome)) continue;
    if (champion_slot < 0 ||
        candidate.stat.Mean() >
            race_->candidates[slot_candidates[champion_slot]].stat.Mean()) {
      champion_slot = i;
    }
  }
  if (champion_slot < 0) champion_slot = 0;
  const Trial& champ_trial = trials[champion_slot];
  const TrialResult& champ_result = round.rung_results[champion_slot];
  double objective_value = 0.0;
  double measured = 0.0;
  ScoreResult(champ_result, &objective_value, &measured);
  double t0 = NowSeconds();
  optimizer_->ObserveMetrics(champ_result.metrics);
  optimizer_->Observe(champ_trial.point, objective_value);
  optimizer_seconds_ += NowSeconds() - t0;
  AppendRecord(champ_trial, champ_result, objective_value, measured);
  race_.reset();
}

Result<Trial> TuningSession::Ask() {
  if (!init_status_.ok()) return init_status_;
  if (!baseline_done_) {
    if (baseline_pending_) {
      return Status::FailedPrecondition(
          "Ask: the baseline trial is outstanding; Tell its result first");
    }
    Trial trial;
    trial.id = next_trial_id_++;
    trial.config = config_space_->DefaultConfiguration();
    trial.is_baseline = true;
    Round round;
    round.kind = Round::Kind::kBaseline;
    round.requested = 1;
    round.ids = {trial.id};
    pending_.emplace(trial.id,
                    PendingTrial{trial, std::nullopt, NowUnixMillis()});
    open_rounds_.push_back(std::move(round));
    baseline_pending_ = true;
    return trial;
  }
  if (stopped_ && !replaying_) {
    return Status::OutOfRange("Ask: session stopped (budget or early stop)");
  }
  if (options_.racing.has_value()) {
    if (!race_.has_value()) {
      if (RemainingBudget() <= 0) {
        return Status::OutOfRange(
            "Ask: iteration budget exhausted (counting the active race)");
      }
      LT_RETURN_NOT_OK(StartRace());
    }
    if (race_->unserved.empty()) {
      return Status::FailedPrecondition(
          "Ask: the current racing rung is fully handed out; Tell its "
          "results to open the next rung");
    }
    int64_t id = race_->unserved.front();
    race_->unserved.pop_front();
    return pending_.at(id).trial;
  }
  if (RemainingBudget() <= 0) {
    return Status::OutOfRange(
        "Ask: iteration budget exhausted (counting pending trials)");
  }
  double t0 = NowSeconds();
  std::vector<double> point = optimizer_->Suggest();
  optimizer_seconds_ += NowSeconds() - t0;

  Trial trial;
  trial.id = next_trial_id_++;
  trial.config = adapter_->Project(point);
  trial.point = std::move(point);
  Round round;
  round.kind = Round::Kind::kSingle;
  round.requested = 1;
  round.ids = {trial.id};
  pending_.emplace(trial.id,
                    PendingTrial{trial, std::nullopt, NowUnixMillis()});
  open_rounds_.push_back(std::move(round));
  return trial;
}

Result<std::vector<Trial>> TuningSession::AskBatch(int n) {
  if (!init_status_.ok()) return init_status_;
  if (n < 1) {
    return Status::InvalidArgument("AskBatch: n must be >= 1, got " +
                                   std::to_string(n));
  }
  if (!baseline_done_) {
    Result<Trial> baseline = Ask();
    if (!baseline.ok()) return baseline.status();
    return std::vector<Trial>{std::move(baseline).ValueOrDie()};
  }
  if (stopped_ && !replaying_) {
    return Status::OutOfRange("AskBatch: session stopped");
  }
  if (options_.racing.has_value()) {
    if (!race_.has_value()) {
      if (RemainingBudget() <= 0) {
        return Status::OutOfRange(
            "AskBatch: iteration budget exhausted (counting the active "
            "race)");
      }
      LT_RETURN_NOT_OK(StartRace());
    }
    if (race_->unserved.empty()) {
      return Status::FailedPrecondition(
          "AskBatch: the current racing rung is fully handed out; Tell its "
          "results to open the next rung");
    }
    std::vector<Trial> trials;
    while (!race_->unserved.empty() &&
           static_cast<int>(trials.size()) < n) {
      int64_t id = race_->unserved.front();
      race_->unserved.pop_front();
      trials.push_back(pending_.at(id).trial);
    }
    return trials;
  }
  int budget = RemainingBudget();
  if (budget <= 0) {
    return Status::OutOfRange(
        "AskBatch: iteration budget exhausted (counting pending trials)");
  }
  n = std::min(n, budget);

  double t0 = NowSeconds();
  std::vector<std::vector<double>> points = optimizer_->SuggestBatch(n);
  optimizer_seconds_ += NowSeconds() - t0;
  // An override may return fewer points than asked; never accept more
  // (extra points would overshoot the iteration budget, and in the
  // Run/Step path would share evaluation clones across threads).
  if (static_cast<int>(points.size()) > n) points.resize(n);
  if (points.empty()) {
    stopped_ = true;
    return Status::OutOfRange("AskBatch: optimizer returned no suggestions");
  }

  Round round;
  round.kind = Round::Kind::kBatch;
  round.requested = n;
  std::vector<Trial> trials;
  trials.reserve(points.size());
  for (auto& point : points) {
    Trial trial;
    trial.id = next_trial_id_++;
    trial.config = adapter_->Project(point);
    trial.point = std::move(point);
    round.ids.push_back(trial.id);
    pending_.emplace(trial.id,
                    PendingTrial{trial, std::nullopt, NowUnixMillis()});
    trials.push_back(std::move(trial));
  }
  open_rounds_.push_back(std::move(round));
  return trials;
}

Status TuningSession::Tell(const TrialResult& result) {
  if (!init_status_.ok()) return init_status_;
  auto it = pending_.find(result.trial_id);
  if (it == pending_.end()) {
    if (expired_ids_.count(result.trial_id) > 0) {
      return Status::TrialExpired(
          "Tell: trial " + std::to_string(result.trial_id) +
          " expired (deadline passed; its budget was reclaimed)");
    }
    if (result.trial_id >= 1 && result.trial_id < next_trial_id_) {
      return Status::AlreadyExists(
          "Tell: trial " + std::to_string(result.trial_id) +
          " was already told and committed");
    }
    return Status::NotFound("Tell: unknown trial id " +
                            std::to_string(result.trial_id));
  }
  if (it->second.result.has_value()) {
    return Status::AlreadyExists("Tell: trial " +
                                 std::to_string(result.trial_id) +
                                 " was already told (buffered)");
  }
  // A non-finite measurement would silently poison GP target
  // standardization (every standardized target becomes NaN); refuse it
  // at the boundary. Failure outcomes ignore `value`, so they pass.
  if (!IsFailure(result.outcome) && !std::isfinite(result.value)) {
    return Status::InvalidArgument(
        "Tell: non-finite value for trial " +
        std::to_string(result.trial_id) +
        " (report a failure outcome instead of NaN/Inf)");
  }
  it->second.result = result;
  // The asked Trial's fidelity is authoritative: a peer that predates
  // the fidelity token (or simply echoes the default) still answers
  // short-run trials correctly.
  it->second.result->fidelity = it->second.trial.fidelity;
  CommitReadyRounds();
  return Status::OK();
}

Status TuningSession::TellBatch(const std::vector<TrialResult>& results) {
  // Validate the whole batch before buffering anything: a non-finite
  // value in result k must not leave results [0, k) half-applied (the
  // caller would have to untangle which tells took).
  for (const TrialResult& result : results) {
    if (!IsFailure(result.outcome) && !std::isfinite(result.value)) {
      return Status::InvalidArgument(
          "TellBatch: non-finite value for trial " +
          std::to_string(result.trial_id) +
          " (use a failure outcome when there is no measurement)");
    }
  }
  for (const TrialResult& result : results) {
    LT_RETURN_NOT_OK(Tell(result));
  }
  return Status::OK();
}

Status TuningSession::Expire(int64_t trial_id) {
  if (!init_status_.ok()) return init_status_;
  auto it = pending_.find(trial_id);
  if (it == pending_.end()) {
    // Idempotent on already-expired ids: WAL replay may re-apply an
    // expiry record that the autosave already captured.
    if (expired_ids_.count(trial_id) > 0) return Status::OK();
    if (trial_id >= 1 && trial_id < next_trial_id_) {
      return Status::AlreadyExists("Expire: trial " +
                                   std::to_string(trial_id) +
                                   " was already told and committed");
    }
    return Status::NotFound("Expire: unknown trial id " +
                            std::to_string(trial_id));
  }
  if (it->second.trial.is_baseline) {
    return Status::FailedPrecondition(
        "Expire: the baseline trial cannot expire (no session can start "
        "without its crash-penalty floor)");
  }
  if (it->second.result.has_value()) {
    return Status::FailedPrecondition(
        "Expire: trial " + std::to_string(trial_id) +
        " already has a buffered result");
  }
  if (race_.has_value() && race_->slot_of_id.count(trial_id) > 0) {
    return Status::FailedPrecondition(
        "Expire: trial " + std::to_string(trial_id) +
        " belongs to the active racing rung; every rung slot must be told "
        "for the race to stay deterministic");
  }
  pending_.erase(it);
  expired_ids_.insert(trial_id);
  // Dropping the slot may complete its round (all other slots told).
  CommitReadyRounds();
  return Status::OK();
}

std::vector<int64_t> TuningSession::ExpireOverdue(int64_t now_ms) {
  if (!init_status_.ok() || options_.pending_deadline_ms <= 0) return {};
  std::vector<int64_t> overdue;
  for (const auto& [id, pending] : pending_) {
    if (pending.trial.is_baseline || pending.result.has_value()) continue;
    // Racing rung trials are exempt: dropping a slot would change the
    // race's elimination sequence, so rungs must complete.
    if (race_.has_value() && race_->slot_of_id.count(id) > 0) continue;
    if (now_ms - pending.asked_at_ms >= options_.pending_deadline_ms) {
      overdue.push_back(id);
    }
  }
  std::vector<int64_t> expired;
  expired.reserve(overdue.size());
  for (int64_t id : overdue) {
    if (Expire(id).ok()) expired.push_back(id);
  }
  return expired;
}

std::vector<Trial> TuningSession::PendingSnapshot() const {
  std::vector<Trial> trials;
  trials.reserve(pending_.size());
  for (const auto& [id, pending] : pending_) {
    if (!pending.result.has_value()) trials.push_back(pending.trial);
  }
  return trials;
}

void TuningSession::CommitReadyRounds() {
  while (!open_rounds_.empty()) {
    const Round& front = open_rounds_.front();
    bool complete = true;
    for (int64_t id : front.ids) {
      if (expired_ids_.count(id) > 0) continue;  // dropped slot
      auto it = pending_.find(id);
      if (it == pending_.end() || !it->second.result.has_value()) {
        complete = false;
        break;
      }
    }
    if (!complete) return;
    Round round = std::move(open_rounds_.front());
    open_rounds_.pop_front();
    CommitRound(round);
    committed_rounds_.push_back(std::move(round));
  }
}

void TuningSession::CommitRound(Round& round) {
  if (round.kind == Round::Kind::kRung) {
    CommitRungRound(round);
    return;
  }
  if (round.kind == Round::Kind::kBaseline) {
    auto it = pending_.find(round.ids[0]);
    TrialResult result = std::move(*it->second.result);
    pending_.erase(it);
    // Iteration 0: establishes the crash-penalty floor and feeds the
    // RL state, but is not an optimizer observation (synthetic spaces
    // have no preimage for the default configuration). The crashed
    // flag is ignored here, as in the classic loop.
    double objective_value = maximize_ ? result.value : -result.value;
    default_performance_ = result.value;
    worst_objective_ = objective_value;
    simulated_work_ += 1.0;  // the baseline is always a full run
    baseline_metrics_ = result.metrics;
    optimizer_->ObserveMetrics(baseline_metrics_);
    baseline_done_ = true;
    baseline_pending_ = false;
    return;
  }

  // Expired slots were dropped from the round: no trial, no result,
  // no observation. A round can even commit empty (every slot
  // expired) — the optimizer's suggest draw already happened at ask
  // time, so the draw sequence stays intact either way.
  std::vector<Trial> trials;
  std::vector<TrialResult> results;
  trials.reserve(round.ids.size());
  results.reserve(round.ids.size());
  for (int64_t id : round.ids) {
    if (expired_ids_.count(id) > 0) continue;
    auto it = pending_.find(id);
    trials.push_back(std::move(it->second.trial));
    results.push_back(std::move(*it->second.result));
    pending_.erase(it);
  }
  int n = static_cast<int>(trials.size());
  if (n == 0) return;

  // Score in suggestion order so crash penalties, best-so-far curves
  // and early stopping are independent of evaluation interleaving.
  std::vector<double> values(n);
  std::vector<double> measured(n);
  for (int i = 0; i < n; ++i) {
    simulated_work_ += trials[i].fidelity;
    ScoreResult(results[i], &values[i], &measured[i]);
  }
  // Only genuine optimizer work counts toward optimizer_seconds_
  // (Table 10 comparability).
  double t0 = NowSeconds();
  for (int i = 0; i < n; ++i) optimizer_->ObserveMetrics(results[i].metrics);
  if (round.kind == Round::Kind::kBatch) {
    std::vector<std::vector<double>> points(n);
    for (int i = 0; i < n; ++i) points[i] = trials[i].point;
    optimizer_->ObserveBatch(points, values);
  } else {
    optimizer_->Observe(trials[0].point, values[0]);
  }
  optimizer_seconds_ += NowSeconds() - t0;
  for (int i = 0; i < n; ++i) {
    AppendRecord(trials[i], results[i], values[i], measured[i]);
  }
}

std::vector<TrialResult> TuningSession::EvaluateTrials(
    const std::vector<Trial>& trials) {
  int n = static_cast<int>(trials.size());
  std::vector<TrialResult> results(n);
  auto to_result = [](const Trial& trial, const EvalResult& r) {
    TrialResult result;
    result.trial_id = trial.id;
    result.value = r.value;
    result.outcome = r.EffectiveOutcome();
    result.metrics = r.metrics;
    result.fidelity = r.fidelity;
    return result;
  };
  // Full-fidelity trials go through Evaluate() itself — the exact
  // pre-fidelity call — so existing sessions stay bit-identical even
  // against objectives that override only Evaluate.
  auto evaluate = [](ObjectiveFunction* fn, const Trial& trial) {
    return trial.fidelity < 1.0 ? fn->EvaluateAt(trial.config, trial.fidelity)
                                : fn->Evaluate(trial.config);
  };

  // The baseline and the sequential (batch_size == 1) path evaluate on
  // the objective itself, exactly like the classic loop.
  if (n == 1 && (trials[0].is_baseline || options_.batch_size <= 1)) {
    results[0] = to_result(trials[0], evaluate(objective_, trials[0]));
    return results;
  }

  // One clone per batch slot, built once and reused: each slot keeps
  // its own evaluation counter, so a session is deterministic for a
  // fixed (seed, batch size) pair. Racing rungs can be wider than the
  // batch size, so the pool covers the cohort too — two slots must
  // never share a clone concurrently.
  if (!clone_pool_built_) {
    clone_pool_built_ = true;
    int pool_size = options_.batch_size;
    if (options_.racing.has_value()) {
      pool_size = std::max(pool_size, options_.racing->cohort);
    }
    for (int i = 0; i < pool_size; ++i) {
      std::unique_ptr<ObjectiveFunction> clone = objective_->Clone();
      if (clone == nullptr) {
        clone_pool_.clear();
        break;
      }
      clone_pool_.push_back(std::move(clone));
    }
  }

  if (clone_pool_.empty()) {
    // Objective cannot be cloned: evaluate the batch sequentially.
    for (int i = 0; i < n; ++i) {
      results[i] = to_result(trials[i], evaluate(objective_, trials[i]));
    }
  } else {
    // Each batch slot evaluates on its own clone over the shared pool
    // (the caller participates, so nested parallelism — e.g. inside a
    // seed-sharded experiment — cannot deadlock). Slot i always maps
    // to clone i, so results are independent of scheduling.
    ThreadPool::Global().ParallelFor(
        n,
        [this, &trials, &results, &to_result, &evaluate](int i) {
          ObjectiveFunction* instance =
              clone_pool_[i % clone_pool_.size()].get();
          results[i] = to_result(trials[i], evaluate(instance, trials[i]));
        },
        options_.num_threads);
  }
  return results;
}

bool TuningSession::Step() {
  if (!init_status_.ok()) return false;
  if (objective_ == nullptr) return false;  // detached: caller drives Ask/Tell
  if (stopped_) return false;

  if (!baseline_done_) {
    Result<Trial> baseline = Ask();
    if (!baseline.ok()) return false;
    std::vector<TrialResult> results = EvaluateTrials({*baseline});
    Tell(results[0]);
    return true;
  }

  if (iterations_run_ >= options_.num_iterations) {
    stopped_ = true;
    return false;
  }

  if (options_.racing.has_value()) {
    // One Step = one rung: ask the whole rung, measure it (in parallel
    // across clones when the cohort is wide), and tell the results —
    // the commit path then eliminates candidates and opens the next
    // rung, or commits the race champion.
    Result<std::vector<Trial>> trials = AskBatch(options_.racing->cohort);
    if (!trials.ok()) return false;
    std::vector<TrialResult> results = EvaluateTrials(*trials);
    TellBatch(results);
    return true;
  }

  if (options_.batch_size > 1) {
    Result<std::vector<Trial>> trials = AskBatch(options_.batch_size);
    if (!trials.ok()) return false;
    std::vector<TrialResult> results = EvaluateTrials(*trials);
    TellBatch(results);
    return true;
  }

  Result<Trial> trial = Ask();
  if (!trial.ok()) return false;
  std::vector<TrialResult> results = EvaluateTrials({*trial});
  Tell(results[0]);
  return true;
}

SessionResult TuningSession::Run() {
  if (!init_status_.ok()) return SessionResult{};
  if (!baseline_done_ && options_.early_stopping.has_value()) {
    options_.early_stopping->Reset();
  }
  while (Step()) {
  }
  return Snapshot();
}

SessionResult TuningSession::Snapshot() const {
  SessionResult result;
  result.kb = kb_;
  result.default_performance = default_performance_;
  result.iterations_run = iterations_run_;
  result.optimizer_seconds = optimizer_seconds_;
  result.simulated_work = simulated_work_;
  int best = kb_.BestIndex();
  if (best >= 0) {
    result.best_performance = kb_.record(best).measured;
    result.best_config = kb_.record(best).config;
  }
  return result;
}

std::string TuningSession::Save() const {
  TokenWriter out;
  out.Word(kCheckpointHeader)
      .Word("v" + std::to_string(kCheckpointVersion))
      .EndLine();
  out.Word("maximize").Bool(maximize_).EndLine();
  out.Word("options").Int(options_.num_iterations).Int(options_.batch_size);
  out.Bits(options_.crash_penalty_divisor)
      .Bits(options_.timeout_penalty_divisor)
      .Bits(options_.lost_penalty_divisor)
      .Int(options_.pending_deadline_ms)
      .Bool(options_.early_stopping.has_value());
  if (options_.early_stopping.has_value()) {
    out.Bits(options_.early_stopping->min_improvement_pct())
        .Int(options_.early_stopping->patience());
  }
  // v3: trailing racing block. Everything a v3 file adds over v2 for a
  // non-racing session is the version number and this one token.
  out.Word("racing").Bool(options_.racing.has_value());
  if (options_.racing.has_value()) {
    out.Int(options_.racing->cohort).Int(options_.racing->rungs);
    out.Bits(options_.racing->min_fidelity)
        .Bits(options_.racing->eta)
        .Bits(options_.racing->ci_z);
  }
  out.EndLine();
  out.Word("state").Int(iterations_run_).Bits(optimizer_seconds_).EndLine();
  out.Word("baseline").Bool(baseline_done_);
  if (baseline_done_) out.Bits(default_performance_).Doubles(baseline_metrics_);
  out.EndLine();
  // Evaluation-side state: the attached objective's (and its batch
  // clones') serializable state, so the resumed session continues with
  // the identical noise stream. Detached and stateless objectives
  // write nothing to restore.
  auto write_state = [&out](const char* tag, const ObjectiveFunction* fn) {
    std::optional<std::string> state =
        fn == nullptr ? std::nullopt : fn->SaveState();
    out.Word(tag).Bool(state.has_value());
    if (state.has_value()) out.Count(state->size()).Hex(*state);
    out.EndLine();
  };
  write_state("objective", objective_);
  if (!clone_pool_built_) {
    out.Word("clones").Int(-1).EndLine();
  } else {
    out.Word("clones").Count(clone_pool_.size()).EndLine();
    for (const auto& clone : clone_pool_) write_state("clone", clone.get());
  }
  out.Word("rounds").Count(committed_rounds_.size()).EndLine();
  int record_index = 0;
  for (const Round& round : committed_rounds_) {
    const char* tag = "B";
    switch (round.kind) {
      case Round::Kind::kBaseline:
        tag = "D";
        break;
      case Round::Kind::kSingle:
        tag = "S";
        break;
      case Round::Kind::kBatch:
        tag = "B";
        break;
      case Round::Kind::kRung:
        tag = "R";
        break;
    }
    out.Word("round").Word(tag).Int(round.requested).Count(round.ids.size());
    out.EndLine();
    if (round.kind == Round::Kind::kBaseline) continue;
    if (round.kind == Round::Kind::kRung) {
      // Rung measurements are not knowledge-base records (only the
      // race champion is); they were captured at commit. Replay
      // re-tells them through the race machinery, which re-derives
      // eliminations, the champion, and its KB record.
      for (const TrialResult& result : round.rung_results) {
        out.Word("rung").Int(static_cast<int>(result.outcome));
        out.Bits(result.value).Bits(result.fidelity).Doubles(result.metrics);
        out.EndLine();
      }
      // A final rung committed the champion's KB record; keep the
      // told-line cursor in sync for the rounds that follow.
      if (round.final_rung) ++record_index;
      continue;
    }
    for (size_t i = 0; i < round.ids.size(); ++i) {
      // Expired slots committed without an observation or a KB
      // record; replay must re-drop them, not re-tell them.
      if (expired_ids_.count(round.ids[i]) > 0) {
        out.Word("expired").EndLine();
        continue;
      }
      const IterationRecord& record = kb_.record(record_index++);
      out.Word("told").Int(static_cast<int>(record.outcome));
      out.Bits(record.measured).Doubles(record.metrics).EndLine();
    }
  }
  out.Word("history").Count(optimizer_->history().size()).EndLine();
  out.Raw(SerializeHistory(optimizer_->history()));
  out.Word("end").EndLine();
  return out.Take();
}

Status TuningSession::Restore(const std::string& checkpoint) {
  if (!init_status_.ok()) return init_status_;
  if (baseline_done_ || baseline_pending_ || !pending_.empty() ||
      iterations_run_ > 0 || !kb_.empty()) {
    return Status::FailedPrecondition(
        "Restore: requires a freshly constructed session");
  }

  // Parse errors stick in `in` (see TokenReader); the checks below
  // return them at the same points the grammar's semantic checks run.
  TokenReader in(checkpoint, "Restore");
  const std::string_view header = in.Word("checkpoint header");
  const std::string_view version = in.Word("checkpoint version");
  if (!in.ok() || header != kCheckpointHeader) {
    return Status::InvalidArgument("Restore: not a llamatune checkpoint");
  }
  int file_version = 0;
  for (int v = kMinCheckpointVersion; v <= kCheckpointVersion; ++v) {
    if (version == "v" + std::to_string(v)) file_version = v;
  }
  if (file_version == 0) {
    return Status::InvalidArgument("Restore: unsupported checkpoint version " +
                                   std::string(version));
  }

  const bool saved_maximize = in.Expect("maximize").Bool();
  LT_RETURN_NOT_OK(in.status());
  if (saved_maximize != maximize_) {
    return Status::FailedPrecondition(
        "Restore: checkpoint maximize convention does not match this "
        "session's objective");
  }

  const int64_t saved_iters = in.Expect("options").Int();
  const int64_t saved_batch = in.Int();
  const double saved_divisor = in.Bits();
  const double saved_timeout_divisor = in.Bits();
  const double saved_lost_divisor = in.Bits();
  const int64_t saved_deadline = in.Int();
  const bool saved_has_es = in.Bool();
  double saved_es_pct = 0.0;
  int64_t saved_es_patience = 0;
  if (saved_has_es) {
    saved_es_pct = in.Bits();
    saved_es_patience = in.Int();
  }
  // v3 racing block; a v2 file predates racing, so it can only restore
  // into a non-racing session.
  bool saved_racing = false;
  RacingOptions saved_racing_opts;
  if (file_version >= 3) saved_racing = in.Expect("racing").Bool();
  if (saved_racing) {
    saved_racing_opts.cohort = in.Int32();
    saved_racing_opts.rungs = in.Int32();
    saved_racing_opts.min_fidelity = in.Bits();
    saved_racing_opts.eta = in.Bits();
    saved_racing_opts.ci_z = in.Bits();
  }
  LT_RETURN_NOT_OK(in.status());
  if (saved_racing != options_.racing.has_value() ||
      (saved_racing &&
       (saved_racing_opts.cohort != options_.racing->cohort ||
        saved_racing_opts.rungs != options_.racing->rungs ||
        EncodeDoubleBits(saved_racing_opts.min_fidelity) !=
            EncodeDoubleBits(options_.racing->min_fidelity) ||
        EncodeDoubleBits(saved_racing_opts.eta) !=
            EncodeDoubleBits(options_.racing->eta) ||
        EncodeDoubleBits(saved_racing_opts.ci_z) !=
            EncodeDoubleBits(options_.racing->ci_z)))) {
    return Status::FailedPrecondition(
        "Restore: racing options do not match the checkpoint (rebuild the "
        "session with the saved racing settings, or without racing for a "
        "pre-racing checkpoint)");
  }
  if (saved_iters != options_.num_iterations ||
      saved_batch != options_.batch_size ||
      EncodeDoubleBits(saved_divisor) !=
          EncodeDoubleBits(options_.crash_penalty_divisor) ||
      EncodeDoubleBits(saved_timeout_divisor) !=
          EncodeDoubleBits(options_.timeout_penalty_divisor) ||
      EncodeDoubleBits(saved_lost_divisor) !=
          EncodeDoubleBits(options_.lost_penalty_divisor) ||
      saved_deadline != options_.pending_deadline_ms ||
      saved_has_es != options_.early_stopping.has_value() ||
      (options_.early_stopping.has_value() &&
       (EncodeDoubleBits(saved_es_pct) !=
            EncodeDoubleBits(options_.early_stopping->min_improvement_pct()) ||
        saved_es_patience != options_.early_stopping->patience()))) {
    return Status::FailedPrecondition(
        "Restore: SessionOptions do not match the checkpoint (rebuild the "
        "session with the saved iterations/batch/penalty/early-stopping "
        "settings)");
  }

  const int64_t saved_run = in.Expect("state").Int();
  const double saved_seconds = in.Bits();
  const bool baseline_done = in.Expect("baseline").Bool();
  double saved_default = 0.0;
  std::vector<double> saved_baseline_metrics;
  if (baseline_done) {
    saved_default = in.Bits();
    saved_baseline_metrics = in.Doubles();
  }

  auto read_state = [&in](const char* tag) -> std::optional<std::string> {
    if (!in.Expect(tag).Bool()) return std::nullopt;
    const int64_t size = in.Int();
    std::string payload = size > 0 ? in.Hex() : std::string();
    if (in.ok() && static_cast<int64_t>(payload.size()) != size) {
      in.Fail("state payload size mismatch");
    }
    return payload;
  };

  const std::optional<std::string> saved_objective_state =
      read_state("objective");
  const int64_t saved_clone_count = in.Expect("clones").Int();
  std::vector<std::optional<std::string>> saved_clone_states;
  for (int64_t i = 0; i < saved_clone_count && in.ok(); ++i) {
    saved_clone_states.push_back(read_state("clone"));
  }

  struct SavedTold {
    bool expired = false;
    TrialOutcome outcome = TrialOutcome::kOk;
    double value = 0.0;
    double fidelity = 1.0;
    std::vector<double> metrics;
  };
  struct SavedRound {
    char tag = 'S';
    int requested = 1;
    int size = 1;
    std::vector<SavedTold> told;
  };
  std::vector<SavedRound> saved_rounds;
  const int64_t n_rounds = in.Expect("rounds").Count(&saved_rounds);
  for (int64_t r = 0; r < n_rounds && in.ok(); ++r) {
    const std::string_view tag = in.Expect("round").Word("round kind");
    SavedRound round;
    round.requested = in.Int32();
    round.size = in.Int32();
    LT_RETURN_NOT_OK(in.status());
    if (tag.size() != 1 || std::string_view("DSBR").find(tag[0]) ==
                               std::string_view::npos) {
      return Status::InvalidArgument("Restore: bad round kind tag");
    }
    if (tag[0] == 'R' && file_version < 3) {
      return Status::InvalidArgument(
          "Restore: rung round in a pre-v3 checkpoint");
    }
    round.tag = tag[0];
    // Rung slots carry their measurement inline (they are not KB
    // records) and are never expired.
    const bool is_rung = round.tag == 'R';
    for (int i = 0; round.tag != 'D' && i < round.size && in.ok(); ++i) {
      const std::string_view slot = in.Word("round slot");
      SavedTold told;
      told.expired = !is_rung && slot == "expired";
      if (in.ok() && !told.expired && slot != (is_rung ? "rung" : "told")) {
        return Status::InvalidArgument(
            std::string("Restore: expected ") +
            (is_rung ? "'rung'" : "'told' or 'expired'") + " slot, got '" +
            std::string(slot) + "'");
      }
      if (!told.expired) {
        told.outcome = static_cast<TrialOutcome>(
            in.IntIn(0, static_cast<int64_t>(TrialOutcome::kLost)));
        told.value = in.Bits();
        if (is_rung) told.fidelity = in.Bits();
        told.metrics = in.Doubles();
      }
      round.told.push_back(std::move(told));
    }
    saved_rounds.push_back(std::move(round));
  }

  // The history block runs from the line after "history N" to a line
  // that is exactly "end".
  const int n_history = in.Expect("history").Int32();
  LT_RETURN_NOT_OK(in.status());
  in.SkipLine();
  Result<std::vector<Observation>> saved_history =
      ParseHistory(std::string(in.LinesUntil("end")), n_history);
  if (!saved_history.ok()) return saved_history.status();

  // --- Replay. The optimizer re-derives its model state and RNG
  // position from the same deterministic call sequence the original
  // session issued; the history block then pins the result.
  if (options_.early_stopping.has_value()) options_.early_stopping->Reset();
  if (!baseline_done) return Status::OK();  // nothing committed yet

  replaying_ = true;
  Status replay_status = Status::OK();
  for (const SavedRound& round : saved_rounds) {
    if (round.tag == 'D') {
      Result<Trial> baseline = Ask();
      if (!baseline.ok()) {
        replay_status = Status::Internal("Restore: baseline replay failed: " +
                                         baseline.status().ToString());
        break;
      }
      TrialResult result;
      result.trial_id = (*baseline).id;
      result.value = saved_default;
      result.metrics = saved_baseline_metrics;
      Status told = Tell(result);
      if (!told.ok()) {
        replay_status = told;
        break;
      }
      continue;
    }
    std::vector<Trial> trials;
    if (round.tag == 'S') {
      Result<Trial> trial = Ask();
      if (!trial.ok()) {
        replay_status = Status::Internal("Restore: replay Ask failed: " +
                                         trial.status().ToString());
        break;
      }
      trials.push_back(std::move(trial).ValueOrDie());
    } else {
      Result<std::vector<Trial>> batch = AskBatch(round.requested);
      if (!batch.ok()) {
        replay_status = Status::Internal("Restore: replay AskBatch failed: " +
                                         batch.status().ToString());
        break;
      }
      trials = std::move(batch).ValueOrDie();
    }
    if (static_cast<int>(trials.size()) != round.size) {
      replay_status = Status::Internal(
          "Restore: replay produced a different round size than the "
          "checkpoint (optimizer mismatch?)");
      break;
    }
    if (round.tag == 'R') {
      // The race machinery regenerates rung trials; their fidelities
      // must land exactly where the checkpoint recorded them.
      for (int i = 0; i < round.size; ++i) {
        if (EncodeDoubleBits(trials[i].fidelity) !=
            EncodeDoubleBits(round.told[i].fidelity)) {
          replay_status = Status::Internal(
              "Restore: replayed rung fidelity diverges from the "
              "checkpoint");
          break;
        }
      }
      if (!replay_status.ok()) break;
    }
    for (int i = 0; i < round.size; ++i) {
      if (round.told[i].expired) {
        Status dropped = Expire(trials[i].id);
        if (!dropped.ok()) {
          replay_status = Status::Internal("Restore: replay Expire failed: " +
                                           dropped.ToString());
          break;
        }
        continue;
      }
      TrialResult result;
      result.trial_id = trials[i].id;
      result.value = round.told[i].value;
      result.outcome = round.told[i].outcome;
      result.metrics = round.told[i].metrics;
      Status told = Tell(result);
      if (!told.ok()) {
        replay_status = told;
        break;
      }
    }
    if (!replay_status.ok()) break;
  }
  replaying_ = false;
  if (!replay_status.ok()) return replay_status;

  if (iterations_run_ != saved_run) {
    return Status::Internal(
        "Restore: replay reached iteration " +
        std::to_string(iterations_run_) + ", checkpoint recorded " +
        std::to_string(saved_run));
  }
  if (!HistoryBitsEqual(optimizer_->history(), *saved_history)) {
    return Status::Internal(
        "Restore: replayed optimizer history diverges from the checkpoint — "
        "the session was rebuilt with a different seed, optimizer, or "
        "adapter than the one that saved it");
  }
  // Evaluation-side state: bring the attached objective (and the
  // batch clone pool) back to the saver's noise-stream position. A
  // detached restore ignores these — the external system owns its own
  // state.
  if (objective_ != nullptr) {
    if (saved_objective_state.has_value()) {
      Status restored = objective_->RestoreState(*saved_objective_state);
      if (!restored.ok()) {
        return Status::FailedPrecondition(
            "Restore: the attached objective rejected the checkpointed "
            "evaluation state: " +
            restored.ToString());
      }
    }
    if (saved_clone_count >= 0) {
      clone_pool_.clear();
      clone_pool_built_ = true;
      for (size_t i = 0; i < saved_clone_states.size(); ++i) {
        std::unique_ptr<ObjectiveFunction> clone = objective_->Clone();
        if (clone == nullptr) {
          return Status::FailedPrecondition(
              "Restore: checkpoint recorded a clone pool but the attached "
              "objective does not support Clone()");
        }
        if (saved_clone_states[i].has_value()) {
          Status restored = clone->RestoreState(*saved_clone_states[i]);
          if (!restored.ok()) {
            return Status::FailedPrecondition(
                "Restore: clone rejected checkpointed state: " +
                restored.ToString());
          }
        }
        clone_pool_.push_back(std::move(clone));
      }
    }
  }

  // Replay recomputed suggestion/observation timing; report the
  // original session's accounting instead.
  optimizer_seconds_ = saved_seconds;
  return Status::OK();
}

}  // namespace llamatune
