#pragma once

#include <cstdint>
#include <memory>

#include "src/common/rng.h"
#include "src/nn/mlp.h"
#include "src/optimizer/optimizer.h"
#include "src/optimizer/replay_buffer.h"

namespace llamatune {

/// \brief DDPG configuration (network sizes follow CDBTune's spirit,
/// scaled for 100-iteration tuning sessions).
struct DdpgOptions {
  int state_dim = 27;  ///< number of DBMS internal metrics
  std::vector<int> actor_hidden = {64, 64};
  std::vector<int> critic_hidden = {64, 64};
  double actor_lr = 1e-3;
  double critic_lr = 1e-3;
  double gamma = 0.9;          ///< discount
  double tau = 0.01;           ///< soft target update rate
  size_t replay_capacity = 1000;
  size_t batch_size = 32;
  int updates_per_observe = 20;
  /// Exploration noise stddev (fraction of action range), decayed
  /// multiplicatively each suggestion.
  double noise_stddev = 0.4;
  double noise_decay = 0.985;
  double min_noise = 0.05;
  /// Reward scaling for the CDBTune-style delta-performance reward.
  double reward_scale = 10.0;
};

/// \brief Deep Deterministic Policy Gradient tuner (Lillicrap et al.;
/// used for DBMS tuning by CDBTune and QTune — paper §2.2, §6.4).
///
/// The actor maps the DBMS internal-metric state to an action in
/// [-1,1]^d which is affinely mapped onto the search space (categorical
/// dimensions are binned). The critic estimates Q(s, a). Rewards
/// follow CDBTune: scaled performance delta over the initial (default)
/// configuration, with a bonus for improving on the previous step.
class DdpgOptimizer : public Optimizer {
 public:
  DdpgOptimizer(SearchSpace space, DdpgOptions options, uint64_t seed);
  ~DdpgOptimizer() override;

  std::vector<double> Suggest() override;
  void Observe(const std::vector<double>& point, double value) override;
  void ObserveMetrics(const std::vector<double>& metrics) override;
  std::string name() const override { return "DDPG"; }

 private:
  std::vector<double> ActionToPoint(const std::vector<double>& action) const;
  std::vector<double> PointToAction(const std::vector<double>& point) const;
  /// One minibatch update: the critic, then the actor, then the soft
  /// target updates.
  void TrainStep();
  void UpdateCritic(const std::vector<const Transition*>& batch);
  void UpdateActor(const std::vector<const Transition*>& batch);

  DdpgOptions options_;
  Rng rng_;

  std::unique_ptr<Mlp> actor_;
  std::unique_ptr<Mlp> actor_target_;
  std::unique_ptr<Mlp> critic_;
  std::unique_ptr<Mlp> critic_target_;
  AdamOptimizer actor_adam_;
  AdamOptimizer critic_adam_;
  ReplayBuffer replay_;

  std::vector<double> state_;       // current metrics (s_t)
  std::vector<double> prev_state_;  // metrics before last action
  bool have_state_ = false;
  bool have_pending_action_ = false;
  double initial_perf_ = 0.0;
  double prev_perf_ = 0.0;
  bool have_initial_perf_ = false;
  double noise_ = 0.0;
};

}  // namespace llamatune
