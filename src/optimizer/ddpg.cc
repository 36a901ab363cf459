#include "src/optimizer/ddpg.h"

#include <algorithm>
#include <cmath>

#include "src/common/math_util.h"
#include "src/sampling/uniform.h"

namespace llamatune {

DdpgOptimizer::DdpgOptimizer(SearchSpace space, DdpgOptions options,
                             uint64_t seed)
    : Optimizer(std::move(space)),
      options_(options),
      rng_(seed),
      actor_adam_(options.actor_lr),
      critic_adam_(options.critic_lr),
      replay_(options.replay_capacity),
      noise_(options.noise_stddev) {
  int action_dim = space_.num_dims();
  actor_ = std::make_unique<Mlp>(options_.state_dim, options_.actor_hidden,
                                 action_dim, OutputActivation::kTanh, &rng_);
  actor_target_ = std::make_unique<Mlp>(options_.state_dim,
                                        options_.actor_hidden, action_dim,
                                        OutputActivation::kTanh, &rng_);
  critic_ = std::make_unique<Mlp>(options_.state_dim + action_dim,
                                  options_.critic_hidden, 1,
                                  OutputActivation::kLinear, &rng_);
  critic_target_ = std::make_unique<Mlp>(options_.state_dim + action_dim,
                                         options_.critic_hidden, 1,
                                         OutputActivation::kLinear, &rng_);
  actor_target_->CopyFrom(*actor_);
  critic_target_->CopyFrom(*critic_);
  actor_->RegisterParams(&actor_adam_);
  critic_->RegisterParams(&critic_adam_);
}

DdpgOptimizer::~DdpgOptimizer() = default;

std::vector<double> DdpgOptimizer::ActionToPoint(
    const std::vector<double>& action) const {
  std::vector<double> point(space_.num_dims());
  for (int j = 0; j < space_.num_dims(); ++j) {
    const SearchDim& dim = space_.dim(j);
    double u = Clamp((action[j] + 1.0) / 2.0, 0.0, 1.0);
    if (dim.type == SearchDim::Type::kCategorical) {
      int bin = static_cast<int>(std::floor(u * dim.num_categories));
      if (bin >= dim.num_categories) bin = static_cast<int>(dim.num_categories) - 1;
      point[j] = static_cast<double>(bin);
    } else {
      point[j] = space_.Snap(j, dim.lo + u * (dim.hi - dim.lo));
    }
  }
  return point;
}

std::vector<double> DdpgOptimizer::PointToAction(
    const std::vector<double>& point) const {
  std::vector<double> action(space_.num_dims());
  for (int j = 0; j < space_.num_dims(); ++j) {
    const SearchDim& dim = space_.dim(j);
    double u;
    if (dim.type == SearchDim::Type::kCategorical) {
      u = (point[j] + 0.5) / static_cast<double>(dim.num_categories);
    } else {
      u = dim.hi > dim.lo ? (point[j] - dim.lo) / (dim.hi - dim.lo) : 0.5;
    }
    action[j] = Clamp(2.0 * u - 1.0, -1.0, 1.0);
  }
  return action;
}

std::vector<double> DdpgOptimizer::Suggest() {
  std::vector<double> action;
  if (!have_state_) {
    // No DBMS state yet: explore uniformly.
    std::vector<double> point = UniformSample(space_, &rng_);
    prev_state_.assign(options_.state_dim, 0.0);
    have_pending_action_ = true;
    return point;
  }
  action = actor_->Forward(state_);
  for (double& a : action) {
    a = Clamp(a + rng_.Gaussian(0.0, noise_), -1.0, 1.0);
  }
  noise_ = std::max(options_.min_noise, noise_ * options_.noise_decay);
  prev_state_ = state_;
  have_pending_action_ = true;
  return ActionToPoint(action);
}

void DdpgOptimizer::ObserveMetrics(const std::vector<double>& metrics) {
  state_ = metrics;
  state_.resize(options_.state_dim, 0.0);
  have_state_ = true;
}

void DdpgOptimizer::Observe(const std::vector<double>& point, double value) {
  Optimizer::Observe(point, value);
  if (!have_initial_perf_) {
    initial_perf_ = value;
    prev_perf_ = value;
    have_initial_perf_ = true;
  }
  double denom = std::max(std::abs(initial_perf_), 1e-9);
  // CDBTune-style reward: improvement over the initial configuration
  // plus the step-to-step trend, both normalized by the initial perf.
  double r_initial = (value - initial_perf_) / denom;
  double r_trend = (value - prev_perf_) / denom;
  double reward = options_.reward_scale * (0.7 * r_initial + 0.3 * r_trend);
  prev_perf_ = value;

  if (have_pending_action_) {
    Transition transition;
    transition.state = prev_state_;
    transition.reward = reward;
    transition.next_state =
        have_state_ ? state_ : std::vector<double>(options_.state_dim, 0.0);
    transition.next_state.resize(options_.state_dim, 0.0);
    transition.state.resize(options_.state_dim, 0.0);
    transition.action = PointToAction(point);  // what actually ran
    replay_.Add(std::move(transition));
    have_pending_action_ = false;
  }
  for (int u = 0; u < options_.updates_per_observe; ++u) TrainStep();
}

namespace {

/// Writes `left` and then `right` side by side into row i of `out`.
void ConcatRow(const std::vector<double>& left, const double* right,
               int right_cols, int i, Matrix* out) {
  double* row = out->Row(i);
  std::copy(left.begin(), left.end(), row);
  std::copy_n(right, right_cols, row + left.size());
}

}  // namespace

void DdpgOptimizer::UpdateCritic(const std::vector<const Transition*>& batch) {
  // Minimize (Q(s,a) - y)^2, y = r + gamma Q'(s', mu'(s')).
  int n = static_cast<int>(batch.size());
  int state_dim = options_.state_dim;
  int action_dim = space_.num_dims();
  Matrix next_states(n, state_dim);
  for (int i = 0; i < n; ++i) {
    std::copy(batch[i]->next_state.begin(), batch[i]->next_state.end(),
              next_states.Row(i));
  }
  Matrix next_actions = actor_target_->Forward(next_states);
  Matrix critic_in(n, state_dim + action_dim);
  for (int i = 0; i < n; ++i) {
    ConcatRow(batch[i]->next_state, next_actions.Row(i), action_dim, i,
              &critic_in);
  }
  Matrix q_next = critic_target_->Forward(critic_in);
  for (int i = 0; i < n; ++i) {
    ConcatRow(batch[i]->state, batch[i]->action.data(), action_dim, i,
              &critic_in);
  }
  MlpTape tape;
  const Matrix& q = critic_->Forward(std::move(critic_in), &tape);
  double inv_n = 1.0 / static_cast<double>(n);
  Matrix grad_q(n, 1);
  for (int i = 0; i < n; ++i) {
    double y = batch[i]->reward + options_.gamma * q_next.at(i, 0);
    grad_q.at(i, 0) = 2.0 * (q.at(i, 0) - y) * inv_n;
  }
  critic_->ZeroGrad();
  critic_->Backward(tape, std::move(grad_q), ParamGrads::kAccumulate);
  critic_adam_.Step();
}

void DdpgOptimizer::UpdateActor(const std::vector<const Transition*>& batch) {
  // Maximize Q(s, mu(s)): gradient ascent through the frozen critic
  // into the actor. The critic's own gradients are not touched.
  int n = static_cast<int>(batch.size());
  int state_dim = options_.state_dim;
  int action_dim = space_.num_dims();
  Matrix states(n, state_dim);
  for (int i = 0; i < n; ++i) {
    std::copy(batch[i]->state.begin(), batch[i]->state.end(),
              states.Row(i));
  }
  MlpTape actor_tape;
  const Matrix& actions = actor_->Forward(std::move(states), &actor_tape);
  Matrix critic_in(n, state_dim + action_dim);
  for (int i = 0; i < n; ++i) {
    ConcatRow(batch[i]->state, actions.Row(i), action_dim, i, &critic_in);
  }
  Matrix grad_input;
  {
    MlpTape critic_tape;
    critic_->Forward(std::move(critic_in), &critic_tape);
    double inv_n = 1.0 / static_cast<double>(n);
    critic_->Backward(critic_tape, Matrix(n, 1, -inv_n), ParamGrads::kSkip,
                      &grad_input);
  }
  Matrix grad_action(n, action_dim);
  for (int i = 0; i < n; ++i) {
    std::copy_n(grad_input.Row(i) + state_dim, action_dim,
                grad_action.Row(i));
  }
  actor_->ZeroGrad();
  actor_->Backward(actor_tape, std::move(grad_action),
                   ParamGrads::kAccumulate);
  actor_adam_.Step();
}

void DdpgOptimizer::TrainStep() {
  if (replay_.size() < options_.batch_size / 2 || replay_.size() < 4) return;
  std::vector<const Transition*> batch =
      replay_.Sample(options_.batch_size, &rng_);
  // Each network runs once over the whole minibatch, one sample per
  // row. The kernels' summation-order contract (src/common/matrix.h)
  // makes every update bit-for-bit independent of the batching. Each
  // phase frees its batch matrices before the next one starts.
  UpdateCritic(batch);
  UpdateActor(batch);

  // --- Soft target updates.
  actor_target_->SoftUpdateFrom(*actor_, options_.tau);
  critic_target_->SoftUpdateFrom(*critic_, options_.tau);
}

}  // namespace llamatune
