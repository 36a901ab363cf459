#pragma once

#include <vector>

#include "src/common/rng.h"
#include "src/common/matrix.h"

namespace llamatune {

/// \brief Whether a backward pass adds into the parameter gradients.
/// kSkip serves pass-through backprop (the DDPG actor update runs
/// through the frozen critic) and leaves dW/db untouched.
enum class ParamGrads { kAccumulate, kSkip };

/// \brief Fully connected layer Y = X W^T + b over a minibatch (one
/// sample per row) with manual backprop.
///
/// The layer keeps no activations: Backward takes the batch that was
/// passed to Forward. Gradients accumulate until ZeroGrad() so
/// minibatch updates sum naturally.
class LinearLayer {
 public:
  LinearLayer(int in_dim, int out_dim, Rng* rng);

  Matrix Forward(const Matrix& x) const;

  /// Given the forward input `x` and d(loss)/d(output) `grad_out`,
  /// adds dW/db (unless `params` is kSkip) and, when `grad_in` is
  /// non-null, writes d(loss)/d(input) into it.
  void Backward(const Matrix& x, const Matrix& grad_out, ParamGrads params,
                Matrix* grad_in);

  void ZeroGrad();

  Matrix& weights() { return w_; }
  std::vector<double>& bias() { return b_; }
  Matrix& weight_grads() { return dw_; }
  std::vector<double>& bias_grads() { return db_; }
  int in_dim() const { return w_.cols(); }
  int out_dim() const { return w_.rows(); }

 private:
  Matrix w_;
  std::vector<double> b_;
  Matrix dw_;
  std::vector<double> db_;
};

/// \name Elementwise activations over a batch, in place
///
/// Backward takes the forward *output* `y`: tanh' = 1 - y^2, and the
/// ReLU mask is y > 0, which holds exactly when the input was > 0
/// (an input of 0 counts as inactive).
/// @{
void TanhForward(Matrix* h);
void TanhBackward(const Matrix& y, Matrix* grad);
void ReluForward(Matrix* h);
void ReluBackward(const Matrix& y, Matrix* grad);
/// @}

}  // namespace llamatune
