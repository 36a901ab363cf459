#pragma once

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/adam.h"
#include "src/nn/layers.h"

namespace llamatune {

/// \brief Output nonlinearity of an Mlp.
enum class OutputActivation { kLinear, kTanh };

/// \brief Activations recorded by a taped Mlp::Forward for Backward:
/// the network input, each hidden layer's ReLU output, and the network
/// output (one sample per row). Owned by the caller, so it lives only
/// as long as the training step that needs it.
struct MlpTape {
  std::vector<Matrix> activations;
};

/// \brief Small fully connected network: Linear+ReLU hidden layers and
/// a linear or tanh output head, run a minibatch at a time. Used for
/// the DDPG actor (tanh head) and critic (linear head).
class Mlp {
 public:
  Mlp(int in_dim, std::vector<int> hidden_dims, int out_dim,
      OutputActivation output_activation, Rng* rng);

  /// Runs a batch (one sample per row) and returns the outputs.
  Matrix Forward(const Matrix& x) const;

  /// As above, recording the activations Backward needs into `tape`.
  /// The tape keeps `x` as its first entry, so move the batch in when
  /// the caller no longer needs it. Returns the outputs held by the
  /// tape.
  const Matrix& Forward(Matrix x, MlpTape* tape) const;

  /// One sample: a one-row batch.
  std::vector<double> Forward(const std::vector<double>& x) const;

  /// Backpropagates d(loss)/d(output) through the batch recorded in
  /// `tape`. Adds parameter gradients unless `params` is kSkip and,
  /// when `grad_in` is non-null, writes d(loss)/d(input) into it.
  void Backward(const MlpTape& tape, Matrix grad_out, ParamGrads params,
                Matrix* grad_in = nullptr);

  void ZeroGrad();

  /// Registers all parameters with `adam`.
  void RegisterParams(AdamOptimizer* adam);

  /// Polyak-averaged copy: this = tau * source + (1 - tau) * this.
  /// Networks must have identical architecture.
  void SoftUpdateFrom(const Mlp& source, double tau);

  /// Hard copy of all parameters from `source`.
  void CopyFrom(const Mlp& source);

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

 private:
  /// Runs every layer on `x` and returns the outputs; appends each
  /// hidden layer's output to `hidden` when it is non-null.
  Matrix Run(const Matrix& x, std::vector<Matrix>* hidden) const;

  int in_dim_;
  int out_dim_;
  OutputActivation output_activation_;
  std::vector<std::unique_ptr<LinearLayer>> linears_;
};

}  // namespace llamatune
