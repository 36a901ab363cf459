#include "src/nn/mlp.h"

#include <algorithm>

#include "src/common/lanes.h"

namespace llamatune {

Mlp::Mlp(int in_dim, std::vector<int> hidden_dims, int out_dim,
         OutputActivation output_activation, Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim),
      output_activation_(output_activation) {
  int prev = in_dim;
  for (int h : hidden_dims) {
    linears_.push_back(std::make_unique<LinearLayer>(prev, h, rng));
    prev = h;
  }
  linears_.push_back(std::make_unique<LinearLayer>(prev, out_dim, rng));
}

Matrix Mlp::Run(const Matrix& x, std::vector<Matrix>* hidden) const {
  const Matrix* in = &x;
  Matrix h;
  for (size_t i = 0; i + 1 < linears_.size(); ++i) {
    h = linears_[i]->Forward(*in);
    ReluForward(&h);
    if (hidden != nullptr) {
      hidden->push_back(std::move(h));
      in = &hidden->back();
    } else {
      in = &h;
    }
  }
  Matrix y = linears_.back()->Forward(*in);
  if (output_activation_ == OutputActivation::kTanh) TanhForward(&y);
  return y;
}

Matrix Mlp::Forward(const Matrix& x) const { return Run(x, nullptr); }

const Matrix& Mlp::Forward(Matrix x, MlpTape* tape) const {
  std::vector<Matrix>& acts = tape->activations;
  acts.clear();
  // Reserved up front so that acts[0], read by Run, never moves.
  acts.reserve(linears_.size() + 1);
  acts.push_back(std::move(x));
  Matrix y = Run(acts[0], &acts);
  acts.push_back(std::move(y));
  return acts.back();
}

std::vector<double> Mlp::Forward(const std::vector<double>& x) const {
  Matrix batch(1, static_cast<int>(x.size()));
  std::copy(x.begin(), x.end(), batch.Row(0));
  Matrix y = Run(batch, nullptr);
  return std::vector<double>(y.Row(0), y.Row(0) + y.cols());
}

void Mlp::Backward(const MlpTape& tape, Matrix grad_out, ParamGrads params,
                   Matrix* grad_in) {
  // activations[i] is the input of linears_[i]; the last entry is the
  // network output.
  const std::vector<Matrix>& acts = tape.activations;
  Matrix g = std::move(grad_out);
  if (output_activation_ == OutputActivation::kTanh) {
    TanhBackward(acts.back(), &g);
  }
  for (int i = static_cast<int>(linears_.size()) - 1; i >= 0; --i) {
    if (i + 1 < static_cast<int>(linears_.size())) {
      ReluBackward(acts[i + 1], &g);
    }
    if (i == 0) {
      linears_[i]->Backward(acts[i], g, params, grad_in);
    } else {
      Matrix g_prev;
      linears_[i]->Backward(acts[i], g, params, &g_prev);
      g = std::move(g_prev);
    }
  }
}

void Mlp::ZeroGrad() {
  for (auto& layer : linears_) layer->ZeroGrad();
}

void Mlp::RegisterParams(AdamOptimizer* adam) {
  for (auto& layer : linears_) {
    adam->Register(&layer->weights().data(), &layer->weight_grads().data());
    adam->Register(&layer->bias(), &layer->bias_grads());
  }
}

void Mlp::SoftUpdateFrom(const Mlp& source, double tau) {
  const double keep = 1.0 - tau;
  auto blend = [&](const std::vector<double>& src, std::vector<double>* dst) {
    MapLanes(src.data(), dst->data(), dst->size(),
             [&](const Lanes& s, Lanes* d) { *d = tau * s + keep * *d; });
  };
  for (size_t i = 0; i < linears_.size(); ++i) {
    blend(source.linears_[i]->weights().data(),
          &linears_[i]->weights().data());
    blend(source.linears_[i]->bias(), &linears_[i]->bias());
  }
}

void Mlp::CopyFrom(const Mlp& source) { SoftUpdateFrom(source, 1.0); }

}  // namespace llamatune
