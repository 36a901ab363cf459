#include "src/nn/layers.h"

#include <algorithm>
#include <cmath>

#include "src/common/lanes.h"

namespace llamatune {

LinearLayer::LinearLayer(int in_dim, int out_dim, Rng* rng)
    : w_(out_dim, in_dim),
      b_(out_dim, 0.0),
      dw_(out_dim, in_dim),
      db_(out_dim, 0.0) {
  // Xavier/Glorot uniform initialization.
  double bound = std::sqrt(6.0 / static_cast<double>(in_dim + out_dim));
  for (double& v : w_.data()) v = rng->Uniform(-bound, bound);
}

Matrix LinearLayer::Forward(const Matrix& x) const {
  return MultiplyTransposedAddBias(x, w_, b_.data());
}

void LinearLayer::Backward(const Matrix& x, const Matrix& grad_out,
                           ParamGrads params, Matrix* grad_in) {
  if (params == ParamGrads::kAccumulate) {
    AccumulateTransposedProduct(grad_out, x, &dw_, db_.data());
  }
  if (grad_in != nullptr) *grad_in = Multiply(grad_out, w_);
}

void LinearLayer::ZeroGrad() {
  std::fill(dw_.data().begin(), dw_.data().end(), 0.0);
  std::fill(db_.begin(), db_.end(), 0.0);
}

void TanhForward(Matrix* h) {
  for (int i = 0; i < h->rows(); ++i) {
    double* row = h->Row(i);
    for (int c = 0; c < h->cols(); ++c) row[c] = std::tanh(row[c]);
  }
}

void TanhBackward(const Matrix& y, Matrix* grad) {
  for (int i = 0; i < y.rows(); ++i) {
    MapLanes(y.Row(i), grad->Row(i), y.cols(),
             [](const Lanes& y_i, Lanes* g_i) { *g_i *= 1.0 - y_i * y_i; });
  }
}

void ReluForward(Matrix* h) {
  for (int i = 0; i < h->rows(); ++i) {
    MapLanes(h->Row(i), h->Row(i), h->cols(),
             [](const Lanes& x, Lanes* h_i) { KeepWherePositive(x, h_i); });
  }
}

void ReluBackward(const Matrix& y, Matrix* grad) {
  for (int i = 0; i < y.rows(); ++i) {
    MapLanes(y.Row(i), grad->Row(i), y.cols(),
             [](const Lanes& y_i, Lanes* g_i) { KeepWherePositive(y_i, g_i); });
  }
}

}  // namespace llamatune
