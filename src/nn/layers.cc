#include "src/nn/layers.h"

#include <cmath>

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
  for (double& v : dw_.data()) v = 0.0;
  for (double& v : db_) v = 0.0;
}

void TanhForward(Matrix* h) {
  for (int i = 0; i < h->rows(); ++i) {
    double* row = h->Row(i);
    for (int c = 0; c < h->cols(); ++c) row[c] = std::tanh(row[c]);
  }
}

void TanhBackward(const Matrix& y, Matrix* grad) {
  for (int i = 0; i < y.rows(); ++i) {
    const double* y_i = y.Row(i);
    double* g_i = grad->Row(i);
    for (int c = 0; c < y.cols(); ++c) g_i[c] *= 1.0 - y_i[c] * y_i[c];
  }
}

void ReluForward(Matrix* h) {
  for (int i = 0; i < h->rows(); ++i) {
    double* row = h->Row(i);
    for (int c = 0; c < h->cols(); ++c) row[c] = row[c] > 0.0 ? row[c] : 0.0;
  }
}

void ReluBackward(const Matrix& y, Matrix* grad) {
  for (int i = 0; i < y.rows(); ++i) {
    const double* y_i = y.Row(i);
    double* g_i = grad->Row(i);
    for (int c = 0; c < y.cols(); ++c) g_i[c] = y_i[c] > 0.0 ? g_i[c] : 0.0;
  }
}

}  // namespace llamatune
