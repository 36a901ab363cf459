#include "src/nn/adam.h"

#include <cmath>

#include "src/common/lanes.h"

namespace llamatune {

void AdamOptimizer::Register(std::vector<double>* params,
                             std::vector<double>* grads) {
  Slot slot;
  slot.params = params;
  slot.grads = grads;
  slot.m.assign(params->size(), 0.0);
  slot.v.assign(params->size(), 0.0);
  slots_.push_back(std::move(slot));
}

void AdamOptimizer::Step() {
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  // Locals: stores through the pointers below cannot alias them.
  const double b1 = beta1_, b2 = beta2_, c1 = 1.0 - beta1_,
               c2 = 1.0 - beta2_, lr = lr_, eps = eps_;
  for (Slot& slot : slots_) {
    double* p = slot.params->data();
    const double* g = slot.grads->data();
    double* m = slot.m.data();
    double* v = slot.v.data();
    ForEachLaneGroup(slot.params->size(), [&](size_t i, auto count) {
      Lanes gl = {}, ml = {}, vl = {}, pl = {};
      LoadLanes(g + i, count, &gl);
      LoadLanes(m + i, count, &ml);
      LoadLanes(v + i, count, &vl);
      LoadLanes(p + i, count, &pl);
      ml = b1 * ml + c1 * gl;
      vl = b2 * vl + c2 * gl * gl;
      Lanes m_hat = ml / bias1, v_hat = vl / bias2, root = {};
      for (int k = 0; k < kLanes; ++k) root[k] = std::sqrt(v_hat[k]);
      pl -= lr * m_hat / (root + eps);
      StoreLanes(ml, count, m + i);
      StoreLanes(vl, count, v + i);
      StoreLanes(pl, count, p + i);
    });
  }
}

}  // namespace llamatune
