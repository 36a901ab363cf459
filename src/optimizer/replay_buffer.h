#pragma once

#include <cstddef>
#include <vector>

#include "src/common/rng.h"

namespace llamatune {

/// \brief One RL transition (s, a, r, s').
struct Transition {
  std::vector<double> state;
  std::vector<double> action;
  double reward = 0.0;
  std::vector<double> next_state;
};

/// \brief Bounded FIFO experience replay buffer with uniform sampling.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity) : capacity_(capacity) {}

  void Add(Transition transition);

  /// Samples `batch_size` transitions uniformly with replacement.
  /// Returns fewer when the buffer holds fewer. The pointers stay valid
  /// until the next Add().
  std::vector<const Transition*> Sample(size_t batch_size, Rng* rng) const;

  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  size_t next_ = 0;
  std::vector<Transition> buffer_;
};

}  // namespace llamatune
