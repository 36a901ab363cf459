#include "src/optimizer/replay_buffer.h"

namespace llamatune {

void ReplayBuffer::Add(Transition transition) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(std::move(transition));
  } else {
    buffer_[next_] = std::move(transition);
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<const Transition*> ReplayBuffer::Sample(size_t batch_size,
                                                    Rng* rng) const {
  std::vector<const Transition*> batch;
  if (buffer_.empty()) return batch;
  size_t n = std::min(batch_size, buffer_.size());
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t idx = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(buffer_.size()) - 1));
    batch.push_back(&buffer_[idx]);
  }
  return batch;
}

}  // namespace llamatune
