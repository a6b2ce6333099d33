#include "fl/stream_agg.h"

#include <stdexcept>
#include <utility>

#include "fl/codec.h"
#include "obs/metrics.h"

namespace fedclust::fl {

StreamingAggregator::StreamingAggregator(std::size_t n_slots, std::size_t dim,
                                         bool int8_mode)
    : n_slots_(n_slots), dim_(dim), int8_mode_(int8_mode) {
  if (n_slots_ == 0) {
    throw std::invalid_argument("StreamingAggregator: zero slots");
  }
  levels_.emplace_back(n_slots_);
  for (auto& leaf : levels_.front()) leaf.remaining.store(1);
  while (levels_.back().size() > 1) {
    const std::size_t prev = levels_.back().size();
    std::vector<Node> level((prev + 1) / 2);
    for (std::size_t j = 0; j < level.size(); ++j) {
      level[j].remaining.store((2 * j + 1 < prev) ? 2 : 1);
    }
    levels_.push_back(std::move(level));
  }
  if (int8_mode_) {
    encoded_.resize(n_slots_);
    weights_.resize(n_slots_, 0.0);
    slot_delivered_.resize(n_slots_, 0);
  }
}

void StreamingAggregator::submit(std::size_t slot, const float* v,
                                 std::size_t n, double w,
                                 std::vector<std::uint8_t>&& encoded) {
  if (n != dim_) {
    throw std::invalid_argument("StreamingAggregator: length mismatch");
  }
  if (w < 0.0) {
    throw std::invalid_argument("StreamingAggregator: negative weight");
  }
  resolve(slot, true, v, w, std::move(encoded));
}

void StreamingAggregator::skip(std::size_t slot) {
  resolve(slot, false, nullptr, 0.0, {});
}

void StreamingAggregator::resolve(std::size_t slot, bool delivered_flag,
                                  const float* v, double w,
                                  std::vector<std::uint8_t>&& encoded) {
  if (slot >= n_slots_) {
    throw std::out_of_range("StreamingAggregator: slot out of range");
  }
  Node& leaf = levels_.front()[slot];
  // The exchange claims the leaf: from here on only this thread touches it.
  if (leaf.remaining.exchange(0, std::memory_order_acq_rel) != 1) {
    throw std::logic_error("StreamingAggregator: slot resolved twice");
  }
  if (delivered_flag) {
    delivered_.fetch_add(1, std::memory_order_relaxed);
    leaf.w = w;
    leaf.acc.resize(dim_);
    for (std::size_t i = 0; i < dim_; ++i) {
      leaf.acc[i] = w * static_cast<double>(v[i]);
    }
    if (int8_mode_) {
      encoded_[slot] = std::move(encoded);
      weights_[slot] = w;
      slot_delivered_[slot] = 1;
    }
  }

  // Fold upward while this completion also completes the parent. The
  // acq_rel decrement publishes this side's subtree and, for the thread
  // that reaches zero, acquires the sibling's. The fold order for any pair
  // is fixed (left + right), so the final association depends only on the
  // tree shape, never on arrival order or thread.
  std::size_t l = 0;
  std::size_t j = slot;
  while (l + 1 < levels_.size()) {
    Node& parent = levels_[l + 1][j / 2];
    if (parent.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) break;
    Node& left = levels_[l][(j / 2) * 2];
    const std::size_t right_idx = (j / 2) * 2 + 1;
    if (right_idx < levels_[l].size()) {
      Node& right = levels_[l][right_idx];
      if (left.acc.empty()) {
        parent.acc = std::move(right.acc);
      } else if (right.acc.empty()) {
        parent.acc = std::move(left.acc);
      } else {
        for (std::size_t i = 0; i < dim_; ++i) left.acc[i] += right.acc[i];
        parent.acc = std::move(left.acc);
      }
      parent.w = left.w + right.w;
      std::vector<double>().swap(left.acc);
      std::vector<double>().swap(right.acc);
    } else {
      parent.acc = std::move(left.acc);
      parent.w = left.w;
      std::vector<double>().swap(left.acc);
    }
    j /= 2;
    ++l;
  }
  resolved_.fetch_add(1, std::memory_order_release);
}

bool StreamingAggregator::any_delivered() const {
  return delivered_.load(std::memory_order_relaxed) > 0;
}

bool StreamingAggregator::finish(std::vector<float>& model) {
  if (resolved_.load(std::memory_order_acquire) != n_slots_) {
    throw std::logic_error("StreamingAggregator: unresolved slots at finish");
  }
  if (model.size() != dim_) {
    throw std::invalid_argument("StreamingAggregator: model length mismatch");
  }
  const std::size_t delivered = delivered_.load(std::memory_order_relaxed);
  if (delivered == 0) return false;

  if (int8_mode_) {
    // Quantized-domain average over the encoded payloads, slot order — the
    // --fast-math-kernels qint8 path. Any missing/mis-sized payload (e.g. a
    // result produced before the flag flipped) falls back to the float tree.
    const std::size_t want = wire::encoded_size(wire::CodecId::kQInt8, dim_);
    bool ok = true;
    double total = 0.0;
    std::vector<std::pair<const std::vector<std::uint8_t>*, double>> entries;
    entries.reserve(delivered);
    for (std::size_t s = 0; s < n_slots_ && ok; ++s) {
      if (slot_delivered_[s] == 0) continue;
      if (encoded_[s].size() != want) {
        ok = false;
        break;
      }
      entries.emplace_back(&encoded_[s], weights_[s]);
      total += weights_[s];
    }
    if (ok && !entries.empty() && total > 0.0) {
      for (auto& [bytes, w] : entries) w /= total;
      model = wire::qint8_weighted_average(entries, dim_);
      OBS_COUNTER_ADD("agg.int8_rounds", 1);
      return true;
    }
  }

  const Node& root = levels_.back().front();
  if (root.acc.empty() || !(root.w > 0.0)) return false;
  for (std::size_t i = 0; i < dim_; ++i) {
    model[i] = static_cast<float>(root.acc[i] / root.w);
  }
  return true;
}

}  // namespace fedclust::fl
