#pragma once

// Streaming weighted aggregation over a fixed binary reduction tree.
//
// The cohort's slot count fixes the tree's shape before any update arrives;
// each slot feeds a leaf, and an internal node folds its two children the
// moment both are resolved — so updates are consumed (and their parameter
// buffers freed) as they are delivered, in any order, on any thread, while
// the floating-point association stays exactly the tree's. Results are
// therefore bit-identical at any FEDCLUST_THREADS value and identical
// between the streaming and collect-then-reduce call styles.
//
// No lock is taken. Each slot scales its own leaf; every node keeps an
// atomic count of unresolved children, and the thread whose decrement
// completes a node folds that node's two children — by then no other
// thread can touch them.
//
// Per-slot retained state after submit() returns is one double accumulator
// tree node, not the float update — per-round memory is O(sampled cohort),
// independent of the population (docs/INVARIANTS.md §Scale).

#include <atomic>
#include <cstdint>
#include <vector>

namespace fedclust::fl {

class StreamingAggregator {
 public:
  // `n_slots` cohort positions aggregating vectors of length `dim`.
  // int8_mode additionally retains each slot's encoded qint8 wire payload
  // so finish() can average in the quantized domain (the
  // --fast-math-kernels qint8 path), falling back to the float tree when
  // any payload is missing or mis-sized.
  StreamingAggregator(std::size_t n_slots, std::size_t dim,
                      bool int8_mode = false);

  // Slot `slot` delivered an update: `v[0..dim)` with weight w >= 0.
  // Thread-safe; each slot must be resolved (submit or skip) exactly once.
  void submit(std::size_t slot, const float* v, std::size_t n, double w,
              std::vector<std::uint8_t>&& encoded = {});
  // Slot `slot` produced no usable update (lost, crashed, quarantined).
  void skip(std::size_t slot);

  bool any_delivered() const;

  // Folds the aggregate into `model` and returns true; returns false with
  // `model` untouched when no slot delivered (graceful degradation) —
  // callers decide which fault.empty_* counter that bumps. Requires every
  // slot resolved. Call once, after parallel work has joined or from the
  // delivering side's final consume.
  bool finish(std::vector<float>& model);

 private:
  struct Node {
    std::vector<double> acc;  // sum of w_i * v_i; empty = no contribution
    double w = 0.0;
    // Children not yet resolved (leaves: 1 = unresolved). The decrement to
    // zero hands the node's fold to the decrementing thread.
    std::atomic<int> remaining{0};
  };

  void resolve(std::size_t slot, bool delivered_flag, const float* v,
               double w, std::vector<std::uint8_t>&& encoded);

  std::size_t n_slots_;
  std::size_t dim_;
  bool int8_mode_;

  // levels_[0] = leaves; levels_.back() has one root node.
  std::vector<std::vector<Node>> levels_;
  // resolved_ is bumped after the resolving thread's folds, so finish()
  // reading n_slots_ sees every fold.
  std::atomic<std::size_t> resolved_{0};
  std::atomic<std::size_t> delivered_{0};
  // int8 mode: per-slot encoded payload + weight + delivered flag, consumed
  // at finish() in slot order — the same entry order the collect-then-reduce
  // path used.
  std::vector<std::vector<std::uint8_t>> encoded_;
  std::vector<double> weights_;
  std::vector<char> slot_delivered_;
};

}  // namespace fedclust::fl
