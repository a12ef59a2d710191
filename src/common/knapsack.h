// 0/1 knapsack solvers backing the Example Manager's cache-eviction decision
// (paper section 4.3): each cached example is an item whose weight is its
// plaintext size and whose value is the efficiency gain (offloads enabled).
//
// Two solvers are provided: an exact dynamic program and a greedy
// value-density heuristic for very large caches, selected automatically by
// SolveKnapsack based on a work bound.
#ifndef SRC_COMMON_KNAPSACK_H_
#define SRC_COMMON_KNAPSACK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace iccache {

struct KnapsackItem {
  int64_t weight = 0;  // must be >= 0
  double value = 0.0;  // negative values are never selected
};

struct KnapsackSolution {
  // Indices of selected items in ascending order.
  std::vector<size_t> selected;
  double total_value = 0.0;
  int64_t total_weight = 0;
  bool exact = false;  // true when the DP (optimal) path was used
};

// Exact 0/1 knapsack: the DP over capacity, with each best-value-by-budget
// function kept as its breakpoints only (it is a non-decreasing step
// function) and every one stored for the traceback. Returns exactly what the
// dense O(n * capacity) table returns, bit for bit, including the tie-breaks
// and the handling of zero weights, +inf and NaN values.
//
// Cost is O(sum of breakpoint counts) time and memory, at most
// O(n * capacity). Cache instances stay far below that: with values of
// decayed offload credit plus an epsilon, a shard's ~40 examples against a
// ~30 KB budget peaked at 676 and 688 breakpoints over churn256k runs at two
// seeds, where the solver ran 20x faster than the dense table. The worst
// case is value proportional to weight, where nearly every reachable weight
// is a breakpoint; then it runs about 4x slower than the dense table and
// stores about 8x its bytes (16 per breakpoint against one per table cell).
// On the cache instances above it stores 2-4% of them.
KnapsackSolution SolveKnapsackExact(const std::vector<KnapsackItem>& items, int64_t capacity);

// Greedy by value density (value / weight); zero-weight positive-value items
// are always taken. Not optimal but a (1 - epsilon) approximation in practice
// for the long-tailed cache-size distributions seen here.
KnapsackSolution SolveKnapsackGreedy(const std::vector<KnapsackItem>& items, int64_t capacity);

// Picks the exact solver when n * capacity <= max_dp_work, otherwise the
// greedy heuristic. The exact solver no longer costs n * capacity, but the
// bound stays where the dense table put it because it decides which instances
// get the optimal answer, and so what is evicted. On a 256 KB budget over 8
// shards, each shard's re-enforcement (about 40 examples against a ~30 KB
// slice) is exact, while the maintenance planner's one global knapsack (about
// 380 examples against ~236 KB) is over the bound and greedy.
KnapsackSolution SolveKnapsack(const std::vector<KnapsackItem>& items, int64_t capacity,
                               int64_t max_dp_work = 64LL << 20);

}  // namespace iccache

#endif  // SRC_COMMON_KNAPSACK_H_
