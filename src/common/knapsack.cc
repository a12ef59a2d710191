#include "src/common/knapsack.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>
#include <utility>

namespace iccache {

namespace {

// One breakpoint of a step function best(w): best(w) = value for every budget
// from `weight` up to the next breakpoint's weight.
struct Step {
  int64_t weight;
  double value;
};

// best(w) for a step function stored as breakpoints [first, last), ascending
// in weight, the first at weight 0.
double ValueAt(const Step* first, const Step* last, int64_t w) {
  const Step* after =
      std::upper_bound(first, last, w, [](int64_t x, const Step& s) { return x < s.weight; });
  return std::prev(after)->value;
}

}  // namespace

KnapsackSolution SolveKnapsackExact(const std::vector<KnapsackItem>& items, int64_t capacity) {
  KnapsackSolution solution;
  solution.exact = true;
  if (capacity < 0) {
    capacity = 0;
  }
  const size_t n = items.size();

  // The textbook DP keeps best_i(w), the max value of a subset of the first i
  // items within budget w, for every w in [0, capacity]. best_i is a
  // non-decreasing step function (rounding is monotone), so only its
  // breakpoints are kept, each strictly above the one before. `steps` holds
  // every frontier computed so far back to back; the current one starts at
  // `front`. Each value comes from the same double addition and strict
  // comparison as in the dense table (kept as the reference in
  // tests/common_knapsack_test.cc), so every result matches it bit for bit.
  std::vector<Step> steps = {{0, 0.0}};
  size_t front = 0;
  // [begin, end) of best_i in `steps`, kept for items the traceback has to
  // decide by comparison: positive weight, not above capacity, not skipped.
  std::vector<std::pair<size_t, size_t>> before(n);

  for (size_t i = 0; i < n; ++i) {
    const int64_t w_i = std::max<int64_t>(0, items[i].weight);
    const double v_i = items[i].value;
    if (v_i <= 0.0 || w_i > capacity) {
      continue;  // never selected; best_{i+1} = best_i
    }
    const size_t end = steps.size();
    const size_t m = end - front;
    // Room for the worst case (two breakpoints per old one), so the pointers
    // below stay valid while the new frontier is written after the old one.
    steps.resize(end + 2 * m);
    const Step* f = steps.data() + front;
    Step* out = steps.data() + end;
    size_t k = 0;
    if (w_i == 0) {
      // Free value: best_{i+1}(w) = best_i(w) + v_i at every budget.
      out[k++] = {0, f[0].value + v_i};
      for (size_t a = 1; a < m; ++a) {
        const double value = f[a].value + v_i;
        if (value > out[k - 1].value) {
          out[k++] = {f[a].weight, value};
        }
      }
    } else {
      before[i] = {front, end};
      // Below w_i the item does not fit: best_{i+1} = best_i there.
      size_t a = 0;
      while (a < m && f[a].weight < w_i) {
        out[k++] = f[a++];
      }
      // From w_i on, best_{i+1}(w) takes g(w) = best_i(w - w_i) + v_i when
      // g(w) > best_i(w). Both are step functions; walk their breakpoints in
      // weight order (g's b-th breakpoint is best_i's shifted by w_i).
      const int64_t last_shift = capacity - w_i;
      constexpr int64_t kNone = std::numeric_limits<int64_t>::max();
      double skip = f[a - 1].value;
      double take = 0.0;
      size_t b = 0;
      for (;;) {
        const bool f_next = a < m;
        const bool g_next = b < m && f[b].weight <= last_shift;
        if (!f_next && !g_next) {
          break;
        }
        const int64_t fw = f_next ? f[a].weight : kNone;
        const int64_t gw = g_next ? f[b].weight + w_i : kNone;
        const int64_t w = std::min(fw, gw);
        if (f_next && fw == w) {
          skip = f[a++].value;
        }
        if (g_next && gw == w) {
          take = f[b++].value + v_i;
        }
        const double value = take > skip ? take : skip;
        if (value > out[k - 1].value) {
          out[k++] = {w, value};
        }
      }
    }
    steps.resize(end + k);
    front = end;
  }

  // Trace back the selected set: at budget w, item i was taken when it
  // raised best there, best_i(w - w_i) + v_i > best_i(w); a free item always
  // was. NaN fails `v_i <= 0` like any positive value, so a zero-weight NaN
  // item is taken.
  int64_t w = capacity;
  std::vector<size_t> selected;
  for (size_t i = n; i-- > 0;) {
    const int64_t w_i = std::max<int64_t>(0, items[i].weight);
    const double v_i = items[i].value;
    if (v_i <= 0.0 || w_i > w) {
      continue;
    }
    bool taken = w_i == 0;
    if (!taken) {
      const Step* first = steps.data() + before[i].first;
      const Step* last = steps.data() + before[i].second;
      taken = ValueAt(first, last, w - w_i) + v_i > ValueAt(first, last, w);
    }
    if (taken) {
      selected.push_back(i);
      w -= w_i;
    }
  }
  std::reverse(selected.begin(), selected.end());
  solution.selected = std::move(selected);
  // Every breakpoint lies at or below capacity, so best_n(capacity) is the
  // final frontier's last value.
  solution.total_value = steps.back().value;
  for (size_t idx : solution.selected) {
    solution.total_weight += std::max<int64_t>(0, items[idx].weight);
  }
  return solution;
}

KnapsackSolution SolveKnapsackGreedy(const std::vector<KnapsackItem>& items, int64_t capacity) {
  KnapsackSolution solution;
  solution.exact = false;
  if (capacity < 0) {
    capacity = 0;
  }
  std::vector<size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&items](size_t a, size_t b) {
    const auto density = [&items](size_t i) {
      const int64_t w = std::max<int64_t>(0, items[i].weight);
      if (w == 0) {
        return items[i].value > 0.0 ? 1e300 : -1e300;
      }
      return items[i].value / static_cast<double>(w);
    };
    return density(a) > density(b);
  });

  int64_t remaining = capacity;
  for (size_t idx : order) {
    if (items[idx].value <= 0.0) {
      continue;
    }
    const int64_t w = std::max<int64_t>(0, items[idx].weight);
    if (w <= remaining) {
      solution.selected.push_back(idx);
      solution.total_value += items[idx].value;
      solution.total_weight += w;
      remaining -= w;
    }
  }
  std::sort(solution.selected.begin(), solution.selected.end());
  return solution;
}

KnapsackSolution SolveKnapsack(const std::vector<KnapsackItem>& items, int64_t capacity,
                               int64_t max_dp_work) {
  const int64_t work = static_cast<int64_t>(items.size()) * std::max<int64_t>(1, capacity);
  if (work <= max_dp_work) {
    return SolveKnapsackExact(items, capacity);
  }
  return SolveKnapsackGreedy(items, capacity);
}

}  // namespace iccache
