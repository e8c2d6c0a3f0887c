// Seeded violations for the round-path-hash rule: a miniature
// PoolLearner whose round reaches functions that declare hash
// containers, directly and through a free function. Never compiled;
// driven by tests/tools/sight_analyzer_test.py.

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace sight {

class Scheduler {
 public:
  void Submit();
};

namespace internal {

// BAD: a per-call hash set on the round path, reached as
// internal::CheckIndices().
bool CheckIndices(const std::vector<size_t>& indices, size_t n) {
  std::unordered_set<size_t> seen;
  for (size_t idx : indices) {
    if (idx >= n || !seen.insert(idx).second) return false;
  }
  return true;
}

// GOOD: the same check on a dense per-index array.
bool CheckIndicesDense(const std::vector<size_t>& indices, size_t n) {
  std::vector<char> seen(n, 0);
  for (size_t idx : indices) {
    if (idx >= n || seen[idx] != 0) return false;
    seen[idx] = 1;
  }
  return true;
}

}  // namespace internal

class PoolLearner {
 public:
  // Entry point: the analyzer walks the call graph from here.
  void RunRound() {
    Repredict();
    (void)internal::CheckIndicesDense(indices_, n_);
    scheduler_.Submit();
  }

 private:
  void Repredict() {
    (void)internal::CheckIndices(indices_, n_);
    // BAD: a map rebuilt on every solve.
    std::unordered_map<size_t, double> by_index;
    by_index[0] = 1.0;
  }

  std::vector<size_t> indices_;
  size_t n_ = 0;
  Scheduler scheduler_;
};

// GOOD: not reachable from a round — a per-tick setup may hash.
void CreateLearners() {
  std::unordered_map<size_t, size_t> position;
  position[0] = 0;
}

}  // namespace sight
