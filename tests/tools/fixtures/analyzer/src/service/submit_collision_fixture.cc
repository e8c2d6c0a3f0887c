// Companion of util/pool_fixture.cc for the hot-path-rebuild rule: a
// service method whose name collides with the util pool's Submit, which
// the drain path reaches through ParallelFor. Never compiled; driven by
// tests/tools/sight_analyzer_test.py.

namespace sight {

class ThreadPool;
void ParallelFor(ThreadPool* pool, int n);

class SimilarityMatrix {
 public:
  void Compact();
};

class RiskService {
 public:
  // Entry point: the analyzer walks the call graph from here.
  void DrainShard() { ParallelFor(pool_, 4); }

  // GOOD: a name-only match for ThreadPool::Submit, in a layer above
  // util/, so the drain path does not reach this Compact().
  void Submit(int owner) {
    (void)owner;
    weights_.Compact();
  }

 private:
  ThreadPool* pool_ = nullptr;
  SimilarityMatrix weights_;
};

}  // namespace sight
