// Companion of service/submit_collision_fixture.cc for the
// hot-path-rebuild rule: a util-layer ParallelFor whose pool->Submit()
// shares its name with a service method. Never compiled; driven by
// tests/tools/sight_analyzer_test.py.

namespace sight {

class ThreadPool {
 public:
  void Submit(int task) { last_ = task; }

 private:
  int last_ = 0;
};

// Reached from the serving path. The receiver call resolves to
// ThreadPool::Submit only: util/ cannot call into service/.
void ParallelFor(ThreadPool* pool, int n) {
  for (int i = 0; i < n; ++i) pool->Submit(i);
}

}  // namespace sight
