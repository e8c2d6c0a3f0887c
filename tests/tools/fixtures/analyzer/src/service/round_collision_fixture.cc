// Companion of core/round_fixture.cc for the round-path-hash rule: a
// service-layer method whose name collides with one a round calls. The
// round cannot reach service/ (core/ sits below it), so its hash map is
// not a finding. Never compiled; driven by
// tests/tools/sight_analyzer_test.py.

#include <unordered_map>

namespace sight {

class Service {
 public:
  // GOOD: a name-only match for Scheduler::Submit, in a layer above core/.
  void Submit() {
    std::unordered_map<int, int> by_owner;
    by_owner[0] = 0;
  }
};

}  // namespace sight
