// Seeded violations for the hot-path-rebuild rule: a miniature
// RiskService whose drain path reaches EncodedProfileTable::Build,
// SimilarityMatrix::Compact (directly, and through a namespace-qualified
// free function), and ProfileCodec construction outside the sanctioned
// cold-rebuild fallbacks. Never compiled; driven by
// tests/tools/sight_analyzer_test.py.

#include <cstddef>

namespace sight {

class ProfileCodec {
 public:
  explicit ProfileCodec(size_t num_attrs);
};

class EncodedProfileTable {
 public:
  static EncodedProfileTable Build();
};

class SimilarityMatrix {
 public:
  void Compact();
};

class StrangerEncodeCache {
 public:
  // GOOD: the sanctioned cold-rebuild fallback may call Build.
  void Refresh() { EncodedProfileTable::Build(); }
};

namespace kernels {

// BAD: matrix recompaction in a free function the serving path reaches
// as kernels::Helper().
void Helper() {
  SimilarityMatrix graph;
  graph.Compact();
}

}  // namespace kernels

class RiskService {
 public:
  // Entry point: the analyzer walks the call graph from here.
  void DrainShard() {
    RebuildEverything();
    kernels::Helper();
  }

 private:
  void RebuildEverything() {
    // BAD: full encode rebuild on the serving path.
    EncodedProfileTable::Build();
    // BAD: matrix recompaction on the serving path.
    weights_.Compact();
    // BAD: codec construction (temporary form) on the serving path.
    ProfileCodec(4);
    // BAD: codec construction (declaration form) on the serving path.
    ProfileCodec codec(8);
    // GOOD: the sanctioned fallback is reachable but not reported.
    cache_.Refresh();
    (void)codec;
  }

  SimilarityMatrix weights_;
  StrangerEncodeCache cache_;
};

// GOOD: not reachable from any serving entry point — rebuilds are fine
// in offline/batch code.
void OfflineRebuild() {
  EncodedProfileTable::Build();
  ProfileCodec codec(2);
  (void)codec;
}

}  // namespace sight
