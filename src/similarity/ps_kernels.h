// Batched kernels for the pairwise PS graph build.
//
// After dictionary encoding (graph/profile_codec.h) the dominant
// per-owner cost in the risk pipeline is still the O(n^2) pairwise
// profile-similarity fill, computed one pair at a time: every pair
// re-reads the a-row's codes, re-resolves each attribute's frequency
// array through a vector-of-vectors indirection, and re-computes the
// a-side frequency lookup. This layer batches that work:
//
//  * ComputeBatch is a one-vs-many kernel: the a-row's per-attribute
//    state (code, weight, frequency-array pointer/size, and the a-side
//    frequency) is packed once and reused across a whole run of b-rows.
//  * BuildGraphs is the one entry point, a serial loop over the pools.
//    For each pool it builds the value frequencies, then scores each
//    row, from the last down, against every row before it with the
//    batch kernel. A dense pool's rows go into its SimilarityTriangle,
//    which is compacted into its graph; a top-k pool's feed a TopKSelection
//    (learning/top_k_selection.h) instead, so a sparsified pool is built
//    straight into its CSR. The graphs are the classifier graphs
//    ActiveLearner::Create gives each PoolLearner; a dense pool's
//    triangle lives only inside the call.
//
// Vectorization is across *pairs* — one pair per SIMD lane — and the
// per-pair summation over attributes keeps the scalar path's ascending
// attribute order, so every variant is bitwise-identical to
// ProfileSimilarity::Compute (see DESIGN.md section 11 for why the
// lane-per-pair invariant guarantees this). The portable scalar batch
// kernel is always built; an AVX2 variant is compiled behind the
// SIGHT_SIMD CMake option and picked once at runtime when the CPU
// supports it (ActiveDispatch reports which kernel runs, and the bench
// output records it).

#ifndef SIGHT_SIMILARITY_PS_KERNELS_H_
#define SIGHT_SIMILARITY_PS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "learning/similarity_matrix.h"
#include "similarity/profile_similarity.h"

namespace sight {
namespace ps_kernels {

/// Which ComputeBatch implementation runtime dispatch selected.
enum class Dispatch {
  kScalar,  // portable batch kernel (also the tail handler for AVX2)
  kAvx2,    // 4 pairs per iteration, masked frequency gathers
};

/// The variant every batched call in this process uses. Resolved once:
/// scalar unless SIGHT_SIMD was compiled in and the CPU supports AVX2.
Dispatch ActiveDispatch();

/// Stable lowercase name for bench output ("scalar", "avx2").
const char* DispatchName(Dispatch dispatch);

/// One-vs-many kernel: out[k] = PS(a, b + k * stride) for k in
/// [0, count), where every row holds one code per attribute and
/// `stride` is the distance between consecutive b-rows (num_attributes
/// for an EncodedProfileTable). Bitwise-identical to calling
/// ProfileSimilarity::Compute(a, b + k * stride, freqs) per pair.
void ComputeBatch(const uint32_t* a, const uint32_t* b, size_t stride,
                  size_t count, const ProfileSimilarity& ps,
                  const ValueFrequencyTable& freqs, double* out);

/// One pool's input to BuildGraphs: its members' code rows, row-major
/// (`num_rows` x one code per attribute of the PS). A pool with no rows
/// gets an empty graph.
struct PoolRows {
  const uint32_t* rows = nullptr;
  size_t num_rows = 0;
};

/// Builds every pool's classifier graph in pool order, each scored
/// against value frequencies built from that pool's own rows. With
/// top_k == 0 a pool's graph is every positive pair of its PS triangle
/// (SimilarityTriangle::Compact); with top_k > 0 it is each node's top_k
/// strongest edges (learning/top_k_selection.h), streamed straight into
/// the CSR without ever holding the triangle — bitwise what the full
/// triangle's SparsifyTopK(top_k) gives. Runs on the calling thread.
std::vector<SimilarityMatrix> BuildGraphs(const std::vector<PoolRows>& pools,
                                          const ProfileSimilarity& ps,
                                          size_t top_k);

}  // namespace ps_kernels
}  // namespace sight

#endif  // SIGHT_SIMILARITY_PS_KERNELS_H_
