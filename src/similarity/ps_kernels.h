// The PS graph build, and the batched kernel a top-k pool is scored with.
//
//  * BuildGraphs is the one entry point, a serial loop over the pools.
//    For each pool it builds the value frequencies. A dense pool's graph
//    is then its FactoredPsGraph (learning/factored_ps_graph.h): the
//    pool's code rows, weights and frequencies, with no pair scored. A
//    top-k pool groups its members into classes of identical code rows
//    (PS reads only the two rows and the frequencies, so a class's
//    members have the same weight to anyone), numbered in row order, and
//    lays one row per class out as columns: for each attribute, every
//    class's code and that code's pool frequency. It then adds the class
//    rows ascending, scoring each against every class row up to and
//    including itself, and feeds them to a TopKSelection
//    (learning/top_k_selection.h), so a sparsified pool is built straight
//    into its CSR and each pair of distinct profiles is scored once.
//    Ascending rows offer every heap the classes nearest its own row
//    first, so its floor rises early (SimilarityTriangle::SparsifyTopK,
//    with one class per node, keeps adding rows descending). The graphs
//    are the classifier graphs ActiveLearner::Create gives each
//    PoolLearner.
//  * ComputeBatch is a one-vs-many kernel: it lays its b-rows out as the
//    same columns and runs the same kernel. The dense reference fill (a
//    SimilarityTriangle, in the tests and bench/perf_pipeline) runs it.
//
// The kernel packs the a-row's per-attribute state (code, weight and
// a-side frequency, present attributes only) once and reuses it across
// a whole run of b-rows. Vectorization is across *pairs* — one pair per
// SIMD lane — and the per-pair summation over attributes keeps the
// scalar path's ascending attribute order, so every variant is
// bitwise-identical to ProfileSimilarity::Compute (see DESIGN.md section
// 11 for why the lane-per-pair invariant guarantees this). The portable
// scalar kernel is always built; an AVX2 variant is compiled behind the
// SIGHT_SIMD CMake option and picked once at runtime when the CPU
// supports it (ActiveDispatch reports which kernel runs, and the bench
// output records it).

#ifndef SIGHT_SIMILARITY_PS_KERNELS_H_
#define SIGHT_SIMILARITY_PS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "learning/pool_graph.h"
#include "similarity/profile_similarity.h"

namespace sight {
namespace ps_kernels {

/// Which ComputeBatch implementation runtime dispatch selected.
enum class Dispatch {
  kScalar,  // portable kernel (also the tail handler for AVX2)
  kAvx2,    // 4 pairs per iteration, plain column loads
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
/// ProfileSimilarity::Compute(a, b + k * stride, freqs) per pair. The
/// b-rows are transposed into columns first, so the call costs
/// O(count * num_attributes) scratch.
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

/// Builds every pool's classifier graph in pool order, each against
/// value frequencies built from that pool's own rows. With top_k == 0 a
/// pool's graph is its complete PS graph as a FactoredPsGraph, whose
/// Get(i, j) is bitwise ProfileSimilarity::Compute; no pair is scored.
/// With top_k > 0 it is each node's top_k strongest edges
/// (learning/top_k_selection.h), streamed straight into the CSR without
/// ever holding the triangle — bitwise what the full triangle's
/// SparsifyTopK(top_k) gives — with one score per pair of classes of
/// identical rows, not per pair of members, and class rows added
/// ascending by row. Runs on the calling thread.
std::vector<PoolGraph> BuildGraphs(const std::vector<PoolRows>& pools,
                                   const ProfileSimilarity& ps, size_t top_k);

}  // namespace ps_kernels
}  // namespace sight

#endif  // SIGHT_SIMILARITY_PS_KERNELS_H_
