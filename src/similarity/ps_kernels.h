// Batched, cache-tiled kernels for the pairwise PS matrix build.
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
//  * FillTile drives the strictly-lower triangle of a pool's code rows
//    in cache-sized tiles: a column block of b-rows is sized to stay
//    resident in L1 while every a-row of the row block is scored
//    against it, so each code row and each frequency array is loaded
//    once per tile instead of once per pair. Tiles partition the
//    triangle, so every (i, j) pair is written exactly once.
//  * SelectStripe is the streamed top-k build: the same kernels over the
//    same column blocks, but each computed row span goes into a
//    TopKSelection (learning/top_k_selection.h) instead of the
//    triangle, so a sparsified pool is built straight into its CSR. One
//    column stripe — every row block of one column block — is one work
//    item; its rows see the same b-block in the same order as the
//    stripe's tiles.
//  * BuildGraphs is the one entry point: it flattens every pool's tiles
//    (or stripes) into a single ParallelFor, so tiling composes with
//    threading and small pools load-balance alongside large ones, and
//    then hands back every pool's graph — the classifier graph
//    ActiveLearner::Create gives each PoolLearner. A dense pool's
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
#include "util/thread_pool.h"

namespace sight {

class TopKSelection;

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

/// Tile geometry of the pairwise build: `rows` a-rows are scored
/// against a block of `cols` b-rows before the driver moves on.
struct TileShape {
  size_t rows = 0;
  size_t cols = 0;
};

/// Shape used when none is given: `cols` sized so the column block of
/// code rows fits comfortably in L1, `rows` sized so a tile amortizes
/// per-row packing and makes a reasonable ParallelFor work item.
TileShape DefaultTileShape(size_t num_attributes);

/// One tile of the strictly-lower triangle: pairs (i, j) with i in
/// [row_begin, row_end), j in [col_begin, min(col_end, i)). Tiles
/// produced by MakeTiles partition the triangle.
struct PairTile {
  size_t row_begin = 0;
  size_t row_end = 0;
  size_t col_begin = 0;
  size_t col_end = 0;
};

/// Tiles the strictly-lower triangle of an n x n matrix. Column-major
/// tile order (all row blocks of one column block before the next), so
/// consecutive tiles reuse the same resident b-block when run serially.
std::vector<PairTile> MakeTiles(size_t n, TileShape shape);

/// One-vs-many kernel: out[k] = PS(a, b + k * stride) for k in
/// [0, count), where every row holds one code per attribute and
/// `stride` is the distance between consecutive b-rows (num_attributes
/// for an EncodedProfileTable). Bitwise-identical to calling
/// ProfileSimilarity::Compute(a, b + k * stride, freqs) per pair.
void ComputeBatch(const uint32_t* a, const uint32_t* b, size_t stride,
                  size_t count, const ProfileSimilarity& ps,
                  const ValueFrequencyTable& freqs, double* out);

/// Computes every pair of `tile` over raw row-major code rows
/// (`num_rows` x `num_attributes`) and writes them into `out` (which
/// must be at least num_rows wide). Distinct tiles write disjoint spans,
/// so concurrent FillTile calls on one triangle are safe.
void FillTile(const uint32_t* rows, size_t num_rows, size_t num_attributes,
              const ProfileSimilarity& ps, const ValueFrequencyTable& freqs,
              const PairTile& tile, SimilarityTriangle* out);

/// Column-stripe starts of the tile grid MakeTiles(n, shape) lays out
/// (0, cols, 2 * cols, ... below n - 1): the stripes of a TopKSelection
/// fed by SelectStripe. Empty when n < 2.
std::vector<size_t> StripeStarts(size_t n, TileShape shape);

/// Scores column stripe `stripe` of `selection` — every pair (i, j) with
/// j in the stripe and j < i, over raw row-major code rows as FillTile
/// takes them — and feeds each row's span into the selection. Concurrent
/// calls on distinct stripes of one selection are safe.
void SelectStripe(const uint32_t* rows, size_t num_rows,
                  size_t num_attributes, const ProfileSimilarity& ps,
                  const ValueFrequencyTable& freqs, size_t stripe,
                  TopKSelection* selection);

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
/// triangle's SparsifyTopK(top_k) gives. Every pool's tiles (or column
/// stripes) run in one ParallelFor across `pool`, and the results are
/// identical with any thread pool, none included. `shape` overrides
/// DefaultTileShape; tests use degenerate shapes to hit tile boundaries.
std::vector<SimilarityMatrix> BuildGraphs(const std::vector<PoolRows>& pools,
                                          const ProfileSimilarity& ps,
                                          size_t top_k, ThreadPool* pool,
                                          TileShape shape = {});

}  // namespace ps_kernels
}  // namespace sight

#endif  // SIGHT_SIMILARITY_PS_KERNELS_H_
