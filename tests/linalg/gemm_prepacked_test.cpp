// PackedWeights / gemm_prepacked contract tests: the freeze-time pack
// must be bit-identical to gemm()'s per-call packing path across
// transpose flags, ragged tail sizes (M, N, K not multiples of the
// blocked kernel's tiles), and reuse of one PackedWeights across many
// calls — the property Module::freeze rests on.  The quadratic layers
// that stack several weight blocks into one freeze-time pack are checked
// against their unfrozen per-block gemms under every supported backend.
#include "linalg/packed_weights.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.h"
#include "core/workspace.h"
#include "linalg/gemm.h"
#include "linalg/gemm_backend.h"
#include "quadratic/quad_dense.h"

namespace qdnn::linalg {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t{std::move(shape)};
  rng.fill_uniform(t, -1.0f, 1.0f);
  return t;
}

// Reference result via the allocating gemm(), prepacked result via
// PackedWeights, compared bit-for-bit.
void expect_prepacked_matches(bool trans_a, bool trans_b, index_t m,
                              index_t n, index_t k, float alpha, float beta,
                              std::uint64_t seed) {
  const Tensor a = trans_a ? random_tensor(Shape{k, m}, seed)
                           : random_tensor(Shape{m, k}, seed);
  const Tensor b = trans_b ? random_tensor(Shape{n, k}, seed + 1)
                           : random_tensor(Shape{k, n}, seed + 1);
  const index_t lda = trans_a ? m : k;
  const index_t ldb = trans_b ? k : n;

  Tensor c_ref = random_tensor(Shape{m, n}, seed + 2);
  Tensor c_pre = c_ref;  // same starting C so beta scaling matches

  gemm(trans_a, trans_b, m, n, k, alpha, a.data(), lda, b.data(), ldb,
       beta, c_ref.data(), n);

  PackedWeights packed;
  packed.pack(trans_b, k, n, b.data(), ldb);
  EXPECT_TRUE(packed.packed());
  EXPECT_EQ(packed.rows(), k);
  EXPECT_EQ(packed.cols(), n);

  std::vector<float> scratch(static_cast<std::size_t>(
      gemm_scratch_floats(trans_a, false, m, n, k)));
  gemm_prepacked(trans_a, m, n, k, alpha, a.data(), lda, packed, beta,
                 c_pre.data(), n, scratch.data());

  ASSERT_EQ(c_ref.shape(), c_pre.shape());
  EXPECT_EQ(max_abs_diff(c_ref, c_pre), 0.0f)
      << "trans_a=" << trans_a << " trans_b=" << trans_b << " m=" << m
      << " n=" << n << " k=" << k;
}

TEST(GemmPrepacked, BitIdenticalAcrossTransposeFlags) {
  for (bool trans_a : {false, true})
    for (bool trans_b : {false, true})
      expect_prepacked_matches(trans_a, trans_b, 7, 9, 11, 1.0f, 0.0f,
                               17 + (trans_a ? 2 : 0) + (trans_b ? 1 : 0));
}

TEST(GemmPrepacked, BitIdenticalOnRaggedTailSizes) {
  // The gemm kernel blocks I by 64 and K by 256; exercise sizes straddling
  // both tile edges plus deliberately awkward primes.
  const index_t sizes[] = {1, 3, 63, 64, 65};
  for (index_t m : sizes)
    for (index_t n : {static_cast<index_t>(1), static_cast<index_t>(5),
                      static_cast<index_t>(65)})
      expect_prepacked_matches(false, true, m, n, 257, 1.0f, 0.0f,
                               100 + m * 7 + n);
}

TEST(GemmPrepacked, HonorsAlphaAndBeta) {
  expect_prepacked_matches(false, true, 6, 10, 13, 0.5f, 1.0f, 31);
  expect_prepacked_matches(false, true, 6, 10, 13, -2.0f, 0.25f, 37);
  expect_prepacked_matches(true, false, 6, 10, 13, 1.5f, 1.0f, 41);
  // alpha = 0 leaves only the beta scaling.
  expect_prepacked_matches(false, true, 6, 10, 13, 0.0f, 0.5f, 43);
}

TEST(GemmPrepacked, OnePackReusedAcrossManyCallsAndShapes) {
  // A frozen layer reuses one PackedWeights for every request; the pack
  // must be read-only in gemm_prepacked, so repeated calls with varying M
  // (batch) are all bit-identical to fresh gemm calls.
  const index_t n = 12, k = 9;
  const Tensor w = random_tensor(Shape{n, k}, 5);  // [out, in], trans_b
  PackedWeights packed;
  packed.pack(/*trans=*/true, k, n, w.data(), k);
  const std::vector<float> pack_snapshot(
      packed.data(), packed.data() + packed.size_floats());

  for (index_t m : {1, 4, 7, 4, 1}) {
    const Tensor a = random_tensor(Shape{m, k}, 50 + m);
    Tensor c_ref{Shape{m, n}};
    Tensor c_pre{Shape{m, n}};
    gemm(false, true, m, n, k, 1.0f, a.data(), k, w.data(), k, 0.0f,
         c_ref.data(), n);
    gemm_prepacked(false, m, n, k, 1.0f, a.data(), k, packed, 0.0f,
                   c_pre.data(), n);
    EXPECT_EQ(max_abs_diff(c_ref, c_pre), 0.0f) << "m=" << m;
  }
  // The pack itself never mutated.
  for (index_t i = 0; i < packed.size_floats(); ++i)
    ASSERT_EQ(packed.data()[i],
              pack_snapshot[static_cast<std::size_t>(i)]);
}

TEST(GemmPrepacked, RepackReplacesAndClearReleases) {
  const Tensor w1 = random_tensor(Shape{4, 6}, 7);
  const Tensor w2 = random_tensor(Shape{4, 6}, 8);
  PackedWeights packed;
  packed.pack(true, 6, 4, w1.data(), 6);
  const float first = packed.data()[0];
  // Re-pack (the freeze-after-weight-update path) replaces the block.
  packed.pack(true, 6, 4, w2.data(), 6);
  EXPECT_TRUE(packed.packed());
  EXPECT_NE(packed.data()[0], first);  // different random weights

  packed.clear();
  EXPECT_FALSE(packed.packed());
  EXPECT_EQ(packed.rows(), 0);
  EXPECT_EQ(packed.cols(), 0);

  // Using a cleared pack is a checked error.
  Tensor a{Shape{2, 6}};
  Tensor c{Shape{2, 4}};
  EXPECT_THROW(gemm_prepacked(false, 2, 4, 6, 1.0f, a.data(), 6, packed,
                              0.0f, c.data(), 4),
               std::runtime_error);
}

TEST(GemmPrepacked, RejectsShapeMismatch) {
  const Tensor w = random_tensor(Shape{4, 6}, 9);
  PackedWeights packed;
  packed.pack(true, 6, 4, w.data(), 6);
  Tensor a{Shape{2, 6}};
  Tensor c{Shape{2, 4}};
  // k mismatch.
  EXPECT_THROW(gemm_prepacked(false, 2, 4, 5, 1.0f, a.data(), 5, packed,
                              0.0f, c.data(), 4),
               std::runtime_error);
  // n mismatch.
  EXPECT_THROW(gemm_prepacked(false, 2, 5, 6, 1.0f, a.data(), 6, packed,
                              0.0f, c.data(), 5),
               std::runtime_error);
}

// Runs `layer` through forward_into unfrozen (per-block gemms), then
// frozen (one gemm against the stacked pack), on the same [n, in] input
// and expects bit-identical outputs.
void expect_frozen_matches_unfrozen(nn::Module& layer, index_t in, index_t n,
                                    std::uint64_t seed) {
  const Tensor x = random_tensor(Shape{n, in}, seed);
  Tensor unfrozen{layer.output_shape(x.shape())};
  Tensor frozen{unfrozen.shape()};
  Workspace ws;
  layer.forward_into(x, unfrozen, ws);
  layer.freeze();
  ws.reset();
  layer.forward_into(x, frozen, ws);
  layer.unfreeze();
  EXPECT_EQ(max_abs_diff(unfrozen, frozen), 0.0f)
      << layer.name() << " n=" << n << " in=" << in << " backend "
      << gemm_backend_name(active_gemm_backend());
}

TEST(GemmPrepacked, StackedQuadraticPacksMatchUnfrozenPerBackend) {
  struct Dims {
    index_t in, units, rank;
  };
  // The serving projections (d_model 48, proj 24, rank 3: wq/wk/wv
  // 48 -> 6 units, wo 24 -> 12 units), plus ragged widths straddling the
  // 16-column panel.
  const Dims dims[] = {{48, 6, 3}, {24, 12, 3}, {24, 5, 2}, {96, 7, 4}};
  const GemmBackend saved = active_gemm_backend();
  for (GemmBackend be :
       {GemmBackend::kGeneric, GemmBackend::kAvx2, GemmBackend::kNeon}) {
    if (!gemm_backend_supported(be)) continue;
    set_gemm_backend(be);
    for (const Dims& d : dims)
      for (index_t n : {1, 3, 8, 13}) {
        const std::uint64_t seed = 300 + static_cast<std::uint64_t>(
                                             d.in * 17 + d.units * 5 + n);
        for (bool emit : {true, false}) {
          Rng rng(seed);
          quadratic::ProposedQuadraticDense proposed(
              d.in, d.units, d.rank, rng, 1e-3f, "proposed", emit);
          // Nonzero Λ and bias so the assembly reads both.
          rng.fill_uniform(proposed.lambda().value, -1.0f, 1.0f);
          rng.fill_uniform(proposed.bias().value, -1.0f, 1.0f);
          expect_frozen_matches_unfrozen(proposed, d.in, n, seed);
        }
        Rng rng(seed);
        quadratic::LowRankQuadraticDense lowrank(d.in, d.units, d.rank, rng,
                                                 "lowrank");
        expect_frozen_matches_unfrozen(lowrank, d.in, n, seed);
      }
  }
  set_gemm_backend(saved);
}

}  // namespace
}  // namespace qdnn::linalg
