#include "models/transformer/transformer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "decode_test_util.h"
#include "gradcheck_util.h"

namespace qdnn::models {
namespace {

using qdnn::testing::random_tensor;

TransformerConfig tiny_config(quadratic::NeuronSpec spec =
                                  quadratic::NeuronSpec::linear()) {
  return qdnn::testing::tiny_transformer_config(spec);
}

Tensor ids(std::vector<std::vector<index_t>> rows) {
  const index_t n = static_cast<index_t>(rows.size());
  const index_t t = static_cast<index_t>(rows[0].size());
  Tensor out{Shape{n, t}};
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < t; ++j)
      out.at(i, j) = static_cast<float>(rows[static_cast<std::size_t>(i)]
                                            [static_cast<std::size_t>(j)]);
  return out;
}

TEST(Transformer, ForwardShape) {
  Transformer model(tiny_config());
  const Tensor src = ids({{4, 5, 6, 2}, {7, 8, 2, 0}});
  const Tensor tgt = ids({{1, 9, 10}, {1, 11, 12}});
  const Tensor logits = model.forward_train(src, tgt, {4, 3});
  EXPECT_EQ(logits.shape(), Shape({2 * 3, 24}));
  EXPECT_TRUE(logits.all_finite());
}

TEST(Transformer, QuadraticProjectionsRun) {
  TransformerConfig config = tiny_config(quadratic::NeuronSpec::proposed(3));
  config.proj_dim = 16;  // divisible by rank+1=4 and heads=2
  Transformer model(config);
  const Tensor src = ids({{4, 5, 2}});
  const Tensor tgt = ids({{1, 6}});
  const Tensor logits = model.forward_train(src, tgt, {3});
  EXPECT_EQ(logits.shape(), Shape({2, 24}));
  EXPECT_TRUE(logits.all_finite());
}

// Causal mask: logits at position t must not depend on target tokens
// after t.
TEST(Transformer, CausalMaskBlocksFuture) {
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 6, 2}});
  const Tensor tgt_a = ids({{1, 7, 8, 9}});
  const Tensor tgt_b = ids({{1, 7, 8, 15}});  // differs only at position 3
  const Tensor la = model.forward_train(src, tgt_a, {4});
  const Tensor lb = model.forward_train(src, tgt_b, {4});
  // Positions 0..2 identical; position 3 may differ.
  for (index_t t = 0; t < 3; ++t)
    for (index_t v = 0; v < 24; ++v)
      EXPECT_NEAR(la.at(t, v), lb.at(t, v), 1e-5f) << "t=" << t;
}

// Padding mask: changing a source token beyond the declared length must
// not change the output.
TEST(Transformer, PaddingMaskIgnoresPadPositions) {
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src_a = ids({{4, 5, 0, 0}});
  const Tensor src_b = ids({{4, 5, 9, 13}});  // garbage in padded slots
  const Tensor tgt = ids({{1, 7}});
  const Tensor la = model.forward_train(src_a, tgt, {2});
  const Tensor lb = model.forward_train(src_b, tgt, {2});
  EXPECT_LT(max_abs_diff(la, lb), 1e-5f);
}

TEST(Transformer, BackwardProducesFiniteGrads) {
  Transformer model(tiny_config());
  const Tensor src = ids({{4, 5, 6, 2}});
  const Tensor tgt = ids({{1, 7, 8}});
  const Tensor logits = model.forward_train(src, tgt, {4});
  model.backward(random_tensor(logits.shape(), 1, -0.1f, 0.1f));
  for (nn::Parameter* p : model.parameters())
    EXPECT_TRUE(p->grad.all_finite()) << p->name;
}

TEST(Transformer, GradcheckSelectedParameters) {
  // Finite-difference spot check through the full encoder–decoder: uses
  // the projection-loss trick on logits.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 2}});
  const Tensor tgt = ids({{1, 6}});
  const std::vector<index_t> lens{3};

  Rng rng(2);
  Tensor logits = model.forward_train(src, tgt, lens);
  Tensor r{logits.shape()};
  rng.fill_uniform(r, -1.0f, 1.0f);
  auto loss = [&] {
    const Tensor y = model.forward_train(src, tgt, lens);
    double acc = 0.0;
    for (index_t i = 0; i < y.numel(); ++i)
      acc += static_cast<double>(y[i]) * r[i];
    return acc;
  };
  for (nn::Parameter* p : model.parameters()) p->zero_grad();
  (void)model.forward_train(src, tgt, lens);
  model.backward(r);

  // Check a few entries of several parameter tensors.
  int checked = 0;
  for (nn::Parameter* p : model.parameters()) {
    if (p->numel() < 4) continue;
    for (index_t trial = 0; trial < 3; ++trial) {
      const index_t i = rng.uniform_int(p->numel());
      const float saved = p->value[i];
      const double eps = 1e-2;
      p->value[i] = saved + static_cast<float>(eps);
      const double lp = loss();
      p->value[i] = saved - static_cast<float>(eps);
      const double lm = loss();
      p->value[i] = saved;
      const double fd = (lp - lm) / (2 * eps);
      const double analytic = p->grad[i];
      const double diff = std::fabs(analytic - fd);
      EXPECT_LE(diff,
                0.02 + 0.08 * std::max(std::fabs(analytic), std::fabs(fd)))
          << p->name << "[" << i << "] analytic=" << analytic
          << " fd=" << fd;
      ++checked;
    }
    if (checked > 60) break;
  }
  EXPECT_GT(checked, 20);
}

TEST(Transformer, GreedyDecodeShapeAndDeterminism) {
  Transformer model(tiny_config());
  const Tensor src = ids({{4, 5, 6, 2}, {7, 8, 2, 0}});
  const auto out1 = model.greedy_decode(src, {4, 3}, 1, 2, 8);
  const auto out2 = model.greedy_decode(src, {4, 3}, 1, 2, 8);
  ASSERT_EQ(out1.size(), 2u);
  EXPECT_EQ(out1[0], out2[0]);
  EXPECT_EQ(out1[1], out2[1]);
  for (const auto& seq : out1) EXPECT_LE(seq.size(), 8u);
}

TEST(Transformer, ParameterCountDropsWithReducedProjDim) {
  // The Table II mechanism: the quadratic configuration narrows proj_dim,
  // cutting MHA parameters by >20% while keeping d_model.
  TransformerConfig base = tiny_config();
  Transformer baseline(base);
  TransformerConfig quad = tiny_config(quadratic::NeuronSpec::proposed(3));
  quad.proj_dim = 8;  // reduced width; divisible by 2 heads and rank+1=4
  Transformer quadratic_model(quad);
  EXPECT_LT(quadratic_model.num_parameters(), baseline.num_parameters());
}

// ---------------------------------------------------------------------------
// Attention kernel: per-row key limits.
// ---------------------------------------------------------------------------

// Rows [row0, row0 + rows) of a 2-D tensor.
Tensor row_block(const Tensor& t, index_t row0, index_t rows) {
  const index_t w = t.dim(1);
  Tensor out{Shape{rows, w}};
  std::copy(t.data() + row0 * w, t.data() + (row0 + rows) * w, out.data());
  return out;
}

// Counts entries of `batch` rows [row0, row0 + ref.rows) that differ from
// `ref` (exact float compare).
index_t mismatches(const Tensor& batch, index_t row0, const Tensor& ref) {
  index_t bad = 0;
  for (index_t r = 0; r < ref.dim(0); ++r)
    for (index_t c = 0; c < ref.dim(1); ++c)
      bad += batch.at(row0 + r, c) != ref.at(r, c);
  return bad;
}

// A ragged batch through MultiHeadAttention::forward/backward_qkv must
// match, bit for bit, a solo pass of each sample over just its first
// kv_lengths[s] keys; weights past each row's limit must be exact zeros
// and pad keys must receive exactly zero gradient.
void expect_kv_lengths_match_truncated(const quadratic::NeuronSpec& spec,
                                       index_t proj_dim, bool causal) {
  const index_t d = 12, heads = 2, n = 3, t = 5;
  const std::vector<index_t> lens{5, 2, 3};
  Rng rng(7);
  MultiHeadAttention mha(d, heads, proj_dim, spec, rng, "mha");
  const Tensor q_in = random_tensor(Shape{n * t, d}, 11);
  const Tensor kv_in = causal ? q_in : random_tensor(Shape{n * t, d}, 12);
  const Tensor g_out = random_tensor(Shape{n * t, d}, 13);

  const Tensor out = mha.forward(q_in, kv_in, n, t, t, causal, lens);
  const Tensor attn = mha.attention_weights();
  const auto [g_q, g_kv] = mha.backward_qkv(g_out);

  for (index_t s = 0; s < n; ++s) {
    const index_t len = lens[static_cast<std::size_t>(s)];
    for (index_t h = 0; h < heads; ++h)
      for (index_t i = 0; i < t; ++i) {
        const index_t limit = causal ? std::min(i + 1, len) : len;
        for (index_t j = limit; j < t; ++j)
          EXPECT_EQ(attn.at(s, h, i, j), 0.0f)
              << "s=" << s << " h=" << h << " i=" << i << " j=" << j;
      }

    const Tensor solo = mha.forward(row_block(q_in, s * t, t),
                                    row_block(kv_in, s * t, len), 1, t, len,
                                    causal, {});
    const auto [solo_g_q, solo_g_kv] =
        mha.backward_qkv(row_block(g_out, s * t, t));
    EXPECT_EQ(mismatches(out, s * t, solo), 0) << "output, sample " << s;
    EXPECT_EQ(mismatches(g_q, s * t, solo_g_q), 0) << "g_q, sample " << s;
    EXPECT_EQ(mismatches(g_kv, s * t, solo_g_kv), 0) << "g_kv, sample " << s;
    EXPECT_EQ(mismatches(g_kv, s * t + len, Tensor{Shape{t - len, d}}), 0)
        << "g_kv past the key limit, sample " << s;
  }
}

TEST(Attention, KvLengthsMatchTruncatedKeysNonCausal) {
  expect_kv_lengths_match_truncated(quadratic::NeuronSpec::linear(), 8,
                                    /*causal=*/false);
  expect_kv_lengths_match_truncated(quadratic::NeuronSpec::proposed(2), 12,
                                    /*causal=*/false);
}

TEST(Attention, KvLengthsMatchTruncatedKeysCausal) {
  expect_kv_lengths_match_truncated(quadratic::NeuronSpec::linear(), 8,
                                    /*causal=*/true);
  expect_kv_lengths_match_truncated(quadratic::NeuronSpec::proposed(2), 12,
                                    /*causal=*/true);
}

TEST(Attention, ForwardRejectsKvLengthPastKeys) {
  Rng rng(5);
  MultiHeadAttention mha(8, 2, 8, quadratic::NeuronSpec::linear(), rng,
                         "mha");
  const Tensor x = random_tensor(Shape{2 * 3, 8}, 1);
  EXPECT_THROW(mha.forward(x, x, 2, 3, 3, false, {3, 4}),
               std::runtime_error);
}

// cross_attend_step loops to exactly each row's source length, so a
// length outside [0, tk] must be rejected, and a length-0 (parked) row
// gets zero context — its output cannot depend on its query.
TEST(Attention, CrossStepValidatesKvLengths) {
  const index_t d = 8, proj = 8, tk = 4, n = 2;
  Rng rng(3);
  MultiHeadAttention mha(d, 2, proj, quadratic::NeuronSpec::linear(), rng,
                         "cross");
  // One page of tk tokens per row, K slice then V slice; page 0 unused.
  const index_t page_floats = 2 * tk * proj;
  Tensor pool = random_tensor(Shape{3, page_floats}, 4);
  const std::vector<index_t> table{1, 2};
  const PagedKvView k{pool.data(), table.data(), page_floats, 1, tk, 0};
  const PagedKvView v{pool.data(), table.data(), page_floats, 1, tk,
                      tk * proj};
  const Tensor x = random_tensor(Shape{n, d}, 5);
  Tensor out{Shape{n, d}};
  Workspace ws;

  EXPECT_THROW(mha.cross_attend_step(x, out, k, v, tk, {tk, tk + 1}, ws),
               std::runtime_error);
  EXPECT_THROW(mha.cross_attend_step(x, out, k, v, tk, {-1, tk}, ws),
               std::runtime_error);

  mha.cross_attend_step(x, out, k, v, tk, {0, 0}, ws);
  EXPECT_TRUE(out.all_finite());
  EXPECT_EQ(mismatches(out, 0, row_block(out, 1, 1)), 0);
}

TEST(Transformer, RejectsIndivisibleProjDim) {
  TransformerConfig config = tiny_config();
  config.proj_dim = 15;  // not divisible by 2 heads
  EXPECT_THROW(Transformer{config}, std::runtime_error);
}

}  // namespace
}  // namespace qdnn::models
