// KV-cached decode equivalence: runtime::DecodeSession::generate() must be
// bit-identical (exact token sequences) to the teacher-forced O(T²)
// oracle Transformer::greedy_decode_reference across batch sizes, ragged
// source lengths, early-eos rows, frozen/unfrozen serving, and both
// projection families — plus the session lifecycle contracts (bind
// exclusivity, re-prime reuse, max_steps/max_len boundary, freeze
// propagation audit for the decoder stack).
#include "runtime/decode_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "decode_test_util.h"
#include "models/transformer/transformer.h"

namespace qdnn::models {
namespace {

using qdnn::testing::tiny_transformer_config;
using runtime::DecodeSession;
using runtime::DecodeSessionConfig;

TransformerConfig tiny_config(quadratic::NeuronSpec spec =
                                  quadratic::NeuronSpec::linear()) {
  return tiny_transformer_config(spec);
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

Tensor random_src(index_t n, index_t t, index_t vocab, std::uint64_t seed) {
  return qdnn::testing::random_src_ids(n, t, vocab, seed);
}

DecodeSessionConfig session_config(index_t max_batch, index_t max_steps,
                                   bool freeze = true) {
  DecodeSessionConfig sc;
  sc.max_batch = max_batch;
  sc.max_steps = max_steps;
  sc.freeze = freeze;
  return sc;
}

TEST(DecodeSession, GenerateBitIdenticalToReferenceAcrossBatchSizes) {
  for (bool freeze : {true, false}) {
    Transformer model(tiny_config());
    model.set_training(false);
    for (index_t n : {1, 2, 4}) {
      const Tensor src = random_src(n, 5, 20, 100 + n);
      const auto ref =
          model.greedy_decode_reference(src, {}, 1, 2, 10);
      DecodeSession session(model, session_config(n, 10, freeze));
      session.prime(src, {});
      const auto out = session.generate(1, 2);
      ASSERT_EQ(out.size(), ref.size()) << "n=" << n;
      for (std::size_t r = 0; r < ref.size(); ++r)
        EXPECT_EQ(out[r], ref[r])
            << "row " << r << " n=" << n << " freeze=" << freeze;
    }
  }
}

TEST(DecodeSession, GenerateMatchesReferenceWithRaggedSources) {
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 6, 2, 0, 0},
                          {7, 8, 2, 0, 0, 0},
                          {9, 10, 11, 12, 13, 2}});
  const std::vector<index_t> lens{4, 3, 6};
  const auto ref = model.greedy_decode_reference(src, lens, 1, 2, 12);
  DecodeSession session(model, session_config(3, 12));
  session.prime(src, lens);
  const auto out = session.generate(1, 2);
  for (std::size_t r = 0; r < ref.size(); ++r)
    EXPECT_EQ(out[r], ref[r]) << "row " << r;

  // Padding beyond the declared length must not leak into the decode.
  Tensor src_garbage = src;
  src_garbage.at(0, 4) = 17.0f;
  src_garbage.at(0, 5) = 19.0f;
  session.prime(src_garbage, lens);
  const auto out2 = session.generate(1, 2);
  for (std::size_t r = 0; r < out.size(); ++r)
    EXPECT_EQ(out2[r], out[r]) << "row " << r;
}

TEST(DecodeSession, GenerateMatchesReferenceWithQuadraticProjections) {
  TransformerConfig config = tiny_config(quadratic::NeuronSpec::proposed(3));
  config.proj_dim = 16;  // divisible by rank+1=4 and heads=2
  Transformer model(config);
  model.set_training(false);
  const Tensor src = random_src(3, 6, 20, 7);
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 12);
  DecodeSession session(model, session_config(3, 12));
  session.prime(src, {});
  const auto out = session.generate(1, 2);
  for (std::size_t r = 0; r < ref.size(); ++r)
    EXPECT_EQ(out[r], ref[r]) << "row " << r;
}

TEST(DecodeSession, EarlyEosRowsStopEmittingWhileOthersContinue) {
  // Force one row to finish at step 0 by making every argmax hit eos for
  // it: with an untrained model we instead pick eos as the argmax target
  // by running long enough that rows finish at different steps, and
  // assert the contract directly: a row whose reference output is shorter
  // than max_steps emitted eos early, and the session must agree exactly.
  Transformer model(tiny_config());
  model.set_training(false);
  const index_t max_steps = 14;
  const Tensor src = random_src(4, 6, 20, 23);
  // Choose eos = the first token the reference emits for row 0, so row 0
  // finishes at step 1 while other rows (almost surely) keep going.
  const auto probe = model.greedy_decode_reference(src, {}, 1, 2, max_steps);
  ASSERT_FALSE(probe[0].empty());
  const index_t eos = probe[0][0];
  const auto ref = model.greedy_decode_reference(src, {}, 1, eos, max_steps);
  EXPECT_TRUE(ref[0].empty()) << "row 0 should finish immediately";
  bool some_row_longer = false;
  for (const auto& row : ref) some_row_longer |= row.size() > 1;
  EXPECT_TRUE(some_row_longer) << "test needs rows finishing at "
                                  "different steps";

  DecodeSession session(model, session_config(4, max_steps));
  session.prime(src, {});
  const auto out = session.generate(1, eos);
  for (std::size_t r = 0; r < ref.size(); ++r)
    EXPECT_EQ(out[r], ref[r]) << "row " << r;
}

TEST(DecodeSession, SessionBackedGreedyDecodeMatchesReference) {
  Transformer model(tiny_config());
  const Tensor src = ids({{4, 5, 6, 2}, {7, 8, 2, 0}});
  const auto ref = model.greedy_decode_reference(src, {4, 3}, 1, 2, 8);
  const auto out = model.greedy_decode(src, {4, 3}, 1, 2, 8);
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t r = 0; r < ref.size(); ++r)
    EXPECT_EQ(out[r], ref[r]) << "row " << r;
}

TEST(DecodeSession, StepLogitsMatchTeacherForcedLastPosition) {
  // The per-step logits must equal the last-position logits of a
  // teacher-forced pass over the same prefix — the step-level form of the
  // generate() equivalence.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 6, 2}, {7, 8, 9, 2}});
  const std::vector<index_t> prefix_row{1, 7, 11};  // bos + two tokens

  DecodeSession session(model, session_config(2, 8));
  session.prime(src, {});
  Tensor cached_logits;
  std::vector<index_t> feed(2);
  for (index_t s = 0; s < 3; ++s) {
    feed[0] = feed[1] = prefix_row[static_cast<std::size_t>(s)];
    session.step(feed);
    cached_logits = session.logits().to_tensor();
  }

  // Teacher-forced: decode the full 3-token prefix in one pass (the
  // frozen packs are bypassed by the training path, so this reads the
  // live weights — identical by the freeze contract).
  const Tensor tgt = ids({{1, 7, 11}, {1, 7, 11}});
  const Tensor full = model.forward_train(src, tgt, {});
  for (index_t r = 0; r < 2; ++r)
    for (index_t v = 0; v < 24; ++v)
      EXPECT_EQ(cached_logits.at(r, v), full.at(r * 3 + 2, v))
          << "row " << r << " vocab " << v;
}

TEST(DecodeSession, RePrimeServesNewSourcesBitIdentically) {
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src_a = random_src(2, 5, 20, 31);
  const Tensor src_b = random_src(2, 4, 20, 32);

  DecodeSession session(model, session_config(2, 10));
  session.prime(src_a, {});
  const auto out_a = session.generate(1, 2);
  session.prime(src_b, {});  // different source length re-binds views
  const auto out_b = session.generate(1, 2);
  session.prime(src_a, {});
  const auto out_a2 = session.generate(1, 2);

  const auto ref_a = model.greedy_decode_reference(src_a, {}, 1, 2, 10);
  const auto ref_b = model.greedy_decode_reference(src_b, {}, 1, 2, 10);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(out_a[r], ref_a[r]);
    EXPECT_EQ(out_b[r], ref_b[r]);
    EXPECT_EQ(out_a2[r], ref_a[r]) << "stale state after re-prime";
  }
}

TEST(DecodeSession, MaxStepsBoundaryMatchesMaxLen) {
  // The implicit bos occupies position 0 and step s embeds position s, so
  // max_steps == max_len is exactly representable and max_len + 1 is not.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 2}});
  EXPECT_NO_THROW({
    DecodeSession session(model, session_config(1, 16));  // == max_len
    session.prime(src, {});
    session.generate(1, 2);
  });
  EXPECT_THROW(DecodeSession(model, session_config(1, 17)),
               std::runtime_error);
  EXPECT_THROW(model.greedy_decode_reference(src, {}, 1, 2, 17),
               std::runtime_error);
  EXPECT_THROW(model.greedy_decode(src, {}, 1, 2, 17), std::runtime_error);
  EXPECT_NO_THROW(model.greedy_decode_reference(src, {}, 1, 2, 16));

  // A zero step budget is degenerate, not an error: n empty sequences.
  const auto none = model.greedy_decode(src, {}, 1, 2, 0);
  ASSERT_EQ(none.size(), 1u);
  EXPECT_TRUE(none[0].empty());
  const auto none_ref = model.greedy_decode_reference(src, {}, 1, 2, 0);
  ASSERT_EQ(none_ref.size(), 1u);
  EXPECT_TRUE(none_ref[0].empty());
}

TEST(DecodeSession, OneSessionMayBindADecoderAtATime) {
  Transformer model(tiny_config());
  model.set_training(false);
  DecodeSession first(model, session_config(2, 8));
  EXPECT_THROW(DecodeSession(model, session_config(2, 8)),
               std::runtime_error);
  // greedy_decode binds a temporary session internally, so it must also
  // be rejected while another session holds the decoder...
  const Tensor src = ids({{4, 5, 2}});
  EXPECT_THROW(model.greedy_decode(src, {}, 1, 2, 8), std::runtime_error);
  // ...and the reference path, which never binds, keeps working.
  EXPECT_NO_THROW(model.greedy_decode_reference(src, {}, 1, 2, 8));
}

TEST(DecodeSession, RebindAfterDestructionWorks) {
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 6, 2}});
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 8);
  {
    DecodeSession session(model, session_config(1, 8));
    session.prime(src, {});
    EXPECT_EQ(session.generate(1, 2)[0], ref[0]);
  }
  DecodeSession session2(model, session_config(1, 8));
  session2.prime(src, {});
  EXPECT_EQ(session2.generate(1, 2)[0], ref[0]);
}

// ---------------------------------------------------------------------------
// Freeze propagation audit for the decoder stack (the PR 2 stale-scratch
// audit, mirrored onto the decode-side modules).
// ---------------------------------------------------------------------------

TEST(DecodeSession, FreezePropagatesThroughDecodeSideModules) {
  Transformer model(tiny_config());
  model.set_training(false);

  {
    DecodeSession session(model, session_config(2, 8));
    EXPECT_TRUE(session.frozen());
    EXPECT_TRUE(model.tgt_embedding().frozen());
    EXPECT_TRUE(model.output_projection().frozen());
    for (index_t l = 0; l < model.num_decoder_layers(); ++l) {
      EXPECT_TRUE(model.decoder_layer(l).frozen()) << "layer " << l;
      EXPECT_TRUE(model.decoder_layer(l).self_attention().frozen());
      EXPECT_TRUE(model.decoder_layer(l).cross_attention().frozen());
    }
  }

  // Whole-model unfreeze restores the trainable state.
  model.unfreeze();
  EXPECT_FALSE(model.tgt_embedding().frozen());
  EXPECT_FALSE(model.output_projection().frozen());
  for (index_t l = 0; l < model.num_decoder_layers(); ++l)
    EXPECT_FALSE(model.decoder_layer(l).frozen()) << "layer " << l;

  // An unfrozen session leaves the model untouched.
  DecodeSession session(model, session_config(2, 8, /*freeze=*/false));
  EXPECT_FALSE(session.frozen());
  EXPECT_FALSE(model.tgt_embedding().frozen());
  for (index_t l = 0; l < model.num_decoder_layers(); ++l)
    EXPECT_FALSE(model.decoder_layer(l).frozen()) << "layer " << l;
}

TEST(DecodeSession, UnfreezeRefreezeTracksWeightUpdates) {
  // The freeze contract on the decode path: packs are stale after a
  // weight update until unfreeze()/freeze(); the session serves the new
  // weights after a re-freeze.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 6, 2}});

  std::vector<std::vector<index_t>> before;
  {
    DecodeSession session(model, session_config(1, 8));
    session.prime(src, {});
    before = session.generate(1, 2);
  }

  // Perturb the output projection so the greedy path must change.
  model.output_projection().weight().value *= -1.0f;
  model.unfreeze();
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 8);

  DecodeSession session(model, session_config(1, 8));
  session.prime(src, {});
  const auto after = session.generate(1, 2);
  EXPECT_EQ(after[0], ref[0]);
  EXPECT_NE(after[0], before[0]) << "flipped projection must change the "
                                    "greedy sequence";
}

TEST(DecodeSession, MonolithicForwardIntoMatchesFlattenedStages) {
  // DecoderLayer::forward_into is the monolithic twin of the flattened
  // stage plan the session drives; pin the two together bit-exactly so
  // they cannot drift.  The monolithic side runs through a hand-rolled
  // driver that binds the step adapters directly (no session) — also the
  // API demonstration for custom decode drivers.
  const TransformerConfig config = tiny_config();
  Transformer session_model(config), manual_model(config);  // same seed
  session_model.set_training(false);
  manual_model.set_training(false);
  const index_t n = 2, ts = 5, steps = 6;
  const Tensor src = random_src(n, ts, 20, 61);

  DecodeSession session(session_model, session_config(n, steps));
  session.prime(src, {});

  // Manual monolithic driver over manual_model (identical weights).
  const index_t P = config.proj_dim, D = config.d_model;
  const index_t layers = manual_model.num_decoder_layers();
  // The adapters take per-row ring positions; this lockstep driver keeps
  // all rows at one shared position.
  std::vector<index_t> cur_rows(static_cast<std::size_t>(n), 0);
  const std::vector<index_t> no_lengths;
  Workspace ws;
  const Tensor enc = manual_model.encode(src, {});
  // Hand-rolled paged KV (the PR 10 bind contract): one pool page per
  // (row, self/cross) pair — page_tokens a power of two covering both the
  // step budget and the source — with every layer's K and V slices at
  // their static offsets inside the page, exactly the session's layout.
  const index_t pt = 8;  // >= steps and >= ts, power of two
  const index_t slice = pt * P;
  const index_t page_floats = layers * 2 * slice;
  runtime::KvPagePool pool;
  pool.init(2 * n, page_floats);
  std::vector<index_t> self_table, cross_table;
  for (index_t r = 0; r < n; ++r) self_table.push_back(pool.acquire());
  for (index_t r = 0; r < n; ++r) cross_table.push_back(pool.acquire());
  const auto paged = [&](const std::vector<index_t>& table,
                         index_t slice_offset) {
    PagedKvView view;
    view.pool = pool.data();
    view.table = table.data();
    view.page_floats = page_floats;
    view.pages_per_row = 1;
    view.page_tokens = pt;
    view.slice_offset = slice_offset;
    return view;
  };
  std::vector<Tensor> k_cross, v_cross;  // dense project_kv staging
  for (index_t l = 0; l < layers; ++l) {
    k_cross.emplace_back(Shape{n, ts, P});
    v_cross.emplace_back(Shape{n, ts, P});
    DecoderLayer& layer = manual_model.decoder_layer(l);
    ws.reset();
    layer.cross_attention().project_kv(
        ConstTensorView(Shape{n * ts, D}, enc.data()), n, ts,
        TensorView(k_cross.back()), TensorView(v_cross.back()), ws);
    // Commit the staged dense K/V into the cross pages (the session's
    // commit_row copy, inlined for one page per row).
    for (index_t r = 0; r < n; ++r) {
      float* page = pool.page_data(cross_table[static_cast<std::size_t>(r)]);
      for (index_t j = 0; j < ts; ++j) {
        const float* ks = k_cross.back().data() + (r * ts + j) * P;
        const float* vs = v_cross.back().data() + (r * ts + j) * P;
        std::copy(ks, ks + P, page + (2 * l) * slice + j * P);
        std::copy(vs, vs + P, page + (2 * l + 1) * slice + j * P);
      }
    }
    layer.self_step().bind(paged(self_table, (2 * l) * slice),
                           paged(self_table, (2 * l + 1) * slice), steps,
                           &cur_rows);
    layer.cross_step().bind(paged(cross_table, (2 * l) * slice),
                            paged(cross_table, (2 * l + 1) * slice), ts,
                            &no_lengths);
  }

  std::vector<index_t> feed(static_cast<std::size_t>(n), 1);  // bos
  Tensor x{Shape{n, D}}, y{Shape{n, D}};
  const float scale = std::sqrt(static_cast<float>(D));
  for (index_t s = 0; s < steps; ++s) {
    const std::vector<index_t> next = session.step(feed);
    // Monolithic step: embed + scale + positional, then layer-by-layer
    // forward_into, then the output projection.
    for (index_t r = 0; r < n; ++r) {
      const float* e = manual_model.tgt_embedding().weight().value.data() +
                       feed[static_cast<std::size_t>(r)] * D;
      const float* pe = manual_model.positional().table().data() +
                        cur_rows[static_cast<std::size_t>(r)] * D;
      for (index_t d = 0; d < D; ++d)
        x.data()[r * D + d] = e[d] * scale + pe[d];
    }
    for (index_t l = 0; l < layers; ++l) {
      ws.reset();
      manual_model.decoder_layer(l).forward_into(ConstTensorView(x),
                                                 TensorView(y), ws);
      std::swap(x, y);
    }
    Tensor logits{Shape{n, config.tgt_vocab}};
    ws.reset();
    manual_model.output_projection().forward_into(ConstTensorView(x),
                                                  TensorView(logits), ws);
    for (index_t& c : cur_rows) ++c;
    ASSERT_EQ(session.logits().shape(), logits.shape());
    EXPECT_EQ(view_max_abs_diff(session.logits(), ConstTensorView(logits)),
              0.0f)
        << "step " << s;
    feed = next;  // both paths follow the session's greedy argmax
  }
}

TEST(DecodeSession, StagePlanAndFootprintIntrospection) {
  TransformerConfig config = tiny_config();
  Transformer model(config);
  model.set_training(false);
  DecodeSession session(model, session_config(2, 8));
  EXPECT_TRUE(session.fully_native());
  // Per layer: self_step, add, ln1, cross_step, add, ln2, fc1, relu, fc2,
  // add, ln3 = 11 stages; plus the output projection.
  EXPECT_EQ(session.num_stages(), 11 * config.n_layers + 1);
  // Paged KV floats (PR 10): (pool pages + the sentinel) × page_floats,
  // where page_floats = layers × 2 × page_tokens × proj_dim and the
  // default pool covers the dense worst case — max_batch rows at
  // ceil(max_steps/pt) self + ceil(max_src/pt) cross pages each, max_src
  // defaulting to the model's max_len.
  const index_t pt = 16;  // DecodeSessionConfig default page_tokens
  const index_t ppr =
      (8 + pt - 1) / pt + (config.max_len + pt - 1) / pt;
  const index_t page_floats = config.n_layers * 2 * pt * config.proj_dim;
  const index_t expected = (2 * ppr + 1) * page_floats;
  EXPECT_EQ(session.kv_cache_floats(), expected);
  EXPECT_GT(session.workspace_floats(), 0);
}

TEST(DecodeSession, PrimeRowAdmitsMidFlightBitIdentically) {
  // The continuous-batching primitive, exercised at session level: row 0
  // decodes alone for a few steps, then row 1 is primed mid-flight at a
  // different ring position.  Both rows' greedy streams must match solo
  // references exactly — per-row step counters, per-row source lengths
  // and the masked attention tails at work.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src_a = random_src(1, 5, 20, 41);
  const Tensor src_b = random_src(1, 3, 20, 42);
  const index_t steps_a = 9, steps_b = 5, stagger = 4;
  const auto ref_a =
      model.greedy_decode_reference(src_a, {}, 1, 2, steps_a)[0];
  const auto ref_b =
      model.greedy_decode_reference(src_b, {}, 1, 2, steps_b)[0];
  // Untrained tiny model: neither reference hits eos inside its budget,
  // so the streams below never need eos handling.
  ASSERT_EQ(static_cast<index_t>(ref_a.size()), steps_a);
  ASSERT_EQ(static_cast<index_t>(ref_b.size()), steps_b);

  DecodeSession session(model, session_config(2, 10));
  session.prime_row(0, src_a, 0);
  std::vector<index_t> feed{1, 1};  // bos; row 1 parked on bos
  std::vector<index_t> got_a, got_b;
  for (index_t s = 0; s < steps_a; ++s) {
    if (s < stagger) {
      session.reset_row(1);  // park: ring position pinned at 0
    } else if (s == stagger) {
      session.prime_row(1, src_b, 0);  // admit mid-flight
      feed[1] = 1;                     // bos for the new request
    }
    const std::vector<index_t>& next = session.step(feed);
    got_a.push_back(next[0]);
    feed[0] = next[0];
    if (s >= stagger &&
        static_cast<index_t>(got_b.size()) < steps_b) {
      got_b.push_back(next[1]);
      feed[1] = next[1];
    }
    EXPECT_EQ(session.row_steps(0), s + 1);
  }
  EXPECT_EQ(got_a, ref_a);
  EXPECT_EQ(got_b, ref_b);
}

TEST(DecodeSession, PrimeComputeCommitRowMatchesPrimeRowBitExactly) {
  // The prefill/decode split at session level: prime_compute into a
  // caller-owned staging buffer + commit_row into a batch row must serve
  // the exact bits of the fused prime_row (which IS compute + commit over
  // a private staging — but assert through the public halves so the
  // contract outlives the implementation).  The same staging commits into
  // two rows: both must decode identical streams.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = random_src(1, 5, 20, 61);
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 8)[0];
  // Untrained tiny model: the reference never hits eos inside the budget.
  ASSERT_EQ(ref.size(), 8u);

  DecodeSession session(model, session_config(2, 8));
  runtime::PrefillStaging staging;
  session.init_staging(staging);
  session.prime_compute(src, 0, staging);
  EXPECT_EQ(staging.ts, 5);
  EXPECT_EQ(staging.len, 5);
  session.commit_row(0, staging);
  session.commit_row(1, staging);  // staging is reusable until overwritten
  EXPECT_FALSE(session.row_parked(0));
  EXPECT_FALSE(session.row_parked(1));

  std::vector<index_t> feed{1, 1};
  std::vector<index_t> got0, got1;
  for (index_t s = 0; s < 8; ++s) {
    feed = session.step(feed);
    got0.push_back(feed[0]);
    got1.push_back(feed[1]);
  }
  EXPECT_EQ(got0, ref);
  EXPECT_EQ(got1, ref);

  // Misuse is rejected with field-named errors: unsized staging, a commit
  // before any compute, and an out-of-range row.
  runtime::PrefillStaging unsized;
  EXPECT_THROW(session.prime_compute(src, 0, unsized), std::runtime_error);
  runtime::PrefillStaging empty;
  session.init_staging(empty);
  EXPECT_THROW(session.commit_row(0, empty), std::runtime_error);
  EXPECT_THROW(session.commit_row(2, staging), std::runtime_error);
}

TEST(DecodeSession, ParkedRowsStayAtRingZeroWithoutPerTickResets) {
  // reset_row parks: the freed row rides every subsequent batch step with
  // its ring position pinned at 0 — no per-tick re-reset, and the ring
  // can never exhaust no matter how many ticks pass.
  Transformer model(tiny_config());
  model.set_training(false);
  DecodeSession session(model, session_config(2, 4));  // tiny ring
  // Unprimed rows start parked.
  EXPECT_TRUE(session.row_parked(0));
  EXPECT_TRUE(session.row_parked(1));

  session.prime_row(0, random_src(1, 4, 20, 62), 0);
  EXPECT_FALSE(session.row_parked(0));
  std::vector<index_t> feed{1, 1};
  // More ticks than the ring holds: row 1 (parked) must stay at 0 and
  // never trip the ring-exhaustion check; row 0 decodes normally.
  for (index_t s = 0; s < 3; ++s) {
    feed = session.step(feed);
    EXPECT_EQ(session.row_steps(0), s + 1);
    EXPECT_EQ(session.row_steps(1), 0) << "parked row advanced";
    EXPECT_TRUE(session.row_parked(1));
  }
  // Retire row 0 (park once) and keep ticking past the ring capacity:
  // both rows now pinned at 0, so step() would throw for a non-parked
  // row after 4 steps — it must not.
  session.reset_row(0);
  EXPECT_TRUE(session.row_parked(0));
  feed.assign(2, 1);
  for (index_t s = 0; s < 6; ++s) {
    session.step(feed);
    EXPECT_EQ(session.row_steps(0), 0);
    EXPECT_EQ(session.row_steps(1), 0);
  }
}

TEST(DecodeSession, StepRunsOnlyUpToTheHighestUnparkedRow) {
  // Parked rows above the highest unparked row are not stepped, yet
  // step() still takes and returns batch() entries — also when every row
  // is parked and nothing runs.
  Transformer model(tiny_config());
  model.set_training(false);
  DecodeSession session(model, session_config(4, 8));
  const Tensor src = random_src(1, 4, 20, 64);
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 5)[0];
  session.prime_row(1, src, 0);
  session.reset_row(1);
  EXPECT_EQ(session.step(std::vector<index_t>(4, 1)).size(), 4u);
  EXPECT_EQ(session.stepped_width(), 0) << "every row parked";
  EXPECT_EQ(session.row_steps(1), 0);
  EXPECT_EQ(session.logits().dim(0), 4);

  session.prime_row(1, src, 0);
  std::vector<index_t> feed(4, 1);
  std::vector<index_t> got;
  for (index_t s = 0; s < 5; ++s) {
    feed = session.step(feed);
    ASSERT_EQ(feed.size(), 4u);
    EXPECT_EQ(session.stepped_width(), 2) << "rows 2 and 3 parked";
    if (feed[1] == 2) break;
    got.push_back(feed[1]);
    feed[0] = feed[2] = feed[3] = 1;
  }
  EXPECT_EQ(got, ref) << "the narrow step is bit-identical";
}

TEST(DecodeSession, ResetRowRewindsOneRowOnly) {
  Transformer model(tiny_config());
  model.set_training(false);
  DecodeSession session(model, session_config(2, 8));
  session.prime_row(0, random_src(1, 4, 20, 43), 0);
  session.prime_row(1, random_src(1, 4, 20, 44), 0);
  std::vector<index_t> feed{1, 1};
  feed = session.step(feed);
  feed = session.step(feed);
  EXPECT_EQ(session.row_steps(0), 2);
  EXPECT_EQ(session.row_steps(1), 2);
  session.reset_row(0);
  EXPECT_EQ(session.row_steps(0), 0);
  EXPECT_EQ(session.row_steps(1), 2) << "reset must not touch row 1";
  EXPECT_THROW(session.reset_row(2), std::runtime_error);
  EXPECT_THROW(session.prime_row(2, random_src(1, 4, 20, 45), 0),
               std::runtime_error);
}

TEST(DecodeSession, ConfigValidationNamesTheField) {
  Transformer model(tiny_config());
  model.set_training(false);
  auto message_of = [&](DecodeSessionConfig sc) -> std::string {
    try {
      DecodeSession session(model, sc);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  DecodeSessionConfig sc = session_config(0, 8);
  EXPECT_NE(message_of(sc).find("max_batch"), std::string::npos);
  sc = session_config(2, 0);
  EXPECT_NE(message_of(sc).find("max_steps"), std::string::npos);
  sc = session_config(2, 8);
  sc.max_src = -3;
  EXPECT_NE(message_of(sc).find("max_src"), std::string::npos);
  sc = session_config(2, 8);
  sc.max_src = model.config().max_len + 1;
  EXPECT_NE(message_of(sc).find("max_src"), std::string::npos);
}

TEST(DecodeSession, MaxSrcShrinksCrossCachesAndBoundsPrime) {
  Transformer model(tiny_config());
  model.set_training(false);
  DecodeSessionConfig sc = session_config(2, 8);
  sc.max_src = 5;
  DecodeSession session(model, sc);
  const TransformerConfig& mc = model.config();
  // Paged footprint: max_src=5 still needs one cross page per row (pages
  // are 16 tokens), so the shrink shows up as fewer PAGES only once
  // max_src crosses a page boundary — here both geometries fit one page
  // and the footprint is (pool pages + sentinel) × page_floats.
  EXPECT_EQ(session.kv_cache_floats(),
            (2 * (1 + 1) + 1) * (mc.n_layers * 2 * 16 * mc.proj_dim));

  // Sources up to max_src serve bit-identically; longer ones are
  // rejected instead of overrunning the shrunken caches.
  const Tensor src = random_src(2, 5, 20, 71);
  session.prime(src, {});
  const auto out = session.generate(1, 2);
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 8);
  for (std::size_t r = 0; r < ref.size(); ++r) EXPECT_EQ(out[r], ref[r]);
  EXPECT_THROW(session.prime(random_src(2, 6, 20, 72), {}),
               std::runtime_error);

  // max_src beyond the model's positional table is rejected at bind.
  sc.max_src = mc.max_len + 1;
  EXPECT_THROW(DecodeSession(model, sc), std::runtime_error);
}

}  // namespace
}  // namespace qdnn::models
