// DecodeSession: the autoregressive serving facade over a Transformer
// decoder — the decode-side sibling of InferenceSession, following the
// same build → bind/freeze → run lifecycle:
//
//   * bind (construction): the decoder stack is flattened into per-step
//     stages (DecoderLayer::flatten_into — attention steps, residual-add,
//     LayerNorm and FFN stages over [N, D] boundaries) plus the output
//     projection; per-layer KV cache rings, boundary buffers, the logits
//     buffer and the argmax scratch are preallocated for
//     (max_batch, max_steps); unless config.freeze is off, the decode-side
//     modules (target embedding, decoder layers, output projection) are
//     frozen — constant GEMM operands prepacked, training caches dropped;
//     a warm-up step at the deepest ring position discovers the workspace
//     watermark, which is then consolidated into one contiguous block.
//   * prime(src): runs the masked native encoder
//     (TransformerEncoder::encode_into — ragged src_lengths mask key
//     tails to exact-zero softmax weights, bit-identical to the training
//     path), projects each layer's cross-attention K/V once into the
//     encoder-side caches, and rewinds the step counters.  The per-request
//     setup; zero-alloc once the solo staging slot is warm.
//   * prime_row(row, src)/reset_row(row): the per-row face of the same
//     lifecycle, for continuous batching (serve::BatchScheduler).  Every
//     row carries its own step counter, source length and cache slices,
//     so one request can be admitted into a free row — encoded and
//     cross-projected into just that row — while the other rows keep
//     decoding mid-flight at different ring positions.  The per-row
//     attention masks make each row bit-identical to a solo session
//     serving only that request.
//   * prime_compute(src, staging)/commit_row(row, staging): prime_row
//     split at the prefill/decode boundary.  prime_compute is the
//     expensive half — the masked native encoder pass plus every layer's
//     cross-K/V projection, all written into / scratched from the
//     caller-owned PrefillStaging — and touches NO session or model
//     mutable state (stateless kernels reading frozen weights), so
//     serve::PrefillPool workers run it fully concurrently with each
//     other and with step()/commit_row on the serving thread: no mutex,
//     no serialization, and zero heap allocations once the staging slot
//     is warm (init_staging warms it).  commit_row is the cheap half:
//     copy the staged K/V into the row's cache slices and rewind the row
//     — O(K/V copy), zero heap allocations, serving-thread only.
//     prime_row(row, src) ≡ prime_compute + commit_row (it is implemented
//     that way), and serve::BatchScheduler admits through the same pair
//     on any thread, so every admission path is bit-identical by
//     construction.
//   * step()/generate(): every step embeds ONE new token per row
//     (position = step, so causal masking is implicit in the self-attention
//     cache length), runs all decoder stages, projects logits and takes
//     the argmax — over rows [0, w) only, w = 1 + the highest unparked
//     row, so a continuous batch pays for what its live rows span.
//     Steady-state step() performs ZERO heap allocations
//     (asserted with a counting global allocator in
//     tests/runtime/session_test.cpp) and O(T) attention work per token —
//     versus the O(T²) full-prefix re-decode of
//     Transformer::greedy_decode_reference, which remains the bit-exact
//     regression oracle (tests/models/decode_session_test.cpp).
//
// KV cache memory (PR 10: paged).  All KV storage lives in one
// preallocated runtime::KvPagePool of uniform pages holding `page_tokens`
// token positions across every layer's K and V
// (page_floats = layers × 2 × page_tokens × proj_dim); a row maps pages
// through per-row page tables (self: ceil(max_steps / page_tokens)
// entries, cross: ceil(max_src / page_tokens)), acquiring self pages as
// its decode deepens and cross pages at commit, releasing everything at
// reset_row.  Unmapped entries point at the pool's sentinel page, so
// parked rows and the warm-up pass read/write defined memory with no
// kernel branching.  pool_pages defaults to the dense worst case
// (max_batch rows fully deep); smaller pools oversubscribe — see
// free_pages()/ensure_row_step_capacity and the scheduler's preemption
// path.  On top of the pool sits a bounded content-hashed PREFIX CACHE:
// commit_row publishes each committed source's cross-K/V pages under a
// hash of its tokens, and a later admission with the same source takes
// refcounts on those SAME pages and skips the whole prefill
// (prefix_lookup_into) — bit-identical to a cold prime, because the
// pages hold the cold prime's bits.  Cached pages whose only holder is
// the cache are reclaimed (LRU) whenever the pool runs dry, so the cache
// can never starve admission.
//
// The session binds the model's decoder step adapters; one DecodeSession
// may bind a given Transformer at a time (the destructor unbinds).  With
// config.freeze the borrowed model stays frozen after the session is
// destroyed — call Transformer::unfreeze() (or freeze() again) after any
// weight update, as with every frozen module.
//
// Thread-safety: prime/step/generate are synchronous and not reentrant —
// drive one session per serving thread or serialize callers.
// prime_compute is the exception: it is safe from any number of threads
// concurrently (each caller brings its own PrefillStaging), because the
// whole prefill runs through stateless native kernels that only READ the
// model.  Do not mutate the model (training, freeze/unfreeze, weight
// updates) while prefill workers are live.
#pragma once

#include <cstdint>
#include <vector>

#include "core/workspace.h"
#include "models/transformer/transformer.h"
#include "obs/profile.h"
#include "runtime/kv_pages.h"

namespace qdnn::runtime {

// Staging area for one prefill: every decoder layer's cross-attention K/V
// for one request, computed off the serving thread by prime_compute and
// copied into a batch row by commit_row.  Sized by
// DecodeSession::init_staging (layers × max_src × proj_dim floats per
// tensor, layer-major); the workspace is the worker's private arena for
// the WHOLE prefill — encoder activations and projection scratch — so a
// worker never touches the session's own arena or any other worker's.
// Ownership contract: one thread drives a slot at a time (PrefillPool
// checks slots out exclusively); the slot is reusable — each
// prime_compute overwrites the previous request — and after init_staging
// warms it, a prefill at any geometry up to max_src is zero-alloc.
struct PrefillStaging {
  Tensor k, v;     // [layers · max_src · P], layer-major slices
  index_t ts = 0;  // source rows projected ([1, max_src])
  index_t len = 0; // valid (non-pad) positions ([1, ts])
  Workspace ws;    // projection scratch, owned by the slot
  // Prefix-reuse state (PR 10).  `tokens` is the source id sequence,
  // captured by prime_compute (the cache key commit_row publishes
  // under) or by prefix_lookup_into (the key it matched).  On a cache
  // hit (from_cache = true, prime_compute skipped) `page_ids` holds the
  // shared cross-K/V pages with one refcount each taken for this slot —
  // ownership passes to commit_row (which maps them into the row) or to
  // release_staged_prefix (the doomed-job path), exactly once.  Both
  // vectors are reserved by init_staging, so the steady-state slot cycle
  // stays zero-alloc.
  std::vector<index_t> tokens;
  std::vector<index_t> page_ids;
  bool from_cache = false;
};

struct DecodeSessionConfig {
  // Largest batch prime() will be asked to serve.
  index_t max_batch = 1;
  // Step capacity of the self-attention KV rings == the most tokens
  // generate() can emit per row.  The implicit bos occupies position 0
  // and step s embeds position s, so max_steps may equal the model's
  // max_len exactly.
  index_t max_steps = 1;
  // Longest source prime() will be asked to serve — sizes the
  // encoder-side K/V caches and the warm-up projection.  0 (default)
  // means the model's max_len; set it when sources are known to be short
  // to shrink the caches and bind-time work proportionally.
  index_t max_src = 0;
  // Freeze the decode-side modules at bind time (prepack constant
  // weights, drop training caches).  Off only for A/B measurement and
  // non-invasive wrappers — results are bit-identical either way.
  bool freeze = true;
  // Run one dummy step at the deepest ring position at construction so
  // the workspace watermark is discovered (and consolidated) before the
  // first real request.  Also gates init_staging's dummy prefill, which
  // warms each staging slot's workspace the same way.
  bool warmup = true;
  // Token positions per KV page (power of two).  One page carries every
  // layer's K and V for this many consecutive positions, so
  // page_floats = layers × 2 × page_tokens × proj_dim.
  index_t page_tokens = 16;
  // Usable pages in the pool.  0 (default) = the dense-equivalent worst
  // case, max_batch × (ceil(max_steps/page_tokens) +
  // ceil(max_src/page_tokens)) — every row fully deep, no
  // oversubscription possible.  Smaller pools oversubscribe: admission
  // should gate on free_pages() and a decode step that finds the pool
  // dry needs the scheduler's preemption path (the session itself
  // errors).  Must cover at least one worst-case row.
  index_t pool_pages = 0;
  // Prefix-cache entries (distinct sources whose cross-K/V pages stay
  // pinned for reuse).  0 disables the cache.
  index_t prefix_cache_entries = 16;
};

class DecodeSession {
 public:
  DecodeSession(models::Transformer& model, DecodeSessionConfig config);
  ~DecodeSession();

  DecodeSession(const DecodeSession&) = delete;
  DecodeSession& operator=(const DecodeSession&) = delete;

  // Encodes src_ids [n, Ts] (n ≤ max_batch, Ts ≤ the configured max_src,
  // which defaults to the model's max_len), projects the encoder-side K/V
  // of every decoder layer, and rewinds every row's step counter.
  // src_lengths[i] ∈ [0, Ts] counts row i's valid positions, 0 (or an
  // empty vector) meaning "all Ts valid" — the same sentinel as
  // prime_row/prime_compute.  Per-request setup; the first call warms the
  // session's solo staging slot, later calls are zero-alloc.
  void prime(const Tensor& src_ids, const std::vector<index_t>& src_lengths);

  // Continuous-batching admission: encodes ONE source ([Ts] or [1, Ts]
  // ids, src_length ∈ [0, Ts] valid positions, 0 = all Ts) into row
  // `row`'s encoder-side caches and rewinds that row's step counter — no
  // other row's caches, counters or in-flight decode are touched.  The
  // first prime_row (re)binds the session to the full max_batch width;
  // batch prime() and prime_row() may be interleaved, but prime() resets
  // every row.  Zero-alloc once the solo staging slot is warm.
  void prime_row(index_t row, const Tensor& src_ids, index_t src_length);

  // Sizes `staging` for this session's geometry (layers × max_src ×
  // proj_dim per tensor) and — unless config.warmup is off — warms its
  // workspace with one dummy prefill at the deepest geometry, so every
  // later prime_compute through the slot is zero-alloc.  The slot is left
  // rewound (committing it before a real prime_compute still errors).
  // Idempotent; allocates only on first use.
  void init_staging(PrefillStaging& staging) const;

  // The lock-free compute half of prime_row: encodes ONE source ([Ts] or
  // [1, Ts] ids, src_length ∈ [0, Ts] valid positions, 0 = all Ts)
  // through the masked native encoder and projects every layer's
  // cross-attention K/V into `staging`.  The whole pass — embed,
  // positional scale, masked attention, FFN, LayerNorm, projections —
  // runs via stateless forward_into kernels from staging.ws, reading
  // frozen weights and writing nothing shared: no session or model state
  // is touched, so any number of prime_compute calls run fully
  // concurrently with each other and with step()/commit_row on the
  // serving thread (race-checked under ThreadSanitizer in CI), and the
  // result is bit-identical to the training-path encoder on the same
  // ragged source.  Zero heap allocations once `staging` is warm.  Do
  // not mutate the model (training, freeze/unfreeze, weight updates)
  // while prefill workers are live.
  void prime_compute(const Tensor& src_ids, index_t src_length,
                     PrefillStaging& staging) const;

  // The commit half: releases the row's previous pages, then either maps
  // the staging's shared prefix pages (from_cache — O(pages) bookkeeping,
  // refcount ownership transfers from the slot to the row) or acquires
  // fresh cross pages, copies the staged K/V into them and publishes them
  // to the prefix cache under the source-token hash.  A cold staging
  // whose source is already cached (published after its prefill probed)
  // maps the cached pages instead, so concurrent prefills of one source
  // never duplicate its pages.  Rewinds the row's step counter — no
  // other row is touched, and no heap allocation is performed.  Serving-thread only.  Errors (rolling back cleanly) if
  // the pool cannot cover the cross pages even after reclaiming cached
  // prefixes — gate admission on free_pages() to avoid it.
  void commit_row(index_t row, PrefillStaging& staging);

  // Prefix-cache admission: checks the cache for this source and, on a
  // hit (full-token compare — hash collisions can never alias), acquires
  // the shared pages INTO `staging` (page_ids + from_cache, one refcount
  // per page held by the slot) so the caller skips prime_compute and
  // commit_row maps the pages.  False = miss, run prime_compute.
  // Bit-identical to a cold prime: the pages hold the cold prime's bits.
  // Safe from any number of threads concurrently with each other and
  // with the serving thread's commit/publish/evict (the cache and pool
  // serialize internally; race-checked under TSan in CI).  Zero-alloc
  // once `staging` is warm.
  bool prefix_lookup_into(const Tensor& src_ids, index_t src_length,
                          PrefillStaging& staging);

  // Releases a staging slot's un-committed prefix pages (a cache hit
  // whose job was cancelled, expired or errored before commit).  No-op
  // when the slot holds none.  Serving-thread only; zero-alloc.
  void release_staged_prefix(PrefillStaging& staging);

  // Ensures row `row` has a self-KV page mapped for its CURRENT step
  // position, acquiring one (reclaiming cached prefixes if needed) when
  // the row is entering a new page-aligned block.  Returns false when the
  // pool is exhausted even after reclaim — the oversubscription signal:
  // the caller (scheduler) preempts a row to free pages and retries.
  // step() performs the same acquisition internally and ERRORS on
  // exhaustion, so oversubscribing callers must invoke this for every
  // live row before each step.  Serving-thread only; zero-alloc.
  bool ensure_row_step_capacity(index_t row);

  // Parks row `row`: rewinds its step counter to ring position 0 and pins
  // it there, so its ring can never exhaust and no per-tick re-reset is
  // needed.  A parked row above every unparked row is not stepped at all;
  // one below the highest unparked row rides the batch gemm (output
  // ignored) with its counter never advancing.  The continuous-batching
  // retire operation; prime/prime_row/commit_row unpark.  Zero-alloc.
  void reset_row(index_t row);

  // One decoder step: embeds `tokens` ([batch()] ids — bos on the first
  // step, the previous emission after) at each row's position, runs every
  // decoder stage and the output projection, and returns the per-row
  // argmax ([batch()] entries).  Only rows [0, stepped_width()) run, where
  // stepped_width() = 1 + the highest unparked row: parked rows above it
  // are skipped (their tokens are ignored and their argmax and logits
  // entries keep stale values), and the live rows' bits do not depend on
  // the width.  Steady state: zero heap allocations.  The returned
  // reference is valid until the next step()/prime().
  const std::vector<index_t>& step(const std::vector<index_t>& tokens);

  // Greedy loop: seeds bos, steps until every row emitted eos or
  // max_steps is reached, and returns the emissions per row (bos/eos
  // excluded) — exactly greedy_decode_reference's contract, bit-identical
  // output.  Allocates only the returned vectors.
  std::vector<std::vector<index_t>> generate(index_t bos, index_t eos);

  // Logits [batch(), tgt_vocab] of the last step; aliases an internal
  // buffer.  Rows at or past stepped_width() were not written by it.
  ConstTensorView logits() const {
    return ConstTensorView(Shape{bound_n_, vocab_}, buffers_.back().data());
  }
  // Rows the last step() ran: 1 + the highest unparked row (0 when every
  // row was parked and nothing ran).
  index_t stepped_width() const { return stepped_width_; }

  index_t max_batch() const { return config_.max_batch; }
  index_t max_steps() const { return config_.max_steps; }
  // Source capacity of the encoder-side caches (config.max_src, or the
  // model's max_len when unset).
  index_t max_src() const { return max_src_; }
  // Rows bound by the last prime()/prime_row() (0 before the first).
  index_t batch() const { return primed_ ? bound_n_ : 0; }
  // Steps taken by the deepest bound row since its prime/reset — the
  // batch-lockstep step count after a plain prime().
  index_t steps_taken() const;
  // Steps taken by one row since its last prime/prime_row/reset_row.
  index_t row_steps(index_t row) const;
  // True while row `row` is parked (reset_row since its last prime):
  // its ring position is pinned at 0 across ticks.
  bool row_parked(index_t row) const;
  bool frozen() const { return config_.freeze; }
  // True when every module stage has a native (allocation-free)
  // forward_into — all stock projection families qualify.
  bool fully_native() const;
  index_t num_stages() const { return static_cast<index_t>(stages_.size()); }
  // Footprint introspection, in floats.
  index_t kv_cache_floats() const;
  index_t workspace_floats() const { return ws_.capacity(); }

  // --- paged-KV introspection (PR 10) ------------------------------------
  // Token positions per page (config.page_tokens).
  index_t page_tokens() const { return page_tokens_; }
  // Pages currently free in the pool (lock-free; admission gate input).
  index_t free_pages() const { return pool_.free_pages(); }
  // Usable pages in the pool (config.pool_pages, or the dense-equivalent
  // default).
  index_t total_pages() const { return pool_.pages(); }
  // Pages a commit of a ts-position source will acquire when it misses
  // the prefix cache (0 on a hit — the hit maps shared pages).
  index_t cross_pages_for(index_t ts) const {
    return (ts + page_tokens_ - 1) >> page_shift_;
  }
  // Cached-prefix pages whose only holder is the cache — reclaimed on
  // demand by page acquisition, so admission may count them as available.
  index_t reclaimable_pages() const {
    return prefix_cache_.reclaimable_pages(pool_);
  }
  const KvPagePool& pool() const { return pool_; }
  const PrefixCache& prefix_cache() const { return prefix_cache_; }

  // Per-stage wall-time accumulated by run_step while tracing is enabled
  // (obs::trace_enabled()): one entry per pipeline stage, bracketed by an
  // "embed" pseudo-stage in front and "argmax" at the back.  Accumulation
  // is two clock reads per stage per step, entirely skipped when tracing
  // is off (the zero-overhead disabled path).  Buffers are preallocated
  // at bind; the accessor allocates only the returned vector.  Not
  // thread-safe with a concurrent step() — read between ticks.
  std::vector<obs::StageTiming> stage_profile() const;

 private:
  void bind_views(index_t w);
  void unbind_all();
  // Runs the masked native encoder over one source ([ts] ids at `ids`,
  // `len` valid positions) inside `staging.ws` — resetting the slot's
  // workspace first, so the returned [ts, D] view and everything a caller
  // stacks after it (the cross projections) live in one frame.  The only
  // writes are to `staging`; safe from any thread with a private slot.
  ConstTensorView encode_source(const float* ids, index_t ts, index_t len,
                                PrefillStaging& staging) const;
  // The shared bodies behind prime/prime_row/prime_compute/commit_row:
  // _impl performs no (re)binding, so prime() can drive them per row
  // after binding the batch width once.
  void prime_compute_impl(const float* ids, index_t ts, index_t len,
                          PrefillStaging& staging) const;
  void commit_row_impl(index_t row, PrefillStaging& staging);
  // Pool acquire that reclaims LRU prefix-cache entries on exhaustion;
  // -1 only when live rows hold everything.
  index_t acquire_page_();
  // Releases every non-sentinel page mapped by row `row` (both tables)
  // and rewinds the table entries to the sentinel.
  void release_row_pages_(index_t row);
  void run_step(const std::vector<index_t>& tokens);

  models::Transformer* model_;
  DecodeSessionConfig config_;
  index_t d_model_ = 0, proj_dim_ = 0, vocab_ = 0, max_src_ = 0;

  // Step-stage plan: boundary -1 is the embedded token row [N, D];
  // residual-add stages have a null module; the final stage is the output
  // projection onto [N, tgt_vocab].
  std::vector<nn::PipelineStage> stages_;
  std::vector<index_t> stage_width_;  // per-boundary row width

  // Paged KV state (PR 10).  One pool backs both attention kinds; the
  // per-row page tables ([max_batch, pages_per_row], sentinel-filled when
  // unmapped) are what the step adapters' PagedKvViews index through.
  // Layer slices inside a page are static offsets (kv_pages.h), so one
  // table entry per (row, token-block) serves every layer.
  KvPagePool pool_;
  PrefixCache prefix_cache_;
  index_t page_tokens_ = 0, page_shift_ = 0;
  index_t self_ppr_ = 0, cross_ppr_ = 0;  // table entries per row
  std::vector<index_t> self_table_, cross_table_;
  // True during the construction warm-up step: the kernels run against
  // all-sentinel tables (defined zero memory) and no pages are acquired.
  bool warming_ = false;

  Tensor embed_buf_;               // [max_batch · d_model], boundary -1
  std::vector<Tensor> buffers_;    // per-stage boundary buffers
  std::vector<ConstTensorView> in_views_;
  std::vector<ConstTensorView> add_views_;
  std::vector<TensorView> out_views_;

  std::vector<index_t> next_tokens_;  // argmax per row, step() result
  std::vector<index_t> feed_tokens_;  // generate() feedback scratch
  std::vector<char> done_;            // generate() per-row eos flags
  // Per-row session state the step adapters point into: ring positions
  // and valid source lengths, one entry per bound row.  Preallocated at
  // bind (capacity max_batch) so prime_row/reset_row never allocate.
  std::vector<index_t> row_steps_;
  std::vector<index_t> src_lengths_;
  // Parked rows (reset_row since last prime): counter pinned at ring 0,
  // run_step never advances them.  All rows start parked.
  std::vector<char> parked_;

  // Stage profiling accumulators (stage_profile()): slot 0 is the embed
  // pseudo-stage, 1..stages are the pipeline stages, the last slot is the
  // argmax head.  Sized at bind, written by run_step only while tracing
  // is enabled.
  std::vector<long long> stage_ns_;
  std::vector<long long> stage_calls_;

  Workspace ws_;
  // The masked native encoder facade prime/prime_compute run through —
  // stateless (all scratch comes from the caller's staging workspace),
  // so no mutex guards it.  mutable: prime_compute is const and the
  // facade holds no mutable state of its own.
  mutable models::TransformerEncoder encoder_;
  // Staging for the prime/prime_row face, sized and warmed on first use,
  // so every admission path shares one code path.
  PrefillStaging solo_staging_;
  index_t bound_n_ = 0;
  index_t stepped_width_ = 0;  // rows the stage views span (last step)
  bool primed_ = false;
};

}  // namespace qdnn::runtime
