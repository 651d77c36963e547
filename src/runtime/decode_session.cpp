#include "runtime/decode_session.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/trace.h"

namespace qdnn::runtime {

DecodeSession::DecodeSession(models::Transformer& model,
                             DecodeSessionConfig config)
    : model_(&model), config_(config), encoder_(model) {
  const models::TransformerConfig& mc = model_->config();
  // Validate the full ring geometry here, with messages naming the
  // config field — not via QDNN_DCHECKs deep inside the attention
  // kernels once a bad bound finally overruns a cache.
  QDNN_CHECK(config_.max_batch > 0,
             "DecodeSession: max_batch must be positive, got "
                 << config_.max_batch);
  // bos fills ring row 0 and step s embeds position s, so the deepest
  // step uses position max_steps − 1: max_steps == max_len is the exact
  // upper bound (the implicit-bos slot does not cost an extra position).
  QDNN_CHECK(config_.max_steps >= 1 && config_.max_steps <= mc.max_len,
             "DecodeSession: max_steps " << config_.max_steps
                                         << " outside [1, " << mc.max_len
                                         << "] (max_len)");
  QDNN_CHECK(config_.max_src >= 0,
             "DecodeSession: max_src must be non-negative (0 = the "
             "model's max_len), got "
                 << config_.max_src);
  d_model_ = mc.d_model;
  proj_dim_ = mc.proj_dim;
  vocab_ = mc.tgt_vocab;
  max_src_ = config_.max_src > 0 ? config_.max_src : mc.max_len;
  QDNN_CHECK(max_src_ <= mc.max_len,
             "DecodeSession: max_src " << max_src_ << " exceeds max_len "
                                       << mc.max_len);

  // Exclusivity first, before ANY model mutation: a rejected second
  // session must not flip the model to eval mode or freeze it.
  const index_t layers = model_->num_decoder_layers();
  QDNN_CHECK(layers > 0, "DecodeSession: model has no decoder layers");
  for (index_t l = 0; l < layers; ++l)
    QDNN_CHECK(!model_->decoder_layer(l).self_step().bound() &&
                   !model_->decoder_layer(l).cross_step().bound(),
               "DecodeSession: decoder already bound by another "
               "DecodeSession — destroy it before binding a new one");
  model_->set_training(false);

  // Flatten the decode-step pipeline: every decoder layer's stages, then
  // the output projection as the final stage.
  for (index_t l = 0; l < layers; ++l)
    model_->decoder_layer(l).flatten_into(stages_);
  model_->output_projection().flatten_into(stages_);
  nn::validate_pipeline(stages_, "DecodeSession");

  // Per-boundary row widths via the shape pipeline at batch 1 (widths are
  // batch-independent; every boundary keeps the batch leading).
  stage_width_.reserve(stages_.size());
  {
    auto width_of = [&](index_t b) {
      return b < 0 ? d_model_
                   : stage_width_[static_cast<std::size_t>(b)];
    };
    for (const nn::PipelineStage& st : stages_) {
      if (st.is_add()) {
        QDNN_CHECK(width_of(st.input) == width_of(st.addend),
                   "DecodeSession: residual-add operand widths "
                       << width_of(st.input) << " vs "
                       << width_of(st.addend));
        stage_width_.push_back(width_of(st.input));
      } else {
        const Shape out =
            st.module->output_shape(Shape{1, width_of(st.input)});
        QDNN_CHECK(out.rank() == 2 && out[0] == 1,
                   st.module->name() << ": step stage output " << out
                                     << " is not [N, W]");
        stage_width_.push_back(out[1]);
      }
    }
  }
  QDNN_CHECK(stage_width_.back() == vocab_,
             "DecodeSession: final stage width " << stage_width_.back()
                                                 << " != tgt_vocab "
                                                 << vocab_);

  // Bind step: prepack the decode-side weights and drop training caches
  // before warm-up, so the watermark never includes packing scratch.
  if (config_.freeze) {
    model_->tgt_embedding().freeze();
    for (index_t l = 0; l < layers; ++l) model_->decoder_layer(l).freeze();
    model_->output_projection().freeze();
  }

  // Paged KV memory: one pool of uniform pages backs both attention
  // kinds; per-row page tables start all-sentinel (parked/warming rows
  // read defined zero memory).  pool_pages = 0 defaults to the dense
  // worst case — every row fully deep — so oversubscription never
  // happens unless explicitly configured.
  QDNN_CHECK(config_.page_tokens >= 1 &&
                 (config_.page_tokens & (config_.page_tokens - 1)) == 0,
             "DecodeSession: page_tokens must be a power of two, got "
                 << config_.page_tokens);
  page_tokens_ = config_.page_tokens;
  page_shift_ = 0;
  while ((index_t{1} << page_shift_) < page_tokens_) ++page_shift_;
  self_ppr_ = (config_.max_steps + page_tokens_ - 1) >> page_shift_;
  cross_ppr_ = (max_src_ + page_tokens_ - 1) >> page_shift_;
  const index_t page_floats = layers * 2 * page_tokens_ * proj_dim_;
  const index_t pool_pages =
      config_.pool_pages > 0
          ? config_.pool_pages
          : config_.max_batch * (self_ppr_ + cross_ppr_);
  QDNN_CHECK(pool_pages >= self_ppr_ + cross_ppr_,
             "DecodeSession: pool_pages "
                 << pool_pages << " cannot cover one worst-case row ("
                 << self_ppr_ + cross_ppr_
                 << " pages) — a drained session could never admit");
  pool_.init(pool_pages, page_floats);
  prefix_cache_.init(config_.prefix_cache_entries, max_src_, cross_ppr_);
  self_table_.assign(
      static_cast<std::size_t>(config_.max_batch * self_ppr_),
      KvPagePool::kSentinelPage);
  cross_table_.assign(
      static_cast<std::size_t>(config_.max_batch * cross_ppr_),
      KvPagePool::kSentinelPage);

  embed_buf_ = Tensor{Shape{config_.max_batch * d_model_}};
  buffers_.reserve(stages_.size());
  for (index_t w : stage_width_)
    buffers_.emplace_back(Shape{config_.max_batch * w});
  next_tokens_.reserve(static_cast<std::size_t>(config_.max_batch));
  feed_tokens_.reserve(static_cast<std::size_t>(config_.max_batch));
  done_.reserve(static_cast<std::size_t>(config_.max_batch));
  // Per-row state at full width from the start: the step adapters hold
  // pointers into these across rebinds, and prime_row/reset_row must
  // never grow them.
  row_steps_.assign(static_cast<std::size_t>(config_.max_batch), 0);
  src_lengths_.assign(static_cast<std::size_t>(config_.max_batch), 0);
  // Every row starts parked (pinned at ring position 0) until its first
  // prime: an unprimed row is never stepped unless a higher row is live,
  // and then rides the batch gemm without ever advancing.
  parked_.assign(static_cast<std::size_t>(config_.max_batch), 1);
  in_views_.resize(stages_.size());
  add_views_.resize(stages_.size());
  out_views_.resize(stages_.size());
  // Profiling slots: embed + every stage + argmax (see stage_profile()).
  stage_ns_.assign(stages_.size() + 2, 0);
  stage_calls_.assign(stages_.size() + 2, 0);

  // From the first bind on, an exception must not leave the model's
  // adapters pointing into this half-constructed (about-to-unwind)
  // session: unbind before rethrowing (the destructor will not run).
  try {
    // The adapters' paged views carry the FULL max_batch-width tables (a
    // row's table slice never moves) and the full-width per-row counters,
    // so they are bound once, whatever width a step runs at.
    const index_t pf = pool_.page_floats();
    const index_t slice = page_tokens_ * proj_dim_;
    for (index_t l = 0; l < layers; ++l) {
      models::DecoderLayer& layer = model_->decoder_layer(l);
      const index_t k_off = (2 * l) * slice;
      const index_t v_off = (2 * l + 1) * slice;
      layer.self_step().bind(
          models::PagedKvView{pool_.data(), self_table_.data(), pf,
                              self_ppr_, page_tokens_, k_off},
          models::PagedKvView{pool_.data(), self_table_.data(), pf,
                              self_ppr_, page_tokens_, v_off},
          config_.max_steps, &row_steps_);
      layer.cross_step().bind(
          models::PagedKvView{pool_.data(), cross_table_.data(), pf,
                              cross_ppr_, page_tokens_, k_off},
          models::PagedKvView{pool_.data(), cross_table_.data(), pf,
                              cross_ppr_, page_tokens_, v_off},
          max_src_, &src_lengths_);
    }
    bound_n_ = config_.max_batch;
    bind_views(config_.max_batch);

    if (config_.warmup) {
      // Run one step at the deepest ring position (the widest score
      // buffers) against the all-sentinel tables — warming_ suppresses
      // page acquisition, and the sentinel page is defined zero memory —
      // and consolidate the workspace to the exact watermark.  The solo
      // staging slot warms on first use (prime/prime_row): a session
      // admitting through its own staging slots never allocates it.
      warming_ = true;
      primed_ = true;
      row_steps_.assign(static_cast<std::size_t>(config_.max_batch),
                        config_.max_steps - 1);
      src_lengths_.assign(static_cast<std::size_t>(config_.max_batch),
                          max_src_);
      feed_tokens_.assign(static_cast<std::size_t>(config_.max_batch), 0);
      run_step(feed_tokens_);
      warming_ = false;
      primed_ = false;
      row_steps_.assign(static_cast<std::size_t>(config_.max_batch), 0);
      src_lengths_.assign(static_cast<std::size_t>(config_.max_batch), 0);
      ws_.reset();
      ws_.consolidate();
    }
  } catch (...) {
    warming_ = false;
    unbind_all();
    throw;
  }
}

DecodeSession::~DecodeSession() { unbind_all(); }

void DecodeSession::unbind_all() {
  for (index_t l = 0; l < model_->num_decoder_layers(); ++l) {
    model_->decoder_layer(l).self_step().unbind();
    model_->decoder_layer(l).cross_step().unbind();
  }
}

bool DecodeSession::fully_native() const {
  for (const nn::PipelineStage& st : stages_)
    if (!st.is_add() && !st.module->supports_forward_into()) return false;
  return true;
}

index_t DecodeSession::kv_cache_floats() const {
  // The whole KV footprint is the pool (usable pages plus the sentinel).
  return (pool_.pages() + 1) * pool_.page_floats();
}

index_t DecodeSession::row_steps(index_t row) const {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  return row_steps_[static_cast<std::size_t>(row)];
}

bool DecodeSession::row_parked(index_t row) const {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  return parked_[static_cast<std::size_t>(row)] != 0;
}

void DecodeSession::bind_views(index_t w) {
  // Rebuild the per-stage activation views over rows [0, w).  Shapes are
  // inline and the views are POD, so this never touches the heap.
  auto boundary_data = [&](index_t b) -> float* {
    return b < 0 ? embed_buf_.data()
                 : buffers_[static_cast<std::size_t>(b)].data();
  };
  auto boundary_width = [&](index_t b) {
    return b < 0 ? d_model_ : stage_width_[static_cast<std::size_t>(b)];
  };
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const nn::PipelineStage& st = stages_[i];
    in_views_[i] = ConstTensorView(Shape{w, boundary_width(st.input)},
                                   boundary_data(st.input));
    add_views_[i] =
        st.is_add() ? ConstTensorView(Shape{w, boundary_width(st.addend)},
                                      boundary_data(st.addend))
                    : ConstTensorView{};
    out_views_[i] = TensorView(
        Shape{w, stage_width_[i]}, boundary_data(static_cast<index_t>(i)));
  }
  stepped_width_ = w;
}

index_t DecodeSession::acquire_page_() {
  index_t page = pool_.acquire();
  // Cached prefixes whose only holder is the cache are reclaimable:
  // evict LRU entries until a page frees up or nothing is left to evict
  // (an eviction may free nothing when every page is still shared by a
  // live row — keep evicting, later entries may be sole holders).
  while (page < 0 && prefix_cache_.evict_one(pool_)) page = pool_.acquire();
  return page;
}

void DecodeSession::release_row_pages_(index_t row) {
  index_t* srow = self_table_.data() + row * self_ppr_;
  for (index_t p = 0; p < self_ppr_; ++p) {
    if (srow[p] != KvPagePool::kSentinelPage) {
      pool_.release(srow[p]);
      srow[p] = KvPagePool::kSentinelPage;
    }
  }
  index_t* crow = cross_table_.data() + row * cross_ppr_;
  for (index_t p = 0; p < cross_ppr_; ++p) {
    if (crow[p] != KvPagePool::kSentinelPage) {
      pool_.release(crow[p]);
      crow[p] = KvPagePool::kSentinelPage;
    }
  }
}

bool DecodeSession::ensure_row_step_capacity(index_t row) {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  const index_t block =
      row_steps_[static_cast<std::size_t>(row)] >> page_shift_;
  QDNN_DCHECK(block < self_ppr_,
              "DecodeSession: step block " << block
                                           << " beyond the page table");
  index_t& slot =
      self_table_[static_cast<std::size_t>(row * self_ppr_ + block)];
  if (slot != KvPagePool::kSentinelPage) return true;
  const index_t page = acquire_page_();
  if (page < 0) return false;
  slot = page;
  return true;
}

void DecodeSession::prime(const Tensor& src_ids,
                          const std::vector<index_t>& src_lengths) {
  QDNN_CHECK(src_ids.rank() == 2, "DecodeSession: src_ids must be [N, T]");
  const index_t n = src_ids.dim(0), ts = src_ids.dim(1);
  QDNN_CHECK(n >= 1 && n <= config_.max_batch,
             "DecodeSession: batch size " << n << " outside [1, "
                                          << config_.max_batch << "]");
  QDNN_CHECK(ts >= 1 && ts <= max_src_,
             "DecodeSession: source length " << ts << " outside [1, "
                                             << max_src_ << "]");
  QDNN_CHECK(src_lengths.empty() ||
                 static_cast<index_t>(src_lengths.size()) == n,
             "DecodeSession: src_lengths holds "
                 << src_lengths.size() << " entries for batch " << n);
  for (std::size_t i = 0; i < src_lengths.size(); ++i)
    QDNN_CHECK(src_lengths[i] >= 0 && src_lengths[i] <= ts,
               "DecodeSession: src_lengths[" << i << "] = "
                                             << src_lengths[i]
                                             << " outside [0, " << ts
                                             << "] (0 = all valid)");

  // Row by row through the masked native encoder — the same kernels and
  // per-row masking as prime_row/prime_compute, so all three admission
  // paths stay bit-identical (and bit-identical to the training-path
  // encoder, hence to greedy_decode_reference).
  init_staging(solo_staging_);
  bound_n_ = n;
  for (index_t r = 0; r < n; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const index_t len =
        src_lengths.empty() || src_lengths[ri] == 0 ? ts : src_lengths[ri];
    prime_compute_impl(src_ids.data() + r * ts, ts, len, solo_staging_);
    commit_row_impl(r, solo_staging_);
  }
  primed_ = true;
}

void DecodeSession::prime_row(index_t row, const Tensor& src_ids,
                              index_t src_length) {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  // prime_row IS prime_compute + commit_row over a private staging slot:
  // the synchronous and pool-fed admission paths share one code path, so
  // they cannot drift (bit-identical by construction).
  init_staging(solo_staging_);
  prime_compute(src_ids, src_length, solo_staging_);
  commit_row(row, solo_staging_);
}

void DecodeSession::init_staging(PrefillStaging& staging) const {
  const index_t floats =
      model_->num_decoder_layers() * max_src_ * proj_dim_;
  const bool fresh = staging.k.numel() != floats;
  if (fresh) {
    staging.k = Tensor{Shape{floats}};
    staging.v = Tensor{Shape{floats}};
    staging.tokens.reserve(static_cast<std::size_t>(max_src_));
    staging.page_ids.reserve(static_cast<std::size_t>(cross_ppr_));
  }
  if (fresh && config_.warmup) {
    // One dummy prefill at the deepest geometry discovers the slot's
    // workspace watermark (encoder activations + projection scratch), so
    // every later prime_compute through the slot is zero-alloc.  Rewind
    // the slot afterwards: committing it before a real prefill must still
    // be the "empty staging" error.
    Tensor ids{Shape{max_src_}};  // zero-filled: token id 0
    prime_compute(ids, /*src_length=*/0, staging);
    staging.ts = 0;
    staging.len = 0;
    staging.tokens.clear();
    staging.ws.reset();
    staging.ws.consolidate();
  }
}

ConstTensorView DecodeSession::encode_source(const float* ids, index_t ts,
                                             index_t len,
                                             PrefillStaging& staging) const {
  // One workspace frame for the whole prefill: the reset here is the
  // slot's only reset point, so the encoder activations and everything
  // the caller stacks after them (the cross projections) coexist.
  staging.ws.reset();
  const ConstTensorView ids_view(Shape{1, ts}, ids);
  const TensorView enc = staging.ws.take(Shape{1, ts, d_model_});
  encoder_.encode_into(ids_view, enc, &len, staging.ws);
  return ConstTensorView(Shape{ts, d_model_}, enc.data());
}

void DecodeSession::prime_compute(const Tensor& src_ids,
                                  index_t src_length,
                                  PrefillStaging& staging) const {
  QDNN_CHECK(src_ids.rank() == 1 ||
                 (src_ids.rank() == 2 && src_ids.dim(0) == 1),
             "DecodeSession: prime src_ids must be [Ts] or [1, Ts], got "
                 << src_ids.shape());
  const index_t ts = src_ids.dim(src_ids.rank() - 1);
  QDNN_CHECK(ts >= 1 && ts <= max_src_,
             "DecodeSession: source length " << ts << " outside [1, "
                                             << max_src_ << "]");
  QDNN_CHECK(src_length >= 0 && src_length <= ts,
             "DecodeSession: src_length " << src_length << " outside [0, "
                                          << ts << "] (0 = all valid)");
  const index_t layers = model_->num_decoder_layers();
  QDNN_CHECK(staging.k.numel() == layers * max_src_ * proj_dim_ &&
                 staging.v.numel() == staging.k.numel(),
             "DecodeSession: staging not sized for this session — call "
             "init_staging first");
  const index_t len = src_length > 0 ? src_length : ts;
  prime_compute_impl(src_ids.data(), ts, len, staging);
}

void DecodeSession::prime_compute_impl(const float* ids, index_t ts,
                                       index_t len,
                                       PrefillStaging& staging) const {
  QDNN_CHECK(staging.page_ids.empty(),
             "DecodeSession: prime_compute on a staging slot still "
             "holding prefix pages — commit or release them first");
  // Capture the source ids: the prefix-cache key commit_row publishes
  // the computed pages under.  Reserved at init_staging, so no alloc.
  staging.tokens.clear();
  for (index_t i = 0; i < ts; ++i)
    staging.tokens.push_back(static_cast<index_t>(ids[i]));
  staging.from_cache = false;

  // Masked native encoder + cross projections, all from staging.ws —
  // stateless kernels over frozen weights, so concurrent calls (each
  // with a private staging) never touch shared mutable state.  The
  // projections stack in the same frame as the encoder activation:
  // encode_source owns the slot's single reset point.
  const ConstTensorView enc_view = encode_source(ids, ts, len, staging);
  const index_t layers = model_->num_decoder_layers();
  for (index_t l = 0; l < layers; ++l) {
    const index_t offset = l * max_src_ * proj_dim_;
    model_->decoder_layer(l).cross_attention().project_kv(
        enc_view, 1, ts,
        TensorView(Shape{1, ts, proj_dim_}, staging.k.data() + offset),
        TensorView(Shape{1, ts, proj_dim_}, staging.v.data() + offset),
        staging.ws);
  }
  staging.ts = ts;
  staging.len = len;
}

void DecodeSession::commit_row(index_t row, PrefillStaging& staging) {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  const index_t layers = model_->num_decoder_layers();
  QDNN_CHECK(staging.ts >= 1 && staging.ts <= max_src_ &&
                 staging.len >= 1 && staging.len <= staging.ts,
             "DecodeSession: commit_row on empty staging — run "
             "prime_compute first");
  QDNN_CHECK(staging.k.numel() == layers * max_src_ * proj_dim_ &&
                 staging.v.numel() == staging.k.numel(),
             "DecodeSession: staging sized for a different session");

  // Continuous mode binds the full max_batch width so every row slot is
  // addressable; step() runs only up to the highest unparked row.
  bound_n_ = config_.max_batch;
  commit_row_impl(row, staging);
}

void DecodeSession::commit_row_impl(index_t row, PrefillStaging& staging) {
  release_row_pages_(row);
  const index_t n_pages = cross_pages_for(staging.ts);
  index_t* crow = cross_table_.data() + row * cross_ppr_;
  const bool keyed = prefix_cache_.enabled() &&
                     static_cast<index_t>(staging.tokens.size()) == staging.ts;
  const std::uint64_t h =
      keyed ? prefix_hash(staging.tokens.data(), staging.ts, staging.len) : 0;
  // A cold staging whose source was published after its own probe missed
  // (two prefills of one source in flight at once) maps the cached pages
  // instead of acquiring duplicates — which could evict some other cached
  // prefix from a full pool.  Not a lookup: hits()/misses() stay put.
  if (!staging.from_cache && keyed)
    staging.from_cache =
        prefix_cache_.pin(h, staging.tokens.data(), staging.ts, staging.len,
                          pool_, staging.page_ids);

  if (staging.from_cache) {
    // A prefix hit: the slot holds one reference per shared page —
    // ownership transfers to the row's table.  O(pages) bookkeeping; the
    // pages already hold the cold prime's bits, so the row is
    // bit-identical to one that ran the whole prefill.
    QDNN_CHECK(static_cast<index_t>(staging.page_ids.size()) == n_pages,
               "DecodeSession: staged prefix holds "
                   << staging.page_ids.size() << " pages for a "
                   << staging.ts << "-position source (" << n_pages
                   << " expected)");
    for (index_t p = 0; p < n_pages; ++p)
      crow[p] = staging.page_ids[static_cast<std::size_t>(p)];
    staging.page_ids.clear();
    staging.from_cache = false;
  } else {
    // Cold commit: acquire the cross pages (reclaiming cached prefixes
    // under pressure), copy the staged K/V in page-by-page, and publish
    // the pages to the prefix cache under the source-token hash.
    index_t got = 0;
    for (; got < n_pages; ++got) {
      const index_t page = acquire_page_();
      if (page < 0) break;
      crow[got] = page;
    }
    if (got < n_pages) {
      for (index_t p = 0; p < got; ++p) {
        pool_.release(crow[p]);
        crow[p] = KvPagePool::kSentinelPage;
      }
      QDNN_CHECK(false,
                 "DecodeSession: commit_row needs "
                     << n_pages << " pages but the pool has " << got
                     << " even after reclaim — gate admission on "
                        "free_pages() (oversubscribed scheduler)");
    }
    const index_t layers = model_->num_decoder_layers();
    const index_t slice = page_tokens_ * proj_dim_;
    for (index_t p = 0; p < n_pages; ++p) {
      const index_t t0 = p << page_shift_;
      const index_t rows = std::min(page_tokens_, staging.ts - t0);
      const std::size_t bytes =
          static_cast<std::size_t>(rows * proj_dim_) * sizeof(float);
      float* page = pool_.page_data(crow[p]);
      for (index_t l = 0; l < layers; ++l) {
        const index_t src = (l * max_src_ + t0) * proj_dim_;
        std::memcpy(page + (2 * l) * slice, staging.k.data() + src, bytes);
        std::memcpy(page + (2 * l + 1) * slice, staging.v.data() + src,
                    bytes);
      }
    }
    if (keyed)
      prefix_cache_.publish(h, staging.tokens.data(), staging.ts,
                            staging.len, crow, n_pages, pool_);
  }

  src_lengths_[static_cast<std::size_t>(row)] = staging.len;
  row_steps_[static_cast<std::size_t>(row)] = 0;
  parked_[static_cast<std::size_t>(row)] = 0;
  primed_ = true;
}

bool DecodeSession::prefix_lookup_into(const Tensor& src_ids,
                                       index_t src_length,
                                       PrefillStaging& staging) {
  QDNN_CHECK(src_ids.rank() == 1 ||
                 (src_ids.rank() == 2 && src_ids.dim(0) == 1),
             "DecodeSession: prime src_ids must be [Ts] or [1, Ts], got "
                 << src_ids.shape());
  if (!prefix_cache_.enabled()) return false;
  const index_t ts = src_ids.dim(src_ids.rank() - 1);
  QDNN_CHECK(ts >= 1 && ts <= max_src_,
             "DecodeSession: source length " << ts << " outside [1, "
                                             << max_src_ << "]");
  QDNN_CHECK(src_length >= 0 && src_length <= ts,
             "DecodeSession: src_length " << src_length << " outside [0, "
                                          << ts << "] (0 = all valid)");
  QDNN_CHECK(staging.page_ids.empty(),
             "DecodeSession: prefix_lookup_into on a staging slot still "
             "holding prefix pages — commit or release them first");
  const index_t len = src_length > 0 ? src_length : ts;

  staging.tokens.clear();
  for (index_t i = 0; i < ts; ++i)
    staging.tokens.push_back(static_cast<index_t>(src_ids.data()[i]));
  const std::uint64_t h = prefix_hash(staging.tokens.data(), ts, len);
  if (!prefix_cache_.lookup_acquire(h, staging.tokens.data(), ts, len,
                                    pool_, staging.page_ids))
    return false;
  staging.ts = ts;
  staging.len = len;
  staging.from_cache = true;
  return true;
}

void DecodeSession::release_staged_prefix(PrefillStaging& staging) {
  for (index_t page : staging.page_ids) pool_.release(page);
  staging.page_ids.clear();
  staging.from_cache = false;
}

void DecodeSession::reset_row(index_t row) {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  // Hand every page back (the prefix cache's own pins keep shared cross
  // pages alive) and pin the row at ring 0 over the sentinel page.
  release_row_pages_(row);
  row_steps_[static_cast<std::size_t>(row)] = 0;
  parked_[static_cast<std::size_t>(row)] = 1;
}

void DecodeSession::run_step(const std::vector<index_t>& tokens) {
  // Step rows [0, n) only, n = 1 + the highest unparked row: parked rows
  // above it would only burn gemm rows on ignored output, and every
  // kernel's per-row result is independent of the batch width, so the
  // live rows' bits do not change.  The warm-up runs at full width to
  // discover the widest workspace watermark.  Argmax entries at or past
  // n keep their previous value (a parked row's output is ignored).
  next_tokens_.resize(static_cast<std::size_t>(bound_n_));
  index_t n = bound_n_;
  if (!warming_) {
    while (n > 0 && parked_[static_cast<std::size_t>(n - 1)]) --n;
    if (n == 0) {
      stepped_width_ = 0;
      return;
    }
  }
  if (n != stepped_width_) bind_views(n);
  // Map a self-KV page for every live row entering a new page-aligned
  // block.  Solo/default pools can never trip this (pool_pages covers
  // every row fully deep); an oversubscribing scheduler must call
  // ensure_row_step_capacity itself (and preempt on false) before
  // stepping.  Skipped while warming: the warm-up runs over the
  // sentinel page.
  if (!warming_) {
    for (index_t r = 0; r < n; ++r) {
      if (parked_[static_cast<std::size_t>(r)]) continue;
      QDNN_CHECK(ensure_row_step_capacity(r),
                 "DecodeSession: page pool exhausted at row "
                     << r << " step "
                     << row_steps_[static_cast<std::size_t>(r)]
                     << " — preempt a row (scheduler) or raise "
                        "pool_pages");
    }
  }
  // Stage profiling piggybacks on the trace gate: two clock reads per
  // stage while tracing, nothing at all (one relaxed load) when off.
  const bool profiling = obs::trace_enabled();
  long long t_prev = profiling ? obs::now_ns() : 0;
  const auto mark = [&](std::size_t slot) {
    const long long t_now = obs::now_ns();
    stage_ns_[slot] += t_now - t_prev;
    ++stage_calls_[slot];
    t_prev = t_now;
  };
  // Embed each row's new token at that row's ring position:
  // y = E[id]·sqrt(d) + PE[row_step], the exact operation order of the
  // training path.  Rows at different positions read different PE rows —
  // the continuous-batching case.
  const Tensor& table = model_->positional().table();
  const float* weights = model_->tgt_embedding().weight().value.data();
  const float scale = std::sqrt(static_cast<float>(d_model_));
  for (index_t r = 0; r < n; ++r) {
    const index_t id = tokens[static_cast<std::size_t>(r)];
    QDNN_CHECK(id >= 0 && id < vocab_,
               "DecodeSession: token id " << id << " out of vocab "
                                          << vocab_);
    const float* pe =
        table.data() + row_steps_[static_cast<std::size_t>(r)] * d_model_;
    const float* e = weights + id * d_model_;
    float* y = embed_buf_.data() + r * d_model_;
    for (index_t d = 0; d < d_model_; ++d) y[d] = e[d] * scale + pe[d];
  }
  if (profiling) mark(0);

  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const nn::PipelineStage& st = stages_[i];
    if (st.is_add()) {
      // Residual-add stage: out = in + addend, the exact operand order of
      // the training path's `main += residual`.
      const float* a = in_views_[i].data();
      const float* b = add_views_[i].data();
      float* o = out_views_[i].data();
      const index_t count = out_views_[i].numel();
      for (index_t j = 0; j < count; ++j) o[j] = a[j] + b[j];
      if (profiling) mark(i + 1);
      continue;
    }
    // Scratch lives only within a stage; rewinding here caps the
    // workspace at the per-stage maximum instead of the pipeline sum.
    ws_.reset();
    st.module->forward_into(in_views_[i], out_views_[i], ws_);
    if (profiling) mark(i + 1);
  }

  // Greedy head: first-maximum argmax, matching greedy_decode_reference.
  const float* logits = buffers_.back().data();
  for (index_t r = 0; r < n; ++r) {
    const float* row = logits + r * vocab_;
    index_t best = 0;
    for (index_t v = 1; v < vocab_; ++v)
      if (row[v] > row[best]) best = v;
    next_tokens_[static_cast<std::size_t>(r)] = best;
  }
  if (profiling) mark(stages_.size() + 1);
  // Parked rows stay pinned at ring position 0: a parked row below n
  // rides the gemm (its output is ignored) but never advances, so an idle
  // row's ring cannot exhaust no matter how many ticks pass.
  for (index_t r = 0; r < n; ++r)
    if (!parked_[static_cast<std::size_t>(r)])
      ++row_steps_[static_cast<std::size_t>(r)];
}

std::vector<obs::StageTiming> DecodeSession::stage_profile() const {
  std::vector<obs::StageTiming> out;
  out.reserve(stage_ns_.size());
  for (std::size_t i = 0; i < stage_ns_.size(); ++i) {
    obs::StageTiming t;
    if (i == 0) {
      t.name = "embed";
    } else if (i == stage_ns_.size() - 1) {
      t.name = "argmax";
    } else {
      const nn::PipelineStage& st = stages_[i - 1];
      t.name = st.is_add() ? "residual_add" : st.module->name();
    }
    t.calls = stage_calls_[i];
    t.total_ns = stage_ns_[i];
    out.push_back(std::move(t));
  }
  return out;
}

const std::vector<index_t>& DecodeSession::step(
    const std::vector<index_t>& tokens) {
  QDNN_CHECK(primed_, "DecodeSession: step() before prime()");
  for (index_t r = 0; r < bound_n_; ++r)
    QDNN_CHECK(row_steps_[static_cast<std::size_t>(r)] < config_.max_steps,
               "DecodeSession: row " << r << " ring exhausted after "
                                     << config_.max_steps
                                     << " steps — prime or reset the row");
  QDNN_CHECK(static_cast<index_t>(tokens.size()) == bound_n_,
             "DecodeSession: " << tokens.size() << " tokens for batch "
                               << bound_n_);
  run_step(tokens);
  return next_tokens_;
}

index_t DecodeSession::steps_taken() const {
  index_t deepest = 0;
  for (index_t r = 0; r < bound_n_; ++r)
    deepest =
        std::max(deepest, row_steps_[static_cast<std::size_t>(r)]);
  return deepest;
}

std::vector<std::vector<index_t>> DecodeSession::generate(index_t bos,
                                                          index_t eos) {
  QDNN_CHECK(primed_, "DecodeSession: generate() before prime()");
  QDNN_CHECK(steps_taken() == 0,
             "DecodeSession: generate() needs a fresh prime()");
  const index_t n = bound_n_;
  std::vector<std::vector<index_t>> outputs(static_cast<std::size_t>(n));
  feed_tokens_.assign(static_cast<std::size_t>(n), bos);
  done_.assign(static_cast<std::size_t>(n), 0);

  for (index_t s = 0; s < config_.max_steps; ++s) {
    step(feed_tokens_);
    bool any_active = false;
    for (index_t r = 0; r < n; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (done_[ri]) {
        // Finished rows keep riding the batch (their cache rows are
        // computed but ignored), fed eos like the reference's pad slot.
        feed_tokens_[ri] = eos;
        continue;
      }
      const index_t best = next_tokens_[ri];
      feed_tokens_[ri] = best;
      if (best == eos) {
        done_[ri] = 1;
      } else {
        outputs[ri].push_back(best);
        any_active = true;
      }
    }
    if (!any_active) break;
  }
  return outputs;
}

}  // namespace qdnn::runtime
