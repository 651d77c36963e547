#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>

namespace qdnn::serve {

namespace {

double ring_percentile(const std::vector<double>& ring, double q) {
  if (ring.empty()) return 0.0;
  std::vector<double> sorted(ring);
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[idx];
}

}  // namespace

BatchScheduler::BatchScheduler(models::Transformer& model,
                               BatchSchedulerConfig config)
    : config_(config),
      vocab_(model.config().tgt_vocab),
      session_(model, config.session),
      trace_(config.trace_events) {
  QDNN_CHECK(config_.bos >= 0 && config_.bos < vocab_,
             "BatchScheduler: bos " << config_.bos << " outside vocab "
                                    << vocab_);
  QDNN_CHECK(config_.eos >= 0 && config_.eos < vocab_,
             "BatchScheduler: eos " << config_.eos << " outside vocab "
                                    << vocab_);
  QDNN_CHECK(config_.prefill_workers >= 0,
             "BatchScheduler: prefill_workers must be non-negative, got "
                 << config_.prefill_workers);
  QDNN_CHECK(config_.prefill_slots >= 0,
             "BatchScheduler: prefill_slots must be non-negative (0 = "
             "max_batch), got "
                 << config_.prefill_slots);
  QDNN_CHECK(config_.max_queue >= 0,
             "BatchScheduler: max_queue must be non-negative (0 = "
             "unbounded), got "
                 << config_.max_queue);
  QDNN_CHECK(config_.age_ticks >= 0,
             "BatchScheduler: age_ticks must be non-negative (0 = no "
             "aging), got "
                 << config_.age_ticks);
  QDNN_CHECK(config_.stats_window >= 0,
             "BatchScheduler: stats_window must be non-negative (0 = "
             "counts only), got "
                 << config_.stats_window);

  const index_t rows = session_.max_batch();
  slots_.resize(static_cast<std::size_t>(rows));
  feed_.assign(static_cast<std::size_t>(rows), config_.bos);
  completed_.reserve(static_cast<std::size_t>(rows));
  prob_scratch_ = Tensor{Shape{vocab_}};
  idx_scratch_.resize(static_cast<std::size_t>(vocab_));
  for (index_t c = 0; c < kPriorityClasses; ++c) {
    const auto window = static_cast<std::size_t>(config_.stats_window);
    SampleRing& qw = queue_wait_ring_[static_cast<std::size_t>(c)];
    SampleRing& tt = ttft_ring_[static_cast<std::size_t>(c)];
    qw.window = window;
    qw.buf.reserve(window);
    tt.window = window;
    tt.buf.reserve(window);
  }
  latency_ring_.window = static_cast<std::size_t>(config_.stats_window);
  latency_ring_.buf.reserve(latency_ring_.window);
  tick_ring_.window = static_cast<std::size_t>(config_.stats_window);
  tick_ring_.buf.reserve(tick_ring_.window);
  register_metrics();

  if (config_.prefill_workers > 0) {
    const index_t slots = config_.prefill_slots > 0
                              ? config_.prefill_slots
                              : rows;
    prefill_ = std::make_unique<PrefillPool>(
        session_, config_.prefill_workers, slots, &trace_,
        config_.on_prefill_finished);
  } else {
    session_.init_staging(staging_);
  }
}

void BatchScheduler::register_metrics() {
  // Every instrument the tick path records into is created HERE, at
  // bind: the hot paths only ever dereference these preallocated handles
  // (relaxed atomic ops), never the registry's name map — which is what
  // keeps steady-state ticks zero-heap-alloc with tracing on or off.
  registry_ = config_.registry;
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  const std::string p = config_.metrics_prefix + ".";
  ticks_counter_ = &registry_->counter(p + "ticks");
  stepped_ticks_counter_ = &registry_->counter(p + "stepped_ticks");
  tokens_counter_ = &registry_->counter(p + "tokens");
  occupancy_sum_counter_ = &registry_->counter(p + "occupancy_sum");
  live_rows_gauge_ = &registry_->gauge(p + "live_rows");
  queue_depth_gauge_ = &registry_->gauge(p + "queue_depth");
  // Tick-denominated latency buckets (queue wait / TTFT / end-to-end):
  // powers of two up to half a K of batch steps; µs buckets for the
  // stepped-tick wall time.  Fixed at registration per the histogram
  // contract; SchedulerStats' exact percentiles come from the rings.
  const std::vector<long long> tick_bounds{1,  2,  4,   8,   16,
                                           32, 64, 128, 256, 512};
  const std::vector<long long> us_bounds{50,   100,  200,   500,   1000,
                                         2000, 5000, 10000, 20000, 50000};
  queue_wait_hist_ = &registry_->histogram(p + "queue_wait_ticks",
                                           tick_bounds);
  ttft_hist_ = &registry_->histogram(p + "ttft_ticks", tick_bounds);
  latency_hist_ = &registry_->histogram(p + "latency_ticks", tick_bounds);
  tick_us_hist_ = &registry_->histogram(p + "tick_us", us_bounds);
  // Paged KV / prefix cache (PR 10): page-pool gauges (set per tick) and
  // the preemption counter.
  preempted_counter_ = &registry_->counter(p + "preemptions");
  free_pages_gauge_ = &registry_->gauge(p + "kv.free_pages");
  used_pages_gauge_ = &registry_->gauge(p + "kv.used_pages");
  prefix_entries_gauge_ = &registry_->gauge(p + "kv.prefix_entries");
  static const char* kClassNames[kPriorityClasses] = {"high", "normal",
                                                      "low"};
  for (std::size_t c = 0; c < static_cast<std::size_t>(kPriorityClasses);
       ++c) {
    const std::string cp = p + kClassNames[c] + ".";
    ClassCounters& cc = class_counters_[c];
    cc.submitted = &registry_->counter(cp + "submitted");
    cc.completed = &registry_->counter(cp + "completed");
    cc.cancelled = &registry_->counter(cp + "cancelled");
    cc.expired = &registry_->counter(cp + "expired");
    cc.shed = &registry_->counter(cp + "shed");
    cc.errored = &registry_->counter(cp + "errored");
    // Wall-clock phase histograms (RequestResult::phases, µs), observed
    // at retirement for trace-sampled requests only.
    cc.queue_us = &registry_->histogram(cp + "queue_us", us_bounds);
    cc.prefill_us = &registry_->histogram(cp + "prefill_us", us_bounds);
    cc.first_token_us =
        &registry_->histogram(cp + "first_token_us", us_bounds);
    cc.decode_us = &registry_->histogram(cp + "decode_us", us_bounds);
  }
}

void BatchScheduler::validate(const Request& request) const {
  QDNN_CHECK(request.src_ids.rank() == 1 ||
                 (request.src_ids.rank() == 2 &&
                  request.src_ids.dim(0) == 1),
             "BatchScheduler: src_ids must be [Ts] or [1, Ts], got "
                 << request.src_ids.shape());
  const index_t ts = request.src_ids.dim(request.src_ids.rank() - 1);
  QDNN_CHECK(ts >= 1 && ts <= session_.max_src(),
             "BatchScheduler: source length " << ts << " outside [1, "
                                              << session_.max_src()
                                              << "] (max_src)");
  QDNN_CHECK(request.src_length >= 0 && request.src_length <= ts,
             "BatchScheduler: src_length " << request.src_length
                                           << " outside [0, " << ts
                                           << "] (0 = all valid)");
  QDNN_CHECK(request.max_new_tokens >= 0 &&
                 request.max_new_tokens <= session_.max_steps(),
             "BatchScheduler: max_new_tokens "
                 << request.max_new_tokens << " outside [0, "
                 << session_.max_steps() << "] (max_steps)");
  serve::validate(request.sampling, vocab_);
  const auto cls = static_cast<index_t>(request.priority);
  QDNN_CHECK(cls >= 0 && cls < kPriorityClasses,
             "BatchScheduler: priority class " << cls << " outside [0, "
                                               << kPriorityClasses << ")");
  QDNN_CHECK(request.deadline_tick >= 0,
             "BatchScheduler: deadline_tick must be non-negative (0 = "
             "none), got "
                 << request.deadline_tick);
  QDNN_CHECK(request.id >= -1,
             "BatchScheduler: id must be >= 0 (or -1 = assign), got "
                 << request.id);
}

index_t BatchScheduler::submit(Request request) {
  validate(request);
  if (request.id >= 0) {
    // Explicit-id uniqueness: a duplicate of an UNRESOLVED id would
    // silently produce two results with the same id — reject it at the
    // edge like every other malformed field.  Resolved ids may be
    // reused.
    QDNN_CHECK(inflight_ids_.count(request.id) == 0,
               "BatchScheduler: id " << request.id
                                     << " is already in flight (ids must "
                                        "be unique among unresolved "
                                        "requests)");
  } else {
    while (inflight_ids_.count(next_id_) != 0) ++next_id_;
    request.id = next_id_++;
  }
  const index_t id = request.id;
  const auto cls = static_cast<index_t>(request.priority);
  class_counters_[static_cast<std::size_t>(cls)].submitted->inc();
  // Trace sampling: decided HERE, once per submit — every Nth request
  // while tracing is enabled (obs::trace_sample()).  The decision rides
  // the job and then the slot, so a sampled request's timeline and phase
  // timestamps are complete end to end and every other request keeps the
  // no-op fast path at every per-request record site.
  const bool sampled =
      obs::trace_enabled() && (trace_seq_++ % obs::trace_sample() == 0);

  if (config_.max_queue > 0 && queued() >= config_.max_queue) {
    // Backpressure: the bounded queue is full, so this submit load-sheds
    // instead of growing it — the id still resolves, with exactly one
    // kShed result, and the caller can retry or route elsewhere.
    RequestResult shed;
    shed.id = id;
    shed.reason = FinishReason::kShed;
    shed.error = "admission queue full (max_queue)";
    shed.priority = request.priority;
    shed.submit_tick = ticks_;
    shed.finish_tick = ticks_;  // admit_tick stays -1: never admitted
    completed_.push_back(std::move(shed));
    class_counters_[static_cast<std::size_t>(cls)].shed->inc();
    if (sampled) trace_.record_always(id, obs::TraceEvent::kShed, cls);
    return id;
  }

  PrefillJob job;
  job.id = id;
  job.submit_tick = ticks_;
  job.sampled = sampled;
  if (sampled) {
    job.submit_ns = obs::now_ns();
    trace_.record_always(id, obs::TraceEvent::kSubmit, cls);
  }
  // The request's warm token buffer travels with it: reserved here (the
  // submit edge allocates by contract), swapped into the batch slot at
  // admission and handed off inside the RequestResult at retirement — so
  // the admit and retire ticks themselves never heap-allocate.
  job.budget = request.max_new_tokens > 0 ? request.max_new_tokens
                                          : session_.max_steps();
  job.tokens.reserve(static_cast<std::size_t>(job.budget));
  job.request = std::move(request);
  inflight_ids_.insert(id);
  queue_.push_back(std::move(job));
  pump_pool();
  queue_depth_gauge_->set(static_cast<double>(queued()));
  return id;
}

index_t BatchScheduler::effective_class(const PrefillJob& job) const {
  index_t cls = static_cast<index_t>(job.request.priority);
  if (config_.age_ticks > 0)
    cls -= (ticks_ - job.submit_tick) / config_.age_ticks;
  return std::max<index_t>(cls, 0);
}

std::deque<PrefillJob>::iterator BatchScheduler::pick_queued() {
  // Best effective class wins; the queue is in submit order, so keeping
  // the FIRST hit of the best class gives FIFO within a class (and an
  // aged request beats any same-class request submitted after it).
  auto best = queue_.begin();
  index_t best_cls = effective_class(*best);
  for (auto it = std::next(best); it != queue_.end(); ++it) {
    const index_t cls = effective_class(*it);
    if (cls < best_cls) {
      best = it;
      best_cls = cls;
    }
  }
  return best;
}

void BatchScheduler::resolve_unadmitted(PrefillJob&& job,
                                        FinishReason reason) {
  // A request resolved before ever holding a batch row: cancelled or
  // past its deadline while queued / in the prefill pipeline.  Exactly
  // one result, empty tokens, no batch capacity touched.
  const auto cls = static_cast<std::size_t>(job.request.priority);
  RequestResult result;
  result.id = job.id;
  result.tokens = std::move(job.tokens);  // empty
  result.reason = reason;
  result.priority = job.request.priority;
  result.submit_tick = job.submit_tick;
  result.finish_tick = ticks_;  // admit_tick stays -1: never admitted
  if (job.submit_ns > 0)
    result.phases.total_ns = obs::now_ns() - job.submit_ns;
  completed_.push_back(std::move(result));
  inflight_ids_.erase(job.id);
  if (reason == FinishReason::kCancelled) {
    class_counters_[cls].cancelled->inc();
    if (job.sampled)
      trace_.record_always(job.id, obs::TraceEvent::kCancel);
  } else {
    class_counters_[cls].expired->inc();
    if (job.sampled)
      trace_.record_always(job.id, obs::TraceEvent::kRetire);
  }
}

bool BatchScheduler::cancel(index_t id) {
  if (inflight_ids_.count(id) == 0) return false;
  if (staged_cancelled_.count(id) != 0) return false;  // double-cancel
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id != id) continue;
    PrefillJob job = std::move(*it);
    queue_.erase(it);
    resolve_unadmitted(std::move(job), FinishReason::kCancelled);
    return true;
  }
  for (index_t row = 0; row < static_cast<index_t>(slots_.size());
       ++row) {
    Slot& slot = slots_[static_cast<std::size_t>(row)];
    if (!slot.live || slot.id != id) continue;
    // Mid-flight: retire right here with the tokens decoded so far; the
    // freed row admits the next request on the following tick.
    retire(row, FinishReason::kCancelled);
    return true;
  }
  // In flight but neither queued nor live: its prefill is staged (in the
  // pool, or held at the page gate).  The compute cannot be interrupted —
  // flag the id and the next tick's admission resolves it without ever
  // committing a row.
  staged_cancelled_.insert(id);
  return true;
}

void BatchScheduler::expire_deadlines() {
  // Queued requests past their deadline shed before admission could
  // waste a prefill on them...
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->request.deadline_tick > 0 &&
        ticks_ >= it->request.deadline_tick) {
      PrefillJob job = std::move(*it);
      it = queue_.erase(it);
      resolve_unadmitted(std::move(job), FinishReason::kDeadline);
    } else {
      ++it;
    }
  }
  // ...and live rows past it retire mid-flight, freeing the KV slot this
  // very tick.
  for (index_t row = 0; row < static_cast<index_t>(slots_.size());
       ++row) {
    Slot& slot = slots_[static_cast<std::size_t>(row)];
    if (slot.live && slot.deadline_tick > 0 &&
        ticks_ >= slot.deadline_tick)
      retire(row, FinishReason::kDeadline);
  }
}

PrefillJob BatchScheduler::take_queued() {
  auto it = pick_queued();
  if (it->sampled)
    trace_.record_always(it->id, obs::TraceEvent::kQueueAdmit,
                         effective_class(*it));
  PrefillJob job = std::move(*it);
  queue_.erase(it);
  return job;
}

void BatchScheduler::pump_pool() {
  // Feed the pool in priority order, keeping at most `slots` jobs inside
  // it: the pool computes in feed order, so a later high-priority submit
  // can still overtake everything waiting here in the scheduler queue.
  if (!prefill_) return;
  while (!queue_.empty() && prefill_->pending() < prefill_->slots())
    prefill_->submit(take_queued());
}

void BatchScheduler::install(index_t row, PrefillJob&& job) {
  Slot& slot = slots_[static_cast<std::size_t>(row)];
  slot.live = true;
  slot.id = job.id;
  slot.budget = job.budget;  // resolved at submit, matches the reserve
  slot.sampling = job.request.sampling;
  slot.tokens = std::move(job.tokens);  // warm; the replay window on resume
  slot.submit_tick = job.submit_tick;
  slot.priority = job.request.priority;
  slot.deadline_tick = job.request.deadline_tick;
  slot.on_token = std::move(job.request.on_token);
  // The request itself stays with the slot so a preemption can requeue
  // the job wholesale (preempt()).
  slot.request = std::move(job.request);
  slot.sampled = job.sampled;
  slot.submit_ns = job.submit_ns;
  if (job.resume) {
    // Re-admission after preemption: restore the decode exactly where it
    // stopped — the Rng mid-stream, the decoded tokens armed for replay
    // by the step loop, and the ORIGINAL admission / first-token stamps,
    // so the result differs from an unpreempted run only in finish_tick.
    // Queue-wait samples are NOT re-recorded.
    slot.rng = job.resume_rng;
    slot.replay_pos = 0;
    slot.replay_len = static_cast<index_t>(slot.tokens.size());
    slot.admit_tick = job.resume_admit_tick;
    slot.first_token_tick = job.resume_first_token_tick;
    slot.admit_ns = job.resume_admit_ns;
    slot.first_token_ns = job.resume_first_token_ns;
    slot.prefill_ns = job.resume_prefill_ns;
  } else {
    slot.rng.reseed(slot.sampling.seed);
    slot.replay_pos = 0;
    slot.replay_len = 0;
    slot.admit_tick = ticks_;
    slot.first_token_tick = -1;
    slot.admit_ns = slot.sampled ? obs::now_ns() : 0;
    slot.prefill_ns = (job.prefill_start_ns > 0 && job.prefill_end_ns > 0)
                          ? job.prefill_end_ns - job.prefill_start_ns
                          : 0;
    slot.first_token_ns = 0;
    queue_wait_ring_[static_cast<std::size_t>(
                         static_cast<index_t>(slot.priority))]
        .record(static_cast<double>(ticks_ - slot.submit_tick));
    queue_wait_hist_->observe(ticks_ - slot.submit_tick);
  }
  if (slot.sampled)
    trace_.record_always(slot.id, obs::TraceEvent::kCommit, row);
  feed_[static_cast<std::size_t>(row)] = config_.bos;
  ++live_rows_;
  live_rows_gauge_->set(static_cast<double>(live_rows_));
}

void BatchScheduler::resolve_failed(PrefillJob&& job,
                                    std::exception_ptr error) {
  // A prefill failure must still resolve the submitted id: emit a kError
  // result instead of dropping the request on the floor.  No batch row
  // is consumed.  Allocates (the message) — error path.
  const auto cls = static_cast<std::size_t>(job.request.priority);
  RequestResult failed;
  failed.id = job.id;
  failed.tokens = std::move(job.tokens);  // empty
  failed.reason = FinishReason::kError;
  failed.priority = job.request.priority;
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    failed.error = e.what();
  } catch (...) {
    failed.error = "unknown prefill error";
  }
  failed.submit_tick = job.submit_tick;
  failed.finish_tick = ticks_;  // admit_tick stays -1: never admitted
  if (job.submit_ns > 0)
    failed.phases.total_ns = obs::now_ns() - job.submit_ns;
  const index_t failed_id = failed.id;
  completed_.push_back(std::move(failed));
  inflight_ids_.erase(failed_id);
  class_counters_[cls].errored->inc();
  trace_.record(failed_id, obs::TraceEvent::kRetire);
}

bool BatchScheduler::next_staged(PrefillPool::Finished& out) {
  if (prefill_) return prefill_->try_take(out);
  // No pool: pick the best effective class NOW and run its prefill on the
  // serving thread into the scheduler's one staging slot — priority bites
  // at admission and every tick stays deterministic.
  if (queue_.empty()) return false;
  out.job = take_queued();
  out.slot = -1;
  out.error = run_prefill(session_, out.job, staging_, &trace_);
  return true;
}

void BatchScheduler::admit() {
  const auto staging_of =
      [this](const PrefillPool::Finished& f) -> runtime::PrefillStaging& {
    return prefill_ ? prefill_->staging_mut(f.slot) : staging_;
  };
  // Doomed prefills — errored, cancelled while staged, or past deadline —
  // resolve unconditionally: they need no batch row, so they must not
  // queue behind the free-row gate below (a fully live batch would
  // otherwise hold the result AND its staging slot hostage for up to
  // max_steps ticks).
  const auto doomed = [this](const PrefillPool::Finished& f) {
    return static_cast<bool>(f.error) ||
           staged_cancelled_.count(f.job.id) != 0 ||
           (f.job.request.deadline_tick > 0 &&
            ticks_ >= f.job.request.deadline_tick);
  };
  const auto resolve_doomed = [&](PrefillPool::Finished&& f) {
    // A cache-hit staging owns refcounts on shared prefix pages; hand
    // them back before the slot is reused (no-op for cold prefills).
    session_.release_staged_prefix(staging_of(f));
    if (prefill_) prefill_->release(f.slot);  // never hold a slot hostage
    if (staged_cancelled_.erase(f.job.id) > 0)
      resolve_unadmitted(std::move(f.job), FinishReason::kCancelled);
    else if (f.error)
      resolve_failed(std::move(f.job), f.error);
    else
      resolve_unadmitted(std::move(f.job), FinishReason::kDeadline);
    pump_pool();  // the freed staging slot can start the next prefill
  };
  pump_pool();
  // The held prefill (page gate, below) can go doomed while waiting —
  // cancellations and deadlines must not leak it.
  if (has_held_ && doomed(held_fin_)) {
    has_held_ = false;
    resolve_doomed(std::move(held_fin_));
  }
  PrefillPool::Finished fin;
  while (prefill_ && prefill_->try_take_if(doomed, fin))
    resolve_doomed(std::move(fin));

  // Drain staged prefills into free rows, the held one first (it arrived
  // earliest and still owns its staging) — the same sequence in both
  // modes: doomed check → page gate → commit_row → install.  The gate
  // asks the page pool to cover the commit: the cross pages for a cold
  // prefill (none for a cache hit: those pages are already resident and
  // shared) plus the first self page, counting reclaimable cached
  // prefixes.  A prefill that does not fit is HELD — it counts in
  // queued() and blocks idle(), and commits as soon as retirements or
  // preemptions free pages; a drained batch always fits, because the
  // session validates that pool_pages covers one worst-case row.  A
  // commit is one K/V copy plus slot bookkeeping — no heap allocation,
  // and never a wait on a prefill still computing.
  while (live_rows_ < static_cast<index_t>(slots_.size())) {
    if (has_held_) {
      fin = std::move(held_fin_);
      has_held_ = false;
    } else if (!next_staged(fin)) {
      break;
    }
    if (doomed(fin)) {  // staged after the sweep above — same path
      resolve_doomed(std::move(fin));
      continue;
    }
    runtime::PrefillStaging& st = staging_of(fin);
    const index_t needed =
        (st.from_cache ? 0 : session_.cross_pages_for(st.ts)) + 1;
    if (session_.free_pages() + session_.reclaimable_pages() < needed) {
      held_fin_ = std::move(fin);
      has_held_ = true;
      break;
    }
    // The lowest free row: live rows stay packed at the bottom, so the
    // session steps only as wide as they span (DecodeSession::step).
    index_t row = 0;
    while (slots_[static_cast<std::size_t>(row)].live) ++row;
    if (st.from_cache && fin.job.sampled)
      trace_.record_always(fin.job.id, obs::TraceEvent::kPrefixHit, row);
    session_.commit_row(row, st);
    if (prefill_) prefill_->release(fin.slot);
    install(row, std::move(fin.job));
    pump_pool();
  }
}

void BatchScheduler::retire(index_t row, FinishReason reason,
                            const char* error) {
  Slot& slot = slots_[static_cast<std::size_t>(row)];
  const auto cls = static_cast<std::size_t>(slot.priority);
  RequestResult result;
  result.id = slot.id;
  if (error != nullptr) result.error = error;  // allocates — error path
  // Hand the slot's buffer off inside the result; the slot's next warm
  // buffer arrives with the next admitted request (see submit), so no
  // fresh vector is created here and the retire→admit cycle stays
  // allocation-free.
  result.tokens = std::move(slot.tokens);
  result.reason = reason;
  result.priority = slot.priority;
  result.decode_steps = session_.row_steps(row);
  result.submit_tick = slot.submit_tick;
  result.admit_tick = slot.admit_tick;
  result.finish_tick = ticks_;
  result.first_token_tick = slot.first_token_tick;
  if (slot.submit_ns > 0) {
    // Phase durations from the trace timestamps (tracing was on at
    // submit).  One clock read; arithmetic only — no allocation.
    const long long end_ns = obs::now_ns();
    result.phases.total_ns = end_ns - slot.submit_ns;
    result.phases.prefill_ns = slot.prefill_ns;
    if (slot.admit_ns > 0) {
      result.phases.queue_ns = slot.admit_ns - slot.submit_ns;
      result.phases.decode_ns = end_ns - slot.admit_ns;
    }
    if (slot.first_token_ns > 0)
      result.phases.first_token_ns = slot.first_token_ns - slot.submit_ns;
    // Per-class phase histograms (µs): submit_ns > 0 means this request
    // was trace-sampled, so the phases above are populated — fold them
    // into the registry so pollers see the distribution without holding
    // every result.
    const ClassCounters& cc = class_counters_[cls];
    cc.queue_us->observe(result.phases.queue_ns / 1000);
    cc.prefill_us->observe(result.phases.prefill_ns / 1000);
    if (result.phases.first_token_ns > 0)
      cc.first_token_us->observe(result.phases.first_token_ns / 1000);
    cc.decode_us->observe(result.phases.decode_ns / 1000);
  }
  latency_ring_.record(static_cast<double>(ticks_ - slot.submit_tick));
  latency_hist_->observe(ticks_ - slot.submit_tick);
  completed_.push_back(std::move(result));
  inflight_ids_.erase(slot.id);
  switch (reason) {
    case FinishReason::kCancelled:
      class_counters_[cls].cancelled->inc();
      if (slot.sampled)
        trace_.record_always(slot.id, obs::TraceEvent::kCancel, row);
      break;
    case FinishReason::kDeadline:
      class_counters_[cls].expired->inc();
      if (slot.sampled)
        trace_.record_always(slot.id, obs::TraceEvent::kRetire, row);
      break;
    case FinishReason::kError:
      class_counters_[cls].errored->inc();
      if (slot.sampled)
        trace_.record_always(slot.id, obs::TraceEvent::kRetire, row);
      break;
    default:
      class_counters_[cls].completed->inc();
      if (slot.sampled)
        trace_.record_always(slot.id, obs::TraceEvent::kRetire, row);
      break;
  }

  slot.live = false;
  slot.id = -1;
  slot.on_token = nullptr;
  // Drop the retired request's source tensor now (deallocation only —
  // the steady-state contract counts allocations, not frees).
  slot.request = Request();
  // Park exactly once: the freed row stays pinned at ring position 0
  // until its next admission — no per-tick reset needed, and its ring can
  // never exhaust.  Above the highest live row it is not stepped at all.
  session_.reset_row(row);
  feed_[static_cast<std::size_t>(row)] = config_.bos;
  --live_rows_;
  live_rows_gauge_->set(static_cast<double>(live_rows_));
}

index_t BatchScheduler::pick_victim() const {
  // The worst static priority class loses; within it the youngest
  // admission (max admit_tick) loses first — it has the least decode to
  // replay.  Static class, not effective: aging governs admission order,
  // never a live row's claim on its pages.
  index_t victim = -1;
  index_t victim_cls = -1;
  index_t victim_admit = -1;
  for (index_t row = 0; row < static_cast<index_t>(slots_.size());
       ++row) {
    const Slot& slot = slots_[static_cast<std::size_t>(row)];
    if (!slot.live) continue;
    const auto cls = static_cast<index_t>(slot.priority);
    if (cls > victim_cls ||
        (cls == victim_cls && slot.admit_tick > victim_admit)) {
      victim = row;
      victim_cls = cls;
      victim_admit = slot.admit_tick;
    }
  }
  return victim;
}

void BatchScheduler::preempt(index_t row) {
  Slot& slot = slots_[static_cast<std::size_t>(row)];
  // Rebuild the admission job from the slot: the request (callback
  // included), the tokens decoded so far, the Rng mid-stream, and the
  // original stamps — then requeue it at the FRONT, so the victim
  // re-admits before anything submitted after it.  Its id stays in
  // inflight_ids_ (still unresolved, just back in the queue) and its
  // FinishReason is untouched.  Allocates (deque growth) — preemption is
  // a rare pressure event, like submit.
  PrefillJob job;
  job.id = slot.id;
  job.submit_tick = slot.submit_tick;
  job.budget = slot.budget;
  slot.request.on_token = std::move(slot.on_token);
  job.request = std::move(slot.request);
  job.tokens = std::move(slot.tokens);
  job.submit_ns = slot.submit_ns;
  job.sampled = slot.sampled;
  job.resume = true;
  job.resume_rng = slot.rng;
  job.resume_admit_tick = slot.admit_tick;
  job.resume_first_token_tick = slot.first_token_tick;
  job.resume_admit_ns = slot.admit_ns;
  job.resume_first_token_ns = slot.first_token_ns;
  job.resume_prefill_ns = slot.prefill_ns;
  preempted_counter_->inc();
  if (slot.sampled)
    trace_.record_always(slot.id, obs::TraceEvent::kPreempt, row);
  slot.live = false;
  slot.id = -1;
  slot.on_token = nullptr;
  session_.reset_row(row);  // releases every page the row mapped
  feed_[static_cast<std::size_t>(row)] = config_.bos;
  --live_rows_;
  live_rows_gauge_->set(static_cast<double>(live_rows_));
  queue_.push_front(std::move(job));
}

index_t BatchScheduler::step() {
  // Deadlines first (a due request must not be admitted or stepped),
  // then admission, so a row freed on the previous tick never idles: a
  // retirement's slot is serving the next queued request one tick later.
  expire_deadlines();
  admit();

  // Page-pressure preemption (PR 10): before stepping, every live row
  // must hold a self-KV page for its next position.  When the pool is
  // dry even after reclaiming cached prefixes, evict the victim and
  // retry — each preemption frees a live row's pages, and in the worst
  // case the needing row evicts itself, so the loop always terminates.
  for (index_t row = 0; row < static_cast<index_t>(slots_.size());
       ++row) {
    Slot& slot = slots_[static_cast<std::size_t>(row)];
    if (!slot.live) continue;
    while (slot.live && !session_.ensure_row_step_capacity(row)) {
      const index_t victim = pick_victim();
      QDNN_CHECK(victim >= 0,
                 "BatchScheduler: page pool dry with no live row to "
                 "preempt");
      preempt(victim);
    }
  }

  if (live_rows_ == 0) {
    ++ticks_;  // idle tick: time passes for arrival traces
    ticks_counter_->inc();
    queue_depth_gauge_->set(static_cast<double>(queued()));
    free_pages_gauge_->set(static_cast<double>(session_.free_pages()));
    used_pages_gauge_->set(static_cast<double>(session_.total_pages() -
                                               session_.free_pages()));
    prefix_entries_gauge_->set(
        static_cast<double>(session_.prefix_cache().live_entries()));
    return 0;
  }

  const index_t stepped = live_rows_;
  const auto tick_start = std::chrono::steady_clock::now();
  const std::vector<index_t>& greedy = session_.step(feed_);
  const ConstTensorView logits = session_.logits();
  ++ticks_;
  ticks_counter_->inc();
  stepped_ticks_counter_->inc();
  occupancy_sum_counter_->add(stepped);

  for (index_t row = 0;
       row < static_cast<index_t>(slots_.size()); ++row) {
    Slot& slot = slots_[static_cast<std::size_t>(row)];
    if (!slot.live) continue;
    if (slot.replay_pos < slot.replay_len) {
      // Preemption replay: this position's token was already decoded
      // (and streamed, and counted) before the row was evicted — feed it
      // back verbatim: no sampling, no Rng draw, no stream, no append,
      // no budget check.  The session just rebuilt the same K/V bits, so
      // when the window drains, live decoding resumes exactly where it
      // stopped.
      feed_[static_cast<std::size_t>(row)] =
          slot.tokens[static_cast<std::size_t>(slot.replay_pos++)];
      continue;
    }
    // Greedy rides the session's built-in argmax (identical first-max
    // tie-breaking); stochastic heads sample from the row's logits with
    // the request's own stream.
    const index_t token =
        slot.sampling.kind == SamplingConfig::Kind::kGreedy
            ? greedy[static_cast<std::size_t>(row)]
            : sample_token(slot.sampling, logits.data() + row * vocab_,
                           vocab_, slot.rng, prob_scratch_.data(),
                           idx_scratch_.data());
    if (token == config_.eos) {
      retire(row, FinishReason::kEos);
      continue;
    }
    slot.tokens.push_back(token);
    tokens_counter_->inc();
    feed_[static_cast<std::size_t>(row)] = token;
    if (slot.first_token_tick < 0) {
      slot.first_token_tick = ticks_;
      if (slot.sampled) {
        slot.first_token_ns = obs::now_ns();
        trace_.record_always(slot.id, obs::TraceEvent::kFirstToken, token);
      }
      ttft_ring_[static_cast<std::size_t>(
                     static_cast<index_t>(slot.priority))]
          .record(static_cast<double>(ticks_ - slot.submit_tick));
      ttft_hist_->observe(ticks_ - slot.submit_tick);
    } else if (slot.sampled) {
      // Per-token step mark: arg is the token's 0-based output index.
      trace_.record_always(
          slot.id, obs::TraceEvent::kStep,
          static_cast<index_t>(slot.tokens.size()) - 1);
    }
    if (slot.on_token) {
      // Streamed the moment it exists — not at retirement.  The callback
      // owns its own cost; the contract is "fast and non-blocking".
      StreamEvent event;
      event.id = slot.id;
      event.token = token;
      event.index = static_cast<index_t>(slot.tokens.size()) - 1;
      event.tick = ticks_;
      try {
        slot.on_token(event);
      } catch (...) {
        // A throwing callback fails only its own request: the row retires
        // kError with the tokens decoded so far, and the batch keeps
        // serving — the exception never reaches the shard worker.  (A
        // callback that cancelled its own row first has resolved it.)
        if (slot.live)
          retire(row, FinishReason::kError, "stream callback threw");
        continue;
      }
    }
    if (static_cast<index_t>(slot.tokens.size()) >= slot.budget)
      retire(row, FinishReason::kLength);
  }
  // Sample the stepped tick's wall time (batch step + sampling +
  // retirement): the per-shard jitter signal ServerStats rolls up.
  const double tick_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - tick_start)
          .count();
  tick_ms_sum_ += tick_ms;
  ++tick_ms_count_;
  tick_ring_.record(tick_ms);
  tick_us_hist_->observe(static_cast<long long>(tick_ms * 1000.0));
  queue_depth_gauge_->set(static_cast<double>(queued()));
  free_pages_gauge_->set(static_cast<double>(session_.free_pages()));
  used_pages_gauge_->set(static_cast<double>(session_.total_pages() -
                                             session_.free_pages()));
  prefix_entries_gauge_->set(
      static_cast<double>(session_.prefix_cache().live_entries()));
  return stepped;
}

bool BatchScheduler::awaiting_prefill() const {
  // A held finished prefill (page gate) commits the moment pages free —
  // never wait on UNRELATED prefill compute while it waits.
  if (!prefill_ || has_held_ || live_rows_ > 0 ||
      prefill_->pending() == 0 || prefill_->ready() > 0)
    return false;
  // A queued job the pool has room for would be fed by the next step();
  // a queued job already past its deadline would be resolved by it.
  if (!queue_.empty() && prefill_->pending() < prefill_->slots())
    return false;
  for (const PrefillJob& job : queue_)
    if (job.request.deadline_tick > 0 &&
        ticks_ >= job.request.deadline_tick)
      return false;
  return true;
}

bool BatchScheduler::wait_for_prefill() const {
  if (!awaiting_prefill()) return false;
  prefill_->wait_ready();
  return true;
}

void BatchScheduler::run() {
  while (!idle()) {
    if (wait_for_prefill()) continue;
    step();
  }
}

std::vector<RequestResult> BatchScheduler::take_results() {
  std::vector<RequestResult> out = std::move(completed_);
  completed_ = std::vector<RequestResult>();
  // Re-reserve off the tick path, so the next retires stay warm (the
  // reserve only covers max_batch retirements per drain; run() without
  // draining grows the buffer, which is allowed — retirement hands
  // results off, the tick contract is on the slot cycle).
  completed_.reserve(slots_.size());
  return out;
}

double BatchScheduler::mean_occupancy() const {
  const long long stepped = stepped_ticks_counter_->value();
  return stepped == 0
             ? 0.0
             : static_cast<double>(occupancy_sum_counter_->value()) /
                   static_cast<double>(stepped);
}

SchedulerStats BatchScheduler::stats() const {
  // A view over the registry counters plus the exact-percentile sample
  // rings — the PR 1–8 surface, now backed by exportable instruments.
  SchedulerStats s;
  s.ticks = ticks_;
  s.stepped_ticks = static_cast<index_t>(stepped_ticks_counter_->value());
  s.total_tokens = static_cast<index_t>(tokens_counter_->value());
  s.mean_occupancy = mean_occupancy();
  s.latency_samples = static_cast<index_t>(latency_ring_.buf.size());
  s.latency_p50 = ring_percentile(latency_ring_.buf, 0.50);
  s.latency_p99 = ring_percentile(latency_ring_.buf, 0.99);
  s.tick_samples = static_cast<index_t>(tick_ring_.buf.size());
  s.tick_mean_ms = tick_ms_count_ == 0
                       ? 0.0
                       : tick_ms_sum_ / static_cast<double>(tick_ms_count_);
  s.tick_p99_ms = ring_percentile(tick_ring_.buf, 0.99);
  for (std::size_t c = 0; c < static_cast<std::size_t>(kPriorityClasses);
       ++c) {
    const ClassCounters& cc = class_counters_[c];
    SchedulerClassStats cls;
    cls.submitted = static_cast<index_t>(cc.submitted->value());
    cls.completed = static_cast<index_t>(cc.completed->value());
    cls.cancelled = static_cast<index_t>(cc.cancelled->value());
    cls.expired = static_cast<index_t>(cc.expired->value());
    cls.shed = static_cast<index_t>(cc.shed->value());
    cls.errored = static_cast<index_t>(cc.errored->value());
    cls.queue_wait_samples =
        static_cast<index_t>(queue_wait_ring_[c].buf.size());
    cls.ttft_samples = static_cast<index_t>(ttft_ring_[c].buf.size());
    cls.queue_wait_p50 = ring_percentile(queue_wait_ring_[c].buf, 0.50);
    cls.queue_wait_p99 = ring_percentile(queue_wait_ring_[c].buf, 0.99);
    cls.ttft_p50 = ring_percentile(ttft_ring_[c].buf, 0.50);
    cls.ttft_p99 = ring_percentile(ttft_ring_[c].buf, 0.99);
    s.per_class[c] = cls;
  }
  const runtime::PrefixCache& pc = session_.prefix_cache();
  s.prefix_hits = pc.hits();
  s.prefix_misses = pc.misses();
  s.prefix_insertions = pc.insertions();
  s.prefix_evictions = pc.evictions();
  s.preemptions = static_cast<index_t>(preempted_counter_->value());
  s.free_pages = session_.free_pages();
  s.total_pages = session_.total_pages();
  return s;
}

}  // namespace qdnn::serve
