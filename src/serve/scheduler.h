// BatchScheduler: continuous batching over one bound DecodeSession.
//
// PR 3's DecodeSession serves one fixed batch per prime: every request
// must start together and the batch occupies its KV rings until the
// slowest row finishes.  The scheduler removes that coupling — it owns a
// request queue plus one session bound at full max_batch width, and each
// tick it:
//
//   1. expires deadlines (queued requests past deadline_tick are shed,
//      live rows past it retire mid-flight with FinishReason::kDeadline),
//   2. admits queued requests into free batch rows in priority order,
//      always into the LOWEST free row so live rows stay packed at the
//      bottom (per-row prime: the request's source is encoded and
//      cross-projected into just its row's caches while the other rows
//      keep decoding mid-flight),
//   3. steps the batch once — one gemm-backed pass over rows [0, w),
//      w = 1 + the highest live row (DecodeSession::step skips parked
//      rows above it), every live row at its own ring position (per-row
//      cache lengths in the attention step kernels),
//   4. samples one token per live row through its request's head
//      (greedy / temperature / top-k, per-request seeded Rng), streaming
//      it to the request's on_token callback the moment it exists,
//   5. retires rows that emitted eos or exhausted their budget, so the
//      freed slot is refilled at the very next tick.
//
// Throughput therefore tracks occupancy instead of the slowest request.
//
// Front-end behaviors (the multi-tenant contract, per request):
//
//   * priorities + aging — the admission queue orders by Priority class;
//     a waiting request's effective class rises one level every
//     config.age_ticks ticks (FIFO within a class), so low priority
//     cannot starve.  Priority changes WHEN a request admits, never its
//     tokens.
//   * backpressure — with config.max_queue > 0, a submit that finds
//     queued() at the bound load-sheds: the request resolves immediately
//     with FinishReason::kShed instead of growing the queue unboundedly.
//   * cancellation — cancel(id) resolves a request wherever it is:
//     removed from the queue, flagged while its prefill is staged (in
//     the pool or held at the page gate; resolved at the next tick's
//     admission), or retired mid-flight with the tokens decoded so far,
//     freeing the KV row for the next admit.
//   * deadlines — deadline_tick is the absolute tick bound; see step 1.
//   * streaming — on_token fires on the serving thread as each token is
//     sampled; RequestResult::first_token_tick records TTFT.  A callback
//     that throws retires its own row kError; the batch keeps serving.
//
// Every submitted id resolves with EXACTLY one RequestResult — shed,
// errored, cancelled, expired, or decoded to completion.
//
// Admission is ONE path (admit()): every request's prefill — a prefix
// cache probe, else the encoder pass + cross-K/V projection
// (serve::run_prefill) — lands in a staging slot, and each tick drains
// staged prefills into free rows through the same sequence: doomed
// check (cancelled / expired / errored resolve without a row) → page
// gate (hold the prefill until the pool covers its commit) →
// DecodeSession::commit_row → install.  config.prefill_workers picks
// only WHERE the next staged prefill comes from:
//
//   * 0 (default) — the serving thread picks the best effective class at
//     admission time and runs its prefill into the scheduler's single
//     staging slot: single-threaded, deterministic tick-for-tick.
//   * >= 1 — a serve::PrefillPool runs prefills on worker threads into
//     preallocated staging slots; the scheduler feeds the pool from its
//     priority queue (keeping at most prefill_slots jobs inside it, so
//     priorities still bite) and drains whatever has finished, so
//     admission costs the tick one O(K/V) copy and a long prefill never
//     stalls the live decode rows.
//
// Both modes run the same prefill and the same commit, so per-request
// outputs are bit-identical across modes and to solo decodes — only the
// admission *timing* can differ (fuzzed in tests/serve/prefill_test.cpp).
//
// Contracts:
//   * Equivalence — a greedy request's tokens are bit-identical to a solo
//     DecodeSession::generate / greedy_decode_reference of that request,
//     for ANY admission/retirement interleaving, either admission mode,
//     and any priority/cancellation activity around it (per-row masked
//     attention is exact; fuzzed in tests/serve/scheduler_test.cpp and
//     tests/serve/prefill_test.cpp).
//   * Determinism — stochastic requests draw from their own seeded Rng,
//     so results are reproducible regardless of admission order.
//   * Zero-alloc steady state — all per-row bookkeeping (slots, sampling
//     scratch, stats sample rings) is preallocated at bind, and each
//     request carries its own warm token buffer (reserved at submit,
//     swapped into the slot at admission, handed off inside the
//     RequestResult at retirement), so steady-state ticks — including the
//     retire→admit slot cycle, and including async admission itself (an
//     O(K/V) commit copy) — perform no heap allocation (asserted in
//     tests/runtime/session_test.cpp).  Submit and take_results allocate
//     (queue growth / result hand-off), and so do the resolution paths
//     for shed/cancelled/errored requests (error strings).
//
// Paged KV + prefix reuse (PR 10): the session's KV memory is a page
// pool, so admission gates on ACTUAL free pages (plus what evicting
// cached prefixes could reclaim), not on the dense worst case — with
// config.session.pool_pages below the dense bound the scheduler
// oversubscribes max_batch with short/shared-prefix requests.  Every
// prefill first probes the session's prefix cache, and a hit skips the
// encoder entirely — bit-identical to the cold prime, because the shared
// pages hold the cold prime's bits.  When a decode step finds the pool
// dry (a live row needs its next self-KV page and
// ensure_row_step_capacity fails), the
// scheduler PREEMPTS: the lowest-priority-class, youngest-admitted live
// row is evicted — its pages released, its job (tokens decoded so far,
// Rng state, original admission/first-token stamps) requeued at the
// FRONT of the admission queue — and at re-admission the scheduler
// re-primes the row (usually a prefix-cache hit) and REPLAYS the
// decoded tokens through the session without sampling, streaming or
// appending, so the resumed decode is bit-identical to an unpreempted
// run and every id still resolves exactly once with its FinishReason
// untouched.
//
// The serving loop stays single-threaded: callers pump step()/cancel()
// and drain take_results() from one thread; only the prefill compute
// moves to the pool.  serve::Server (serve/server.h) wraps N schedulers
// on worker threads behind one thread-safe front end.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/decode_session.h"
#include "serve/prefill.h"
#include "serve/request.h"

namespace qdnn::serve {

struct BatchSchedulerConfig {
  // Ring geometry and freeze/warm-up policy for the owned session.
  // max_batch is the continuous-batch width; max_steps bounds every
  // request's budget.
  runtime::DecodeSessionConfig session;
  index_t bos = 1;
  index_t eos = 2;
  // Where admission's prefills run: 0 = on the serving thread (the
  // deterministic single-threaded mode); >= 1 = on a PrefillPool with
  // this many worker threads.
  index_t prefill_workers = 0;
  // Staging slots for the prefill pool (finished prefills awaiting a free
  // row); 0 = max_batch.  Ignored when prefill_workers is 0.
  index_t prefill_slots = 0;
  // Runs on a prefill-pool worker thread once per finished prefill
  // (errored ones included), after the prefill is takeable and outside
  // the pool's lock — see PrefillPool.  A driver sleeping while
  // awaiting_prefill() holds uses it to wake; serve::Server sets it.
  // Fast, non-throwing, and it must not touch the scheduler.  Empty =
  // none; ignored when prefill_workers is 0.
  std::function<void()> on_prefill_finished;
  // Bounded admission: the most requests allowed to wait for a batch row
  // (queue + staged prefills, i.e. queued()).  A submit that finds the
  // bound reached is load-shed — it resolves immediately with
  // FinishReason::kShed instead of growing the queue.  0 = unbounded.
  index_t max_queue = 0;
  // Priority aging: a waiting request's effective class drops one level
  // (toward kHigh) every age_ticks ticks, so low priority cannot starve
  // behind a steady high-priority stream.  0 disables aging.
  index_t age_ticks = 32;
  // Per-class sample window for the queue-wait and time-to-first-token
  // percentiles in SchedulerStats (a preallocated ring; the newest
  // samples win).  0 disables percentile tracking (counts remain).
  index_t stats_window = 2048;
  // Metrics sink.  Every counter/gauge/histogram the scheduler records
  // is registered here at construction under `metrics_prefix` (so the
  // tick path only ever touches preallocated instruments — recording is
  // zero-heap-alloc and wait-free).  Null = the scheduler owns a private
  // registry; serve::Server passes its own so shards share one snapshot.
  // The registry must outlive the scheduler.
  obs::MetricsRegistry* registry = nullptr;
  std::string metrics_prefix = "scheduler";
  // Capacity of the per-scheduler trace ring (timestamped request
  // lifecycle events, recorded only while obs::trace_enabled(); oldest
  // overwritten on wrap).  Must be >= 1.
  index_t trace_events = 4096;
};

// Per-priority-class counters and latency percentiles (batch-tick
// denominated), over the most recent config.stats_window samples.
struct SchedulerClassStats {
  index_t submitted = 0;  // includes shed
  index_t completed = 0;  // kEos + kLength
  index_t cancelled = 0;
  index_t expired = 0;    // kDeadline
  index_t shed = 0;
  index_t errored = 0;
  index_t queue_wait_samples = 0;
  index_t ttft_samples = 0;
  double queue_wait_p50 = 0.0, queue_wait_p99 = 0.0;  // admit − submit
  double ttft_p50 = 0.0, ttft_p99 = 0.0;  // first token − submit
};

// Snapshot of the scheduler's counters — cheap to take off the tick
// path (the percentile sort allocates; call it from a stats poller, not
// per tick).
struct SchedulerStats {
  index_t ticks = 0;
  index_t stepped_ticks = 0;
  index_t total_tokens = 0;
  double mean_occupancy = 0.0;
  // Request latency (finish − submit, in ticks) over the most recent
  // config.stats_window retirements, all classes pooled — the end-to-end
  // sibling of the per-class queue-wait/TTFT percentiles.
  index_t latency_samples = 0;
  double latency_p50 = 0.0, latency_p99 = 0.0;
  // Wall time of stepped ticks (milliseconds, steady_clock): mean over
  // ALL stepped ticks since construction, p99 over the most recent
  // config.stats_window — what admission-mode jitter looks like from the
  // serving thread.
  index_t tick_samples = 0;
  double tick_mean_ms = 0.0, tick_p99_ms = 0.0;
  // Paged KV / prefix-cache counters (PR 10).  The prefix counts come
  // from the session's cache (hits include the pool workers' probes);
  // preemptions counts rows evicted under page pressure and replayed.
  long long prefix_hits = 0;
  long long prefix_misses = 0;
  long long prefix_insertions = 0;
  long long prefix_evictions = 0;
  index_t preemptions = 0;
  index_t free_pages = 0;
  index_t total_pages = 0;
  std::array<SchedulerClassStats, kPriorityClasses> per_class;
};

class BatchScheduler {
 public:
  // Binds the model (exclusively, like any DecodeSession) and
  // preallocates every slot.  Validates bos/eos against the target
  // vocabulary; the session constructor validates the ring geometry.
  BatchScheduler(models::Transformer& model, BatchSchedulerConfig config);

  // Throws on a malformed request (every submit() edge check except
  // explicit-id uniqueness).  Reads only construction-time state, so it
  // is safe from any thread concurrently with the serving thread.
  void validate(const Request& request) const;

  // Enqueues a request, validating it at the edge (validate() plus
  // explicit-id uniqueness among in-flight requests) so a malformed
  // request fails here with a clear message, not steps later inside a
  // kernel.  Also reserves the request's warm token buffer here, so the
  // later admit/retire ticks never allocate.  With config.max_queue > 0
  // a full queue load-sheds: the returned id resolves immediately with a
  // kShed result.  In async mode the job is fed to the prefill pool as
  // soon as a staging slot is open.  Returns the request id.  Allocates
  // (queue growth + buffer reserve).
  index_t submit(Request request);

  // Resolves the in-flight request `id` with FinishReason::kCancelled:
  // removed from the admission queue (empty tokens), flagged while its
  // prefill is staged in the pool or held at the page gate (resolved at
  // the next tick's admission), or retired mid-flight right here with the
  // tokens decoded so far — the freed KV row admits the next request on
  // the following tick.  Returns false (and does nothing) when `id` is
  // unknown, already resolved, or already cancelled — a submitted id
  // always resolves with exactly ONE result, however many times it is
  // cancelled.
  bool cancel(index_t id);

  // One tick: expire deadlines → admit → batch-step → sample/stream →
  // retire (see file comment).  Returns the number of live rows that
  // were stepped (0 = nothing to do; the tick still counts, so arrival
  // traces keyed on ticks work).  Async mode: admission drains finished
  // prefills only — a tick never waits on the pool.
  index_t step();

  // True when the ONLY outstanding work is a prefill still computing (no
  // live rows, nothing admissible, no due deadline): a step() now would
  // only advance the tick clock.  Non-blocking; always false in sync
  // mode.  A driver that sleeps while it holds must wake on
  // config.on_prefill_finished (or use wait_for_prefill()).
  bool awaiting_prefill() const;

  // Async tick-driver helper: when awaiting_prefill() holds, blocks
  // until the pool finishes one and returns true —
  // callers `continue` instead of stepping, so the tick clock never
  // free-runs orders of magnitude faster than real batch steps (which
  // would collapse arrival schedules and inflate tick-denominated
  // latencies) and the serving core is not stolen from the workers.
  // Returns false (without blocking) whenever a step would do real work;
  // always false in sync mode.  run() uses it; external drivers pumping
  // step() should too.
  bool wait_for_prefill() const;

  // Ticks until every submitted request has retired (in async mode,
  // yielding while prefills are still in flight).
  void run();

  bool idle() const {
    return live_rows_ == 0 && queue_.empty() && !has_held_ &&
           (!prefill_ || prefill_->pending() == 0);
  }
  // Results finished and not yet taken — a cheap guard so drivers can
  // skip the take_results() allocation when there is nothing to drain.
  index_t results_ready() const {
    return static_cast<index_t>(completed_.size());
  }
  // Moves out the results finished since the last call (retirement
  // order).  Allocates (the moved-out vector is replaced by a freshly
  // reserved one, off the tick path).
  std::vector<RequestResult> take_results();

  // Requests submitted and not yet admitted (queue + async pool + a
  // staged prefill held back waiting for KV pages).
  index_t queued() const {
    return static_cast<index_t>(queue_.size()) +
           (prefill_ ? prefill_->pending() : 0) + (has_held_ ? 1 : 0);
  }
  index_t live_rows() const { return live_rows_; }
  index_t ticks() const { return ticks_; }
  index_t total_tokens() const {
    return static_cast<index_t>(tokens_counter_->value());
  }
  // Mean live rows per stepped tick — the occupancy continuous batching
  // keeps high and static batching lets decay.
  double mean_occupancy() const;
  // Counter/percentile snapshot (see SchedulerStats).  Since PR 9 this
  // is a view over the metrics registry (counts) plus the sample rings
  // (exact percentiles).  Allocates (the percentile sort) — call off the
  // tick path.
  SchedulerStats stats() const;
  // The registry holding this scheduler's instruments (the configured
  // one, or the privately owned default).  snapshot()/exporters are safe
  // from any thread.
  const obs::MetricsRegistry& metrics() const { return *registry_; }
  // The per-scheduler trace ring (empty unless obs::trace_enabled()).
  const obs::TraceRing& trace() const { return trace_; }
  const runtime::DecodeSession& session() const { return session_; }
  // The prefill pool (null when prefill_workers is 0).
  const PrefillPool* prefill_pool() const { return prefill_.get(); }

 private:
  struct Slot {
    bool live = false;
    index_t id = -1;
    index_t budget = 0;
    SamplingConfig sampling;
    Rng rng{0};
    std::vector<index_t> tokens;  // the request's warm buffer (admission)
    index_t submit_tick = 0;
    index_t admit_tick = 0;
    Priority priority = Priority::kNormal;
    index_t deadline_tick = 0;
    index_t first_token_tick = -1;
    std::function<void(const StreamEvent&)> on_token;
    // The request itself stays with the slot (source ids, sampling,
    // deadline) so a preemption can requeue the job wholesale.
    Request request;
    // Replay window after a preempted re-admission: while replay_pos <
    // replay_len the step loop FEEDS tokens[replay_pos] instead of
    // sampling — no Rng draw, no stream, no append — rebuilding the KV
    // state bit-identically before live decoding resumes.
    index_t replay_pos = 0;
    index_t replay_len = 0;
    // Trace-sampling decision carried from the job (see PrefillJob).
    bool sampled = false;
    // Wall-clock trace timestamps (0 = not trace-sampled); turned into
    // RequestResult::phases at retirement.
    long long submit_ns = 0;
    long long admit_ns = 0;
    long long prefill_ns = 0;  // duration, stamped by the prefill thread
    long long first_token_ns = 0;
  };

  // Fixed-capacity sample window: push_back stays inside the reserved
  // capacity, then the ring overwrites the oldest — record() never
  // allocates on the tick path.  The bound is the configured window, NOT
  // buf.capacity(): reserve() may round up, and the window must stay
  // exactly config.stats_window.
  struct SampleRing {
    std::vector<double> buf;
    std::size_t window = 0;  // configured sample bound
    std::size_t next = 0;
    void record(double v) {
      if (window == 0) return;
      if (buf.size() < window) {
        buf.push_back(v);
      } else {
        buf[next] = v;
        next = (next + 1) % window;
      }
    }
  };

  index_t effective_class(const PrefillJob& job) const;
  void register_metrics();
  std::deque<PrefillJob>::iterator pick_queued();
  // Removes the pick_queued() job, tracing its queue_admit.
  PrefillJob take_queued();
  void expire_deadlines();
  void pump_pool();
  // The one admission path (see file comment).
  void admit();
  // The next staged prefill: the pool's oldest finished one, or (no
  // pool) the best queued job prefilled right now into staging_.
  bool next_staged(PrefillPool::Finished& out);
  void resolve_unadmitted(PrefillJob&& job, FinishReason reason);
  void resolve_failed(PrefillJob&& job, std::exception_ptr error);
  void install(index_t row, PrefillJob&& job);
  void retire(index_t row, FinishReason reason,
              const char* error = nullptr);
  // Page-pressure preemption (PR 10): the victim is the live row with the
  // WORST static priority class, youngest admit_tick breaking ties.
  index_t pick_victim() const;
  // Evicts `row`: releases its KV pages, requeues its job (tokens so
  // far, Rng, original stamps) at the FRONT of the admission queue.
  void preempt(index_t row);

  BatchSchedulerConfig config_;
  index_t vocab_ = 0;
  runtime::DecodeSession session_;

  // Admission queue: submit appends (FIFO), admission picks by
  // effective priority class — at prefill time in sync mode, while
  // pump_pool() feeds the PrefillPool as staging slots open in async
  // mode.
  std::deque<PrefillJob> queue_;
  std::vector<Slot> slots_;
  std::vector<index_t> feed_;       // next input token per row
  std::vector<RequestResult> completed_;  // reserved for max_batch results
  Tensor prob_scratch_;                // [vocab], sampling CDF scratch
  std::vector<index_t> idx_scratch_;  // [vocab], top-k selection scratch

  // Ids of every unresolved request (queued, in the pool, or live) — the
  // explicit-id uniqueness check and the cancel() routing table.
  std::unordered_set<index_t> inflight_ids_;
  // Cancelled while their prefill was staged (in the pool or held);
  // resolved (and erased) at the next admission that sees the job.
  std::unordered_set<index_t> staged_cancelled_;

  std::array<SampleRing, kPriorityClasses> queue_wait_ring_;
  std::array<SampleRing, kPriorityClasses> ttft_ring_;
  SampleRing latency_ring_;  // finish − submit ticks, all classes pooled
  SampleRing tick_ring_;     // stepped-tick wall ms
  double tick_ms_sum_ = 0.0;
  index_t tick_ms_count_ = 0;

  // --- observability (PR 9) ---
  // The scheduler's counts live in registry instruments, registered once
  // in the constructor (register_metrics) so every record on the tick
  // path is a preallocated relaxed atomic op.  SchedulerStats is a view
  // over these plus the sample rings above.  `ticks_`/`live_rows_` keep
  // plain mirrors because control flow reads them constantly.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;  // config's or owned
  obs::TraceRing trace_;
  struct ClassCounters {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* errored = nullptr;
    // Per-class phase histograms (µs, from RequestResult::phases):
    // populated only for trace-sampled requests (obs::trace_sample()).
    obs::Histogram* queue_us = nullptr;
    obs::Histogram* prefill_us = nullptr;
    obs::Histogram* first_token_us = nullptr;
    obs::Histogram* decode_us = nullptr;
  };
  std::array<ClassCounters, kPriorityClasses> class_counters_{};
  obs::Counter* ticks_counter_ = nullptr;
  obs::Counter* stepped_ticks_counter_ = nullptr;
  obs::Counter* tokens_counter_ = nullptr;
  obs::Counter* occupancy_sum_counter_ = nullptr;
  obs::Gauge* live_rows_gauge_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Histogram* queue_wait_hist_ = nullptr;  // ticks, classes pooled
  obs::Histogram* ttft_hist_ = nullptr;        // ticks, classes pooled
  obs::Histogram* latency_hist_ = nullptr;     // ticks
  obs::Histogram* tick_us_hist_ = nullptr;     // stepped-tick wall µs
  // --- paged KV / prefix cache (PR 10) ---
  obs::Counter* preempted_counter_ = nullptr;
  obs::Gauge* free_pages_gauge_ = nullptr;
  obs::Gauge* used_pages_gauge_ = nullptr;
  obs::Gauge* prefix_entries_gauge_ = nullptr;

  index_t next_id_ = 0;
  index_t ticks_ = 0;
  index_t live_rows_ = 0;
  // Trace-sampling sequence: every Nth submit (obs::trace_sample()) is
  // sampled; serving-thread only.
  index_t trace_seq_ = 0;

  // Page gate: a staged prefill whose commit would need more pages than
  // free + reclaimable is HELD here (still owning its staging) until
  // pages free up — it counts in queued() and blocks idle(), so every id
  // still resolves.
  PrefillPool::Finished held_fin_;
  bool has_held_ = false;
  // The staging slot of pool-less admission, warmed at construction.
  runtime::PrefillStaging staging_;

  // Declared after session_ so it joins its workers (which touch the
  // session's staging API) before the session unbinds.
  std::unique_ptr<PrefillPool> prefill_;
};

}  // namespace qdnn::serve
