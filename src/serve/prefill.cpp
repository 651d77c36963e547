#include "serve/prefill.h"

#include <utility>

#include "linalg/gemm_backend.h"

namespace qdnn::serve {

std::exception_ptr run_prefill(runtime::DecodeSession& session,
                               PrefillJob& job,
                               runtime::PrefillStaging& staging,
                               obs::TraceRing* trace) {
  // The sampling decision was made at submit: a sampled job stamps its
  // whole prefill window and ring events, the rest skip every record
  // site.  Recording is wait-free and allocation-free.
  const bool tracing = job.sampled;
  if (tracing) {
    job.prefill_start_ns = obs::now_ns();
    if (trace != nullptr)
      trace->record_always(job.id, obs::TraceEvent::kPrefillStart);
  }
  std::exception_ptr error;
  try {
    // Prefix-cache probe first: a hit acquires the shared cross-K/V pages
    // into the slot and skips the whole encoder + projection.  The cache
    // and page pool serialize the lookup internally, so any number of
    // callers probe concurrently with the serving thread's
    // publish/evict.
    if (!session.prefix_lookup_into(job.request.src_ids,
                                    job.request.src_length, staging))
      session.prime_compute(job.request.src_ids, job.request.src_length,
                            staging);
  } catch (...) {
    error = std::current_exception();
  }
  if (tracing) {
    job.prefill_end_ns = obs::now_ns();
    if (trace != nullptr)
      trace->record_always(job.id, obs::TraceEvent::kPrefillEnd);
  }
  return error;
}

PrefillPool::PrefillPool(runtime::DecodeSession& session, index_t workers,
                         index_t slots, obs::TraceRing* trace,
                         std::function<void()> on_finished)
    : session_(&session), trace_(trace),
      on_finished_(std::move(on_finished)) {
  QDNN_CHECK(workers >= 1,
             "PrefillPool: workers must be >= 1, got " << workers);
  QDNN_CHECK(slots >= 1, "PrefillPool: slots must be >= 1, got " << slots);
  staging_.resize(static_cast<std::size_t>(slots));
  for (runtime::PrefillStaging& s : staging_) session_->init_staging(s);
  free_slots_.reserve(static_cast<std::size_t>(slots));
  for (index_t s = slots - 1; s >= 0; --s) free_slots_.push_back(s);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (index_t w = 0; w < workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

PrefillPool::~PrefillPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void PrefillPool::worker_loop() {
  // Prefill workers are the parallelism at this layer — keep the
  // row-sharded gemm pool out of their inner gemms (oversubscription
  // plus the async-vs-sync bit-identity contract).
  linalg::GemmSerialScope serial_gemm;
  for (;;) {
    PrefillJob job;
    index_t slot = -1;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] {
        return stop_ || (!queue_.empty() && !free_slots_.empty());
      });
      if (stop_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Finished fin;
    fin.slot = slot;
    fin.error = run_prefill(*session_, job,
                            staging_[static_cast<std::size_t>(slot)], trace_);
    fin.job = std::move(job);
    {
      std::lock_guard<std::mutex> lk(mu_);
      finished_.push_back(std::move(fin));
    }
    done_cv_.notify_all();
    if (on_finished_) on_finished_();
  }
}

void PrefillPool::submit(PrefillJob job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(job));
    ++pending_;
  }
  work_cv_.notify_one();
}

bool PrefillPool::try_take(Finished& out) {
  std::lock_guard<std::mutex> lk(mu_);
  if (finished_.empty()) return false;
  out = std::move(finished_.front());
  finished_.pop_front();
  --pending_;
  return true;
}

void PrefillPool::wait_ready() const {
  std::unique_lock<std::mutex> lk(mu_);
  // pending_ == 0 guards a caller that races a take on another thread;
  // the single-consumer scheduler only waits while something is queued.
  done_cv_.wait(lk, [&] { return !finished_.empty() || pending_ == 0; });
}

runtime::PrefillStaging& PrefillPool::staging_mut(index_t slot) {
  QDNN_CHECK(slot >= 0 && slot < slots(),
             "PrefillPool: slot " << slot << " outside [0, " << slots()
                                  << ")");
  return staging_[static_cast<std::size_t>(slot)];
}

void PrefillPool::release(index_t slot) {
  QDNN_CHECK(slot >= 0 && slot < slots(),
             "PrefillPool: slot " << slot << " outside [0, " << slots()
                                  << ")");
  {
    std::lock_guard<std::mutex> lk(mu_);
    free_slots_.push_back(slot);
  }
  work_cv_.notify_one();
}

index_t PrefillPool::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_;
}

index_t PrefillPool::ready() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<index_t>(finished_.size());
}

}  // namespace qdnn::serve
