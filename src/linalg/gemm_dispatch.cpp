// Backend resolution and the row-sharded threaded gemm path.
//
// Resolution: QDNN_GEMM_BACKEND env override > best compiled-in backend
// the CPU supports (CPUID) > generic.  Resolved once, cached in an
// atomic; set_gemm_backend() narrows it for tests and A/B benches.
//
// Threading: one persistent process-wide pool (lazily spun up by
// set_gemm_threads / QDNN_GEMM_THREADS, never inside a steady-state
// call).  A threaded call copies its job descriptor into the pool,
// publishes a new generation, and claims row chunks alongside the
// workers under one mutex — chunk counts are tiny (<= thread budget),
// so the lock is cold next to the O(m·n·k/threads) kernel work per
// chunk.  Rows are computed by the identical per-row kernel sequence
// regardless of which thread runs them, so the sharded result is
// bit-identical to the inline kernel.  If another thread is mid-job,
// try_run bails and the caller runs inline (correct either way; no
// caller ever blocks on a peer's gemm).
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "linalg/gemm_kernels.h"
#include "obs/metrics.h"

namespace qdnn::linalg {

namespace {

constexpr int kMaxGemmThreads = 64;

std::atomic<int> g_backend{-1};  // -1 = unresolved
std::atomic<int> g_threads{1};
std::atomic<long long> g_min_work{2'000'000};
// Introspection counters live in the global metrics registry so they
// export alongside the serving instruments.  Registered eagerly at
// static init (global() is a Meyers singleton, so order is safe): no
// first-use registration can allocate inside a counted steady-state
// loop, and the per-call record stays one relaxed fetch_add.
obs::Counter& g_heap_pack_calls =
    obs::MetricsRegistry::global().counter("gemm.heap_pack_calls");
obs::Counter& g_threaded_dispatches =
    obs::MetricsRegistry::global().counter("gemm.threaded_dispatches");
thread_local int t_serial_depth = 0;

bool cpu_has_avx2_fma() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

GemmBackend best_supported() {
#if defined(QDNN_SIMD_AVX2)
  if (cpu_has_avx2_fma()) return GemmBackend::kAvx2;
#endif
#if defined(QDNN_SIMD_NEON)
  return GemmBackend::kNeon;  // baseline ISA on aarch64
#endif
  return GemmBackend::kGeneric;
}

GemmBackend resolve_default() {
  if (const char* env = std::getenv("QDNN_GEMM_BACKEND")) {
    GemmBackend want = GemmBackend::kGeneric;
    bool known = true;
    if (std::strcmp(env, "generic") == 0) want = GemmBackend::kGeneric;
    else if (std::strcmp(env, "avx2") == 0) want = GemmBackend::kAvx2;
    else if (std::strcmp(env, "neon") == 0) want = GemmBackend::kNeon;
    else known = false;
    if (known && gemm_backend_supported(want)) return want;
    std::fprintf(stderr,
                 "qdnn: QDNN_GEMM_BACKEND=%s not usable on this "
                 "build/CPU, falling back to %s\n",
                 env, gemm_backend_name(best_supported()));
  }
  return best_supported();
}

// Selects the kernel entry point for a resolved backend.  An enum value
// whose kernels are not compiled in can never be active (set_gemm_backend
// rejects it); the generic fallback here is belt-and-braces.
void run_kernel(GemmBackend backend, index_t m, index_t n, index_t k,
                float alpha, const float* a, index_t lda,
                const detail::BDesc& b, float* c, index_t ldc) {
  switch (backend) {
#if defined(QDNN_SIMD_AVX2)
    case GemmBackend::kAvx2:
      detail::gemm_kernel_avx2(m, n, k, alpha, a, lda, b, c, ldc);
      return;
#endif
#if defined(QDNN_SIMD_NEON)
    case GemmBackend::kNeon:
      detail::gemm_kernel_neon(m, n, k, alpha, a, lda, b, c, ldc);
      return;
#endif
    default:
      detail::gemm_kernel_generic(m, n, k, alpha, a, lda, b, c, ldc);
      return;
  }
}

// ---------------------------------------------------------------------
// Persistent pool.
// ---------------------------------------------------------------------

struct GemmJob {
  GemmBackend backend;
  index_t m, n, k;
  float alpha;
  const float* a;
  index_t lda;
  detail::BDesc b;
  float* c;
  index_t ldc;
};

void run_rows(const GemmJob& j, index_t r0, index_t r1) {
  run_kernel(j.backend, r1 - r0, j.n, j.k, j.alpha, j.a + r0 * j.lda,
             j.lda, j.b, j.c + r0 * j.ldc, j.ldc);
}

class GemmPool {
 public:
  static GemmPool& instance() {
    static GemmPool pool;
    return pool;
  }

  ~GemmPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  // Spawns workers until `count` exist (never shrinks; surplus workers
  // idle on the condvar).  Called from set_gemm_threads, so no thread
  // is ever created inside a steady-state gemm call.
  void ensure_workers(int count) {
    std::lock_guard<std::mutex> lk(spawn_mu_);
    while (static_cast<int>(workers_.size()) < count)
      workers_.emplace_back([this] { worker_loop(); });
  }

  // Shards [0, m) across `parts` chunks run by this thread + workers.
  // Returns false (caller runs inline) when another job is in flight.
  bool try_run(const GemmJob& job, int parts) {
    if (!job_mu_.try_lock()) return false;
    const index_t chunk = (job.m + parts - 1) / parts;
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = job;
      chunk_ = chunk;
      nchunks_ = (job.m + chunk - 1) / chunk;
      next_chunk_ = 0;
      chunks_done_ = 0;
      ++gen_;
    }
    work_cv_.notify_all();
    const std::uint64_t my_gen = gen_;
    index_t c;
    while (claim(my_gen, c)) {
      run_rows(job_, c * chunk_, std::min(job_.m, (c + 1) * chunk_));
      complete();
    }
    {
      std::unique_lock<std::mutex> lk(mu_);
      done_cv_.wait(lk, [&] { return chunks_done_ == nchunks_; });
      nchunks_ = 0;  // job retired; stale workers can claim nothing
    }
    job_mu_.unlock();
    return true;
  }

 private:
  void worker_loop() {
    // Workers are one lane of the pool's parallelism: a nested gemm on
    // this thread must never re-enter the pool.
    GemmSerialScope serial;
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t my_gen;
      {
        std::unique_lock<std::mutex> lk(mu_);
        work_cv_.wait(lk, [&] {
          return stop_ || (gen_ != seen && next_chunk_ < nchunks_);
        });
        if (stop_) return;
        seen = my_gen = gen_;
      }
      index_t c;
      while (claim(my_gen, c)) {
        run_rows(job_, c * chunk_, std::min(job_.m, (c + 1) * chunk_));
        complete();
      }
    }
  }

  // Claims the next chunk of generation `my_gen`; fails once the
  // generation moved on or every chunk is claimed.  job_/chunk_ reads
  // outside mu_ are safe: they only mutate under job_mu_ after every
  // chunk of the previous generation completed.
  bool claim(std::uint64_t my_gen, index_t& c) {
    std::lock_guard<std::mutex> lk(mu_);
    if (gen_ != my_gen || next_chunk_ >= nchunks_) return false;
    c = next_chunk_++;
    return true;
  }

  void complete() {
    bool all;
    {
      std::lock_guard<std::mutex> lk(mu_);
      all = ++chunks_done_ == nchunks_;
    }
    if (all) done_cv_.notify_all();
  }

  std::mutex job_mu_;  // one job in flight at a time
  std::mutex spawn_mu_;
  std::mutex mu_;
  std::condition_variable work_cv_, done_cv_;
  std::vector<std::thread> workers_;
  GemmJob job_{};
  index_t chunk_ = 0, nchunks_ = 0, next_chunk_ = 0, chunks_done_ = 0;
  std::uint64_t gen_ = 0;
  bool stop_ = false;
};

// Reads the env knobs once, before main on most platforms, so the pool
// exists before any steady-state (allocation-counted) serving loop.
struct EnvInit {
  EnvInit() {
    if (const char* env = std::getenv("QDNN_GEMM_THREADS")) {
      const int t = std::atoi(env);
      if (t > 0) set_gemm_threads(t);
    }
    if (const char* env = std::getenv("QDNN_GEMM_MIN_WORK")) {
      const long long w = std::atoll(env);
      if (w >= 0) set_gemm_thread_min_work(w);
    }
  }
};
EnvInit g_env_init;

}  // namespace

const char* gemm_backend_name(GemmBackend backend) {
  switch (backend) {
    case GemmBackend::kAvx2: return "avx2";
    case GemmBackend::kNeon: return "neon";
    default: return "generic";
  }
}

bool gemm_backend_compiled(GemmBackend backend) {
  switch (backend) {
    case GemmBackend::kGeneric:
      return true;
    case GemmBackend::kAvx2:
#if defined(QDNN_SIMD_AVX2)
      return true;
#else
      return false;
#endif
    case GemmBackend::kNeon:
#if defined(QDNN_SIMD_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool gemm_backend_supported(GemmBackend backend) {
  if (!gemm_backend_compiled(backend)) return false;
  if (backend == GemmBackend::kAvx2) return cpu_has_avx2_fma();
  return true;
}

GemmBackend active_gemm_backend() {
  int b = g_backend.load(std::memory_order_relaxed);
  if (b < 0) {
    // Benign race: resolve_default is deterministic per process.
    b = static_cast<int>(resolve_default());
    g_backend.store(b, std::memory_order_relaxed);
  }
  return static_cast<GemmBackend>(b);
}

void set_gemm_backend(GemmBackend backend) {
  QDNN_CHECK(gemm_backend_supported(backend),
             "set_gemm_backend: " << gemm_backend_name(backend)
                                  << " is not supported on this build/CPU");
  g_backend.store(static_cast<int>(backend), std::memory_order_relaxed);
}

int gemm_threads() { return g_threads.load(std::memory_order_relaxed); }

void set_gemm_threads(int threads) {
  QDNN_CHECK(threads >= 1,
             "set_gemm_threads: threads must be >= 1, got " << threads);
  if (threads > kMaxGemmThreads) threads = kMaxGemmThreads;
  if (threads > 1) GemmPool::instance().ensure_workers(threads - 1);
  g_threads.store(threads, std::memory_order_relaxed);
}

long long gemm_thread_min_work() {
  return g_min_work.load(std::memory_order_relaxed);
}

void set_gemm_thread_min_work(long long flops) {
  QDNN_CHECK(flops >= 0,
             "set_gemm_thread_min_work: threshold must be >= 0");
  g_min_work.store(flops, std::memory_order_relaxed);
}

GemmSerialScope::GemmSerialScope() { ++t_serial_depth; }
GemmSerialScope::~GemmSerialScope() { --t_serial_depth; }

long long gemm_heap_pack_calls() { return g_heap_pack_calls.value(); }

long long gemm_threaded_dispatches() {
  return g_threaded_dispatches.value();
}

namespace detail {

void note_heap_pack_call() { g_heap_pack_calls.inc(); }

void run_gemm(GemmBackend backend, index_t m, index_t n, index_t k,
              float alpha, const float* a, index_t lda, const BDesc& b,
              float* c, index_t ldc) {
  const int threads = g_threads.load(std::memory_order_relaxed);
  if (threads > 1 && t_serial_depth == 0 && m >= 2 &&
      2LL * m * n * k >= g_min_work.load(std::memory_order_relaxed)) {
    const int parts =
        static_cast<int>(std::min<index_t>(threads, m));
    GemmJob job{backend, m, n, k, alpha, a, lda, b, c, ldc};
    if (parts > 1 && GemmPool::instance().try_run(job, parts)) {
      g_threaded_dispatches.inc();
      return;
    }
  }
  run_kernel(backend, m, n, k, alpha, a, lda, b, c, ldc);
}

}  // namespace detail
}  // namespace qdnn::linalg
