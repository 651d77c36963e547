// servebench — the serving benchmark.  Drives the paper's Transformer
// (d_model 48, 2+2 layers, max_len 32, the settings of
// bench/table2_transformer.cpp) through the public serve::Server API and
// prints every metric BENCHMARK.json names, by name and unit.
//
//   servebench --workload chat|rag|chat_linear --seed N --seconds S
//              --trace 0|1
//
// (normally run through `python3 servebench/run.py`, which builds it).
//
// Workloads — the server shape is part of the workload:
//   chat         proposed neuron (NeuronSpec::proposed(3), proj_dim 24);
//                unique 4–8-token prompts, 24–32-token outputs; 2 shards,
//                synchronous admission.  Decode-heavy.
//   rag          proposed neuron; 22–28-token prompts, 1–4-token outputs,
//                half of them one of 8 shared system prompts; 1 shard,
//                2 prefill workers.  Prompt-heavy, prefix-cache hits.
//   chat_linear  chat with the linear baseline (proj_dim 48): the only
//                workload that bypasses src/quadratic.
// Threads per workload (generator + shard workers + prefill workers)
// stay at or below 4, each pinned to a core of its own.  All requests
// are generated from --seed before any timing starts.
//
// --trace 0 (tracing off) measures the end-to-end metrics over
// --seconds (40% burst, 60% open loop):
//   setup      replicas + Server construction (bind, freeze, warm-up,
//              checksum), repeated; the median is setup_s.
//   burst      saturating: the generator keeps four full batches per
//              shard outstanding, cycling a pool of prebuilt requests;
//              tokens_per_s counts output tokens after a warm-up.
//   open loop  one generator thread sends a precomputed Poisson schedule
//              at the workload's fixed rate and never waits for replies.
//              TTFT is timed from each request's DUE time, token gaps
//              from on_token stamps (the callback only writes a
//              steady_clock stamp into a preallocated slot).  Requests
//              due in the warm-up window are left out of the statistics.
// --trace 1 (tracing on) measures the per-layer metrics: an untraced
//   and a traced burst (their ratio is obs.trace_overhead), a traced
//   open loop (send lag, submit spans, phases, KV counters), a replay of
//   the burst pool through one bench-pumped BatchScheduler configured
//   like a shard (per-step time, per-stage profile), and
//   linalg::gemm_prepacked on the workload model's shapes.  On chat and
//   chat_linear it also replays the other neuron spec and prints the
//   paper-claim table (report only).  Every layer is measured from
//   outside, through public functions, stats and profiles.
//
// Correctness gate (both modes): every sent id resolves exactly once;
// a request sent again, or sharing its source with another, yields the
// same tokens; a seed-chosen sample of completed requests matches
// Transformer::greedy_decode_reference; per-request tokens are identical
// between the untraced burst and a traced run of the same requests (the
// traced burst and the replay with --trace 1, a traced replay of the
// pool's head with --trace 0).  A mismatch prints "correct": false and
// exits 1.
//
// The last line of stdout is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "linalg/gemm_backend.h"
#include "linalg/packed_weights.h"
#include "obs/trace.h"
#include "quadratic/complexity.h"
#include "serve/server.h"

using namespace qdnn;
using Clock = std::chrono::steady_clock;

namespace {

constexpr index_t kBos = 1, kEos = 2;
// Per-shard session geometry (serve_bench's: batch 8, the model's full
// step capacity, sources up to 28 positions).
constexpr index_t kMaxBatch = 8, kMaxSteps = 32, kMaxSrc = 28;
// Fleet constructions timed per run for setup_s, in three rounds (before,
// between and after the timed phases) so that one slow stretch of the
// host does not decide the median.
constexpr index_t kSetupRepeats = 7;
// Requests the burst and the replay cycle through.  A request recurs
// only after thousands of others, long after its source has left the
// 16-entry prefix cache, so "unique" prompts stay cache misses; the pool
// keeps memory and set-up independent of how fast the server is.
constexpr index_t kBurstPool = 4096;
// Completed requests per run checked against greedy_decode_reference.
constexpr index_t kReferenceSamples = 24;

struct Workload {
  const char* name;
  bool proposed;            // proposed(3) at proj_dim 24, else linear at 48
  index_t shards;
  index_t prefill_workers;  // 0 = synchronous admission
  index_t prompt_lo, prompt_hi;
  index_t out_lo, out_hi;
  index_t shared_prompts;   // distinct shared system prompts; 0 = none
  double shared_share;      // share of requests sent with a shared prompt
  double rate_rps;          // open-loop offered rate
  double slo_ttft_ms, slo_gap_ms;
};

// Open-loop rates sit near 40% of the burst capacity measured on a
// 4-core AVX2 VM (chat and chat_linear ~3.1k–4.3k req/s, rag ~8k req/s).
// Closer to saturation the host's drifting core speed tipped runs into
// queueing: rag at 4500 req/s read a TTFT p50 of 5.0 ms in one run of
// three against 0.7 ms in the others.  The SLO limits sit above the
// multi-millisecond stalls that stolen vCPU time adds on that host
// (TTFT p99 read 1–10 ms), so attainment measures the tail rather than
// the host.
const Workload kWorkloads[] = {
    {"chat", true, 2, 0, 4, 8, 24, 32, 0, 0.0, 1500.0, 10.0, 5.0},
    {"rag", true, 1, 2, 22, 28, 1, 4, 8, 0.5, 3000.0, 10.0, 5.0},
    {"chat_linear", false, 2, 0, 4, 8, 24, 32, 0, 0.0, 1500.0, 10.0, 5.0},
};

models::TransformerConfig model_config(bool proposed) {
  models::TransformerConfig c;
  c.src_vocab = 256;
  c.tgt_vocab = 256;
  c.d_model = 48;
  c.n_heads = 4;
  c.n_layers = 2;
  c.d_ff = 96;
  c.max_len = 32;
  c.dropout = 0.0f;
  c.seed = 17;
  if (proposed) {
    c.proj_dim = 24;
    c.spec = quadratic::NeuronSpec::proposed(3);
  } else {
    c.proj_dim = 48;
    c.spec = quadratic::NeuronSpec::linear();
  }
  return c;
}

serve::BatchSchedulerConfig shard_config(const Workload& w) {
  serve::BatchSchedulerConfig c;
  c.session.max_batch = kMaxBatch;
  c.session.max_steps = kMaxSteps;
  c.session.max_src = kMaxSrc;
  c.bos = kBos;
  c.eos = kEos;
  c.prefill_workers = w.prefill_workers;
  return c;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

long long stamp_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kB
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

struct Gate {
  bool ok = true;
  void check(bool cond, const std::string& what) {
    if (cond) return;
    if (ok) std::printf("correctness FAILED: %s\n", what.c_str());
    ok = false;
  }
};

Gate g_gate;

// ---------------------------------------------------------------------------
// Traffic: every request is built from the seed before timing starts.
// ---------------------------------------------------------------------------

struct GenRequest {
  Tensor src;           // [1, ts]
  index_t ts = 0;
  index_t budget = 0;   // max_new_tokens
  index_t prompt = -1;  // shared prompt index, -1 = unique
  double due_s = 0.0;   // open-loop send offset from the phase start
};

Tensor random_source(Rng& rng, index_t ts) {
  Tensor src{Shape{1, ts}};
  for (index_t j = 0; j < ts; ++j)
    src[j] = static_cast<float>(3 + rng.uniform_int(253));
  return src;
}

class TrafficGen {
 public:
  TrafficGen(const Workload& w, std::uint64_t seed) : w_(w), rng_(seed) {
    Rng prompt_rng(seed ^ 0x5bd1e995u);
    for (index_t p = 0; p < w.shared_prompts; ++p)
      shared_.push_back(random_source(
          prompt_rng,
          w.prompt_lo + prompt_rng.uniform_int(w.prompt_hi - w.prompt_lo + 1)));
  }

  GenRequest next() {
    GenRequest r;
    if (!shared_.empty() && rng_.bernoulli(w_.shared_share)) {
      r.prompt = rng_.uniform_int(static_cast<index_t>(shared_.size()));
      r.src = shared_[static_cast<std::size_t>(r.prompt)];
    } else {
      r.src = random_source(
          rng_, w_.prompt_lo + rng_.uniform_int(w_.prompt_hi - w_.prompt_lo + 1));
    }
    r.ts = r.src.dim(1);
    r.budget = w_.out_lo + rng_.uniform_int(w_.out_hi - w_.out_lo + 1);
    return r;
  }

  std::vector<GenRequest> batch(index_t n) {
    std::vector<GenRequest> out;
    out.reserve(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) out.push_back(next());
    return out;
  }

  // Poisson arrivals at `rate` over [0, seconds).
  std::vector<GenRequest> schedule(double rate, double seconds) {
    std::vector<GenRequest> out;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng_.uniform()) / rate;
      if (t >= seconds) break;
      out.push_back(next());
      out.back().due_s = t;
    }
    return out;
  }

 private:
  const Workload& w_;
  Rng rng_;
  std::vector<Tensor> shared_;
};

// Per-request token stamps (steady_clock ns), preallocated to the
// request's budget; on_token writes stamps[event.index] and nothing else.
using Stamps = std::vector<std::vector<long long>>;

std::vector<serve::Request> to_requests(const std::vector<GenRequest>& gen,
                                        Stamps* stamps) {
  std::vector<serve::Request> out;
  out.reserve(gen.size());
  if (stamps != nullptr) stamps->assign(gen.size(), {});
  for (std::size_t i = 0; i < gen.size(); ++i) {
    serve::Request r;
    r.src_ids = gen[i].src;
    r.src_length = gen[i].ts;
    r.max_new_tokens = gen[i].budget;
    if (stamps != nullptr) {
      (*stamps)[i].assign(static_cast<std::size_t>(gen[i].budget), 0);
      long long* slot = (*stamps)[i].data();
      r.on_token = [slot](const serve::StreamEvent& e) {
        slot[e.index] = stamp_ns();
      };
    }
    out.push_back(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Results: every sent id must resolve exactly once.
// ---------------------------------------------------------------------------

bool succeeded(serve::FinishReason r) {
  return r == serve::FinishReason::kEos || r == serve::FinishReason::kLength;
}

// What one generated request resolved to (its first successful
// resolution when it was sent more than once).
struct Outcome {
  index_t resolutions = 0;
  serve::FinishReason reason = serve::FinishReason::kError;
  std::vector<index_t> tokens;
  serve::RequestPhases phases;
  index_t decode_steps = 0;

  bool ok() const { return resolutions > 0 && succeeded(reason); }
};

struct Counts {
  index_t sent = 0, succeeded = 0, failed = 0;
  void add(const Counts& o) {
    sent += o.sent;
    succeeded += o.succeeded;
    failed += o.failed;
  }
};

// The resolution bookkeeping of one phase.  A generated request may be
// sent more than once (the burst cycles a pool); every send must resolve
// exactly once, and repeated successful resolutions of one request must
// carry the same tokens.  Failures (kError / kShed / unresolved — nothing
// is cancelled) are counted, never hidden.
class Ledger {
 public:
  Ledger(std::size_t requests, const char* phase)
      : outcomes_(requests), phase_(phase) {}

  void sent(index_t id, std::size_t index) {
    inflight_[id] = index;
    ++counts_.sent;
  }

  void file(std::vector<serve::RequestResult>&& results) {
    for (serve::RequestResult& r : results) {
      const auto it = inflight_.find(r.id);
      g_gate.check(it != inflight_.end(),
                   phase_ + ": result for unknown or resolved id " +
                       std::to_string(r.id));
      if (it == inflight_.end()) continue;
      const std::size_t index = it->second;
      inflight_.erase(it);
      Outcome& o = outcomes_[index];
      const bool ok = succeeded(r.reason);
      ++(ok ? counts_.succeeded : counts_.failed);
      if (ok && o.ok())
        g_gate.check(r.tokens == o.tokens,
                     phase_ + ": request " + std::to_string(index) +
                         " resolved to different tokens when resent");
      if (!o.ok()) {
        o.reason = r.reason;
        o.tokens = std::move(r.tokens);
        o.phases = r.phases;
        o.decode_steps = r.decode_steps;
      }
      ++o.resolutions;
    }
  }

  // Ends the phase: an id still in flight never resolved.
  Counts finish() {
    g_gate.check(inflight_.empty(),
                 phase_ + ": " + std::to_string(inflight_.size()) +
                     " sent ids never resolved");
    counts_.failed += static_cast<index_t>(inflight_.size());
    inflight_.clear();
    return counts_;
  }

  std::vector<Outcome>& outcomes() { return outcomes_; }

 private:
  std::vector<Outcome> outcomes_;
  std::unordered_map<index_t, std::size_t> inflight_;
  Counts counts_;
  std::string phase_;
};

void print_counts(const char* phase, const Counts& c) {
  std::printf("phase %-18s sent %7lld  succeeded %7lld  failed %lld\n",
              phase, static_cast<long long>(c.sent),
              static_cast<long long>(c.succeeded),
              static_cast<long long>(c.failed));
}

// ---------------------------------------------------------------------------
// Thread placement.  Left to the kernel, freshly started shard and
// prefill threads can share a core for a second or more (measured: rag
// bursts at ~9k tok/s against ~22k once spread), which made run-to-run
// figures bimodal.  Every workload runs at most one thread per core, so
// the benchmark pins each thread to a core of its own: the generator
// (main thread, the lowest id) on the first allowed CPU, the others in
// start order on the next ones.  (Rotating the assignment to average
// out per-core host slowdowns cost more in migrations than it saved.)
// Threads are found through /proc/self/task; without it, or on one
// CPU, nothing is pinned.
// ---------------------------------------------------------------------------

// The CPUs the process may run on, read on first use (before pinning).
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    return out;
  }();
  return cpus;
}

// Pins every thread of the process; call after starting threads.
void pin_threads() {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  std::vector<pid_t> tids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir)) {
      const auto tid = static_cast<pid_t>(std::atoi(e->d_name));
      if (tid > 0) tids.push_back(tid);
    }
    closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  for (std::size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[i % cpus.size()], &set);
    sched_setaffinity(tids[i], sizeof(set), &set);  // best effort
  }
}

// ---------------------------------------------------------------------------
// The serving fleet: one identically seeded replica per shard + Server.
// ---------------------------------------------------------------------------

struct Fleet {
  std::vector<std::unique_ptr<models::Transformer>> replicas;
  std::unique_ptr<serve::Server> server;  // destroyed before the replicas
};

Fleet make_fleet(const Workload& w) {
  Fleet f;
  std::vector<models::Transformer*> raw;
  for (index_t i = 0; i < w.shards; ++i) {
    f.replicas.push_back(
        std::make_unique<models::Transformer>(model_config(w.proposed)));
    f.replicas.back()->set_training(false);
    raw.push_back(f.replicas.back().get());
  }
  serve::ServerConfig config;
  config.shard = shard_config(w);
  f.server = std::make_unique<serve::Server>(raw, config);
  return f;
}

// Appends the wall times of kSetupRepeats fleet constructions (each
// destroyed before the next) to `samples`.
void measure_setup(const Workload& w, std::vector<double>& samples) {
  for (index_t i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    Fleet f = make_fleet(w);
    samples.push_back(seconds_since(t0));
  }
}

// Snapshot of the process-global gemm counters, for per-phase deltas.
struct GemmCounters {
  long long heap_pack = 0, threaded = 0;
  static GemmCounters now() {
    return {linalg::gemm_heap_pack_calls(),
            linalg::gemm_threaded_dispatches()};
  }
  GemmCounters operator-(const GemmCounters& o) const {
    return {heap_pack - o.heap_pack, threaded - o.threaded};
  }
};

// ---------------------------------------------------------------------------
// Burst phase: the server is kept saturated — the generator tops the
// outstanding requests up to a fixed depth — and tokens_per_s is the
// tokens sampled over the windows after a warm-up, per second.  (Pooled
// rather than a median of windows: the host's speed drifts over
// seconds, and pooling weighs a run's slow and fast stretches by their
// length instead of picking one of them.)
// ---------------------------------------------------------------------------

// Unresolved requests that keep every batch row busy: four full batches
// per shard waiting or decoding.
index_t burst_depth(const Workload& w) { return 4 * kMaxBatch * w.shards; }

// Output tokens the shards have sampled so far (the per-shard "tokens"
// counters of the server's registry; no shard lock is taken).
long long server_tokens(const serve::Server& server) {
  long long total = 0;
  for (const auto& c : server.metrics().snapshot().counters) {
    const std::string& n = c.name;
    if (n.rfind("shard", 0) == 0 && n.size() > 7 &&
        n.compare(n.size() - 7, 7, ".tokens") == 0)
      total += c.value;
  }
  return total;
}

struct BurstResult {
  std::vector<double> window_tok_s;  // warm-up windows excluded
  long long tokens = 0;              // sampled after the warm-up
  double seconds = 0.0;              // length of the windows after it
  std::vector<Outcome> outcomes;     // per pool request
  Counts counts;
  serve::ServerStats stats;
  GemmCounters setup_gemm, steady_gemm;  // fleet construction / timed windows

  double tokens_per_s() const { return static_cast<double>(tokens) / seconds; }
};

// Sends pool[0], pool[1], ... cyclically (a copy of the prebuilt request
// each time) whenever fewer than the burst depth are unresolved.
BurstResult run_burst(const Workload& w, const std::vector<GenRequest>& pool,
                      double budget_s, const char* label) {
  BurstResult out;
  const GemmCounters g0 = GemmCounters::now();
  Fleet fleet = make_fleet(w);
  pin_threads();
  serve::Server& server = *fleet.server;
  const std::vector<serve::Request> built = to_requests(pool, nullptr);
  const GemmCounters g1 = GemmCounters::now();
  const index_t depth = burst_depth(w);
  const int windows = std::max(5, static_cast<int>(budget_s / 0.25 + 0.5));
  const double window_s = budget_s / windows;
  const int warmup = std::max(
      1, static_cast<int>(std::min(1.0, 0.2 * budget_s) / window_s));
  Ledger ledger(built.size(), label);
  std::size_t next = 0;
  for (int k = 0; k < windows; ++k) {
    const auto t0 = Clock::now();
    const long long tokens0 = server_tokens(server);
    double elapsed = 0.0;
    while (elapsed < window_s) {
      for (; server.pending() < depth; ++next) {
        const std::size_t index = next % built.size();
        ledger.sent(server.submit(built[index]), index);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      elapsed = seconds_since(t0);
    }
    const long long tokens = server_tokens(server) - tokens0;
    if (k >= warmup) {
      out.window_tok_s.push_back(static_cast<double>(tokens) / elapsed);
      out.tokens += tokens;
      out.seconds += elapsed;
    }
    ledger.file(server.take_results());
  }
  out.steady_gemm = GemmCounters::now() - g1;
  out.setup_gemm = g1 - g0;
  server.wait_idle();
  ledger.file(server.take_results());
  out.counts = ledger.finish();
  out.outcomes = std::move(ledger.outcomes());
  out.stats = server.stats();
  return out;
}

// ---------------------------------------------------------------------------
// Open-loop phase: a precomputed Poisson schedule, one generator thread.
// ---------------------------------------------------------------------------

struct OpenResult {
  std::vector<Outcome> outcomes;
  Stamps stamps;
  std::vector<long long> due_ns;
  std::vector<double> lag_ms;     // send time − due time
  std::vector<double> submit_us;  // span around Server::submit
  double pages_peak_frac = 0.0;  // sampled between sends (traced run)
  serve::ServerStats stats;
  Counts counts;
  GemmCounters setup_gemm, steady_gemm;  // fleet construction / timed sends
};

// Sleeps until shortly before `due`, then spins the last stretch.
void wait_until(Clock::time_point due) {
  if (due - Clock::now() > std::chrono::microseconds(150))
    std::this_thread::sleep_until(due - std::chrono::microseconds(80));
  while (Clock::now() < due) {
  }
}

double sample_pages_used(const serve::Server& server) {
  double used = 0.0, free = 0.0;
  for (const auto& g : server.metrics().snapshot().gauges) {
    const std::string& n = g.name;
    if (n.size() > 14 && n.compare(n.size() - 14, 14, ".kv.used_pages") == 0)
      used += g.value;
    else if (n.size() > 14 &&
             n.compare(n.size() - 14, 14, ".kv.free_pages") == 0)
      free += g.value;
  }
  return used + free > 0.0 ? used / (used + free) : 0.0;
}

OpenResult run_open_loop(const Workload& w,
                         const std::vector<GenRequest>& sched,
                         bool sample_pages, const char* label) {
  OpenResult out;
  const GemmCounters g0 = GemmCounters::now();
  Fleet fleet = make_fleet(w);
  pin_threads();
  serve::Server& server = *fleet.server;
  std::vector<serve::Request> built = to_requests(sched, &out.stamps);
  const GemmCounters g1 = GemmCounters::now();
  Ledger ledger(sched.size(), label);
  out.due_ns.resize(sched.size());
  out.lag_ms.resize(sched.size());
  out.submit_us.resize(sched.size());
  auto last_sample = Clock::now();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < built.size(); ++i) {
    const auto due = start + std::chrono::nanoseconds(static_cast<long long>(
                                 sched[i].due_s * 1e9));
    if (sample_pages && due - Clock::now() > std::chrono::microseconds(500) &&
        Clock::now() - last_sample > std::chrono::milliseconds(2)) {
      out.pages_peak_frac =
          std::max(out.pages_peak_frac, sample_pages_used(server));
      last_sample = Clock::now();
    }
    wait_until(due);
    const auto t_send = Clock::now();
    const index_t id = server.submit(std::move(built[i]));
    const auto t_done = Clock::now();
    ledger.sent(id, i);
    out.due_ns[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        due.time_since_epoch())
                        .count();
    out.lag_ms[i] =
        std::chrono::duration<double, std::milli>(t_send - due).count();
    out.submit_us[i] =
        std::chrono::duration<double, std::micro>(t_done - t_send).count();
  }
  server.wait_idle();
  out.setup_gemm = g1 - g0;
  out.steady_gemm = GemmCounters::now() - g1;
  ledger.file(server.take_results());
  out.counts = ledger.finish();
  out.outcomes = std::move(ledger.outcomes());
  out.stats = server.stats();
  return out;
}

struct Latency {
  std::vector<double> ttft_ms, gap_ms;
  index_t measured = 0, met = 0;
};

// TTFT from the due time, gaps between consecutive stamps, and the SLO
// over requests due after the warm-up window (a failed request misses).
Latency latency_of(const Workload& w, const std::vector<GenRequest>& sched,
                   const OpenResult& r, double warmup_s) {
  Latency l;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (sched[i].due_s < warmup_s) continue;
    ++l.measured;
    const Outcome& o = r.outcomes[i];
    if (!o.ok()) continue;
    const std::vector<long long>& st = r.stamps[i];
    const std::size_t n = o.tokens.size();
    bool met = true;  // a request whose first token is eos streams nothing
    if (n > 0) {
      const double ttft = static_cast<double>(st[0] - r.due_ns[i]) * 1e-6;
      l.ttft_ms.push_back(ttft);
      met = ttft <= w.slo_ttft_ms;
    }
    for (std::size_t t = 1; t < n; ++t) {
      const double gap = static_cast<double>(st[t] - st[t - 1]) * 1e-6;
      l.gap_ms.push_back(gap);
      met = met && gap <= w.slo_gap_ms;
    }
    if (met) ++l.met;
  }
  return l;
}

// ---------------------------------------------------------------------------
// Bench-pumped BatchScheduler replay: per-step time and stage profile.
// ---------------------------------------------------------------------------

struct ReplayResult {
  std::vector<Outcome> outcomes;  // per pool request
  std::vector<double> step_us;
  std::vector<obs::StageTiming> stages;
};

// Replays `pool` cyclically through one scheduler configured like a
// shard of `w` but serving `proposed`'s model, topping the queue up to
// one shard's burst depth before every step until the budget is spent
// (at least one pass when budget_s is 0), then draining.  Tracing is
// switched on only after construction, so the warm-up step is not
// profiled.
ReplayResult run_replay(const Workload& w, bool proposed,
                        const std::vector<GenRequest>& pool, double budget_s,
                        bool traced) {
  ReplayResult out;
  models::Transformer model(model_config(proposed));
  model.set_training(false);
  obs::set_trace_enabled(false);
  serve::BatchScheduler sched(model, shard_config(w));
  pin_threads();
  const std::vector<serve::Request> built = to_requests(pool, nullptr);
  Ledger ledger(built.size(), "replay");
  const index_t depth = burst_depth(w) / w.shards;
  obs::set_trace_enabled(traced);
  const auto t0 = Clock::now();
  std::size_t next = 0;
  for (;;) {
    while (sched.queued() + sched.live_rows() < depth &&
           (next < built.size() || seconds_since(t0) < budget_s)) {
      const std::size_t index = next++ % built.size();
      ledger.sent(sched.submit(built[index]), index);
    }
    if (sched.idle()) break;
    if (sched.wait_for_prefill()) continue;
    const auto s0 = Clock::now();
    const index_t stepped = sched.step();
    const auto s1 = Clock::now();
    if (stepped > 0)
      out.step_us.push_back(
          std::chrono::duration<double, std::micro>(s1 - s0).count());
    if (sched.results_ready() > 0) ledger.file(sched.take_results());
  }
  obs::set_trace_enabled(false);
  ledger.file(sched.take_results());
  ledger.finish();
  out.outcomes = std::move(ledger.outcomes());
  out.stages = sched.session().stage_profile();
  return out;
}

// Decode stage kinds, aggregated across the dec0/dec1 layers so every
// decode.<kind>.* name is unique and stable.
const char* const kStageKinds[] = {"embed",        "self_step", "cross_step",
                                   "layernorm",    "ffn",       "residual_add",
                                   "relu",         "out_proj",  "argmax"};
constexpr std::size_t kNumKinds = std::size(kStageKinds);

std::size_t stage_kind(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n &&
           name.compare(name.size() - n, n, suffix) == 0;
  };
  if (name == "embed") return 0;
  if (ends_with(".self_step")) return 1;
  if (ends_with(".cross_step")) return 2;
  if (ends_with(".ln1") || ends_with(".ln2") || ends_with(".ln3")) return 3;
  if (ends_with(".fc1") || ends_with(".fc2")) return 4;
  if (name == "residual_add") return 5;
  if (name == "relu") return 6;
  if (name == "out_proj") return 7;
  if (name == "argmax") return 8;
  return kNumKinds;
}

struct KindProfile {
  std::array<long long, kNumKinds> calls{}, ns{};
  std::array<double, kNumKinds> macs{};  // 0 = no MAC model for the kind
  double us_per_call(std::size_t k) const {
    return calls[k] > 0 ? static_cast<double>(ns[k]) * 1e-3 /
                              static_cast<double>(calls[k])
                        : 0.0;
  }
  double gflops(std::size_t k) const {
    return ns[k] > 0 ? 2.0 * macs[k] / static_cast<double>(ns[k]) : 0.0;
  }
  double macs_per_call(std::size_t k) const {
    return calls[k] > 0 ? macs[k] / static_cast<double>(calls[k]) : 0.0;
  }
};

// MAC model of a replay, from tensor shapes and quadratic::macs_per_output:
// projection, FFN and logits gemms run over the bound batch width
// (kMaxBatch rows) every session step; attention terms count each live
// row's attended keys (self: its position + 1; cross: its source
// length), 2·proj_dim MACs per key (score dot + context axpy).
KindProfile profile_of(const ReplayResult& r,
                       const std::vector<GenRequest>& pool, bool proposed) {
  KindProfile p;
  for (const obs::StageTiming& st : r.stages) {
    const std::size_t k = stage_kind(st.name);
    g_gate.check(k < kNumKinds, "unknown decode stage name '" + st.name + "'");
    if (k >= kNumKinds) continue;
    p.calls[k] += st.calls;
    p.ns[k] += st.total_ns;
  }
  const models::TransformerConfig c = model_config(proposed);
  const double steps = static_cast<double>(p.calls[0]);  // embed: 1 per step
  const double R = static_cast<double>(kMaxBatch);
  const double D = static_cast<double>(c.d_model);
  const double P = static_cast<double>(c.proj_dim);
  const double L = static_cast<double>(c.n_layers);
  const double in_d = quadratic::macs_per_output(c.spec, c.d_model);
  const double in_p = quadratic::macs_per_output(c.spec, c.proj_dim);
  p.macs[1] = steps * L * R * (3.0 * P * in_d + D * in_p);
  p.macs[2] = steps * L * R * (P * in_d + D * in_p);
  p.macs[4] = steps * L * R * 2.0 * D * static_cast<double>(c.d_ff);
  p.macs[7] = steps * R * D * static_cast<double>(c.tgt_vocab);
  const double per_key = 2.0 * P * L;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    const double s = static_cast<double>(r.outcomes[i].decode_steps);
    const double sends = static_cast<double>(r.outcomes[i].resolutions);
    p.macs[1] += sends * per_key * s * (s + 1.0) / 2.0;
    p.macs[2] += sends * per_key * s * static_cast<double>(pool[i].ts);
  }
  return p;
}

// ---------------------------------------------------------------------------
// gemm_prepacked on the workload model's shapes.
// ---------------------------------------------------------------------------

// GF/s of C[m, n] = A[m, k] · B over the given gemm list (one "call" runs
// every gemm of the list once), repeated for `seconds`.
double gemm_gflops(const std::vector<std::array<index_t, 3>>& shapes,
                   double seconds, Rng& rng) {
  struct Op {
    index_t m, n, k;
    std::vector<float> a, c;
    linalg::PackedWeights b;
  };
  std::vector<Op> ops;
  double macs = 0.0;
  for (const auto& s : shapes) {
    Op op{s[0], s[1], s[2], {}, {}, {}};
    op.a.resize(static_cast<std::size_t>(op.m * op.k));
    for (float& x : op.a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> w(static_cast<std::size_t>(op.n * op.k));
    for (float& x : w) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    op.b.pack(/*trans=*/true, op.k, op.n, w.data(), op.k);
    op.c.assign(static_cast<std::size_t>(op.m * op.n), 0.0f);
    macs += static_cast<double>(op.m * op.n * op.k);
    ops.push_back(std::move(op));
  }
  long long calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (int rep = 0; rep < 64; ++rep, ++calls)
      for (Op& op : ops)
        linalg::gemm_prepacked(false, op.m, op.n, op.k, 1.0f, op.a.data(),
                               op.k, op.b, 0.0f, op.c.data(), op.n);
    elapsed = seconds_since(t0);
  } while (elapsed < seconds);
  return 2.0 * macs * static_cast<double>(calls) / elapsed * 1e-9;
}

// The projection gemms of one attention input at `rows` rows: the
// proposed neuron runs W [units] and Q [units·k] gemms, the linear one a
// single [proj_dim] gemm.
std::vector<std::array<index_t, 3>> projection_gemms(bool proposed,
                                                     index_t rows) {
  const models::TransformerConfig c = model_config(proposed);
  if (!proposed) return {{rows, c.proj_dim, c.d_model}};
  const index_t units = c.proj_dim / (c.spec.rank + 1);
  return {{rows, units, c.d_model}, {rows, units * c.spec.rank, c.d_model}};
}

// ---------------------------------------------------------------------------
// Cross-run checks
// ---------------------------------------------------------------------------

// Requests sharing a source must agree: the shorter budget's output is a
// prefix of the longer's (and both equal when neither ran out).
void check_shared_sources(const std::vector<GenRequest>& gen,
                          const std::vector<Outcome>& out,
                          const char* phase) {
  std::map<index_t, std::size_t> longest;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (gen[i].prompt < 0 || !out[i].ok()) continue;
    auto it = longest.find(gen[i].prompt);
    if (it == longest.end() ||
        out[i].tokens.size() > out[it->second].tokens.size())
      longest[gen[i].prompt] = i;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (gen[i].prompt < 0 || !out[i].ok()) continue;
    const std::vector<index_t>& a = out[i].tokens;
    const std::vector<index_t>& b = out[longest[gen[i].prompt]].tokens;
    g_gate.check(std::equal(a.begin(), a.end(), b.begin()),
                 std::string(phase) + ": requests sharing prompt " +
                     std::to_string(gen[i].prompt) + " disagree");
  }
}

// Per-request tokens of two runs over the same requests must match.
void check_same_tokens(const std::vector<Outcome>& a,
                       const std::vector<Outcome>& b, const char* what) {
  const std::size_t n = std::min(a.size(), b.size());
  index_t compared = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!a[i].ok() || !b[i].ok()) continue;
    ++compared;
    g_gate.check(a[i].tokens == b[i].tokens,
                 std::string(what) + ": request " + std::to_string(i) +
                     " tokens differ");
  }
  g_gate.check(compared > 0, std::string(what) + ": nothing to compare");
  std::printf("check %-30s %lld requests identical\n", what,
              static_cast<long long>(compared));
}

// A seed-chosen sample of completed requests against the O(T²) oracle,
// computed after timing on a fresh identically seeded model.
void check_reference(const Workload& w, const std::vector<GenRequest>& gen,
                     const std::vector<Outcome>& out, Rng& rng,
                     index_t samples, const char* phase) {
  models::Transformer oracle(model_config(w.proposed));
  oracle.set_training(false);
  std::vector<std::size_t> completed;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i].ok()) completed.push_back(i);
  index_t checked = 0;
  for (index_t s = 0; s < samples && !completed.empty(); ++s) {
    const std::size_t i = completed[static_cast<std::size_t>(
        rng.uniform_int(static_cast<index_t>(completed.size())))];
    const std::vector<index_t> ref = oracle.greedy_decode_reference(
        gen[i].src, {}, kBos, kEos, gen[i].budget)[0];
    ++checked;
    g_gate.check(ref == out[i].tokens,
                 std::string(phase) + ": request " + std::to_string(i) +
                     " differs from greedy_decode_reference");
  }
  g_gate.check(checked > 0, std::string(phase) + ": no reference sample");
  std::printf("check %-30s %lld sampled requests match the reference\n",
              phase, static_cast<long long>(checked));
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(const std::vector<Metric>& metrics, index_t attempted,
                  index_t failed) {
  for (const Metric& m : metrics)
    g_gate.check(std::isfinite(m.value), m.name + " is not finite");
  std::string s = "{\"correct\": ";
  s += g_gate.ok ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    s += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
         buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload")
      a.workload = val;
    else if (key == "--seed")
      a.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds")
      a.seconds = std::atof(val);
    else if (key == "--trace")
      a.trace = std::atoi(val);
    else
      throw std::runtime_error("unknown argument " + key);
  }
  if (argc % 2 != 1) throw std::runtime_error("arguments come in pairs");
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::runtime_error("unknown workload '" + name +
                           "' (chat | rag | chat_linear)");
}

void print_burst(const Workload& w, const BurstResult& b) {
  std::printf("burst      depth %lld, %.2f s after warm-up: %.0f tok/s "
              "(windows: min %.0f median %.0f max %.0f)\n",
              static_cast<long long>(burst_depth(w)), b.seconds,
              b.tokens_per_s(),
              *std::min_element(b.window_tok_s.begin(), b.window_tok_s.end()),
              median(b.window_tok_s),
              *std::max_element(b.window_tok_s.begin(), b.window_tok_s.end()));
}

void print_latency(const Latency& l) {
  std::printf(
      "open loop  ttft p50 %.4f ms  p99 %.4f ms  (%zu samples)\n"
      "           gap  p50 %.4f ms  p99 %.4f ms  (%zu samples)\n"
      "           slo  %lld of %lld requests met\n",
      quantile(l.ttft_ms, 0.5), quantile(l.ttft_ms, 0.99), l.ttft_ms.size(),
      quantile(l.gap_ms, 0.5), quantile(l.gap_ms, 0.99), l.gap_ms.size(),
      static_cast<long long>(l.met), static_cast<long long>(l.measured));
}

// --trace 0: the end-to-end metrics.
int run_end_to_end(const Workload& w, const Args& a) {
  const double burst_s = 0.4 * a.seconds, open_s = 0.6 * a.seconds;
  const double warmup_s = std::min(1.0, 0.15 * open_s);
  TrafficGen gen(w, a.seed);
  const std::vector<GenRequest> burst_gen = gen.batch(kBurstPool);
  const std::vector<GenRequest> sched = gen.schedule(w.rate_rps, open_s);
  Rng check_rng(a.seed * 7919u + 13u);

  std::vector<double> setup_s;
  measure_setup(w, setup_s);
  const BurstResult burst = run_burst(w, burst_gen, burst_s, "burst");
  measure_setup(w, setup_s);
  const OpenResult open = run_open_loop(w, sched, false, "open_loop");
  measure_setup(w, setup_s);
  const double rss = peak_rss_mb();

  // Correctness, after timing.
  check_shared_sources(burst_gen, burst.outcomes, "burst");
  check_shared_sources(sched, open.outcomes, "open_loop");
  check_reference(w, burst_gen, burst.outcomes, check_rng,
                  kReferenceSamples / 2, "burst vs reference");
  check_reference(w, sched, open.outcomes, check_rng, kReferenceSamples / 2,
                  "open loop vs reference");
  {
    const std::vector<GenRequest> head(
        burst_gen.begin(),
        burst_gen.begin() + std::min<std::size_t>(burst_gen.size(), 64));
    const ReplayResult traced =
        run_replay(w, w.proposed, head, 0.0, /*traced=*/true);
    check_same_tokens(burst.outcomes, traced.outcomes,
                      "burst vs traced replay");
  }

  print_counts("burst", burst.counts);
  print_counts("open_loop", open.counts);
  const Latency lat = latency_of(w, sched, open, warmup_s);
  print_burst(w, burst);
  std::printf("open loop  %.0f req/s offered for %.2f s, warm-up %.2f s "
              "excluded; slo ttft <= %.2f ms, every gap <= %.2f ms\n",
              w.rate_rps, open_s, warmup_s, w.slo_ttft_ms, w.slo_gap_ms);
  print_latency(lat);

  Counts total = burst.counts;
  total.add(open.counts);
  const std::vector<Metric> metrics = {
      {"setup_s", "s", median(setup_s)},
      {"tokens_per_s", "tok/s", burst.tokens_per_s()},
      {"ttft_p50_ms", "ms", quantile(lat.ttft_ms, 0.5)},
      {"itl_p50_ms", "ms", quantile(lat.gap_ms, 0.5)},
      {"slo_attainment", "frac",
       lat.measured > 0 ? static_cast<double>(lat.met) /
                              static_cast<double>(lat.measured)
                        : 0.0},
      {"success_frac", "frac",
       static_cast<double>(total.succeeded) / static_cast<double>(total.sent)},
      {"peak_rss_mb", "MB", rss},
  };
  print_result(metrics, total.sent, total.failed);
  return g_gate.ok ? 0 : 1;
}

void print_stage_table(const KindProfile& p, const char* spec) {
  std::printf("decode stages (%s; GF/s = 2*MACs/time, MACs from tensor "
              "shapes and quadratic::macs_per_output)\n",
              spec);
  std::printf("  %-13s %9s %10s %9s\n", "kind", "calls", "us/call", "GF/s");
  for (std::size_t k = 0; k < kNumKinds; ++k)
    std::printf("  %-13s %9lld %10.3f %9.3f\n", kStageKinds[k], p.calls[k],
                p.us_per_call(k), p.gflops(k));
}

// The paper's cost claim on the serving path: per-stage time of the
// proposed neuron vs the linear baseline on the same requests, next to
// the complexity model's MAC ratio.  Report output only.
void print_paper_table(const KindProfile& quad, const KindProfile& lin) {
  std::printf("paper claim: proposed(k=3, proj 24) vs linear (proj 48), same "
              "requests\n");
  std::printf("  %-13s %12s %12s %14s %10s\n", "kind", "quad us/call",
              "lin us/call", "measured ratio", "MAC ratio");
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    const double ratio = lin.us_per_call(k) > 0.0
                             ? quad.us_per_call(k) / lin.us_per_call(k)
                             : 0.0;
    char mac[32] = "-";
    if (quad.macs[k] > 0.0 && lin.macs[k] > 0.0)
      std::snprintf(mac, sizeof(mac), "%.3f",
                    quad.macs_per_call(k) / lin.macs_per_call(k));
    std::printf("  %-13s %12.3f %12.3f %14.3f %10s\n", kStageKinds[k],
                quad.us_per_call(k), lin.us_per_call(k), ratio, mac);
  }
}

// --trace 1: the per-layer metrics.
int run_per_layer(const Workload& w, const Args& a) {
  const double s = a.seconds;
  const double burst_s = 0.15 * s, open_s = 0.3 * s, replay_s = 0.2 * s,
               partner_s = 0.1 * s, gemm_s = 0.05 * s;
  const double warmup_s = std::min(1.0, 0.15 * open_s);
  TrafficGen gen(w, a.seed);
  const std::vector<GenRequest> burst_gen = gen.batch(kBurstPool);
  const std::vector<GenRequest> sched = gen.schedule(w.rate_rps, open_s);
  Rng check_rng(a.seed * 7919u + 13u);
  Rng gemm_rng(a.seed * 104729u + 7u);

  obs::set_trace_enabled(false);
  const BurstResult plain = run_burst(w, burst_gen, burst_s, "burst");
  obs::set_trace_enabled(true);
  const BurstResult traced =
      run_burst(w, burst_gen, burst_s, "burst_traced");
  const OpenResult open = run_open_loop(w, sched, true, "open_loop_traced");
  obs::set_trace_enabled(false);
  const ReplayResult replay =
      run_replay(w, w.proposed, burst_gen, replay_s, true);

  const models::TransformerConfig mc = model_config(w.proposed);
  const index_t prefill_rows = (w.prompt_lo + w.prompt_hi) / 2;
  const double g_decode =
      gemm_gflops(projection_gemms(w.proposed, kMaxBatch), gemm_s / 3, gemm_rng);
  const double g_prefill = gemm_gflops(
      projection_gemms(w.proposed, prefill_rows), gemm_s / 3, gemm_rng);
  const double g_logits = gemm_gflops({{kMaxBatch, mc.tgt_vocab, mc.d_model}},
                                      gemm_s / 3, gemm_rng);

  // Correctness, after timing.
  check_same_tokens(plain.outcomes, traced.outcomes,
                    "burst untraced vs traced");
  check_same_tokens(plain.outcomes, replay.outcomes,
                    "burst vs scheduler replay");
  check_shared_sources(burst_gen, traced.outcomes, "burst_traced");
  check_shared_sources(sched, open.outcomes, "open_loop_traced");
  check_reference(w, burst_gen, traced.outcomes, check_rng,
                  kReferenceSamples / 2, "burst vs reference");
  check_reference(w, sched, open.outcomes, check_rng, kReferenceSamples / 2,
                  "open loop vs reference");

  print_counts("burst", plain.counts);
  print_counts("burst_traced", traced.counts);
  print_counts("open_loop_traced", open.counts);
  print_burst(w, plain);
  print_burst(w, traced);
  std::printf("gemm heap_pack_calls / threaded_dispatches per phase "
              "(set-up | timed):\n");
  const std::pair<const char*, std::array<GemmCounters, 2>> phases[] = {
      {"burst", {plain.setup_gemm, plain.steady_gemm}},
      {"burst_traced", {traced.setup_gemm, traced.steady_gemm}},
      {"open_loop_traced", {open.setup_gemm, open.steady_gemm}}};
  for (const auto& [name, g] : phases)
    std::printf("  %-18s %lld / %lld | %lld / %lld\n", name, g[0].heap_pack,
                g[0].threaded, g[1].heap_pack, g[1].threaded);

  // Open-loop layers (requests due after the warm-up window).
  std::vector<double> lag, submit, queue_ms, prefill_ms;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (sched[i].due_s < warmup_s) continue;
    lag.push_back(open.lag_ms[i]);
    submit.push_back(open.submit_us[i]);
    const serve::RequestPhases& ph = open.outcomes[i].phases;
    if (ph.decode_ns > 0) queue_ms.push_back(static_cast<double>(ph.queue_ns) * 1e-6);
    if (ph.prefill_ns > 0)
      prefill_ms.push_back(static_cast<double>(ph.prefill_ns) * 1e-6);
  }
  const Latency lat = latency_of(w, sched, open, warmup_s);
  print_latency(lat);
  std::printf("submit spans %zu, queue samples %zu, prefill samples %zu\n",
              submit.size(), queue_ms.size(), prefill_ms.size());

  double occ_lo = 1e300, occ_hi = 0.0;
  for (const serve::SchedulerStats& ps : traced.stats.per_shard) {
    occ_lo = std::min(occ_lo, ps.mean_occupancy);
    occ_hi = std::max(occ_hi, ps.mean_occupancy);
  }
  const serve::SchedulerStats& kv = open.stats.totals;
  const double lookups = static_cast<double>(kv.prefix_hits + kv.prefix_misses);

  const KindProfile prof = profile_of(replay, burst_gen, w.proposed);
  print_stage_table(prof, mc.spec.kind_name().c_str());
  long long replayed = 0;
  for (const Outcome& o : replay.outcomes) replayed += o.resolutions;
  std::printf("replay: %lld requests, %zu steps, step p50 %.3f us\n",
              replayed, replay.step_us.size(), median(replay.step_us));
  if (w.prefill_workers == 0) {
    // chat / chat_linear: the other neuron spec on the same requests.
    const ReplayResult partner =
        run_replay(w, !w.proposed, burst_gen, partner_s, true);
    const KindProfile pp = profile_of(partner, burst_gen, !w.proposed);
    if (w.proposed)
      print_paper_table(prof, pp);
    else
      print_paper_table(pp, prof);
  }

  // Sources: client.*, server.submit_*, scheduler.queue_*, prefill.* and
  // kv.* come from the traced open loop; occupancy and tick times from
  // the traced burst; scheduler.step_us_p50 and decode.* from the replay.
  std::vector<Metric> m = {
      {"client.ttft_p99_ms", "ms", quantile(lat.ttft_ms, 0.99)},
      {"client.itl_p99_ms", "ms", quantile(lat.gap_ms, 0.99)},
      {"client.send_lag_p99_ms", "ms", quantile(lag, 0.99)},
      {"server.submit_us_p50", "us", quantile(submit, 0.5)},
      {"server.submit_us_p99", "us", quantile(submit, 0.99)},
      {"server.shard_occupancy_spread", "rows", occ_hi - occ_lo},
      {"scheduler.occupancy", "rows", traced.stats.totals.mean_occupancy},
      {"scheduler.tick_ms_mean", "ms", traced.stats.totals.tick_mean_ms},
      {"scheduler.tick_ms_p99", "ms", traced.stats.totals.tick_p99_ms},
      {"scheduler.queue_ms_p50", "ms", quantile(queue_ms, 0.5)},
      {"scheduler.queue_ms_p99", "ms", quantile(queue_ms, 0.99)},
      {"scheduler.step_us_p50", "us", median(replay.step_us)},
      {"prefill.ms_p50", "ms", quantile(prefill_ms, 0.5)},
      {"prefill.ms_p99", "ms", quantile(prefill_ms, 0.99)},
      {"prefill.count", "count", static_cast<double>(prefill_ms.size())},
      {"kv.prefix_hit_rate", "frac",
       lookups > 0 ? static_cast<double>(kv.prefix_hits) / lookups : 0.0},
      {"kv.prefix_insertions", "count",
       static_cast<double>(kv.prefix_insertions)},
      {"kv.prefix_evictions", "count",
       static_cast<double>(kv.prefix_evictions)},
      {"kv.preemptions", "count", static_cast<double>(kv.preemptions)},
      {"kv.pages_used_peak_frac", "frac", open.pages_peak_frac},
  };
  for (std::size_t k = 0; k < kNumKinds; ++k)
    m.push_back({std::string("decode.") + kStageKinds[k] + ".us_per_call",
                 "us", prof.us_per_call(k)});
  for (std::size_t k : {1, 2, 4, 7})
    m.push_back({std::string("decode.") + kStageKinds[k] + ".gflops",
                 "GFLOP/s", prof.gflops(k)});
  // Steady state only: the traced phases' timed windows, set-up excluded.
  const GemmCounters steady{
      traced.steady_gemm.heap_pack + open.steady_gemm.heap_pack,
      traced.steady_gemm.threaded + open.steady_gemm.threaded};
  m.push_back({"gemm.decode_proj.gflops", "GFLOP/s", g_decode});
  m.push_back({"gemm.prefill_proj.gflops", "GFLOP/s", g_prefill});
  m.push_back({"gemm.logits.gflops", "GFLOP/s", g_logits});
  m.push_back({"gemm.heap_pack_calls", "count",
               static_cast<double>(steady.heap_pack)});
  m.push_back({"gemm.threaded_dispatches", "count",
               static_cast<double>(steady.threaded)});
  m.push_back({"obs.trace_overhead", "ratio",
               plain.tokens_per_s() / traced.tokens_per_s()});

  Counts total = plain.counts;
  total.add(traced.counts);
  total.add(open.counts);
  print_result(m, total.sent, total.failed);
  return g_gate.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const Workload& w = find_workload(a.workload);
    obs::set_trace_enabled(false);
    obs::set_trace_sample(1);
    std::printf("servebench workload %s seed %llu seconds %.3g trace %d "
                "(gemm backend %s, %u hardware threads)\n",
                w.name, static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace,
                linalg::gemm_backend_name(linalg::active_gemm_backend()),
                std::thread::hardware_concurrency());
    return a.trace != 0 ? run_per_layer(w, a) : run_end_to_end(w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
