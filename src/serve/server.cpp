#include "serve/server.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <future>
#include <iterator>
#include <string>

namespace qdnn::serve {

namespace {

// Cheap divergence guard: FNV-1a 64 over every parameter's float bits,
// folded to 52 bits so a double-valued Gauge holds it exactly (doubles
// represent integers up to 2^53 losslessly).  Order-sensitive — the
// replicas' parameters() traversals are structural, so identically-built
// replicas hash identically and any drifted weight changes the value.
double weight_checksum_of(models::Transformer& model) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const nn::Parameter* p : model.parameters()) {
    const float* data = p->value.data();
    const index_t n = p->value.numel();
    for (index_t i = 0; i < n; ++i) {
      std::uint32_t bits;
      std::memcpy(&bits, &data[i], sizeof(bits));
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 1099511628211ULL;  // FNV prime
      }
    }
  }
  return static_cast<double>(h & ((1ULL << 52) - 1));
}

}  // namespace

Server::Server(const std::vector<models::Transformer*>& models,
               ServerConfig config) {
  const auto n = static_cast<index_t>(models.size());
  QDNN_CHECK(n >= 1, "Server: models must be non-empty (one replica per "
                     "shard)");
  QDNN_CHECK(config.shards == 0 || config.shards == n,
             "Server: config.shards " << config.shards
                                      << " must equal models.size() " << n
                                      << " (or 0 to derive)");
  for (index_t i = 0; i < n; ++i) {
    QDNN_CHECK(models[static_cast<std::size_t>(i)] != nullptr,
               "Server: models[" << i << "] is null");
    for (index_t j = 0; j < i; ++j)
      QDNN_CHECK(models[static_cast<std::size_t>(i)] !=
                     models[static_cast<std::size_t>(j)],
                 "Server: models[" << i << "] and models[" << j
                                   << "] are the same object — each shard "
                                      "binds its own replica exclusively");
  }
  // Shard-invariance rests on the replicas being identical; catch the
  // cheap-to-catch divergence (architecture or init seed) at the edge
  // with a field-named error.  Weight drift after construction (training
  // one replica and not the others) is on the caller.
  const models::TransformerConfig& base = models[0]->config();
  for (index_t i = 1; i < n; ++i) {
    const models::TransformerConfig& c =
        models[static_cast<std::size_t>(i)]->config();
#define QDNN_SERVE_SAME(field)                                         \
  QDNN_CHECK(c.field == base.field,                                    \
             "Server: models[" << i << "]." #field " (" << c.field     \
                               << ") differs from models[0] ("         \
                               << base.field                           \
                               << ") — shards must serve identical "   \
                                  "replicas")
    QDNN_SERVE_SAME(src_vocab);
    QDNN_SERVE_SAME(tgt_vocab);
    QDNN_SERVE_SAME(d_model);
    QDNN_SERVE_SAME(n_heads);
    QDNN_SERVE_SAME(n_layers);
    QDNN_SERVE_SAME(d_ff);
    QDNN_SERVE_SAME(proj_dim);
    QDNN_SERVE_SAME(max_len);
    QDNN_SERVE_SAME(seed);
#undef QDNN_SERVE_SAME
  }

  // The config check above cannot see post-construction weight drift
  // (training one replica and not the others): checksum every replica's
  // weights, reject divergence at the edge, and export the values as
  // gauges so drift stays visible in snapshots.
  weight_checksums_.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const double sum =
        weight_checksum_of(*models[static_cast<std::size_t>(i)]);
    QDNN_CHECK(weight_checksums_.empty() || sum == weight_checksums_[0],
               "Server: models[" << i << "] weight checksum (" << sum
                                 << ") differs from models[0] ("
                                 << weight_checksums_[0]
                                 << ") — shards must serve identical "
                                    "replica weights");
    weight_checksums_.push_back(sum);
    registry_
        .gauge("server.shard" + std::to_string(i) + ".weight_checksum")
        .set(sum);
  }

  // Bind every shard's scheduler before starting any worker, so a
  // construction failure (bind exclusivity, ring geometry) never leaves
  // threads running over half-built state.  Every shard records into the
  // server's registry under its own prefix, so one snapshot sees the
  // whole fleet.
  shards_.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    BatchSchedulerConfig shard_config = config.shard;
    shard_config.registry = &registry_;
    shard_config.metrics_prefix = "shard" + std::to_string(i);
    // Installed before the scheduler builds its prefill pool, so it is
    // in place before any pool thread starts.
    shard_config.on_prefill_finished = [s = shard.get()] {
      {
        std::lock_guard<std::mutex> lk(s->mu);
        s->prefill_landed = true;
      }
      s->cv.notify_one();
    };
    shard->scheduler = std::make_unique<BatchScheduler>(
        *models[static_cast<std::size_t>(i)], shard_config);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_)
    shard->worker = std::thread([this, s = shard.get()] { shard_loop(*s); });
}

Server::~Server() {
  for (auto& shard : shards_) post(*shard, nullptr);  // stops the worker
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

void Server::post(Shard& shard, Command command) {
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    shard.inbox.push_back(std::move(command));
  }
  shard.cv.notify_one();
}

void Server::call(Shard& shard, const Command& command) {
  std::promise<void> done;
  std::future<void> reply = done.get_future();
  post(shard, [&](BatchScheduler& scheduler) {
    try {
      command(scheduler);
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  reply.get();
}

void Server::shard_loop(Shard& shard) {
  BatchScheduler& scheduler = *shard.scheduler;
  std::vector<Command> commands;
  bool stalled = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(shard.mu);
      const auto posted = [&] { return !shard.inbox.empty(); };
      if (stalled) {
        // Only prefill compute is outstanding: sleep until a command is
        // posted or a pool worker lands a prefill (prefill_landed), with
        // no timer.  Deadlines count ticks, so a stalled shard's clock
        // stands still until there is work — as in BatchScheduler::run().
        shard.cv.wait(lk, [&] { return posted() || shard.prefill_landed; });
      } else {
        shard.cv.wait(lk, [&] { return posted() || !scheduler.idle(); });
      }
      shard.prefill_landed = false;
      commands.swap(shard.inbox);
    }
    for (Command& command : commands) {
      if (!command) return;  // posted by the destructor
      command(scheduler);
    }
    commands.clear();
    const index_t stepped = scheduler.idle() ? 0 : scheduler.step();
    stalled = stepped == 0 && scheduler.awaiting_prefill();

    if (scheduler.results_ready() == 0) continue;
    std::vector<RequestResult> results = scheduler.take_results();
    const auto n = static_cast<index_t>(results.size());
    {
      std::lock_guard<std::mutex> lk(shard.mu);
      shard.mailbox.insert(shard.mailbox.end(),
                           std::make_move_iterator(results.begin()),
                           std::make_move_iterator(results.end()));
    }
    shard.outstanding.fetch_sub(n);
    if (unresolved_.fetch_sub(n) == n) {
      // The one transition wait_idle() waits for.  Taking idle_mu_ orders
      // this notify after a waiter's predicate check.
      { std::lock_guard<std::mutex> lk(idle_mu_); }
      idle_cv_.notify_all();
    }
  }
}

index_t Server::submit(Request request) {
  QDNN_CHECK(request.id == -1,
             "Server: request.id must be left at -1 — the Server assigns "
             "globally unique ids (got "
                 << request.id << ")");
  // Every shard's bounds are identical, and validate() reads only
  // construction-time state, so any shard can check on this thread.
  shards_[0]->scheduler->validate(request);
  // Join-shortest-queue: fewest unresolved requests wins, ties to the
  // lowest shard.  Reads are atomic, so a busy shard never blocks routing.
  index_t best = 0;
  index_t best_load = shards_[0]->outstanding.load();
  for (index_t i = 1; i < shards(); ++i) {
    const index_t load =
        shards_[static_cast<std::size_t>(i)]->outstanding.load();
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  Shard& shard = *shards_[static_cast<std::size_t>(best)];
  const index_t id = next_seq_.fetch_add(1) * shards() + best;
  request.id = id;
  shard.outstanding.fetch_add(1);
  unresolved_.fetch_add(1);
  post(shard, [r = std::move(request)](BatchScheduler& scheduler) mutable {
    scheduler.submit(std::move(r));
  });
  return id;
}

bool Server::cancel(index_t id) {
  if (id < 0) return false;
  bool hit = false;
  call(*shards_[static_cast<std::size_t>(id % shards())],
       [&](BatchScheduler& scheduler) { hit = scheduler.cancel(id); });
  return hit;
}

std::vector<RequestResult> Server::take_results() {
  std::vector<RequestResult> out;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    out.insert(out.end(), std::make_move_iterator(shard->mailbox.begin()),
               std::make_move_iterator(shard->mailbox.end()));
    shard->mailbox.clear();
  }
  return out;
}

void Server::wait_idle() {
  std::unique_lock<std::mutex> lk(idle_mu_);
  idle_cv_.wait(lk, [&] { return unresolved_.load() == 0; });
}

SchedulerStats Server::shard_stats(index_t shard) const {
  QDNN_CHECK(shard >= 0 && shard < shards(),
             "Server: shard " << shard << " outside [0, " << shards()
                              << ")");
  SchedulerStats out;
  call(*shards_[static_cast<std::size_t>(shard)],
       [&](BatchScheduler& scheduler) { out = scheduler.stats(); });
  return out;
}

double Server::weight_checksum(index_t shard) const {
  QDNN_CHECK(shard >= 0 && shard < shards(),
             "Server: shard " << shard << " outside [0, " << shards()
                              << ")");
  return weight_checksums_[static_cast<std::size_t>(shard)];
}

ServerStats Server::stats() const {
  ServerStats s;
  s.per_shard.reserve(shards_.size());
  double occupancy_weighted = 0.0;
  for (index_t i = 0; i < shards(); ++i) s.per_shard.push_back(shard_stats(i));
  double tick_ms_weighted = 0.0;
  for (const SchedulerStats& ps : s.per_shard) {
    s.totals.ticks += ps.ticks;
    s.totals.stepped_ticks += ps.stepped_ticks;
    s.totals.total_tokens += ps.total_tokens;
    // KV-paging counters sum across shards (each shard owns its own pool).
    s.totals.prefix_hits += ps.prefix_hits;
    s.totals.prefix_misses += ps.prefix_misses;
    s.totals.prefix_insertions += ps.prefix_insertions;
    s.totals.prefix_evictions += ps.prefix_evictions;
    s.totals.preemptions += ps.preemptions;
    s.totals.free_pages += ps.free_pages;
    s.totals.total_pages += ps.total_pages;
    occupancy_weighted +=
        ps.mean_occupancy * static_cast<double>(ps.stepped_ticks);
    // Latency/tick percentiles roll up as worst-shard (the conservative
    // tail — per-shard tick clocks advance independently); the tick-time
    // mean is stepped-tick weighted like occupancy.
    s.totals.latency_samples += ps.latency_samples;
    s.totals.latency_p50 = std::max(s.totals.latency_p50, ps.latency_p50);
    s.totals.latency_p99 = std::max(s.totals.latency_p99, ps.latency_p99);
    s.totals.tick_samples += ps.tick_samples;
    tick_ms_weighted +=
        ps.tick_mean_ms * static_cast<double>(ps.stepped_ticks);
    s.totals.tick_p99_ms = std::max(s.totals.tick_p99_ms, ps.tick_p99_ms);
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(kPriorityClasses); ++c) {
      SchedulerClassStats& tot = s.totals.per_class[c];
      const SchedulerClassStats& cls = ps.per_class[c];
      tot.submitted += cls.submitted;
      tot.completed += cls.completed;
      tot.cancelled += cls.cancelled;
      tot.expired += cls.expired;
      tot.shed += cls.shed;
      tot.errored += cls.errored;
      tot.queue_wait_samples += cls.queue_wait_samples;
      tot.ttft_samples += cls.ttft_samples;
      tot.queue_wait_p50 = std::max(tot.queue_wait_p50, cls.queue_wait_p50);
      tot.queue_wait_p99 = std::max(tot.queue_wait_p99, cls.queue_wait_p99);
      tot.ttft_p50 = std::max(tot.ttft_p50, cls.ttft_p50);
      tot.ttft_p99 = std::max(tot.ttft_p99, cls.ttft_p99);
    }
  }
  s.totals.mean_occupancy =
      s.totals.stepped_ticks > 0
          ? occupancy_weighted /
                static_cast<double>(s.totals.stepped_ticks)
          : 0.0;
  s.totals.tick_mean_ms =
      s.totals.stepped_ticks > 0
          ? tick_ms_weighted / static_cast<double>(s.totals.stepped_ticks)
          : 0.0;
  return s;
}

}  // namespace qdnn::serve
