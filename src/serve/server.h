// Server: the multi-tenant serving front end — N BatchScheduler shards,
// each pumped by its own worker thread, behind one thread-safe
// submit/cancel/drain surface.
//
// A single BatchScheduler is single-threaded by contract: one thread
// pumps step() and drains take_results().  That caps the whole serving
// layer at one core.  The Server turns it into a scale-out front end a
// multi-tenant service can sit behind:
//
//   * sharding — each shard owns one BatchScheduler bound to its OWN
//     model replica (DecodeSession binds a Transformer exclusively, and
//     replicas share no mutable state), pumped by a dedicated worker
//     thread.  Shards never touch each other, so aggregate tokens/sec
//     can scale with shards on a multi-core machine.
//   * routing — submit() join-shortest-queues: the request goes to the
//     shard with the fewest unresolved requests (atomic counters, no
//     locks on the read).  Ids are globally unique and encode the shard
//     (id mod shards), so cancel() routes without a lookup table.
//   * per-request behaviors — streaming callbacks, cancellation,
//     deadlines, priority classes with aging, and bounded-queue load
//     shedding all ride the per-shard scheduler (serve/scheduler.h);
//     the Server only adds routing and thread safety on top.
//
// Determinism: a request's tokens depend only on its own source,
// sampling seed and the model weights — never on the shard it lands on,
// the batch around it, or cancellation activity elsewhere (the per-row
// masked-attention contract).  Handing the Server N replicas built
// identically (same config, same init seed, same training history)
// therefore makes every non-cancelled request bit-identical to a
// 1-shard — or solo — decode; the constructor validates the replica
// configs field-by-field.
//
// Thread-safety contract: submit / cancel / take_results / stats /
// wait_idle are safe from any thread, concurrently with each other and
// with the shard workers.  Only a shard's worker touches its scheduler:
// each iteration it swaps out the shard's command inbox, applies the
// commands in push order, steps, and moves retired results into the
// shard's mailbox.  While the only outstanding work is prefill compute
// (BatchScheduler::awaiting_prefill), the worker sleeps until a command
// is posted or a prefill-pool worker signals a finished prefill — no
// polling timer, so a stalled shard's tick clock (and with it every
// tick-denominated deadline) stands still.  One short mutex guards inbox,
// mailbox and that signal; no lock is held during a tick, so submit and
// take_results never wait out a busy shard, while cancel, stats and
// shard_stats wait for the worker to apply them (at most one tick).  A
// load-shed resolves on the worker's next pass.  Every submitted id
// resolves into exactly one result (fuzzed multi-threaded in
// tests/serve/server_test.cpp).  on_token callbacks run on the worker
// with no lock held; they must be fast and must not call cancel, stats
// or shard_stats, which wait on that worker.
// Destroying the Server stops the workers promptly; drain results (and
// wait_idle()) first if you need every outstanding request resolved.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/scheduler.h"

namespace qdnn::serve {

struct ServerConfig {
  // Per-shard scheduler configuration (ring geometry, admission mode,
  // priorities, max_queue backpressure — all applied per shard).
  BatchSchedulerConfig shard;
  // Number of shards; 0 (default) = one per model replica handed to the
  // constructor.  When nonzero it must equal models.size().
  index_t shards = 0;
};

// Per-shard scheduler snapshots plus a cross-shard roll-up: counters and
// sample counts are summed, mean_occupancy and tick_mean_ms are
// stepped-tick weighted, and every percentile field (queue wait, TTFT,
// latency, tick p99) reports the WORST shard — a conservative tail;
// per-shard tick clocks advance independently, so mixing their samples
// would be meaningless.
struct ServerStats {
  std::vector<SchedulerStats> per_shard;
  SchedulerStats totals;
};

class Server {
 public:
  // Takes one Transformer replica per shard (identically constructed —
  // validated field-by-field against models[0]) and starts one worker
  // thread per shard.  The models must outlive the Server.
  Server(const std::vector<models::Transformer*>& models,
         ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Routes the request to the shard with the fewest unresolved requests
  // and pushes it onto that shard's inbox; never waits on a tick.
  // Returns a globally unique id (the shard index is id mod shards()).
  // Thread-safe; a malformed request throws here, on the caller's
  // thread, with nothing submitted.  Request::id must be left at -1 —
  // the Server owns id assignment.  A load-shed (shard max_queue full)
  // resolves the id with a kShed result on the worker's next pass.
  index_t submit(Request request);

  // Cancels the in-flight request `id` on its shard (see
  // BatchScheduler::cancel), waiting for its worker to apply it.  Returns
  // false when the id is unknown or already resolved.  Thread-safe.
  bool cancel(index_t id);

  // Moves out every result resolved since the last call, across all
  // shards.  Thread-safe; never waits on a tick.
  std::vector<RequestResult> take_results();

  // Blocks until every submitted request has resolved into a mailbox (or
  // been taken).  Pair with take_results() to collect them.
  void wait_idle();

  // Submitted and not yet resolved into a mailbox.
  index_t pending() const { return unresolved_.load(); }
  index_t shards() const { return static_cast<index_t>(shards_.size()); }
  ServerStats stats() const;

  // One shard's scheduler snapshot (not the worst-shard roll-up) —
  // instruments registered under "shard<i>." in metrics().  Thread-safe;
  // waits at most one tick on the shard's worker.
  SchedulerStats shard_stats(index_t shard) const;

  // The server-owned registry every shard records into: per-shard
  // scheduler instruments ("shard<i>.*") plus the per-replica weight
  // checksums ("server.shard<i>.weight_checksum").  snapshot() and the
  // exporters are safe from any thread, concurrently with the workers.
  const obs::MetricsRegistry& metrics() const { return registry_; }

  // The replica weight checksum computed for `shard` at construction
  // (FNV-1a over every parameter's float bits, folded to 52 bits so the
  // gauge holds it exactly).  Equal across shards by construction — the
  // constructor rejects diverged replicas; re-exported as a gauge so
  // post-construction drift is visible in snapshots after a hot-swap.
  double weight_checksum(index_t shard) const;

 private:
  // Work for a shard's worker, applied to its scheduler in push order at
  // the top of the worker's next iteration.  An empty Command stops it.
  using Command = std::function<void(BatchScheduler&)>;

  struct Shard {
    // guards inbox + mailbox + prefill_landed; never held during a tick
    std::mutex mu;
    // signals a non-empty inbox or a landed prefill
    std::condition_variable cv;
    std::vector<Command> inbox;
    std::vector<RequestResult> mailbox;
    // Set by the scheduler's prefill-pool workers as each prefill
    // finishes; the worker sleeps on it while only prefill compute is
    // outstanding.
    bool prefill_landed = false;
    std::atomic<index_t> outstanding{0};  // JSQ load, lock-free reads
    // Declared after mu/cv so it is destroyed first: its prefill pool
    // joins workers that may still be signalling them.
    std::unique_ptr<BatchScheduler> scheduler;  // worker thread only
    std::thread worker;
  };

  // Pushes `command` onto the shard's inbox and wakes its worker.
  static void post(Shard& shard, Command command);
  // post() plus waiting until the worker has applied `command`; an
  // exception it throws is rethrown here.
  static void call(Shard& shard, const Command& command);

  void shard_loop(Shard& shard);

  // Declared before shards_ so it outlives every scheduler recording
  // into it (members destroy in reverse declaration order).
  obs::MetricsRegistry registry_;
  std::vector<double> weight_checksums_;  // one per shard, at construction
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<index_t> next_seq_{0};    // id = seq * shards + shard
  std::atomic<index_t> unresolved_{0};  // submitted − mailboxed
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;  // notified when unresolved_ hits 0
};

}  // namespace qdnn::serve
