// Paged-KV contracts for the serving layer (PR 10): prefix-cache
// semantics (hit skips prime_compute, bit-identity to a cold prime,
// LRU eviction under capacity, refcount safety, hash-collision safety)
// and page-budget oversubscription (preemption resolves every request
// exactly once with bit-identical tokens).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "decode_test_util.h"
#include "runtime/kv_pages.h"
#include "serve/scheduler.h"

namespace qdnn::serve {
namespace {

using models::Transformer;
using qdnn::testing::random_src_ids;
using qdnn::testing::tiny_transformer_config;

constexpr index_t kBos = 1, kEos = 2;

BatchSchedulerConfig scheduler_config(index_t max_batch,
                                      index_t max_steps) {
  BatchSchedulerConfig config;
  config.session.max_batch = max_batch;
  config.session.max_steps = max_steps;
  config.bos = kBos;
  config.eos = kEos;
  return config;
}

// Runs one request through `scheduler` to completion and returns its
// tokens.
std::vector<index_t> run_one(BatchScheduler& scheduler, const Tensor& src,
                             index_t src_length, index_t budget) {
  Request req;
  req.src_ids = src;
  req.src_length = src_length;
  req.max_new_tokens = budget;
  const index_t id = scheduler.submit(std::move(req));
  std::vector<index_t> tokens;
  bool resolved = false;
  while (!resolved) {
    scheduler.step();
    for (RequestResult& r : scheduler.take_results()) {
      EXPECT_EQ(r.id, id) << "unexpected foreign result";
      tokens = std::move(r.tokens);
      resolved = true;
    }
    EXPECT_LT(scheduler.ticks(), 10000) << "scheduler stuck";
    if (scheduler.ticks() >= 10000) break;
  }
  return tokens;
}

TEST(PagedKv, PrefixHitSkipsPrimeAndMatchesColdPrimeBitExactly) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 10;
  BatchScheduler scheduler(model, scheduler_config(2, max_steps));

  const Tensor src = random_src_ids(1, 6, 20, 77);
  const index_t len = 5;
  const auto reference =
      model.greedy_decode_reference(src, {len}, kBos, kEos, max_steps)[0];

  const auto cold = run_one(scheduler, src, len, max_steps);
  EXPECT_EQ(cold, reference);
  const auto& cache = scheduler.session().prefix_cache();
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_GE(cache.misses(), 1);
  EXPECT_EQ(cache.insertions(), 1);

  // The cache's pin keeps the committed cross pages out of the free
  // list even though no row is live.
  const index_t cross_pages =
      scheduler.session().cross_pages_for(src.dim(1));
  EXPECT_EQ(scheduler.session().free_pages(),
            scheduler.session().total_pages() - cross_pages);
  EXPECT_EQ(scheduler.session().reclaimable_pages(), cross_pages);

  // Same source again: the admission path takes the cached pages —
  // a hit, no second insertion — and the tokens are bit-identical to
  // the cold prime.
  const auto warm = run_one(scheduler, src, len, max_steps);
  EXPECT_EQ(warm, cold);
  EXPECT_GE(cache.hits(), 1);
  EXPECT_EQ(cache.insertions(), 1) << "hit must not re-publish";

  const SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.prefix_hits, 1);
  EXPECT_EQ(stats.prefix_insertions, 1);
}

TEST(PagedKv, DistinctSourcesMissAndLruEvictsUnderCapacity) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 8;
  BatchSchedulerConfig config = scheduler_config(1, max_steps);
  config.session.prefix_cache_entries = 2;
  BatchScheduler scheduler(model, config);
  const auto& cache = scheduler.session().prefix_cache();

  for (index_t i = 0; i < 4; ++i) {
    const Tensor src = random_src_ids(1, 4 + (i % 3), 20, 500 + i);
    run_one(scheduler, src, 0, max_steps);
  }
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.insertions(), 4);
  EXPECT_GE(cache.evictions(), 2) << "capacity 2 must have evicted";
  EXPECT_LE(cache.live_entries(), 2);

  // The two survivors are the most recently used; the first source was
  // evicted, so resubmitting it misses (and re-inserts).
  const long long misses_before = cache.misses();
  const Tensor first = random_src_ids(1, 4, 20, 500);
  run_one(scheduler, first, 0, max_steps);
  EXPECT_GT(cache.misses(), misses_before);
  EXPECT_EQ(cache.insertions(), 5);
}

TEST(PagedKv, CachedPagesStayPinnedWhileALiveRowMapsThem) {
  // Direct pool/cache unit test: eviction drops only the CACHE's pin;
  // pages a live row still maps survive (and their bits survive) until
  // the row itself releases them.
  runtime::KvPagePool pool;
  pool.init(/*pages=*/4, /*page_floats=*/8);
  runtime::PrefixCache cache;
  cache.init(/*entries=*/1, /*max_tokens=*/8, /*max_pages=*/4);

  const index_t pages[2] = {pool.acquire(), pool.acquire()};
  ASSERT_GT(pages[0], 0);
  ASSERT_GT(pages[1], 0);
  for (int p = 0; p < 2; ++p)
    for (index_t f = 0; f < 8; ++f)
      pool.page_data(pages[p])[f] = static_cast<float>(100 * p + f);

  const index_t tokens[3] = {5, 6, 7};
  const std::uint64_t h = runtime::prefix_hash(tokens, 3, 3);
  cache.publish(h, tokens, 3, 3, pages, 2, pool);
  EXPECT_EQ(pool.refcount(pages[0]), 2);  // producer + cache

  // Producer row retires: only the cache pin remains.
  pool.release(pages[0]);
  pool.release(pages[1]);
  EXPECT_EQ(pool.refcount(pages[0]), 1);
  EXPECT_EQ(pool.free_pages(), 2);

  // A consumer row takes the prefix (pin under the cache lock)...
  std::vector<index_t> row_pages;
  ASSERT_TRUE(cache.lookup_acquire(h, tokens, 3, 3, pool, row_pages));
  ASSERT_EQ(row_pages.size(), 2u);
  EXPECT_EQ(pool.refcount(pages[0]), 2);

  // ... then the cache entry is evicted under pressure.  The pages must
  // NOT return to the free list — the row still maps them — and their
  // contents must be intact.
  ASSERT_TRUE(cache.evict_one(pool));
  EXPECT_EQ(cache.live_entries(), 0);
  EXPECT_EQ(pool.refcount(pages[0]), 1);
  EXPECT_EQ(pool.free_pages(), 2);
  for (int p = 0; p < 2; ++p)
    for (index_t f = 0; f < 8; ++f)
      EXPECT_EQ(pool.page_data(pages[p])[f],
                static_cast<float>(100 * p + f));

  // Only when the row releases do the pages become free again.
  for (index_t page : row_pages) pool.release(page);
  EXPECT_EQ(pool.free_pages(), 4);
}

TEST(PagedKv, HashCollisionNeverAliasesDifferentTokens) {
  runtime::KvPagePool pool;
  pool.init(/*pages=*/2, /*page_floats=*/4);
  runtime::PrefixCache cache;
  cache.init(/*entries=*/2, /*max_tokens=*/8, /*max_pages=*/2);

  const index_t tokens_a[3] = {1, 2, 3};
  const index_t page = pool.acquire();
  const std::uint64_t h = runtime::prefix_hash(tokens_a, 3, 3);
  cache.publish(h, tokens_a, 3, 3, &page, 1, pool);

  // Forced collision: the SAME 64-bit hash with different tokens must
  // miss — the full-token compare is the safety net.
  const index_t tokens_b[3] = {9, 9, 9};
  std::vector<index_t> out;
  EXPECT_FALSE(cache.lookup_acquire(h, tokens_b, 3, 3, pool, out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(cache.misses(), 1);

  // Same hash + same tokens + same length: hit.
  EXPECT_TRUE(cache.lookup_acquire(h, tokens_a, 3, 3, pool, out));
  ASSERT_EQ(out.size(), 1u);
  pool.release(out[0]);

  // Same tokens, different valid length: a distinct key (the mask
  // shapes the committed K/V), so it must miss too.
  out.clear();
  EXPECT_FALSE(cache.lookup_acquire(h, tokens_a, 3, 2, pool, out));
}

TEST(PagedKv, OversubscriptionFuzzPreemptsAndStaysBitIdentical) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 12;

  struct Job {
    Tensor src;
    index_t len;
    index_t budget;
    Priority priority;
    std::vector<index_t> reference;
  };
  std::vector<Job> jobs;
  Rng rng(4242);
  for (index_t i = 0; i < 8; ++i) {
    Job j;
    const index_t ts = 3 + rng.uniform_int(4);  // 3..6
    j.src = random_src_ids(1, ts, 20, 9000 + i);
    j.len = 1 + rng.uniform_int(ts);
    j.budget = max_steps - rng.uniform_int(3);  // deep rows: 10..12
    j.priority = static_cast<Priority>(i % kPriorityClasses);
    j.reference = model.greedy_decode_reference(j.src, {j.len}, kBos,
                                                kEos, j.budget)[0];
    jobs.push_back(std::move(j));
  }

  index_t total_preemptions = 0;
  // Both prefill sources of the one admission path: the serving thread
  // (0 workers) and a pool worker (1), whose held prefills must survive
  // preemption pressure the same way.
  const std::pair<index_t, std::uint64_t> runs[] = {
      {0, 11u}, {0, 22u}, {0, 33u}, {1, 11u}, {1, 22u}, {1, 33u}};
  for (const auto& [prefill_workers, fuzz_seed] : runs) {
    SCOPED_TRACE(::testing::Message() << "prefill_workers "
                                      << prefill_workers << " seed "
                                      << fuzz_seed);
    BatchSchedulerConfig config = scheduler_config(4, max_steps);
    config.prefill_workers = prefill_workers;
    config.session.max_src = 8;
    config.session.page_tokens = 4;
    // Worst-case row: ceil(12/4) self + ceil(8/4) cross = 5 pages.
    // 8 pages for a width-4 batch (dense bound 20) oversubscribes hard:
    // rows MUST deepen into a dry pool and trigger preemption.
    config.session.pool_pages = 8;
    BatchScheduler scheduler(model, config);

    Rng order_rng(fuzz_seed);
    const std::vector<index_t> order =
        order_rng.permutation(static_cast<index_t>(jobs.size()));
    std::map<index_t, index_t> id_to_job;
    std::map<index_t, std::vector<index_t>> results;
    for (const index_t idx : order) {
      const Job& j = jobs[static_cast<std::size_t>(idx)];
      Request req;
      req.src_ids = j.src;
      req.src_length = j.len;
      req.max_new_tokens = j.budget;
      req.priority = j.priority;
      id_to_job[scheduler.submit(std::move(req))] = idx;
    }
    while (!scheduler.idle()) {
      if (scheduler.wait_for_prefill()) continue;
      scheduler.step();
      for (RequestResult& r : scheduler.take_results()) {
        const bool inserted =
            results.emplace(r.id, std::move(r.tokens)).second;
        EXPECT_TRUE(inserted) << "id " << r.id << " resolved twice";
      }
      ASSERT_LT(scheduler.ticks(), 20000) << "scheduler stuck";
    }
    ASSERT_EQ(results.size(), jobs.size())
        << "every id must resolve exactly once";
    for (const auto& [id, tokens] : results) {
      const Job& j = jobs[static_cast<std::size_t>(id_to_job.at(id))];
      EXPECT_EQ(tokens, j.reference)
          << "preempted/replayed request diverged from solo decode";
    }
    const SchedulerStats stats = scheduler.stats();
    total_preemptions += stats.preemptions;
    EXPECT_EQ(stats.total_pages, 8);
    // Drained: every non-free page is held only by the prefix cache.
    EXPECT_EQ(scheduler.session().free_pages() +
                  scheduler.session().reclaimable_pages(),
              scheduler.session().total_pages());
  }
  EXPECT_GT(total_preemptions, 0)
      << "pool of 8 pages under 8 deep requests never preempted — the "
         "oversubscription path went untested";
}

TEST(PagedKv, ColdCommitsOfOneSourceShareTheCachedPages) {
  // Two prefills of the same source that both missed the cache (two pool
  // workers racing on one source) each hold a cold staging.  The second
  // commit must map the pages the first one published instead of
  // acquiring duplicates — in a full pool, duplicates evict some other
  // cached prefix, which is later computed and inserted all over again.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 8;
  runtime::DecodeSessionConfig config;
  config.max_batch = 2;
  config.max_steps = max_steps;
  runtime::DecodeSession session(model, config);

  const Tensor src = random_src_ids(1, 6, 20, 91);
  const index_t len = 5;
  runtime::PrefillStaging first, second;
  session.init_staging(first);
  session.init_staging(second);
  session.prime_compute(src, len, first);
  session.prime_compute(src, len, second);

  const index_t cross_pages = session.cross_pages_for(src.dim(1));
  const index_t total = session.total_pages();
  session.commit_row(0, first);
  EXPECT_EQ(session.free_pages(), total - cross_pages);
  session.commit_row(1, second);
  EXPECT_EQ(session.free_pages(), total - cross_pages)
      << "the second cold commit acquired duplicate cross pages";
  // Page 1 is the pool's first hand-out: row 0, row 1 and the cache's
  // pin all hold each of the shared pages.
  for (index_t page = 1; page <= cross_pages; ++page)
    EXPECT_EQ(session.pool().refcount(page), 3) << "page " << page;

  const auto& cache = session.prefix_cache();
  EXPECT_EQ(cache.insertions(), 1);
  EXPECT_EQ(cache.evictions(), 0);
  // The commit-time check is not an admission lookup.
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);

  // Both rows decode bit-identically to the solo reference.
  const auto reference =
      model.greedy_decode_reference(src, {len}, kBos, kEos, max_steps)[0];
  const auto outputs = session.generate(kBos, kEos);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[0], reference);
  EXPECT_EQ(outputs[1], reference);
}

TEST(PagedKv, CancellingAHeldSyncPrefillResolvesOnceAndDrainsThePool) {
  // Synchronous admission computes the best queued prefill and, when its
  // commit does not fit the page pool, HOLDS it — the same page gate as a
  // pool worker's finished prefill.  Cancelling the held job resolves it
  // kCancelled exactly once at the next tick, and no page leaks.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 12;
  BatchSchedulerConfig config = scheduler_config(2, max_steps);
  config.session.max_src = 8;
  config.session.page_tokens = 4;
  // One worst-case row: ceil(12/4) self + ceil(8/4) cross = 5 pages.
  config.session.pool_pages = 5;
  BatchScheduler scheduler(model, config);
  ASSERT_EQ(scheduler.prefill_pool(), nullptr);

  const Tensor live_src = random_src_ids(1, 8, 20, 93);
  const auto reference = model.greedy_decode_reference(
      live_src, {}, kBos, kEos, max_steps)[0];
  ASSERT_GE(reference.size(), 2u) << "the live row must outlast tick 1";
  Request live;
  live.src_ids = live_src;
  live.max_new_tokens = max_steps;
  const index_t live_id = scheduler.submit(std::move(live));
  scheduler.step();  // admits (2 cross pages) and steps (1 self page)
  ASSERT_EQ(scheduler.live_rows(), 1);

  // A second, distinct 8-token source needs 2 cross + 1 self pages, but
  // only 2 are free and the live row still maps its cached prefix.
  Request held;
  held.src_ids = random_src_ids(1, 8, 20, 94);
  held.max_new_tokens = max_steps;
  const index_t held_id = scheduler.submit(std::move(held));
  scheduler.step();
  ASSERT_EQ(scheduler.live_rows(), 1);
  ASSERT_EQ(scheduler.queued(), 1) << "the prefill must be held";
  EXPECT_TRUE(scheduler.take_results().empty());

  EXPECT_TRUE(scheduler.cancel(held_id));
  EXPECT_FALSE(scheduler.cancel(held_id)) << "double cancel is a no-op";
  EXPECT_TRUE(scheduler.take_results().empty())
      << "a held cancel resolves at the next tick";

  std::map<index_t, std::vector<RequestResult>> results;
  while (!scheduler.idle()) {
    scheduler.step();
    for (RequestResult& r : scheduler.take_results())
      results[r.id].push_back(std::move(r));
    ASSERT_LT(scheduler.ticks(), 1000) << "scheduler stuck";
  }
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[held_id].size(), 1u) << "resolved exactly once";
  EXPECT_EQ(results[held_id][0].reason, FinishReason::kCancelled);
  EXPECT_TRUE(results[held_id][0].tokens.empty());
  EXPECT_EQ(results[held_id][0].admit_tick, -1);
  ASSERT_EQ(results[live_id].size(), 1u);
  EXPECT_EQ(results[live_id][0].tokens, reference);
  EXPECT_EQ(scheduler.session().free_pages() +
                scheduler.session().reclaimable_pages(),
            scheduler.session().total_pages());
}

}  // namespace
}  // namespace qdnn::serve
