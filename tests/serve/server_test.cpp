// serve::Server — the multi-shard, multi-threaded front end.
//
// The headline contracts: (1) shard-invariance — a request's tokens are
// bit-identical to its solo decode whichever shard JSQ routes it to,
// because every shard serves an identically-constructed replica; (2)
// exactly-once resolution — every submitted id lands in exactly one
// RequestResult, fuzzed with concurrent submitters, a canceller, and a
// drainer racing the shard workers' own retirement drains.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "decode_test_util.h"

namespace qdnn::serve {
namespace {

using models::Transformer;
using qdnn::testing::random_src_ids;
using qdnn::testing::tiny_transformer_config;

constexpr index_t kBos = 1, kEos = 2;

ServerConfig server_config(index_t max_batch, index_t max_steps) {
  ServerConfig config;
  config.shard.session.max_batch = max_batch;
  config.shard.session.max_steps = max_steps;
  config.shard.bos = kBos;
  config.shard.eos = kEos;
  return config;
}

// N identically-constructed replicas: same config (including the init
// seed), so every shard holds the same weights.
std::vector<std::unique_ptr<Transformer>> make_replicas(index_t n) {
  std::vector<std::unique_ptr<Transformer>> replicas;
  for (index_t i = 0; i < n; ++i) {
    auto m = std::make_unique<Transformer>(tiny_transformer_config());
    m->set_training(false);
    replicas.push_back(std::move(m));
  }
  return replicas;
}

std::vector<Transformer*> raw(
    const std::vector<std::unique_ptr<Transformer>>& replicas) {
  std::vector<Transformer*> out;
  for (const auto& m : replicas) out.push_back(m.get());
  return out;
}

struct Case {
  Tensor src;
  index_t budget = 0;
  std::vector<index_t> reference;
};

std::vector<Case> make_cases(Transformer& model, index_t count,
                             index_t max_steps, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Case> cases;
  for (index_t i = 0; i < count; ++i) {
    Case c;
    c.src = random_src_ids(1, 3 + rng.uniform_int(3), 20,
                           seed * 100 + static_cast<std::uint64_t>(i));
    c.budget = 2 + rng.uniform_int(max_steps - 2);
    c.reference = model.greedy_decode_reference(c.src, {}, kBos, kEos,
                                                c.budget)[0];
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(Server, SingleShardMatchesSoloReferences) {
  auto replicas = make_replicas(1);
  const auto cases = make_cases(*replicas[0], 6, 10, 7);
  Server server(raw(replicas), server_config(2, 10));
  EXPECT_EQ(server.shards(), 1);

  std::map<index_t, std::size_t> id_to_case;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Request req;
    req.src_ids = cases[i].src;
    req.max_new_tokens = cases[i].budget;
    id_to_case[server.submit(std::move(req))] = i;
  }
  server.wait_idle();
  EXPECT_EQ(server.pending(), 0);

  auto results = server.take_results();
  ASSERT_EQ(results.size(), cases.size());
  for (const RequestResult& r : results)
    EXPECT_EQ(r.tokens, cases[id_to_case.at(r.id)].reference)
        << "id " << r.id;
}

TEST(Server, AsyncShardSleepsUntilAPrefillLands) {
  // With only prefill compute outstanding, the shard worker sleeps until
  // a command arrives or a pool worker signals a finished prefill — no
  // polling timer.  Every request still resolves bit-identically, and the
  // tick clock moves only when there is work: a bounded number of idle
  // ticks per request, however long the prefills take.
  auto replicas = make_replicas(1);
  const auto cases = make_cases(*replicas[0], 6, 10, 17);
  ServerConfig config = server_config(2, 10);
  config.shard.prefill_workers = 2;
  Server server(raw(replicas), config);

  std::map<index_t, std::size_t> id_to_case;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Request req;
    req.src_ids = cases[i].src;
    req.max_new_tokens = cases[i].budget;
    id_to_case[server.submit(std::move(req))] = i;
    // Alternate lone prefills with pairs in flight together.
    if (i % 3 != 1) server.wait_idle();
  }
  server.wait_idle();
  auto results = server.take_results();
  ASSERT_EQ(results.size(), cases.size());
  for (const RequestResult& r : results)
    EXPECT_EQ(r.tokens, cases[id_to_case.at(r.id)].reference)
        << "id " << r.id;

  const SchedulerStats st = server.shard_stats(0);
  const auto n = static_cast<index_t>(cases.size());
  EXPECT_LE(st.ticks - st.stepped_ticks, 4 * n)
      << "idle ticks free-ran while prefills computed";
}

TEST(Server, MultiShardStreamsAreBitIdenticalToSolo) {
  // 4 shards over 4 identically-seeded replicas: whatever shard JSQ
  // picks, every request's tokens match its solo reference — and the
  // globally unique ids actually spread over more than one shard.
  auto replicas = make_replicas(4);
  const auto cases = make_cases(*replicas[0], 12, 10, 9);
  Server server(raw(replicas), server_config(2, 10));
  EXPECT_EQ(server.shards(), 4);

  std::map<index_t, std::size_t> id_to_case;
  std::set<index_t> shards_used;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Request req;
    req.src_ids = cases[i].src;
    req.max_new_tokens = cases[i].budget;
    const index_t id = server.submit(std::move(req));
    EXPECT_EQ(id_to_case.count(id), 0u) << "ids must be globally unique";
    id_to_case[id] = i;
    shards_used.insert(id % server.shards());
  }
  server.wait_idle();

  auto results = server.take_results();
  ASSERT_EQ(results.size(), cases.size());
  for (const RequestResult& r : results) {
    EXPECT_EQ(r.tokens, cases[id_to_case.at(r.id)].reference)
        << "id " << r.id << " (shard " << r.id % server.shards() << ")";
    EXPECT_TRUE(r.reason == FinishReason::kEos ||
                r.reason == FinishReason::kLength);
  }
  EXPECT_GT(shards_used.size(), 1u)
      << "join-shortest-queue left every request on one shard";

  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.per_shard.size(), 4u);
  index_t submitted = 0;
  for (const auto& cls : stats.totals.per_class) submitted += cls.submitted;
  EXPECT_EQ(submitted, static_cast<index_t>(cases.size()));
}

TEST(Server, OwnsIdAssignment) {
  auto replicas = make_replicas(1);
  Server server(raw(replicas), server_config(2, 8));
  Request req;
  req.src_ids = random_src_ids(1, 4, 20, 501);
  req.id = 5;  // the Server assigns globally unique ids itself
  EXPECT_THROW(server.submit(std::move(req)), std::runtime_error);
  // A rejected submit leaves nothing behind.
  EXPECT_EQ(server.pending(), 0);
  // Malformed requests are rejected on the caller's thread too, before
  // anything reaches a shard.
  Request too_long;
  too_long.src_ids = random_src_ids(1, 17, 20, 503);  // > max_src (16)
  EXPECT_THROW(server.submit(std::move(too_long)), std::runtime_error);
  EXPECT_EQ(server.pending(), 0);
  server.wait_idle();
  EXPECT_TRUE(server.take_results().empty());
}

TEST(Server, ConstructorValidatesTheReplicaSet) {
  auto replicas = make_replicas(2);
  const ServerConfig config = server_config(2, 8);

  EXPECT_THROW(Server({}, config), std::runtime_error) << "no replicas";
  {
    std::vector<Transformer*> nulled = raw(replicas);
    nulled[1] = nullptr;
    EXPECT_THROW(Server(nulled, config), std::runtime_error);
  }
  {
    std::vector<Transformer*> dup{replicas[0].get(), replicas[0].get()};
    EXPECT_THROW(Server(dup, config), std::runtime_error)
        << "one replica cannot back two shards (bind exclusivity)";
  }
  {
    ServerConfig mismatched = config;
    mismatched.shards = 3;  // != models.size()
    EXPECT_THROW(Server(raw(replicas), mismatched), std::runtime_error);
  }
  {
    // A replica built from a different init seed has different weights:
    // shard-invariant outputs would silently break, so it is rejected.
    models::TransformerConfig other = tiny_transformer_config();
    other.seed += 1;
    Transformer drifted(other);
    std::vector<Transformer*> mixed{replicas[0].get(), &drifted};
    EXPECT_THROW(Server(mixed, config), std::runtime_error);
  }
  {
    // Post-construction weight drift: identical configs (so the config
    // equality check passes) but one replica's weights were mutated
    // after construction — only the weight CHECKSUM can catch it, and
    // the constructor must reject at the edge rather than let shards
    // route identical requests to different replicas.
    auto drifting = make_replicas(2);
    nn::Parameter* p = drifting[1]->parameters().front();
    const float saved = p->value[0];
    p->value[0] = saved + 0.5f;
    EXPECT_THROW(Server(raw(drifting), config), std::runtime_error)
        << "weight drift with equal configs must fail the checksum gate";
    // Restoring the weight restores admissibility — the gate keys on
    // the bits, nothing else.
    p->value[0] = saved;
    Server healed(raw(drifting), config);
    EXPECT_EQ(healed.weight_checksum(0), healed.weight_checksum(1));
  }
  // After every rejection the replicas are still unbound and serve.
  Server ok(raw(replicas), config);
  Request req;
  req.src_ids = random_src_ids(1, 4, 20, 502);
  req.max_new_tokens = 2;
  ok.submit(std::move(req));
  ok.wait_idle();
  EXPECT_EQ(ok.take_results().size(), 1u);
}

TEST(Server, StreamsTokensFromTheShardWorker) {
  auto replicas = make_replicas(1);
  const auto cases = make_cases(*replicas[0], 1, 8, 11);
  Server server(raw(replicas), server_config(2, 8));

  std::vector<index_t> streamed;
  Request req;
  req.src_ids = cases[0].src;
  req.max_new_tokens = cases[0].budget;
  req.on_token = [&](const StreamEvent& e) { streamed.push_back(e.token); };
  const index_t id = server.submit(std::move(req));
  // wait_idle() synchronizes with the worker's retirement drain, so
  // reading `streamed` here is race-free.
  server.wait_idle();

  auto results = server.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, id);
  EXPECT_EQ(streamed, results[0].tokens);
  EXPECT_EQ(streamed, cases[0].reference);
  if (!results[0].tokens.empty()) {
    EXPECT_GT(results[0].first_token_tick, results[0].submit_tick);
  }
}

TEST(Server, ThrowingStreamCallbackNeitherAbortsNorHangs) {
  // A stream callback that throws runs on a shard worker thread: it must
  // fail only its own request (kError), never terminate the process, and
  // never leave wait_idle() waiting on an id that cannot resolve.
  auto replicas = make_replicas(2);
  const auto cases = make_cases(*replicas[0], 6, 8, 17);
  Server server(raw(replicas), server_config(2, 8));

  std::map<index_t, std::size_t> id_to_case;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Request req;
    req.src_ids = cases[i].src;
    req.max_new_tokens = cases[i].budget;
    if (i % 2 == 0)
      req.on_token = [](const StreamEvent&) {
        throw std::runtime_error("client went away");
      };
    id_to_case[server.submit(std::move(req))] = i;
  }
  server.wait_idle();
  EXPECT_EQ(server.pending(), 0);

  auto results = server.take_results();
  ASSERT_EQ(results.size(), cases.size());
  std::set<index_t> seen;
  for (const RequestResult& r : results) {
    EXPECT_TRUE(seen.insert(r.id).second)
        << "id " << r.id << " resolved twice";
    const std::size_t i = id_to_case.at(r.id);
    if (i % 2 == 0 && !cases[i].reference.empty()) {
      EXPECT_EQ(r.reason, FinishReason::kError) << "id " << r.id;
      EXPECT_EQ(r.error, "stream callback threw");
    } else {
      EXPECT_EQ(r.tokens, cases[i].reference) << "id " << r.id;
    }
  }
}

TEST(Server, ShedsAndCancelsResolveExactlyOnce) {
  // A burst into one tightly bounded shard: submits outrun the worker's
  // ticks by orders of magnitude, so most of the burst load-sheds; a few
  // survivors get cancelled.  Every id must still resolve exactly once.
  auto replicas = make_replicas(1);
  ServerConfig config = server_config(1, 8);
  config.shard.max_queue = 1;
  Server server(raw(replicas), config);

  std::vector<index_t> ids;
  for (int i = 0; i < 16; ++i) {
    Request req;
    req.src_ids = random_src_ids(1, 4, 20,
                                 520 + static_cast<std::uint64_t>(i));
    req.max_new_tokens = 6;
    ids.push_back(server.submit(std::move(req)));
  }
  server.cancel(ids[0]);  // whatever state it is in — queued, live, shed
  server.cancel(ids[1]);
  server.wait_idle();

  auto results = server.take_results();
  ASSERT_EQ(results.size(), ids.size());
  std::set<index_t> seen;
  index_t sheds = 0;
  for (const RequestResult& r : results) {
    EXPECT_TRUE(seen.insert(r.id).second)
        << "id " << r.id << " resolved twice";
    if (r.reason == FinishReason::kShed) ++sheds;
  }
  for (const index_t id : ids) EXPECT_EQ(seen.count(id), 1u);
  EXPECT_GT(sheds, 0) << "a 16-submit burst into max_queue=1 must shed";
  EXPECT_FALSE(server.cancel(ids[0])) << "everything already resolved";
}

TEST(Server, AdversarialBurstAcrossShardsResolvesExactlyOnce) {
  // Full-length sources amid short ones burst into two tightly bounded
  // shards (mixed priorities, some deadlines), then a cancel storm hits
  // every third id.  Every id resolves exactly once, the burst sheds,
  // every accepted cancel lands as kCancelled, completed streams match
  // the solo decode and cut-short streams are prefixes of it.
  constexpr index_t kCount = 24, kMaxSteps = 10, kMaxQueue = 3;
  auto replicas = make_replicas(2);
  const index_t max_src = tiny_transformer_config().max_len;
  Rng rng(211);
  std::vector<Request> requests;
  std::vector<std::vector<index_t>> references;
  for (index_t i = 0; i < kCount; ++i) {
    Request req;
    // Every 4th source is full-length: the head-of-line blocker the
    // bounded queues must shed around, in both shards' prefill pools.
    req.src_ids = random_src_ids(1, i % 4 == 0 ? max_src : 4, 20,
                                 900 + static_cast<std::uint64_t>(i));
    req.max_new_tokens = 4 + rng.uniform_int(5);
    req.priority = static_cast<Priority>(rng.uniform_int(3));
    if (i % 7 == 3) req.deadline_tick = 2 + rng.uniform_int(4);
    references.push_back(replicas[0]->greedy_decode_reference(
        req.src_ids, {}, kBos, kEos, req.max_new_tokens)[0]);
    requests.push_back(std::move(req));
  }

  ServerConfig config = server_config(2, kMaxSteps);
  config.shard.max_queue = kMaxQueue;
  config.shard.prefill_workers = 1;  // long sources compute on the pool
  Server server(raw(replicas), config);
  std::map<index_t, std::size_t> id_to_case;
  std::vector<index_t> ids;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const index_t id = server.submit(std::move(requests[i]));
    id_to_case[id] = i;
    ids.push_back(id);
  }
  index_t cancel_hits = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    if (server.cancel(ids[i])) {
      ++cancel_hits;
      EXPECT_FALSE(server.cancel(ids[i]))
          << "double-cancel of id " << ids[i] << " reported a hit";
    }
  }
  server.wait_idle();  // a deadlock or leaked row hangs right here

  auto results = server.take_results();
  ASSERT_EQ(results.size(), ids.size());
  std::set<index_t> seen;
  index_t sheds = 0, cancelled = 0, errored = 0;
  for (const RequestResult& r : results) {
    EXPECT_TRUE(seen.insert(r.id).second)
        << "id " << r.id << " resolved twice";
    const auto& reference = references[id_to_case.at(r.id)];
    switch (r.reason) {
      case FinishReason::kShed:
        ++sheds;
        EXPECT_TRUE(r.tokens.empty()) << "shed id " << r.id;
        break;
      case FinishReason::kCancelled:
      case FinishReason::kDeadline:
        if (r.reason == FinishReason::kCancelled) ++cancelled;
        EXPECT_TRUE(r.tokens.size() <= reference.size() &&
                    std::equal(r.tokens.begin(), r.tokens.end(),
                               reference.begin()))
            << "id " << r.id << ": not a prefix of the solo decode";
        break;
      case FinishReason::kEos:
      case FinishReason::kLength:
        EXPECT_EQ(r.tokens, reference) << "id " << r.id;
        break;
      case FinishReason::kError:
        ++errored;
        break;
    }
  }
  for (const index_t id : ids) EXPECT_EQ(seen.count(id), 1u);
  EXPECT_GT(sheds, 0) << "a " << kCount << "-request burst into 2 shards "
                      << "with max_queue=" << kMaxQueue << " must shed";
  EXPECT_EQ(cancelled, cancel_hits);
  EXPECT_EQ(errored, 0);
}

TEST(Server, CancelLandsMidDecodeOnABusyShard) {
  // Regression: the shard worker must release the shard lock between
  // ticks.  Holding it across the whole busy period made cancel() block
  // until the request resolved on its own (and then return false) and
  // kept arrivals out of the running batch.  Here a long decode is
  // cancelled right after its first streamed token: the cancel must land
  // mid-flight, cutting the stream short with kCancelled.
  auto replicas = make_replicas(1);
  const index_t budget = 12;  // the tiny model's max_len caps max_steps
  // Pick a source whose solo greedy decode runs long (no early eos), so
  // the cancel has many ticks of runway before natural retirement.
  Tensor src;
  std::size_t solo_len = 0;
  for (std::uint64_t seed = 600; seed < 700 && solo_len < 12; ++seed) {
    Tensor candidate = random_src_ids(1, 5, 20, seed);
    const auto ref = replicas[0]->greedy_decode_reference(
        candidate, {}, kBos, kEos, budget)[0];
    if (ref.size() > solo_len) {
      solo_len = ref.size();
      src = std::move(candidate);
    }
  }
  ASSERT_GE(solo_len, 8u) << "no long-running decode found";

  Server server(raw(replicas), server_config(1, budget));
  std::atomic<index_t> tokens_seen{0};
  Request req;
  req.src_ids = std::move(src);
  req.max_new_tokens = static_cast<index_t>(solo_len);
  req.on_token = [&](const StreamEvent&) {
    tokens_seen.fetch_add(1);
    // The tiny model decodes a token in under a microsecond — faster
    // than this thread can wake and call cancel().  Stretch each tick so
    // the cancel provably lands inside the busy period.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  const index_t id = server.submit(std::move(req));
  while (tokens_seen.load() == 0) std::this_thread::yield();
  EXPECT_TRUE(server.cancel(id))
      << "cancel() must interleave with a busy shard, not wait for it";
  server.wait_idle();

  auto results = server.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, id);
  EXPECT_EQ(results[0].reason, FinishReason::kCancelled);
  EXPECT_LT(results[0].tokens.size(), solo_len)
      << "the stream ran to completion — the cancel never interleaved";
}

TEST(Server, SubmitAndTakeResultsDoNotWaitOutABusyTick) {
  // No lock is held during a tick: while the worker sits inside a slow
  // stream callback, another thread's submit() and take_results() return
  // at once instead of waiting for the tick to end.
  auto replicas = make_replicas(1);
  Server server(raw(replicas), server_config(2, 8));
  std::atomic<bool> in_tick{false};
  Request slow;
  slow.src_ids = random_src_ids(1, 4, 20, 801);
  slow.on_token = [&](const StreamEvent& e) {
    if (e.index != 0) return;
    in_tick.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  std::set<index_t> ids{server.submit(std::move(slow))};
  while (!in_tick.load()) std::this_thread::yield();

  using Clock = std::chrono::steady_clock;
  const auto elapsed_ms = [](Clock::time_point since) {
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
  };
  Request other;
  other.src_ids = random_src_ids(1, 4, 20, 802);
  auto start = Clock::now();
  ids.insert(server.submit(std::move(other)));
  EXPECT_LT(elapsed_ms(start), 5.0) << "submit() waited out the tick";
  start = Clock::now();
  std::vector<RequestResult> results = server.take_results();
  EXPECT_LT(elapsed_ms(start), 5.0) << "take_results() waited out the tick";

  server.wait_idle();
  for (RequestResult& r : server.take_results())
    results.push_back(std::move(r));
  ASSERT_EQ(results.size(), ids.size());
  std::set<index_t> seen;
  for (const RequestResult& r : results) {
    EXPECT_TRUE(seen.insert(r.id).second)
        << "id " << r.id << " resolved twice";
  }
  EXPECT_EQ(seen, ids);
}

TEST(Server, MultiThreadedFuzzEveryIdResolvesExactlyOnce) {
  // Satellite (f): two submitter threads, a canceller, and a drainer all
  // race the shard workers.  Afterwards: every id has exactly one
  // result; completed streams are bit-exact against the solo reference;
  // cancelled streams are bit-exact prefixes.
  auto replicas = make_replicas(2);
  const index_t max_steps = 10;
  const auto cases = make_cases(*replicas[0], 8, max_steps, 13);
  ServerConfig config = server_config(2, max_steps);
  config.shard.prefill_workers = 1;  // cover the async pool under threads
  Server server(raw(replicas), config);

  constexpr int kPerSubmitter = 20;
  std::mutex mu;
  std::map<index_t, std::size_t> id_to_case;  // guarded by mu
  std::vector<index_t> ids;                   // guarded by mu
  std::vector<RequestResult> drained;         // guarded by mu
  std::atomic<bool> done{false};

  auto submitter = [&](std::uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < kPerSubmitter; ++i) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(static_cast<index_t>(cases.size())));
      Request req;
      req.src_ids = cases[pick].src;
      req.max_new_tokens = cases[pick].budget;
      req.priority = static_cast<Priority>(rng.uniform_int(3));
      const index_t id = server.submit(std::move(req));
      std::lock_guard<std::mutex> lk(mu);
      id_to_case[id] = pick;
      ids.push_back(id);
    }
  };
  std::thread submit_a(submitter, 1001);
  std::thread submit_b(submitter, 2002);
  std::thread canceller([&] {
    Rng rng(3003);
    for (int i = 0; i < 2 * kPerSubmitter; ++i) {
      index_t target = -1;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (!ids.empty())
          target = ids[static_cast<std::size_t>(rng.uniform_int(
              static_cast<index_t>(ids.size())))];
      }
      if (target >= 0) server.cancel(target);  // may already be resolved
      std::this_thread::yield();
    }
  });
  std::thread drainer([&] {
    while (!done.load()) {
      auto batch = server.take_results();
      if (!batch.empty()) {
        std::lock_guard<std::mutex> lk(mu);
        for (RequestResult& r : batch) drained.push_back(std::move(r));
      }
      std::this_thread::yield();
    }
  });

  submit_a.join();
  submit_b.join();
  canceller.join();
  server.wait_idle();
  done.store(true);
  drainer.join();
  for (RequestResult& r : server.take_results())
    drained.push_back(std::move(r));  // whatever the drainer missed

  ASSERT_EQ(drained.size(), static_cast<std::size_t>(2 * kPerSubmitter));
  std::set<index_t> seen;
  for (const RequestResult& r : drained) {
    ASSERT_TRUE(seen.insert(r.id).second)
        << "id " << r.id << " resolved twice";
    const auto& reference = cases[id_to_case.at(r.id)].reference;
    if (r.reason == FinishReason::kEos ||
        r.reason == FinishReason::kLength) {
      EXPECT_EQ(r.tokens, reference)
          << "id " << r.id << ": shard/interleaving changed the stream";
    } else {
      ASSERT_EQ(r.reason, FinishReason::kCancelled) << "id " << r.id;
      ASSERT_LE(r.tokens.size(), reference.size()) << "id " << r.id;
      EXPECT_TRUE(std::equal(r.tokens.begin(), r.tokens.end(),
                             reference.begin()))
          << "id " << r.id << ": not a prefix of the solo decode";
    }
  }
  for (const index_t id : ids) EXPECT_EQ(seen.count(id), 1u);
  EXPECT_EQ(server.pending(), 0);
}

}  // namespace
}  // namespace qdnn::serve
