// Paged KV memory: a refcounted pool of fixed-size pages plus the
// bounded content-hashed prefix cache built on top of it.
//
// Dense per-row KV rings size every row for the worst case
// (max_steps / max_src), so KV memory — the resource that caps how many
// concurrent users a shard holds — is mostly spent on tails no short
// request ever touches, and two requests with the same source each carry
// a full private copy of the same cross-K/V.  KvPagePool restructures
// that storage into uniform pages of `page_tokens` token rows; a row maps
// pages through a per-row page table (runtime::DecodeSession owns the
// tables, models::PagedKvView carries them into the attention step
// kernels), acquiring pages as its decode deepens and releasing them at
// retirement.  Pages are refcounted, so the SAME physical page can back
// the cross-K/V of every live row decoding from one cached prefix — the
// sharing that makes the prefix cache and (ROADMAP) copy-on-write beam
// forking possible — and the scheduler can oversubscribe max_batch
// against actual free pages instead of the dense worst case.
//
// Page layout: one page holds every decoder layer's K and V rows for
// `page_tokens` consecutive token positions —
//   [L0·K: page_tokens × P][L0·V: page_tokens × P][L1·K]…
// so page_floats = layers × 2 × page_tokens × proj_dim and ONE table
// entry per (row, token-block) serves all layers (the per-layer slice
// offsets are static).  page_tokens must be a power of two: the step
// kernels resolve position j with a shift/mask, never a divide.
//
// Page id 0 is the reserved SENTINEL page: every unmapped table entry
// points at it, so parked/warming rows read (and harmlessly write)
// defined memory without per-row branching in the kernels.  It is never
// on the free list and never refcounted.
//
// Thread-safety: acquire/add_ref/release/refcount serialize on an
// internal mutex (O(1) under the lock); free_pages() is a relaxed atomic
// read so gauges and admission heuristics never take the lock.  The
// PrefixCache has its own mutex (PrefillPool workers look up prefixes
// concurrently with the serving thread's publish/evict); whenever both
// locks are needed the order is ALWAYS cache → pool, so the two can
// never deadlock.  Everything is preallocated at init: steady-state
// acquire/release/lookup/publish perform no heap allocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/tensor.h"

namespace qdnn::runtime {

class KvPagePool {
 public:
  // Unmapped table entries point here; never allocated, never freed.
  static constexpr index_t kSentinelPage = 0;

  KvPagePool() = default;
  KvPagePool(const KvPagePool&) = delete;
  KvPagePool& operator=(const KvPagePool&) = delete;

  // Allocates storage for `pages` usable pages (plus the sentinel) of
  // `page_floats` floats each, zero-filled.  Callable once.
  void init(index_t pages, index_t page_floats);

  // Pops a free page with refcount 1, or returns -1 when the pool is
  // exhausted (callers reclaim prefix-cache pages and retry, or preempt).
  index_t acquire();
  // Takes one more reference on a live page (prefix sharing).
  void add_ref(index_t page);
  // Drops one reference; the page returns to the free list at zero.
  void release(index_t page);
  index_t refcount(index_t page) const;

  float* page_data(index_t page) {
    return storage_.data() + page * page_floats_;
  }
  const float* page_data(index_t page) const {
    return storage_.data() + page * page_floats_;
  }
  float* data() { return storage_.data(); }
  const float* data() const { return storage_.data(); }

  index_t page_floats() const { return page_floats_; }
  // Usable pages (the sentinel excluded).
  index_t pages() const { return pages_; }
  // Lock-free: safe from gauges/heuristics on any thread.
  index_t free_pages() const {
    return free_count_.load(std::memory_order_relaxed);
  }

 private:
  Tensor storage_;              // (pages + 1) × page_floats, page 0 = sentinel
  std::vector<index_t> free_;   // stack of free page ids
  std::vector<index_t> refs_;   // per-page refcount (sentinel unused)
  std::atomic<index_t> free_count_{0};
  index_t pages_ = 0;
  index_t page_floats_ = 0;
  mutable std::mutex mu_;
};

// FNV-1a over the token ids plus the valid length — the prefix-cache
// key.  Exposed (rather than buried in the cache) so the cache API takes
// the precomputed hash: the session computes it once per admission, and
// tests can force collisions to exercise the full-token compare.
std::uint64_t prefix_hash(const index_t* tokens, index_t ts, index_t len);

// Bounded content-hashed cache of committed cross-K/V prefixes.
//
// Contract (see DecodeSession for the integration):
//   * publish() records {hash, full token sequence, len, the page ids}
//     and takes one pool reference per page — the cache's own pin, so an
//     entry survives the publishing row's retirement.
//   * lookup_acquire() matches hash AND the full token sequence AND len
//     (hash collisions can never alias two different sources), takes one
//     reference per page for the caller, bumps the entry's LRU stamp and
//     appends the page ids to `out_pages`.  Safe concurrently from
//     prefill workers.
//   * evict_one() drops the least-recently-used entry and its pool
//     references — cached pages whose only holder is the cache are
//     RECLAIMABLE: page acquisition evicts entries on pool pressure, so
//     the cache can never starve admission; only live rows can.
//   * A full cache evicts LRU on publish; re-publishing an existing
//     source refreshes its stamp instead of duplicating it.
//
// All entry storage (token buffers, page lists) is reserved at init, so
// steady-state publish/lookup/evict never heap-allocate.  Counters are
// relaxed atomics, readable from any thread without the lock.
class PrefixCache {
 public:
  PrefixCache() = default;
  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  // `entries` = 0 disables the cache (publish/lookup become no-ops).
  // max_tokens/max_pages bound one entry's token and page lists (the
  // session's max_src and cross pages-per-row).
  void init(index_t entries, index_t max_tokens, index_t max_pages);

  bool enabled() const { return !entries_.empty(); }

  bool lookup_acquire(std::uint64_t hash, const index_t* tokens, index_t ts,
                      index_t len, KvPagePool& pool,
                      std::vector<index_t>& out_pages);
  // lookup_acquire without touching hits()/misses(): the commit-time
  // duplicate check, which is not an admission lookup.
  bool pin(std::uint64_t hash, const index_t* tokens, index_t ts,
           index_t len, KvPagePool& pool, std::vector<index_t>& out_pages);
  void publish(std::uint64_t hash, const index_t* tokens, index_t ts,
               index_t len, const index_t* pages, index_t n_pages,
               KvPagePool& pool);
  // Drops the LRU entry (releasing its pool references); false when the
  // cache is empty or disabled.
  bool evict_one(KvPagePool& pool);
  // Pages whose ONLY reference is this cache — what eviction could hand
  // back to the pool right now.  Takes both locks (cache → pool order).
  index_t reclaimable_pages(const KvPagePool& pool) const;
  index_t live_entries() const;

  long long hits() const { return hits_.load(std::memory_order_relaxed); }
  long long misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  long long insertions() const {
    return insertions_.load(std::memory_order_relaxed);
  }
  long long evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    bool valid = false;
    std::uint64_t hash = 0;
    index_t ts = 0;
    index_t len = 0;
    long long stamp = 0;  // LRU clock value of the last publish/hit
    std::vector<index_t> tokens;  // reserved max_tokens at init
    std::vector<index_t> pages;   // reserved max_pages at init
  };

  // Under mu_.  Returns the matching valid entry or nullptr.
  Entry* find_locked(std::uint64_t hash, const index_t* tokens, index_t ts,
                     index_t len);
  void drop_locked(Entry& e, KvPagePool& pool);

  std::vector<Entry> entries_;
  long long clock_ = 0;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
  std::atomic<long long> insertions_{0};
  std::atomic<long long> evictions_{0};
  mutable std::mutex mu_;
};

}  // namespace qdnn::runtime
