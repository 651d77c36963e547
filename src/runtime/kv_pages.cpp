#include "runtime/kv_pages.h"

#include "core/check.h"

namespace qdnn::runtime {

void KvPagePool::init(index_t pages, index_t page_floats) {
  QDNN_CHECK(pages_ == 0, "KvPagePool: init called twice");
  QDNN_CHECK(pages >= 1,
             "KvPagePool: pages must be >= 1, got " << pages);
  QDNN_CHECK(page_floats >= 1,
             "KvPagePool: page_floats must be >= 1, got " << page_floats);
  pages_ = pages;
  page_floats_ = page_floats;
  // +1 for the sentinel page at id 0; zero-filled so sentinel reads (and
  // the warm-up pass) see defined values.
  storage_ = Tensor{Shape{(pages + 1) * page_floats}};
  refs_.assign(static_cast<std::size_t>(pages + 1), 0);
  free_.reserve(static_cast<std::size_t>(pages));
  // Stack of free ids, highest first, so acquire hands out page 1 first.
  for (index_t p = pages; p >= 1; --p) free_.push_back(p);
  free_count_.store(pages, std::memory_order_relaxed);
}

index_t KvPagePool::acquire() {
  std::lock_guard<std::mutex> lk(mu_);
  if (free_.empty()) return -1;
  const index_t page = free_.back();
  free_.pop_back();
  refs_[static_cast<std::size_t>(page)] = 1;
  free_count_.store(static_cast<index_t>(free_.size()),
                    std::memory_order_relaxed);
  return page;
}

void KvPagePool::add_ref(index_t page) {
  std::lock_guard<std::mutex> lk(mu_);
  QDNN_CHECK(page >= 1 && page <= pages_,
             "KvPagePool: add_ref on page " << page << " outside [1, "
                                            << pages_ << "]");
  QDNN_CHECK(refs_[static_cast<std::size_t>(page)] > 0,
             "KvPagePool: add_ref on free page " << page);
  ++refs_[static_cast<std::size_t>(page)];
}

void KvPagePool::release(index_t page) {
  std::lock_guard<std::mutex> lk(mu_);
  QDNN_CHECK(page >= 1 && page <= pages_,
             "KvPagePool: release of page " << page << " outside [1, "
                                            << pages_ << "]");
  index_t& rc = refs_[static_cast<std::size_t>(page)];
  QDNN_CHECK(rc > 0, "KvPagePool: release of free page " << page);
  if (--rc == 0) {
    free_.push_back(page);
    free_count_.store(static_cast<index_t>(free_.size()),
                      std::memory_order_relaxed);
  }
}

index_t KvPagePool::refcount(index_t page) const {
  std::lock_guard<std::mutex> lk(mu_);
  QDNN_CHECK(page >= 1 && page <= pages_,
             "KvPagePool: refcount of page " << page << " outside [1, "
                                             << pages_ << "]");
  return refs_[static_cast<std::size_t>(page)];
}

std::uint64_t prefix_hash(const index_t* tokens, index_t ts, index_t len) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xffull;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  mix(static_cast<std::uint64_t>(len));
  for (index_t i = 0; i < ts; ++i)
    mix(static_cast<std::uint64_t>(tokens[i]));
  return h;
}

void PrefixCache::init(index_t entries, index_t max_tokens,
                       index_t max_pages) {
  QDNN_CHECK(entries_.empty(), "PrefixCache: init called twice");
  QDNN_CHECK(entries >= 0,
             "PrefixCache: entries must be non-negative (0 = disabled), "
             "got "
                 << entries);
  if (entries == 0) return;
  QDNN_CHECK(max_tokens >= 1 && max_pages >= 1,
             "PrefixCache: max_tokens/max_pages must be >= 1, got "
                 << max_tokens << "/" << max_pages);
  entries_.resize(static_cast<std::size_t>(entries));
  for (Entry& e : entries_) {
    e.tokens.reserve(static_cast<std::size_t>(max_tokens));
    e.pages.reserve(static_cast<std::size_t>(max_pages));
  }
}

PrefixCache::Entry* PrefixCache::find_locked(std::uint64_t hash,
                                             const index_t* tokens,
                                             index_t ts, index_t len) {
  for (Entry& e : entries_) {
    if (!e.valid || e.hash != hash || e.ts != ts || e.len != len) continue;
    // Full-token compare: a 64-bit hash collision must never alias two
    // different sources into one K/V prefix.
    bool same = true;
    for (index_t i = 0; i < ts; ++i) {
      if (e.tokens[static_cast<std::size_t>(i)] != tokens[i]) {
        same = false;
        break;
      }
    }
    if (same) return &e;
  }
  return nullptr;
}

void PrefixCache::drop_locked(Entry& e, KvPagePool& pool) {
  for (index_t page : e.pages) pool.release(page);
  e.pages.clear();
  e.tokens.clear();
  e.valid = false;
}

bool PrefixCache::lookup_acquire(std::uint64_t hash, const index_t* tokens,
                                 index_t ts, index_t len, KvPagePool& pool,
                                 std::vector<index_t>& out_pages) {
  if (!enabled()) return false;
  const bool hit = pin(hash, tokens, ts, len, pool, out_pages);
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

bool PrefixCache::pin(std::uint64_t hash, const index_t* tokens, index_t ts,
                      index_t len, KvPagePool& pool,
                      std::vector<index_t>& out_pages) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lk(mu_);
  Entry* e = find_locked(hash, tokens, ts, len);
  if (e == nullptr) return false;
  // The references are taken UNDER the cache lock, so a concurrent
  // evict_one cannot release the entry's pages between match and pin.
  for (index_t page : e->pages) {
    pool.add_ref(page);
    out_pages.push_back(page);
  }
  e->stamp = ++clock_;
  return true;
}

void PrefixCache::publish(std::uint64_t hash, const index_t* tokens,
                          index_t ts, index_t len, const index_t* pages,
                          index_t n_pages, KvPagePool& pool) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (Entry* existing = find_locked(hash, tokens, ts, len)) {
    // Same source already cached (its pages necessarily hold the same
    // bits): refresh the stamp, keep the existing pin.
    existing->stamp = ++clock_;
    return;
  }
  QDNN_CHECK(n_pages >= 1 &&
                 n_pages <= static_cast<index_t>(entries_[0].pages.capacity()),
             "PrefixCache: publish of " << n_pages
                                        << " pages exceeds the per-entry "
                                           "bound");
  QDNN_CHECK(ts >= 1 &&
                 ts <= static_cast<index_t>(entries_[0].tokens.capacity()),
             "PrefixCache: publish of " << ts
                                        << " tokens exceeds the per-entry "
                                           "bound");
  // Pick a free entry, or evict the LRU valid one.
  Entry* target = nullptr;
  for (Entry& e : entries_) {
    if (!e.valid) {
      target = &e;
      break;
    }
    if (target == nullptr || e.stamp < target->stamp) target = &e;
  }
  if (target->valid) {
    drop_locked(*target, pool);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  target->valid = true;
  target->hash = hash;
  target->ts = ts;
  target->len = len;
  target->stamp = ++clock_;
  target->tokens.assign(tokens, tokens + ts);
  target->pages.assign(pages, pages + n_pages);
  // The cache's own pin: one reference per page, dropped at eviction.
  for (index_t page : target->pages) pool.add_ref(page);
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

bool PrefixCache::evict_one(KvPagePool& pool) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lk(mu_);
  Entry* lru = nullptr;
  for (Entry& e : entries_) {
    if (!e.valid) continue;
    if (lru == nullptr || e.stamp < lru->stamp) lru = &e;
  }
  if (lru == nullptr) return false;
  drop_locked(*lru, pool);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

index_t PrefixCache::reclaimable_pages(const KvPagePool& pool) const {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  index_t n = 0;
  for (const Entry& e : entries_) {
    if (!e.valid) continue;
    for (index_t page : e.pages)
      if (pool.refcount(page) == 1) ++n;
  }
  return n;
}

index_t PrefixCache::live_entries() const {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  index_t n = 0;
  for (const Entry& e : entries_)
    if (e.valid) ++n;
  return n;
}

}  // namespace qdnn::runtime
