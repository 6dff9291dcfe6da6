#include "serve/reply_cache.hpp"

#include <functional>
#include <utility>

namespace pg::serve {

std::optional<double> ReplyCache::lookup(std::string_view request) {
  const Key key{request, std::hash<std::string_view>{}(request)};
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->scaled;
}

void ReplyCache::insert(std::string request, double scaled) {
  const std::size_t hash = std::hash<std::string_view>{}(request);
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return;
  if (const auto it = index_.find(Key{request, hash}); it != index_.end()) {
    it->second->scaled = scaled;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(Key{lru_.back().request, lru_.back().hash});
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(Entry{std::move(request), hash, scaled});
  index_.emplace(Key{lru_.front().request, hash}, lru_.begin());
}

CacheStats ReplyCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return CacheStats{hits_, misses_, evictions_};
}

}  // namespace pg::serve
