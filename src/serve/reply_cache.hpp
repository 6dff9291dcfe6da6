// Serve-time reply cache (docs/SERVING.md): a bytes-keyed LRU of scaled
// predictions, one per Server, shared by every io thread and worker shard.
//
// The whole predict pipeline (decode -> pack -> forward) is a deterministic
// function of the request's wire bytes, so a byte-identical repeat can skip
// decode, queue and forward and reuse the stored prediction: it is bit for
// bit what recomputation gives (serve_test pins this). Keys compare by their
// full bytes, never by hash alone. A request is either a bytes hit or a full
// forward; there is no approximate match.
//
// Lookup, refresh, insert and eviction are O(1) apart from hashing and
// comparing the key: entries live in a recency list (front = most recently
// used) and the index maps views of the list's own key strings to list
// positions. Each call hashes its request once, before taking the lock;
// a request is tens of KiB, so rehashing it under the lock for every map
// operation would cost more than the map itself. Counters are monotonic
// and surface through ServerStats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace pg::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class ReplyCache {
 public:
  /// `capacity` entries are kept before least-recently-used eviction; a
  /// capacity of 0 stores nothing.
  explicit ReplyCache(std::size_t capacity) : capacity_(capacity) {}

  /// The stored prediction for a byte-identical request, refreshing its
  /// recency. Counts one hit or one miss.
  std::optional<double> lookup(std::string_view request);

  /// Stores `request -> scaled` as the most recently used entry, evicting
  /// the least recently used one at capacity. A key already present (two
  /// identical requests that both missed) takes the new value in place.
  void insert(std::string request, double scaled);

  [[nodiscard]] CacheStats stats() const;

 private:
  struct Entry {
    std::string request;
    std::size_t hash = 0;
    double scaled = 0.0;
  };
  using List = std::list<Entry>;

  // Request bytes with their precomputed hash. Equal only when every byte
  // is: the hash is a shortcut for the mismatch, never the match.
  struct Key {
    std::string_view bytes;
    std::size_t hash = 0;
    bool operator==(const Key& other) const {
      return hash == other.hash && bytes == other.bytes;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const { return key.hash; }
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  List lru_;
  // Keys view lru_'s own strings: list nodes never move, so a view stays
  // valid until its entry is erased (the index entry goes first).
  std::unordered_map<Key, List::iterator, KeyHash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace pg::serve
