// Embedding-space approximate-nearest-neighbor index (ROADMAP item 4).
//
// AnnIndex holds a corpus of pooled graph embeddings ([N x dim] rows from
// model/InferenceEngine::embed_batch) plus a k-NN neighbor graph built by
// nn-descent, and answers "which corpus rows are closest to this query
// embedding" via greedy best-first graph search — the primitive behind
// `offload_advisor --similar`, `paragraph-cli ann`, and corpus dedup.
//
// Construction is *synchronous* nn-descent: every iteration derives the
// next neighbor lists purely from the previous generation (neighbors,
// reverse neighbors, and their neighbors — the classic local join),
// double-buffered, with seeded per-node initialisation and (distance,
// index) tie-breaking everywhere. Each node's next list is a pure function
// of the previous state, so the parallel fan-out over nodes is free to
// schedule however it likes — the built index is byte-identical for any
// thread count (ann_test pins this), in the same spirit as the engine's
// bitwise fused-batch contract.
//
// Distances are squared L2, accumulated in double in index order by one
// scalar kernel shared by build and search. The brute-force path instead
// ranks by SIMD `matmul_transpose_b_into` dot-product blocks (|x|^2 - 2qx,
// monotone in the true distance) and then rescores its winners with the
// same scalar kernel — it is the exact reference recall is measured
// against, and the small-N fallback for corpora too small for a graph to
// pay off.
//
// Persistence (.pgann, docs/FORMAT.md): the standard versioned container
// prologue (magic, version, PayloadKind::kAnnIndex, feature-schema hash)
// plus a meta section carrying the *checkpoint fingerprint* of the model
// that produced the embeddings — loading against a retrained checkpoint is
// rejected instead of silently returning neighbors from a stale embedding
// space. Embedding and neighbor sections carry trailing FNV-1a checksums;
// readers work over any io::Source backing, including an mmap'd file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/binary.hpp"  // FormatError — part of the load contract
#include "tensor/matrix.hpp"

namespace pg::ann {

/// Current .pgann container version.
inline constexpr std::uint16_t kAnnFormatVersion = 1;

/// Corpora at or below this size answer search() by brute force: the graph
/// walk's candidate bookkeeping costs more than scanning the whole corpus.
inline constexpr std::size_t kBruteForceFallback = 256;

struct AnnConfig {
  std::size_t k = 10;           ///< neighbors per node (clamped to N-1)
  std::size_t iterations = 12;  ///< nn-descent rounds (early-exit on no change)
  std::uint64_t seed = 42;      ///< deterministic neighbor-list init
};

struct Neighbor {
  std::uint32_t index = 0;  ///< corpus row ordinal
  float distance = 0.0f;    ///< squared L2 (scalar-kernel value)
};

class AnnIndex {
 public:
  AnnIndex() = default;

  /// Builds the k-NN graph over `embeddings` ([N x dim], N >= 1) by
  /// nn-descent. `checkpoint_fingerprint` stamps which model produced the
  /// embeddings (model::checkpoint_fingerprint); load() verifies it.
  /// Deterministic: (embeddings, config) alone fix every byte of the
  /// result, whatever the thread count.
  static AnnIndex build(const tensor::Matrix& embeddings,
                        const AnnConfig& config,
                        std::uint64_t checkpoint_fingerprint);

  [[nodiscard]] std::size_t size() const { return embeddings_.rows(); }
  [[nodiscard]] std::size_t dim() const { return embeddings_.cols(); }
  /// Neighbors per node actually built (config k clamped to N-1).
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] const AnnConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] const tensor::Matrix& embeddings() const { return embeddings_; }
  /// Node `u`'s neighbor list, ascending (distance, index).
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t u) const;

  /// Greedy best-first graph search for the `k` corpus rows nearest to
  /// `query` (size dim()). `ef` bounds the result frontier kept during the
  /// walk (0 = max(4k, 64)); larger ef = higher recall, slower query.
  /// Falls back to brute_force at or below kBruteForceFallback rows.
  [[nodiscard]] std::vector<Neighbor> search(std::span<const float> query,
                                             std::size_t k,
                                             std::size_t ef = 0) const;

  /// Exact top-k by full scan — SIMD matmul dot-product blocks, winners
  /// rescored with the scalar distance kernel. The recall reference.
  [[nodiscard]] std::vector<Neighbor> brute_force(std::span<const float> query,
                                                  std::size_t k) const;

  /// Batched brute force over `queries` ([M x dim]); out[i] is query i's
  /// exact top-k. One matmul per (query-block, corpus-block) pair.
  [[nodiscard]] std::vector<std::vector<Neighbor>> brute_force_batch(
      const tensor::Matrix& queries, std::size_t k) const;

  // --- persistence (.pgann) ------------------------------------------------

  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;

  /// Decodes a .pgann from any Source backing. Throws io::FormatError on
  /// malformed input (bad magic/kind/version, schema mismatch, truncation,
  /// section checksum mismatch — named with its section and byte offset —
  /// out-of-range neighbor ids), and when `expected_fingerprint` is given
  /// and differs from the stored one (stale index vs a newer checkpoint).
  static AnnIndex load(io::Source& src,
                       std::optional<std::uint64_t> expected_fingerprint = {});
  static AnnIndex load(const void* data, std::size_t size,
                       std::optional<std::uint64_t> expected_fingerprint = {});
  /// mmaps `path` and decodes through a memory-backed Source.
  static AnnIndex load_file(
      const std::string& path,
      std::optional<std::uint64_t> expected_fingerprint = {});

 private:
  void compute_norms();
  /// Derives the undirected search adjacency (CSR over forward + reverse
  /// edges) from neighbors_. Pure k-NN graphs are poorly navigable —
  /// clusters are internally dense but greedy walks cannot leave them;
  /// reverse edges restore the escape routes. Derived data only: rebuilt
  /// after build() and load(), never persisted.
  void build_search_adjacency();

  tensor::Matrix embeddings_;             // [N x dim]
  std::vector<std::uint32_t> neighbors_;  // flat [N x k_]
  std::vector<std::uint32_t> adjacency_;  // undirected CSR payload
  std::vector<std::uint32_t> adj_offsets_;  // CSR offsets, size N+1
  std::vector<float> norms_;              // per-row |x|^2 (brute-force blocks)
  std::size_t k_ = 0;
  AnnConfig config_;
  std::uint64_t fingerprint_ = 0;
};

/// The shared scalar distance kernel: squared L2 accumulated in double in
/// index order — bitwise-deterministic everywhere it is called from.
[[nodiscard]] float l2_distance_sq(std::span<const float> a,
                                   std::span<const float> b);

}  // namespace pg::ann
