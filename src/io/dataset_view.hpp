// DatasetView: mmap-backed zero-copy random access into a .pgds corpus.
//
// Opening a view reads *no record bytes*: for a format-v2 file the record
// index appended by DatasetWriter (offset / length / split / FNV-1a body
// checksum per record, self-checksummed, located via a fixed footer at EOF)
// is validated arithmetically — contiguity from the first record, bounds
// against the mapping, split-tag range, end-marker agreement — without
// faulting a single record page. decode(i) then decodes exactly one record
// straight out of the mapping through the same budget-enforcing Source the
// streaming reader uses, verifying the record's checksum first, so a v2
// decode is bitwise-equal to what DatasetReader::next would have produced
// and corrupt index entries can never over-read the mapping.
//
// Format-v1 files (no index) fall back to a one-pass offset scan at open:
// the same frames DatasetReader walks, minus the body decode. Random access
// and parallel shard loading then work identically, just without checksums.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "io/pgraph_io.hpp"
#include "model/sample_store.hpp"

namespace pg::io {

class DatasetView {
 public:
  /// Opens `path` read-only and maps it; throws FormatError on malformed
  /// containers (and on I/O failure).
  explicit DatasetView(const std::string& path);

  /// View over bytes owned by the caller (must outlive the view). Same
  /// validation as the file constructor; nothing is copied.
  DatasetView(const void* data, std::size_t size);

  ~DatasetView();
  DatasetView(DatasetView&& other) noexcept;
  DatasetView& operator=(DatasetView&& other) noexcept;
  DatasetView(const DatasetView&) = delete;
  DatasetView& operator=(const DatasetView&) = delete;

  [[nodiscard]] const DatasetMeta& meta() const { return meta_; }
  [[nodiscard]] std::uint16_t format_version() const { return version_; }

  /// Record count.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Split tag of record `i` — straight from the index (v2) or the scan
  /// (v1); never decodes the record.
  [[nodiscard]] Split split(std::size_t i) const;

  /// True when per-record FNV-1a checksums are available (format v2) and
  /// verified on every decode.
  [[nodiscard]] bool has_checksums() const { return version_ >= 2; }

  /// Decodes record `i` into `sample`, replacing its contents. Thread-safe
  /// (const state + local cursor only) and bitwise-identical to the
  /// sequential DatasetReader decode of the same record. Throws FormatError
  /// with the record ordinal on any corruption, including checksum
  /// mismatches (v2).
  void decode(std::size_t i, model::TrainingSample& sample) const;

  /// File offset of record `i`'s frame ("RECD" marker byte).
  [[nodiscard]] std::uint64_t record_offset(std::size_t i) const;

  /// Whole-frame byte length of record `i` (12-byte header + body).
  [[nodiscard]] std::uint64_t record_length(std::size_t i) const;

 private:
  // reindex copies header/record bytes verbatim out of the mapping.
  friend void reindex_dataset(const std::string& in_path,
                              const std::string& out_path);

  struct Entry {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t checksum = 0;
    Split split = Split::kTrain;
  };

  void open_bytes();  // parses header/meta and builds entries_

  const unsigned char* data_ = nullptr;
  std::size_t bytes_ = 0;
  void* mapping_ = nullptr;  // non-null only for the file constructor
  std::size_t mapping_bytes_ = 0;
  DatasetMeta meta_;
  std::uint16_t version_ = 0;
  std::uint64_t records_start_ = 0;
  std::vector<Entry> entries_;
};

/// Decodes every record of `view` into a SampleSet (scalers installed,
/// train/validation partitioned by split tag in record order — the same
/// result as read_sample_set over the equivalent stream, bit for bit).
/// Records decode in parallel; assembly order is fixed, so the result is
/// thread-count-independent.
StoredSampleSet load_sample_set(const DatasetView& view);

/// model::SampleStore over a DatasetView: load(i) decodes record i on
/// demand (out-of-core training never materialises the corpus).
class DatasetSampleStore final : public model::SampleStore {
 public:
  /// Borrows `view`; it must outlive the store.
  explicit DatasetSampleStore(const DatasetView& view) : view_(view) {}

  [[nodiscard]] std::size_t size() const override { return view_.size(); }

  void load(std::size_t i, model::TrainingSample& out) const override {
    view_.decode(i, out);
  }

 private:
  const DatasetView& view_;
};

/// Rewrites the .pgds at `in_path` as format v2 at `out_path`: header and
/// record frames are copied byte-verbatim (only the version field changes),
/// and a fresh index is computed from the record bytes. reindex of a file
/// written by DatasetWriter(v1) is byte-identical to what DatasetWriter(v2)
/// would have produced from the same samples. v2 inputs are re-indexed.
void reindex_dataset(const std::string& in_path, const std::string& out_path);

}  // namespace pg::io
