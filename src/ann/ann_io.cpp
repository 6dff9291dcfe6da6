// .pgann persistence for AnnIndex (layout in docs/FORMAT.md).
//
// The container reuses the standard pg::io prologue — magic, version,
// PayloadKind::kAnnIndex, feature-schema hash, section table — followed by
// three sections: meta (shape, build config, checkpoint fingerprint),
// embeddings (f32 rows + FNV-1a checksum), neighbors (u32 ids + FNV-1a
// checksum). Writers measure each section with the same put_* code that
// emits it, so table sizes and checksums cannot drift from the bytes.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>

#include "ann/ann_index.hpp"
#include "io/format_detail.hpp"
#include "support/check.hpp"

namespace pg::ann {
namespace {

namespace d = io::detail;

/// Squared-L2 metric tag in the meta section — the only metric today, but
/// stamped so a future cosine index cannot be confused for one.
constexpr std::uint8_t kMetricSquaredL2 = 1;

template <class Sink>
void put_ann_meta(Sink& sink, const AnnIndex& index,
                  std::uint64_t fingerprint) {
  io::put_u64(sink, index.size());
  io::put_u64(sink, index.dim());
  io::put_u64(sink, index.k());
  io::put_u64(sink, index.config().seed);
  io::put_u64(sink, index.config().iterations);
  io::put_u64(sink, fingerprint);
  io::put_u8(sink, kMetricSquaredL2);
}

[[noreturn]] void throw_checksum_mismatch(const char* section,
                                          std::uint64_t offset) {
  throw io::FormatError(std::string("corrupt ann index: checksum mismatch (") +
                        section + " section at byte offset " +
                        std::to_string(offset) +
                        " holds altered payload bytes)");
}

}  // namespace

void AnnIndex::save(std::ostream& os) const {
  check(size() >= 1, "AnnIndex::save: empty index");

  io::CountingSink meta_size;
  put_ann_meta(meta_size, *this, fingerprint_);
  d::FnvCountingSink emb;
  io::put_f32s(emb, embeddings_.data());
  d::FnvCountingSink nbr;
  io::put_u32s(nbr, neighbors_);

  io::StreamSink sink{os};
  sink.bytes(d::kMagic, sizeof d::kMagic);
  io::put_u16(sink, kAnnFormatVersion);
  io::put_u16(sink, static_cast<std::uint16_t>(io::PayloadKind::kAnnIndex));
  io::put_u64(sink, io::feature_schema_hash());
  io::put_u32(sink, 3);  // section count
  const d::SectionEntry table[] = {
      {d::kSecAnnMeta, meta_size.count},
      {d::kSecAnnEmbeddings, emb.count + 8},  // payload + trailing checksum
      {d::kSecAnnNeighbors, nbr.count + 8},
  };
  for (const d::SectionEntry& e : table) {
    io::put_u32(sink, e.id);
    io::put_u64(sink, e.size);
  }
  put_ann_meta(sink, *this, fingerprint_);
  io::put_f32s(sink, embeddings_.data());
  io::put_u64(sink, emb.hash);
  io::put_u32s(sink, neighbors_);
  io::put_u64(sink, nbr.hash);
  if (!os) throw io::FormatError("stream write failure while saving ann index");
}

void AnnIndex::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw io::FormatError("cannot open for writing: " + path);
  save(os);
}

AnnIndex AnnIndex::load(io::Source& src,
                        std::optional<std::uint64_t> expected_fingerprint) {
  const d::Prologue prologue =
      d::get_prologue(src, io::PayloadKind::kAnnIndex, kAnnFormatVersion);

  AnnIndex index;
  std::uint64_t count = 0;
  std::uint64_t dim = 0;
  std::uint64_t k = 0;
  bool have_meta = false;
  bool have_embeddings = false;
  bool have_neighbors = false;
  for (const d::SectionEntry& entry : prologue.table) {
    const std::uint64_t section_offset = src.consumed();
    src.push_budget(entry.size);
    switch (entry.id) {
      case d::kSecAnnMeta: {
        count = io::get_count(src, "ann corpus count");
        dim = io::get_count(src, "ann embedding dim");
        k = io::get_count(src, "ann neighbor count");
        if (count == 0 || dim == 0)
          throw io::FormatError("corrupt ann index: empty corpus shape");
        if (k >= count)
          throw io::FormatError(
              "corrupt ann index: neighbor count not below corpus count");
        index.config_.k = static_cast<std::size_t>(k);
        index.config_.seed = io::get_u64(src);
        index.config_.iterations =
            static_cast<std::size_t>(io::get_u64(src));
        index.fingerprint_ = io::get_u64(src);
        if (io::get_u8(src) != kMetricSquaredL2)
          throw io::FormatError("corrupt ann index: unknown distance metric");
        if (expected_fingerprint &&
            *expected_fingerprint != index.fingerprint_)
          throw io::FormatError(
              "stale ann index: built from a different model checkpoint "
              "(fingerprint mismatch — rebuild with `paragraph-cli ann "
              "build`)");
        have_meta = true;
        break;
      }
      case d::kSecAnnEmbeddings: {
        if (!have_meta)
          throw io::FormatError(
              "corrupt ann index: embeddings section precedes meta");
        if (count * dim * sizeof(float) > src.remaining_budget())
          throw io::FormatError(
              "corrupt ann index: embeddings larger than their section");
        d::get_f32_matrix(src, index.embeddings_, count, dim);
        // Hash the payload exactly as stored: the decoded values' LE bytes,
        // one span through the checksum sink.
        d::FnvCountingSink hashed;
        io::put_f32s(hashed, index.embeddings_.data());
        if (io::get_u64(src) != hashed.hash)
          throw_checksum_mismatch("'embeddings'", section_offset);
        have_embeddings = true;
        break;
      }
      case d::kSecAnnNeighbors: {
        if (!have_meta)
          throw io::FormatError(
              "corrupt ann index: neighbors section precedes meta");
        if (count * k * sizeof(std::uint32_t) > src.remaining_budget())
          throw io::FormatError(
              "corrupt ann index: neighbors larger than their section");
        io::get_u32s(src, index.neighbors_, count * k);
        for (const std::uint32_t v : index.neighbors_)
          if (v >= count)
            throw io::FormatError(
                "corrupt ann index: neighbor id out of range");
        d::FnvCountingSink hashed;
        io::put_u32s(hashed, index.neighbors_);
        if (io::get_u64(src) != hashed.hash)
          throw_checksum_mismatch("'neighbors'", section_offset);
        have_neighbors = true;
        break;
      }
      default:
        src.skip(entry.size);  // forward-compatible: unknown section
    }
    src.pop_budget();
  }
  if (!have_meta || !have_embeddings || !have_neighbors)
    throw io::FormatError(
        "corrupt ann index: missing meta/embeddings/neighbors section");

  index.k_ = static_cast<std::size_t>(k);
  index.compute_norms();
  index.build_search_adjacency();
  return index;
}

AnnIndex AnnIndex::load(const void* data, std::size_t size,
                        std::optional<std::uint64_t> expected_fingerprint) {
  io::Source src(data, size);
  return load(src, expected_fingerprint);
}

AnnIndex AnnIndex::load_file(const std::string& path,
                             std::optional<std::uint64_t> expected_fingerprint) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw io::FormatError("cannot open for reading: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw io::FormatError("cannot stat: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw io::FormatError("truncated file: unexpected end of data");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) throw io::FormatError("cannot mmap: " + path);
  struct Unmapper {
    void* p;
    std::size_t n;
    ~Unmapper() { ::munmap(p, n); }
  } guard{map, size};
  return load(map, size, expected_fingerprint);
}

}  // namespace pg::ann
