// Low-level primitives for the pg::io binary formats.
//
// Every multi-byte value is written in explicit little-endian byte order,
// so files written on any host read back identically on any other. Scalars
// are assembled by shifts; arrays (put_u32s/get_f32s/...) move as one block
// copy and are byte-swapped only on a big-endian host. Floats travel as
// their IEEE-754 bit patterns — round trips are bit-exact, including NaN
// payloads.
//
// Writers are templates over a Sink so the same serialisation code both
// *measures* (CountingSink) and *emits* (StreamSink) a payload; the
// section-table sizes in the container header therefore come from the very
// code that writes the bytes and cannot drift from it.
//
// Readers operate on a Source that throws FormatError on truncation and
// enforces per-section byte budgets, so a corrupt section table cannot make
// a reader run off into a neighbouring section or the rest of the file.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pg::io {

/// A malformed/corrupt/incompatible *input file*. Deliberately distinct
/// from pg::InternalError: bad bytes on disk are an environmental condition
/// callers may want to catch and report, not a library bug.
class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Upper bound on any single length/count field. Far above every legitimate
/// graph in this project, low enough that a corrupt count fails cleanly
/// instead of attempting a multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxReasonableCount = 1ull << 28;

/// Readers size a container at most this many elements ahead of the bytes
/// that fill it, so a corrupt count field can never drive a giant
/// allocation before the reads that would expose it.
inline constexpr std::uint64_t kMaxPrealloc = 1ull << 16;

inline std::uint32_t byteswap32(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0xff00u) | ((v << 8) & 0xff0000u) |
         (v << 24);
}

/// The little-endian u32 stored at `p` (no alignment requirement).
inline std::uint32_t load_u32le(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = byteswap32(v);
  return v;
}

// --- sinks ----------------------------------------------------------------

struct StreamSink {
  std::ostream& os;
  void bytes(const void* data, std::size_t n) {
    os.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  }
};

struct CountingSink {
  std::uint64_t count = 0;
  void bytes(const void*, std::size_t n) { count += n; }
};

template <class Sink>
void put_u8(Sink& sink, std::uint8_t v) {
  sink.bytes(&v, 1);
}

template <class Sink>
void put_u16(Sink& sink, std::uint16_t v) {
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v),
                             static_cast<std::uint8_t>(v >> 8)};
  sink.bytes(b, sizeof b);
}

template <class Sink>
void put_u32(Sink& sink, std::uint32_t v) {
  const std::uint8_t b[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  sink.bytes(b, sizeof b);
}

template <class Sink>
void put_u64(Sink& sink, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  sink.bytes(b, sizeof b);
}

template <class Sink>
void put_i32(Sink& sink, std::int32_t v) {
  put_u32(sink, static_cast<std::uint32_t>(v));
}

template <class Sink>
void put_i64(Sink& sink, std::int64_t v) {
  put_u64(sink, static_cast<std::uint64_t>(v));
}

template <class Sink>
void put_f32(Sink& sink, float v) {
  put_u32(sink, std::bit_cast<std::uint32_t>(v));
}

template <class Sink>
void put_f64(Sink& sink, double v) {
  put_u64(sink, std::bit_cast<std::uint64_t>(v));
}

namespace detail {

/// Writes 4-byte values as consecutive little-endian words: one sink call
/// on a little-endian host, byte-swapped through a bounded buffer otherwise.
template <class Sink, class T>
void put_le32s(Sink& sink, std::span<const T> values) {
  static_assert(sizeof(T) == sizeof(std::uint32_t));
  if (values.empty()) return;
  if constexpr (std::endian::native == std::endian::little) {
    sink.bytes(values.data(), values.size_bytes());
  } else {
    std::uint32_t chunk[256];
    for (std::size_t i = 0; i < values.size(); i += std::size(chunk)) {
      const std::size_t n = std::min(std::size(chunk), values.size() - i);
      for (std::size_t j = 0; j < n; ++j)
        chunk[j] = byteswap32(std::bit_cast<std::uint32_t>(values[i + j]));
      sink.bytes(chunk, n * sizeof(std::uint32_t));
    }
  }
}

}  // namespace detail

/// Bulk writers: the same bytes as a put_u32/put_f32 loop over `values`,
/// in one sink call (a few on a big-endian host). Empty spans emit nothing.
template <class Sink>
void put_u32s(Sink& sink, std::span<const std::uint32_t> values) {
  detail::put_le32s(sink, values);
}

template <class Sink>
void put_f32s(Sink& sink, std::span<const float> values) {
  detail::put_le32s(sink, values);
}

template <class Sink>
void put_string(Sink& sink, const std::string& s) {
  put_u32(sink, static_cast<std::uint32_t>(s.size()));
  sink.bytes(s.data(), s.size());
}

// --- source ---------------------------------------------------------------

/// Byte source with truncation detection and an optional byte budget (the
/// current section's declared size). Every read is accounted; a section
/// that declares fewer bytes than its payload needs fails with "section
/// overrun" instead of silently consuming its neighbour's bytes.
///
/// Two backings share the one implementation so every codec works on both:
///   * an istream (the streaming readers), and
///   * an in-memory byte range (the mmap-backed DatasetView decodes records
///     straight out of the mapping, the server decodes a request straight
///     out of its frame buffer — same truncation/budget discipline, so a
///     corrupt count can never make a decode over-read the range).
class Source {
 public:
  explicit Source(std::istream& is) : is_(&is) {}

  /// Memory-backed source over [data, data + size). The range must outlive
  /// the Source; nothing is copied up front.
  Source(const void* data, std::size_t size)
      : data_(static_cast<const unsigned char*>(data)), size_(size) {}

  [[nodiscard]] bool in_memory() const { return is_ == nullptr; }

  void bytes(void* out, std::size_t n);

  /// Throws what bytes() would for a read of `count` elements of
  /// `elem_bytes` each, without reading: "section overrun" past the active
  /// budget, and (memory mode only — a stream cannot know) "truncated"
  /// past the end of the range. Lets a reader size a container only for
  /// bytes that are there.
  void require(std::uint64_t count, std::size_t elem_bytes) const;

  /// Memory mode only: consumes the next `n` bytes and returns them in
  /// place (valid as long as the backing range), with bytes()' checks.
  const unsigned char* view(std::size_t n);

  /// Discards exactly `n` bytes (unknown forward-compatible sections).
  void skip(std::uint64_t n);

  /// Total bytes consumed so far.
  [[nodiscard]] std::uint64_t consumed() const { return consumed_; }

  /// Restricts subsequent reads to the next `n` bytes. Only one budget can
  /// be active at a time (sections do not nest in this format).
  void push_budget(std::uint64_t n);

  /// Ends the current section: the payload must have consumed its declared
  /// size exactly.
  void pop_budget();

  /// Bytes left in the active budget (max u64 when none is active). Lets
  /// readers reject a corrupt count *before* sizing a container for it.
  [[nodiscard]] std::uint64_t remaining_budget() const {
    return budget_active_ ? budget_end_ - consumed_ : ~0ull;
  }

 private:
  /// bytes()' checks for a read of `n` bytes (see require()).
  void check_bytes(std::uint64_t n) const;

  std::istream* is_ = nullptr;          // stream backing (null in memory mode)
  const unsigned char* data_ = nullptr;  // memory backing (null in stream mode)
  std::size_t size_ = 0;                 // memory backing: total bytes
  std::uint64_t consumed_ = 0;
  std::uint64_t budget_end_ = 0;  // consumed_ limit; 0 = no active budget
  bool budget_active_ = false;
};

std::uint8_t get_u8(Source& src);
std::uint16_t get_u16(Source& src);
std::uint32_t get_u32(Source& src);
std::uint64_t get_u64(Source& src);
std::int32_t get_i32(Source& src);
std::int64_t get_i64(Source& src);
float get_f32(Source& src);
double get_f64(Source& src);
std::string get_string(Source& src);

/// Bulk little-endian arrays: one budget check, one truncation check and
/// one copy (one istream::read in stream mode) for the whole array, then a
/// byte swap on a big-endian host only. `n == 0` reads nothing.
void get_u32s(Source& src, std::uint32_t* out, std::size_t n);
void get_f32s(Source& src, float* out, std::size_t n);

/// The same into `out`, resized to `n` only as the bytes arrive: memory
/// mode checks that all `n` elements are present before sizing anything;
/// stream mode grows `out` by at most kMaxPrealloc elements per read.
void get_u32s(Source& src, std::vector<std::uint32_t>& out, std::uint64_t n);
void get_f32s(Source& src, std::vector<float>& out, std::uint64_t n);

/// The next `n` bytes as one contiguous block: in place in memory mode,
/// otherwise read into `staging` under get_u32s' growth rule. The pointer
/// stays valid while the source's range (or `staging`) does.
const unsigned char* get_block(Source& src, std::uint64_t n,
                               std::vector<unsigned char>& staging);

/// `get_u64` + sanity cap: throws FormatError when the value exceeds
/// kMaxReasonableCount (corrupt count fields fail before they allocate).
std::uint64_t get_count(Source& src, const char* what);

/// `get_count` + budget fit: additionally rejects counts whose elements
/// (at `min_bytes_per_element` each, the smallest legal encoding) cannot
/// fit in the remaining section budget — so a corrupt count can never
/// drive a container allocation bigger than the section it came from.
std::uint64_t get_count(Source& src, const char* what,
                        std::uint64_t min_bytes_per_element);

}  // namespace pg::io
