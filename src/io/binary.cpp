// Source: truncation-checked, budget-enforcing byte reader over either an
// istream or an in-memory byte range (the mmap and frame-buffer paths),
// plus the scalar and bulk-array little-endian readers on top of it.
#include "io/binary.hpp"

#include <array>
#include <cstring>

namespace pg::io {

namespace {

[[noreturn]] void throw_overrun() {
  throw FormatError("section overrun: payload larger than its declared size");
}

[[noreturn]] void throw_truncated() {
  throw FormatError("truncated file: unexpected end of data");
}

}  // namespace

void Source::check_bytes(std::uint64_t n) const {
  if (n > remaining_budget()) throw_overrun();
  if (in_memory() && n > size_ - consumed_) throw_truncated();
}

void Source::require(std::uint64_t count, std::size_t elem_bytes) const {
  // A byte count that overflows u64 is past any budget or range.
  if (count > ~0ull / elem_bytes) throw_overrun();
  check_bytes(count * elem_bytes);
}

void Source::bytes(void* out, std::size_t n) {
  check_bytes(n);
  if (n == 0) return;
  if (in_memory()) {
    std::memcpy(out, data_ + consumed_, n);
    consumed_ += n;
    return;
  }
  is_->read(static_cast<char*>(out), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is_->gcount()) != n || !*is_) throw_truncated();
  consumed_ += n;
}

const unsigned char* Source::view(std::size_t n) {
  if (!in_memory()) throw FormatError("internal: view() on a stream source");
  check_bytes(n);
  const unsigned char* p = data_ + consumed_;
  consumed_ += n;
  return p;
}

void Source::skip(std::uint64_t n) {
  if (in_memory()) {
    // Memory mode advances without copying; same checks as bytes().
    check_bytes(n);
    consumed_ += n;
    return;
  }
  std::array<char, 4096> scratch;
  while (n > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, scratch.size()));
    bytes(scratch.data(), chunk);
    n -= chunk;
  }
}

void Source::push_budget(std::uint64_t n) {
  if (budget_active_) throw FormatError("internal: nested section budgets");
  budget_end_ = consumed_ + n;
  budget_active_ = true;
}

void Source::pop_budget() {
  if (!budget_active_) throw FormatError("internal: no active section budget");
  if (consumed_ != budget_end_)
    throw FormatError("section underrun: payload smaller than its declared size");
  budget_active_ = false;
}

std::uint8_t get_u8(Source& src) {
  std::uint8_t b = 0;
  src.bytes(&b, 1);
  return b;
}

std::uint16_t get_u16(Source& src) {
  std::uint8_t b[2];
  src.bytes(b, sizeof b);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t get_u32(Source& src) {
  unsigned char b[4];
  src.bytes(b, sizeof b);
  return load_u32le(b);
}

std::uint64_t get_u64(Source& src) {
  std::uint8_t b[8];
  src.bytes(b, sizeof b);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

std::int32_t get_i32(Source& src) {
  return static_cast<std::int32_t>(get_u32(src));
}

std::int64_t get_i64(Source& src) {
  return static_cast<std::int64_t>(get_u64(src));
}

float get_f32(Source& src) { return std::bit_cast<float>(get_u32(src)); }

double get_f64(Source& src) { return std::bit_cast<double>(get_u64(src)); }

namespace {

/// Fills `out` (a vector or string) with `n` elements' raw bytes, sized
/// only for bytes that are there: memory mode checks the whole array first,
/// stream mode grows by at most kMaxPrealloc elements per read. The whole
/// array is checked against the budget up front in both modes, so both
/// report the same error for the same bytes.
template <class Container>
void read_array(Source& src, Container& out, std::uint64_t n) {
  using T = typename Container::value_type;
  src.require(n, sizeof(T));
  out.clear();
  while (out.size() < n) {
    const std::size_t have = out.size();
    const std::size_t chunk = static_cast<std::size_t>(
        src.in_memory() ? n : std::min<std::uint64_t>(n - have, kMaxPrealloc));
    out.resize(have + chunk);
    src.bytes(out.data() + have, chunk * sizeof(T));
  }
}

template <class T>
void swap_if_big_endian([[maybe_unused]] T* values,
                        [[maybe_unused]] std::size_t n) {
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < n; ++i)
      values[i] = std::bit_cast<T>(
          byteswap32(std::bit_cast<std::uint32_t>(values[i])));
  }
}

}  // namespace

std::string get_string(Source& src) {
  const std::uint32_t len = get_u32(src);
  // Checking against the section budget (not just the global cap) keeps a
  // corrupt length from allocating anything before the read would fail.
  if (len > kMaxReasonableCount || len > src.remaining_budget())
    throw FormatError("corrupt string length");
  std::string s;
  read_array(src, s, len);
  return s;
}

void get_u32s(Source& src, std::uint32_t* out, std::size_t n) {
  src.bytes(out, n * sizeof(std::uint32_t));
  swap_if_big_endian(out, n);
}

void get_f32s(Source& src, float* out, std::size_t n) {
  src.bytes(out, n * sizeof(float));
  swap_if_big_endian(out, n);
}

void get_u32s(Source& src, std::vector<std::uint32_t>& out, std::uint64_t n) {
  read_array(src, out, n);
  swap_if_big_endian(out.data(), out.size());
}

void get_f32s(Source& src, std::vector<float>& out, std::uint64_t n) {
  read_array(src, out, n);
  swap_if_big_endian(out.data(), out.size());
}

const unsigned char* get_block(Source& src, std::uint64_t n,
                               std::vector<unsigned char>& staging) {
  if (src.in_memory()) return src.view(static_cast<std::size_t>(n));
  read_array(src, staging, n);
  return staging.data();
}

std::uint64_t get_count(Source& src, const char* what) {
  const std::uint64_t v = get_u64(src);
  if (v > kMaxReasonableCount)
    throw FormatError(std::string("corrupt count field: ") + what);
  return v;
}

std::uint64_t get_count(Source& src, const char* what,
                        std::uint64_t min_bytes_per_element) {
  const std::uint64_t count = get_count(src, what);
  // count * min_bytes_per_element > remaining, without overflow.
  if (min_bytes_per_element > 0 &&
      count > src.remaining_budget() / min_bytes_per_element)
    throw FormatError(std::string("corrupt count field: ") + what +
                      " larger than its section");
  return count;
}

}  // namespace pg::io
