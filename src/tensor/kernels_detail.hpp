// Internal seam between the dispatch front-end (kernels.cpp) and the
// per-ISA kernel translation units. Each TU compiles kernels_impl.inl once
// with its own lane configuration and exports one table plus compile-time
// facts the probe needs.
#pragma once

#include <cstddef>

#include "tensor/simd.hpp"

namespace pg::tensor::simd::detail {

const KernelTable& table_scalar();
const KernelTable& table_vec128();  // SSE2 (x86) / NEON (aarch64)
const KernelTable& table_avx2();

/// Whether the 128-bit / 256-bit TUs were actually built with vector
/// intrinsics (they degrade to the scalar implementation when the compiler
/// or target lacks the ISA, so the symbols always exist).
bool vec128_compiled();
bool avx2_compiled();

/// "sse2" on x86, "neon" on aarch64 (display only).
const char* vec128_isa_name();

/// This thread's grow-only staging buffer for matmul_t_b's widened B^T, at
/// least `n` doubles. Shared by every level's table; valid until this
/// thread's next call.
double* staging_doubles(std::size_t n);

}  // namespace pg::tensor::simd::detail
