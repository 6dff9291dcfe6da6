// Runtime-dispatched SIMD kernel layer under the tensor/nn hot paths.
//
// Design contract — BITWISE determinism across dispatch levels:
//   * Every kernel vectorises across *independent output lanes* only (the
//     `j` columns of a row-major destination, or independent elements of an
//     elementwise map). Reduction axes (`k` in matmuls, edge groups in the
//     RGAT softmax) always run in the scalar program order.
//   * Multiplies and adds are issued as separate instructions — never FMA —
//     and the kernel translation units are compiled with -ffp-contract=off,
//     so each lane performs exactly the float operations of the scalar
//     reference. A prediction, gradient, or trained checkpoint is therefore
//     byte-identical whether it ran under scalar, SSE2/NEON, or AVX2
//     (pinned by kernels_test).
//   * The backward kernels follow the same rule. Where the scalar reference
//     reduces in double (every element of A * B^T: the Linear and RGAT input
//     gradients and the W_r^T scatter), the kernel runs one double lane per
//     output element: start at 0, add the exact double product of the two
//     floats in kk order, round to float once. The RGAT edge backward keeps
//     each edge's j-reduction in scalar j order (it only interleaves
//     independent edges) and vectorises the gated dg updates across j.
//
// Dispatch: the best level is probed once at startup (compile-time ISA
// availability + cpuid) and can be overridden with PARAGRAPH_SIMD=
// scalar|sse2|avx2 ("neon" names the 128-bit level on aarch64). Unknown
// names fall back to the probe; known-but-unsupported levels clamp down to
// the best supported one. Tests, benches, and the CLI's --simd flag may
// re-select with set_active_level(); that setter is not thread-safe against
// concurrently running kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "tensor/align.hpp"

namespace pg::tensor::simd {

/// Dispatch levels, ordered by preference. kSse2 is the 128-bit lane level
/// (SSE2 on x86, NEON on aarch64); kAvx2 the 256-bit one (x86 only).
enum class SimdLevel : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Adam hyper-parameters + per-step bias corrections for the fused update.
struct AdamStep {
  double beta1 = 0.9;
  double beta2 = 0.999;
  double learning_rate = 1e-3;
  double epsilon = 1e-8;
  double weight_decay = 0.0;
  double bias1 = 1.0;  // 1 - beta1^t
  double bias2 = 1.0;  // 1 - beta2^t
};

/// One relation's operands for KernelTable::rgat_edge_backward. The edge
/// arrays are the relation's blocks (indexed by the relation's own edge
/// slots); g, dg, ds_src and ds_dst start at the relation's first active row
/// (indexed by local node); dpre is indexed by global node.
struct RgatEdgeBackward {
  const std::uint32_t* group_offsets = nullptr;  // num_groups + 1
  const std::uint32_t* group_dst = nullptr;      // local dst per group
  std::size_t num_groups = 0;
  const std::uint32_t* nodes = nullptr;          // local -> global
  std::size_t num_active = 0;
  const std::uint32_t* src_local = nullptr;      // per edge
  const float* gates = nullptr;                  // per edge
  const float* alpha = nullptr;                  // per edge (forward softmax)
  const float* lrg = nullptr;                    // per edge, LeakyReLU'(raw)
  const float* g = nullptr;                      // [num_active x out]
  const float* dpre = nullptr;                   // [N x out]
  const float* a_src = nullptr;                  // [out]
  const float* a_dst = nullptr;                  // [out]
  float* dscore = nullptr;                       // per edge, scratch
  float* dg = nullptr;                           // [num_active x out], +=
  float* ds_src = nullptr;                       // [num_active], +=
  float* ds_dst = nullptr;                       // [num_active], +=
  float* da_src = nullptr;                       // [out], +=
  float* da_dst = nullptr;                       // [out], +=
  std::size_t out = 0;
};

/// One dispatch level's kernel entry points. All pointers are non-null in
/// every table; raw-pointer signatures so nn/ and tensor/ call sites can
/// pass workspace-backed storage without shape re-validation (callers check
/// shapes before dispatch).
struct KernelTable {
  /// C = A * B, i-k-j order with the dense/sparse per-row hybrid (zero-skip
  /// for mostly-zero rows, branchless otherwise). C is fully written, row
  /// by row, so a caller may split the rows (matmul_into does).
  void (*matmul)(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n);
  /// C += A^T * B without materialising the transpose (kk-outer loop over
  /// A's rows, zero-skip on A entries). m = A.cols, k = A.rows, n = B.cols.
  /// A non-null `a_rows` gathers A: row kk of A is a[a_rows[kk] * m + :]
  /// (the RGAT dW_r += gather(x)^T dg, with no gathered copy of x).
  void (*matmul_t_a_acc)(const float* a, const std::uint32_t* a_rows,
                         const float* b, float* c, std::size_t m,
                         std::size_t k, std::size_t n);
  /// C = A * B^T, A [m x k], B [n x k], C [m x n]: every element is a
  /// double accumulator started at 0 that adds double(a) * double(b) in kk
  /// order and rounds to float once. B^T is staged (widened to double) in a
  /// per-thread grow-only buffer of the kernel layer, so the j lanes load
  /// contiguously. A non-null `scatter_rows` makes it the RGAT input-
  /// gradient scatter: C[scatter_rows[i]] += (A * B^T)[i] (the float add on
  /// top of the rounded sum); otherwise rows 0..m of C are overwritten.
  void (*matmul_t_b)(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n,
                     const std::uint32_t* scatter_rows);
  /// sums[j] += sum_i a[i,j] (bias-gradient reduction; row order preserved).
  void (*column_sums_acc)(float* sums, const float* a, std::size_t rows,
                          std::size_t cols);
  /// out[s,:] = mean of a rows [offsets[s], offsets[s+1]); per-segment sum
  /// then scale, row order preserved. Segments must be non-empty (checked
  /// by the tensor::segment_row_mean_into wrapper).
  void (*segment_row_mean)(float* out, const float* a,
                           const std::uint32_t* offsets,
                           std::size_t num_segments, std::size_t cols);
  /// y[i,:] += bias for every row (the Linear/RGAT bias broadcast).
  void (*add_bias_rows)(float* y, const float* bias, std::size_t rows,
                        std::size_t cols);
  void (*relu)(float* y, const float* x, std::size_t n);
  void (*relu_backward)(float* dx, const float* dy, const float* x,
                        std::size_t n);
  void (*leaky_relu)(float* y, const float* x, float slope, std::size_t n);
  void (*leaky_relu_grad)(float* g, const float* x, float slope,
                          std::size_t n);
  /// One parameter tensor's Adam update (double-lane math, float storage),
  /// element order and rounding points identical to the scalar reference.
  void (*adam_update)(float* theta, const float* g, float* m, float* v,
                      std::size_t n, const AdamStep& step);
  /// RGAT fused gather->project: for i in [0, na),
  ///   gbuf[(row_off + i) * out + :] += x[nodes[i] * in + :] * w
  /// with the same dense/sparse hybrid as matmul. gbuf rows start zeroed.
  void (*rgat_gather_project)(const std::uint32_t* nodes, std::size_t na,
                              const float* x, std::size_t in, const float* w,
                              float* gbuf, std::size_t out,
                              std::size_t row_off);
  /// RGAT grouped attention + gated scatter over one relation's CSR arrays:
  /// per destination group, raw logits (score gather), LeakyReLU, max-shifted
  /// exp/softmax (scalar, order-pinned) and the alpha*gate-weighted scatter
  /// of source projections into pre[group_dst_global]. raw/alpha are the
  /// relation's edge blocks (already offset by the caller).
  void (*rgat_attention_scatter)(const std::uint32_t* group_offsets,
                                 const std::uint32_t* group_dst,
                                 std::size_t num_groups,
                                 const std::uint32_t* nodes,
                                 const std::uint32_t* src_local,
                                 const float* gates, const float* ss,
                                 const float* sd, float slope, float* raw,
                                 float* alpha, const float* gbuf, float* pre,
                                 std::size_t out, std::size_t row_off);
  /// RGAT attention backward over one relation (see RgatEdgeBackward): per
  /// destination group, dscore_e = gate_e * (dpre_v . g_src) (one double
  /// j-reduction per edge, in scalar j order), the softmax backward (double
  /// weighted sum in e order) into ds_src/ds_dst, and the gated message
  /// gradient dg_src += alpha_e * gate_e * dpre_v in e order; then, per
  /// active row, dg += ds (x) a and da += ds * g with today's zero-skip.
  void (*rgat_edge_backward)(const RgatEdgeBackward& rel);
};

/// Best level this binary + CPU can run (probed once).
[[nodiscard]] SimdLevel max_supported_level();
/// True when `level` would actually execute its own code path here.
[[nodiscard]] bool level_supported(SimdLevel level);

/// The level kernels() dispatches to. Resolved once at first use:
/// PARAGRAPH_SIMD override (resolve_level semantics) over the probe.
[[nodiscard]] SimdLevel active_level();
/// Re-selects the active level (clamped to max_supported_level()). For
/// tests, benches, and the CLI — not thread-safe against running kernels.
void set_active_level(SimdLevel level);

/// Parses "scalar" | "sse2" | "neon" | "avx2" (nullopt otherwise).
[[nodiscard]] std::optional<SimdLevel> level_from_name(std::string_view name);
/// Display name of a level on this architecture.
[[nodiscard]] const char* level_name(SimdLevel level);
/// Env/CLI resolution: unknown names -> `fallback`; known names clamp to
/// max_supported_level(). Never fails — the dispatch probe degrades cleanly.
[[nodiscard]] SimdLevel resolve_level(std::string_view name,
                                      SimdLevel fallback);

/// Kernel table of the active level / of an explicit level.
[[nodiscard]] const KernelTable& kernels();
[[nodiscard]] const KernelTable& kernels_for(SimdLevel level);

// The storage alignment contract (kAlignBytes, padded_floats,
// AlignedAllocator) lives in tensor/align.hpp so Matrix doesn't depend on
// this dispatch header.

}  // namespace pg::tensor::simd
