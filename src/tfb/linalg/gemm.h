#ifndef TFB_LINALG_GEMM_H_
#define TFB_LINALG_GEMM_H_

#include <cstddef>
#include <span>
#include <string_view>

/// \file
/// Blocked, packed, register-tiled GEMM — the compute kernel behind
/// MatMul/MatTMul/MatMulT/MatVec (the "Compute kernels" section of
/// DESIGN.md).
///
/// One kernel serves all four transpose variants through a strided View:
/// element (i, j) of an operand lives at `p[i*rs + j*cs]`, so A^T is just
/// the view {p, 1, lda} of A's storage — no transpose is ever
/// materialized.
///
/// Bit-determinism contract: every kernel in this layer (the retained
/// naive reference, the i-k-j path for narrow shapes, the blocked/packed path,
/// the row-parallel path, and every SIMD micro-kernel) computes each
/// output element as ONE accumulator updated in ascending-k order with
/// the same IEEE multiply-then-add expression shape — no FMA (the hot TUs
/// are built with -ffp-contract=off), no horizontal reductions. Blocking,
/// packing, and SIMD vectorization across output columns reorder memory
/// traffic, never arithmetic, and the parallel path partitions output
/// rows (each element still computed whole by one thread) — so all paths,
/// at any thread count and on any dispatch path, produce byte-identical
/// results. linalg_kernels_test holds every runtime path to exact bit
/// equality against GemmReference.
///
/// Runtime dispatch: the 4x8 micro-kernel is selected once per process
/// from {scalar, avx2, neon} by a CPU probe, overridable with the
/// TFB_KERNEL environment variable (or the `kernel` pipeline-config key).
/// An unavailable or unrecognized override falls back to scalar — the
/// portable baseline — never silently to a different SIMD path.

namespace tfb::linalg::kernel {

/// Strided read-only matrix view: element (i, j) is p[i*rs + j*cs].
struct View {
  const double* p;
  std::size_t rs;  // row stride
  std::size_t cs;  // column stride

  double at(std::size_t i, std::size_t j) const { return p[i * rs + j * cs]; }
};

/// Which 4x8 micro-kernel the blocked path runs. All paths are
/// bit-identical; the choice affects speed only.
enum class KernelPath { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Lower-case stable name for metrics/logs: "scalar", "avx2", "neon".
const char* KernelPathName(KernelPath path);

/// True when `path` was compiled into this binary AND the running CPU
/// supports it. kScalar is always available.
bool KernelPathAvailable(KernelPath path);

/// The path the next Gemm/GemmBatch call will use. Resolved once on first
/// use: TFB_KERNEL override if set and available, else the best available
/// path for this host.
KernelPath ActiveKernelPath();

/// Force a dispatch path (tests/benches). Returns false — leaving the
/// active path unchanged — when the path is unavailable on this host.
bool SetKernelPath(KernelPath path);

/// SetKernelPath by name ("scalar"|"avx2"|"neon", case-sensitive).
/// Returns false for an unknown name or an unavailable path.
bool SetKernelPathByName(std::string_view name);

/// out = A(m×k) · B(k×n), out row-major with leading dimension n.
/// `out` must not alias A or B. Rows [0, m) are fully overwritten.
/// Shapes with m < 4, n < 8 or k < 8 run an i-k-j loop; all others run the
/// blocked kernel on the active path, row-parallel across the thread pool
/// once the product is large. All paths are bit-identical (see file
/// comment).
void Gemm(std::size_t m, std::size_t n, std::size_t k, View a, View b,
          double* out);

/// The retained naive kernel (single accumulator per element, ascending
/// k). This is the bit-equality oracle for linalg_kernels_test and the
/// `naive` leg of bench_micro_kernels; it is not called on any hot path.
void GemmReference(std::size_t m, std::size_t n, std::size_t k, View a,
                   View b, double* out);

/// As Gemm, but never uses the thread pool (the `blocked` leg of
/// bench_micro_kernels). Bit-identical to Gemm.
void GemmSingleThread(std::size_t m, std::size_t n, std::size_t k, View a,
                      View b, double* out);

/// One member of a uniform-shape GEMM batch: out = a(m×k) · b(k×n).
/// `out` (m*n doubles, row-major, fully overwritten) must not alias any
/// batch input.
struct GemmBatchItem {
  View a;
  View b;
  double* out;
};

/// Computes every item of a uniform-shape batch, bit-identically to
/// calling Gemm on each item in isolation. The point is amortization for
/// the many-tiny-matrix DL workloads (GRU gate steps, attention windows,
/// per-window Dense layers): dispatch and metrics cost is paid once per
/// batch, and the batch — not the rows of one small matrix — is the unit
/// parallelized across the pool. Items take the same path as a single
/// Gemm of their shape would. Each item
/// is computed whole by one thread with the pool's deterministic static
/// partition, so results are thread-count-invariant like everything else
/// in this layer.
void GemmBatch(std::size_t m, std::size_t n, std::size_t k,
               std::span<const GemmBatchItem> items);

/// out[i] = Σ_k a(i,k) · v[k] for i in [0, m). Row-partitioned across the
/// thread pool for large m; per-row scalar accumulation order is fixed, so
/// results are thread-count-invariant.
void Gemv(std::size_t m, std::size_t k, View a, const double* v, double* out);

}  // namespace tfb::linalg::kernel

#endif  // TFB_LINALG_GEMM_H_
