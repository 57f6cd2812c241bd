#include "tfb/linalg/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tfb/linalg/gemm_kernels.h"
#include "tfb/obs/log.h"
#include "tfb/obs/metrics.h"
#include "tfb/parallel/thread_pool.h"

namespace tfb::linalg::kernel {
namespace {

// Register tile: MR×NR accumulators live in vector registers across the
// whole k loop (NR=8 doubles = one AVX-512 register or two AVX ones).
// The dimensions are fixed by the micro-kernel contract in
// gemm_kernels.h — every dispatch path packs and consumes identical
// panels.
constexpr std::size_t kMr = detail::kMicroMr;
constexpr std::size_t kNr = detail::kMicroNr;
// Cache blocking: a kC×kNr B panel (16 KiB) stays in L1 across one column
// strip; a kMc×kC A block (128 KiB) stays in L2 across one jc strip.
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 64;
constexpr std::size_t kNc = 1024;

// Minimum output rows per thread-pool chunk: enough that per-chunk B
// packing is amortized.
constexpr std::size_t kRowGrain = 64;
// Below this m*n*k volume a single thread wins: waking the pool and
// re-packing B per chunk costs more than it saves (measured on
// BENCH_kernels.json, where blocked_parallel lost to blocked at n=256 =
// 16.8M before this cutoff existed). 48M sits between 256³ (16.8M, now
// single-threaded) and 1024³ (1.07G, still parallel) with a wide margin
// on both sides. Path choice never changes bytes, only speed.
constexpr std::size_t kParallelMinProduct = 48u * 1024u * 1024u;

/// Path for the shapes the register tile cannot help (see UseSmallPath):
/// i-k-j with the accumulator living in the output row. Per element this
/// is still one accumulator updated in ascending k — bit-identical to the
/// reference. `out` must be zeroed.
void SmallGemm(std::size_t i_begin, std::size_t i_end, std::size_t n,
               std::size_t k, View a, View b, double* out) {
  for (std::size_t i = i_begin; i < i_end; ++i) {
    double* orow = out + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = a.at(i, kk);
      const double* bp = b.p + kk * b.rs;
      const std::size_t bcs = b.cs;
      for (std::size_t j = 0; j < n; ++j) orow[j] += aik * bp[j * bcs];
    }
  }
}

/// Scalar kMr×kNr register-tiled inner kernel over one packed k block.
/// Resumes the accumulation already in `c` (k blocking splits the sum
/// into chunks; carrying the running value through the accumulators keeps
/// the per-element addition order exactly ascending k, so the split never
/// reassociates anything). ap/bp are k-major panels: ap[kk*kMr + r],
/// bp[kk*kNr + j]. The AVX2/NEON kernels in gemm_avx2.cc/gemm_neon.cc run
/// this exact arithmetic with the j loop in vector lanes.
void MicroKernelScalar(std::size_t kc, const double* ap, const double* bp,
                       double* c, std::size_t ldc) {
  double acc[kMr][kNr];
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t j = 0; j < kNr; ++j) acc[r][j] = c[r * ldc + j];
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const double* arow = ap + kk * kMr;
    const double* brow = bp + kk * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const double ar = arow[r];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += ar * brow[j];
    }
  }
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t j = 0; j < kNr; ++j) c[r * ldc + j] = acc[r][j];
}

using detail::MicroKernelFn;

/// Edge tiles (m_r < kMr or n_r < kNr) run the same full-size kernel on a
/// local tile: real elements are staged in, pad lanes see the zero-filled
/// pack entries (0 contributions leave their garbage confined to the
/// local tile), and only real elements are staged back.
void MicroKernelEdge(MicroKernelFn fn, std::size_t kc, const double* ap,
                     const double* bp, double* c, std::size_t ldc,
                     std::size_t m_r, std::size_t n_r) {
  double tile[kMr * kNr] = {0.0};
  for (std::size_t r = 0; r < m_r; ++r)
    for (std::size_t j = 0; j < n_r; ++j) tile[r * kNr + j] = c[r * ldc + j];
  fn(kc, ap, bp, tile, kNr);
  for (std::size_t r = 0; r < m_r; ++r)
    for (std::size_t j = 0; j < n_r; ++j) c[r * ldc + j] = tile[r * kNr + j];
}

bool PathCompiledAndSupported(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return true;
    case KernelPath::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return detail::Avx2MicroKernel() != nullptr &&
             __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case KernelPath::kNeon:
      return detail::NeonMicroKernel() != nullptr;
  }
  return false;
}

MicroKernelFn PathFn(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return &MicroKernelScalar;
    case KernelPath::kAvx2:
      return detail::Avx2MicroKernel();
    case KernelPath::kNeon:
      return detail::NeonMicroKernel();
  }
  return &MicroKernelScalar;
}

bool ParseKernelPathName(std::string_view name, KernelPath* out) {
  if (name == "scalar") {
    *out = KernelPath::kScalar;
  } else if (name == "avx2") {
    *out = KernelPath::kAvx2;
  } else if (name == "neon") {
    *out = KernelPath::kNeon;
  } else {
    return false;
  }
  return true;
}

KernelPath BestAvailablePath() {
  if (PathCompiledAndSupported(KernelPath::kAvx2)) return KernelPath::kAvx2;
  if (PathCompiledAndSupported(KernelPath::kNeon)) return KernelPath::kNeon;
  return KernelPath::kScalar;
}

/// One-time resolution: TFB_KERNEL override if valid and available on
/// this host, else the best available path. An invalid or unavailable
/// override falls back to scalar (the portable baseline) rather than
/// silently picking a different SIMD path than the one asked for.
KernelPath ResolveInitialPath() {
  const char* env = std::getenv("TFB_KERNEL");
  if (env == nullptr || *env == '\0') return BestAvailablePath();
  KernelPath want;
  if (!ParseKernelPathName(env, &want)) {
    obs::DefaultLogger().Warn("unknown TFB_KERNEL value; using scalar",
                              {{"value", env}});
    return KernelPath::kScalar;
  }
  if (!PathCompiledAndSupported(want)) {
    obs::DefaultLogger().Warn(
        "TFB_KERNEL path unavailable on this host; using scalar",
        {{"value", env}});
    return KernelPath::kScalar;
  }
  return want;
}

std::atomic<KernelPath>& ActivePath() {
  static std::atomic<KernelPath> path{ResolveInitialPath()};
  return path;
}

/// Blocked/packed GEMM over output rows [i_begin, i_end). `out` must be
/// zeroed. Each thread-pool chunk runs this whole routine on its own row
/// range with its own pack buffers; rows never straddle chunks, so the
/// arithmetic per element is independent of the partition.
void BlockedGemm(std::size_t i_begin, std::size_t i_end, std::size_t n,
                 std::size_t k, View a, View b, double* out,
                 MicroKernelFn fn) {
  // One pair of pack buffers per thread, reused by every product it runs,
  // so a small GEMM allocates nothing. They only grow. Every panel is fully
  // rewritten, zero padding included, before the kernel reads it, so what
  // an earlier product left behind is never read.
  thread_local std::vector<double> apack;
  thread_local std::vector<double> bpack;
  const std::size_t kc_max = std::min(kKc, k);
  const std::size_t nc_panels = (std::min(kNc, n) + kNr - 1) / kNr;
  const std::size_t mc_panels =
      (std::min(kMc, i_end - i_begin) + kMr - 1) / kMr;
  if (bpack.size() < kc_max * nc_panels * kNr) {
    bpack.resize(kc_max * nc_panels * kNr);
  }
  if (apack.size() < kc_max * mc_panels * kMr) {
    apack.resize(kc_max * mc_panels * kMr);
  }

  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    for (std::size_t jc = 0; jc < n; jc += kNc) {
      const std::size_t nc = std::min(kNc, n - jc);
      const std::size_t jpanels = (nc + kNr - 1) / kNr;
      // Pack B: k-major kNr-wide panels, zero-filled past the last real
      // column so edge tiles can run the full-width kernel.
      for (std::size_t jp = 0; jp < jpanels; ++jp) {
        double* panel = bpack.data() + jp * kc * kNr;
        const std::size_t width = std::min(kNr, nc - jp * kNr);
        for (std::size_t kk = 0; kk < kc; ++kk) {
          const double* brow = b.p + (pc + kk) * b.rs + (jc + jp * kNr) * b.cs;
          double* dst = panel + kk * kNr;
          for (std::size_t j = 0; j < width; ++j) dst[j] = brow[j * b.cs];
          for (std::size_t j = width; j < kNr; ++j) dst[j] = 0.0;
        }
      }
      for (std::size_t ic = i_begin; ic < i_end; ic += kMc) {
        const std::size_t mc = std::min(kMc, i_end - ic);
        const std::size_t ipanels = (mc + kMr - 1) / kMr;
        // Pack A: k-major kMr-tall panels, zero rows past the last real
        // one.
        for (std::size_t ip = 0; ip < ipanels; ++ip) {
          double* panel = apack.data() + ip * kc * kMr;
          const std::size_t height = std::min(kMr, mc - ip * kMr);
          for (std::size_t kk = 0; kk < kc; ++kk) {
            const double* acol = a.p + (ic + ip * kMr) * a.rs + (pc + kk) * a.cs;
            double* dst = panel + kk * kMr;
            for (std::size_t r = 0; r < height; ++r) dst[r] = acol[r * a.rs];
            for (std::size_t r = height; r < kMr; ++r) dst[r] = 0.0;
          }
        }
        for (std::size_t ip = 0; ip < ipanels; ++ip) {
          const std::size_t m_r = std::min(kMr, mc - ip * kMr);
          const double* ap = apack.data() + ip * kc * kMr;
          for (std::size_t jp = 0; jp < jpanels; ++jp) {
            const std::size_t n_r = std::min(kNr, nc - jp * kNr);
            const double* bp = bpack.data() + jp * kc * kNr;
            double* c = out + (ic + ip * kMr) * n + jc + jp * kNr;
            if (m_r == kMr && n_r == kNr) {
              fn(kc, ap, bp, c, n);
            } else {
              MicroKernelEdge(fn, kc, ap, bp, c, n, m_r, n_r);
            }
          }
        }
      }
    }
  }
}

/// Per-path dispatch counter names, built once ("small" is the i-k-j path
/// that bypasses the micro-kernel entirely).
const std::string& DispatchCounterName(KernelPath path, bool small) {
  static const std::string kSmall = "tfb_kernel_dispatch{path=\"small\"}";
  static const std::string kScalar = "tfb_kernel_dispatch{path=\"scalar\"}";
  static const std::string kAvx2 = "tfb_kernel_dispatch{path=\"avx2\"}";
  static const std::string kNeon = "tfb_kernel_dispatch{path=\"neon\"}";
  if (small) return kSmall;
  switch (path) {
    case KernelPath::kScalar:
      return kScalar;
    case KernelPath::kAvx2:
      return kAvx2;
    case KernelPath::kNeon:
      return kNeon;
  }
  return kScalar;
}

void RecordGemm(std::size_t m, std::size_t n, std::size_t k,
                std::size_t calls, KernelPath path, bool small) {
  if (!obs::Enabled()) return;
  obs::Registry& registry = obs::DefaultRegistry();
  registry.GetCounter("tfb_kernel_gemm_calls_total")
      .Increment(static_cast<double>(calls));
  registry.GetCounter("tfb_kernel_gemm_flops_total")
      .Increment(2.0 * static_cast<double>(m) * static_cast<double>(n) *
                 static_cast<double>(k) * static_cast<double>(calls));
  registry.GetCounter(DispatchCounterName(path, small))
      .Increment(static_cast<double>(calls));
}

/// The one dispatch rule of every entry point: shapes shorter or narrower
/// than one tile, or with nearly no k depth, run SmallGemm, all others the
/// blocked kernel. On a one-row product the padded tile does four times
/// the work and packing B costs as much as the product, so blocked runs
/// 2-5x slower there. Both paths are bit-identical, so this is a speed
/// decision only.
bool UseSmallPath(std::size_t m, std::size_t n, std::size_t k) {
  return m < kMr || n < kNr || k < 8;
}

}  // namespace

const char* KernelPathName(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return "scalar";
    case KernelPath::kAvx2:
      return "avx2";
    case KernelPath::kNeon:
      return "neon";
  }
  return "scalar";
}

bool KernelPathAvailable(KernelPath path) {
  return PathCompiledAndSupported(path);
}

KernelPath ActiveKernelPath() {
  return ActivePath().load(std::memory_order_relaxed);
}

bool SetKernelPath(KernelPath path) {
  if (!PathCompiledAndSupported(path)) return false;
  ActivePath().store(path, std::memory_order_relaxed);
  return true;
}

bool SetKernelPathByName(std::string_view name) {
  KernelPath path;
  if (!ParseKernelPathName(name, &path)) return false;
  return SetKernelPath(path);
}

void GemmReference(std::size_t m, std::size_t n, std::size_t k, View a,
                   View b, double* out) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(kk, j);
      out[i * n + j] = acc;
    }
  }
}

void GemmSingleThread(std::size_t m, std::size_t n, std::size_t k, View a,
                      View b, double* out) {
  if (m == 0 || n == 0) return;
  std::fill(out, out + m * n, 0.0);
  if (UseSmallPath(m, n, k)) {
    RecordGemm(m, n, k, 1, KernelPath::kScalar, /*small=*/true);
    SmallGemm(0, m, n, k, a, b, out);
    return;
  }
  const KernelPath path = ActiveKernelPath();
  RecordGemm(m, n, k, 1, path, /*small=*/false);
  BlockedGemm(0, m, n, k, a, b, out, PathFn(path));
}

void Gemm(std::size_t m, std::size_t n, std::size_t k, View a, View b,
          double* out) {
  if (m == 0 || n == 0) return;
  std::fill(out, out + m * n, 0.0);
  if (UseSmallPath(m, n, k)) {
    RecordGemm(m, n, k, 1, KernelPath::kScalar, /*small=*/true);
    SmallGemm(0, m, n, k, a, b, out);
    return;
  }
  const KernelPath path = ActiveKernelPath();
  const MicroKernelFn fn = PathFn(path);
  RecordGemm(m, n, k, 1, path, /*small=*/false);
  if (m * n * k < kParallelMinProduct) {
    BlockedGemm(0, m, n, k, a, b, out, fn);
    return;
  }
  parallel::ThreadPool::Default().ParallelFor(
      0, m, kRowGrain, [n, k, a, b, out, fn](std::size_t lo, std::size_t hi) {
        BlockedGemm(lo, hi, n, k, a, b, out, fn);
      });
}

void GemmBatch(std::size_t m, std::size_t n, std::size_t k,
               std::span<const GemmBatchItem> items) {
  if (items.empty() || m == 0 || n == 0) return;
  const bool micro = !UseSmallPath(m, n, k);
  const KernelPath path = ActiveKernelPath();
  const MicroKernelFn fn = PathFn(path);
  RecordGemm(m, n, k, items.size(), path, /*small=*/!micro);
  // Deterministic partition: items never straddle chunks (grain floors at
  // 1 whole item), and each chunk sizes to at least the single-call
  // parallel cutoff's worth of flops so tiny batches stay on the caller's
  // thread.
  const std::size_t volume = std::max<std::size_t>(1, m * n * k);
  const std::size_t grain =
      std::max<std::size_t>(1, kParallelMinProduct / volume);
  parallel::ThreadPool::Default().ParallelFor(
      0, items.size(), grain,
      [m, n, k, items, fn, micro](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const GemmBatchItem& item = items[i];
          std::fill(item.out, item.out + m * n, 0.0);
          if (micro) {
            BlockedGemm(0, m, n, k, item.a, item.b, item.out, fn);
          } else {
            SmallGemm(0, m, n, k, item.a, item.b, item.out);
          }
        }
      });
}

void Gemv(std::size_t m, std::size_t k, View a, const double* v, double* out) {
  parallel::ThreadPool::Default().ParallelFor(
      0, m, 512, [k, a, v, out](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          double acc = 0.0;
          for (std::size_t c = 0; c < k; ++c) acc += a.at(r, c) * v[c];
          out[r] = acc;
        }
      });
}

}  // namespace tfb::linalg::kernel
