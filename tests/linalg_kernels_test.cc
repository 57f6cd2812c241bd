// Bit-equality pins for the blocked/packed GEMM layer (tfb/linalg/gemm):
// every kernel path — small fast path, blocked single-thread, blocked
// row-parallel — must produce byte-identical results to the retained naive
// reference for every shape, and results must not depend on the thread
// pool's worker count. These are exact `memcmp`-style comparisons, not
// EXPECT_NEAR: the determinism contract of DESIGN.md "Compute kernels" is
// bit-level, because pipeline_determinism_test compares journal bytes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <vector>

#include "tfb/linalg/gemm.h"
#include "tfb/linalg/matrix.h"
#include "tfb/methods/dl/dl_forecasters.h"
#include "tfb/parallel/thread_pool.h"
#include "tfb/stats/rng.h"

namespace tfb::linalg {
namespace {

/// Restores the default pool's worker count when a test is done resizing.
class PoolGuard {
 public:
  PoolGuard() = default;
  ~PoolGuard() {
    parallel::ThreadPool::Default().Resize(parallel::HardwareThreads() - 1);
  }
};

Matrix RandomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.Gaussian(0.0, 1.0);
  return m;
}

bool BitEqual(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

void ExpectBitEqual(const Matrix& got, const std::vector<double>& want,
                    const char* what, std::size_t m, std::size_t n,
                    std::size_t k) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(BitEqual(got.data(), want.data(), want.size()))
      << what << " diverged from the naive reference at shape m=" << m
      << " n=" << n << " k=" << k;
}

/// Checks all four product variants at one (m, n, k) against the
/// reference evaluated through the matching strided views.
void CheckShape(std::size_t m, std::size_t n, std::size_t k,
                std::uint64_t seed) {
  const Matrix a = RandomMatrix(m, k, seed);
  const Matrix b = RandomMatrix(k, n, seed + 1);
  std::vector<double> want(m * n);

  kernel::GemmReference(m, n, k, {a.data(), k, 1}, {b.data(), n, 1},
                        want.data());
  ExpectBitEqual(MatMul(a, b), want, "MatMul", m, n, k);

  const Matrix at = RandomMatrix(k, m, seed + 2);  // MatTMul takes A as k×m
  kernel::GemmReference(m, n, k, {at.data(), 1, m}, {b.data(), n, 1},
                        want.data());
  ExpectBitEqual(MatTMul(at, b), want, "MatTMul", m, n, k);

  const Matrix bt = RandomMatrix(n, k, seed + 3);  // MatMulT takes B as n×k
  kernel::GemmReference(m, n, k, {a.data(), k, 1}, {bt.data(), 1, k},
                        want.data());
  ExpectBitEqual(MatMulT(a, bt), want, "MatMulT", m, n, k);

  const Vector v = RandomMatrix(1, k, seed + 4).RowVector(0);
  std::vector<double> want_v(m);
  kernel::GemmReference(m, 1, k, {a.data(), k, 1}, {v.data(), 1, 1},
                        want_v.data());
  const Vector got_v = MatVec(a, v);
  ASSERT_EQ(got_v.size(), want_v.size());
  EXPECT_TRUE(BitEqual(got_v.data(), want_v.data(), want_v.size()))
      << "MatVec diverged from the naive reference at m=" << m
      << " k=" << k;
}

TEST(GemmKernels, BitEqualAcrossExhaustiveShapeGrid) {
  // 0, 1, odd, prime, power-of-two, and just-past-tile dims: every edge
  // case of the kMr/kNr tiling and the packing zero-fill.
  const std::size_t dims[] = {0, 1, 2, 3, 5, 7, 8, 9, 13, 17, 32, 33};
  std::uint64_t seed = 1;
  for (std::size_t m : dims)
    for (std::size_t n : dims)
      for (std::size_t k : dims) CheckShape(m, n, k, seed++);
}

TEST(GemmKernels, BitEqualOnBlockedPathShapes) {
  // Large enough to cross the blocked-path threshold; primes and
  // just-past-block sizes force edge tiles and multiple kc/mc blocks.
  const struct {
    std::size_t m, n, k;
  } shapes[] = {
      {65, 72, 80},    {128, 96, 300},  {257, 129, 67},
      {67, 257, 311},  {1, 640, 640},   {640, 1, 640},
      {96, 96, 257},   {311, 64, 97},
  };
  std::uint64_t seed = 1000;
  for (const auto& s : shapes) CheckShape(s.m, s.n, s.k, seed++);
}

TEST(GemmKernels, SingleThreadAndParallelPathsMatch) {
  const std::size_t m = 311, n = 257, k = 129;
  const Matrix a = RandomMatrix(m, k, 7);
  const Matrix b = RandomMatrix(k, n, 8);
  std::vector<double> st(m * n), par(m * n);
  kernel::GemmSingleThread(m, n, k, {a.data(), k, 1}, {b.data(), n, 1},
                           st.data());
  kernel::Gemm(m, n, k, {a.data(), k, 1}, {b.data(), n, 1}, par.data());
  EXPECT_TRUE(BitEqual(st.data(), par.data(), st.size()));
}

TEST(GemmKernels, ThreadCountDoesNotChangeGemmBytes) {
  PoolGuard guard;
  const std::size_t m = 257, n = 192, k = 311;
  const Matrix a = RandomMatrix(m, k, 11);
  const Matrix b = RandomMatrix(k, n, 12);

  parallel::ThreadPool::Default().Resize(0);  // 1 lane: inline execution
  const Matrix one_thread = MatMul(a, b);
  parallel::ThreadPool::Default().Resize(7);  // 8 lanes
  const Matrix eight_threads = MatMul(a, b);

  EXPECT_TRUE(
      BitEqual(one_thread.data(), eight_threads.data(), one_thread.size()));
}

TEST(GemmKernels, ThreadCountDoesNotChangeDlForecasterFit) {
  PoolGuard guard;
  stats::Rng rng(3);
  std::vector<double> x(420);
  for (std::size_t t = 0; t < x.size(); ++t) {
    x[t] = 0.01 * static_cast<double>(t) +
           2.0 * std::sin(2.0 * M_PI * static_cast<double>(t) / 24.0) +
           rng.Gaussian(0.0, 0.2);
  }
  ts::TimeSeries series = ts::TimeSeries::Univariate(std::move(x));
  series.set_seasonal_period(24);

  methods::NeuralOptions options;
  options.horizon = 12;
  options.train.max_epochs = 8;
  options.max_train_windows = 256;

  const auto fit_and_forecast = [&](std::size_t workers) {
    parallel::ThreadPool::Default().Resize(workers);
    methods::DLinearForecaster model(options);
    model.Fit(series);
    return model.Forecast(series, 12);
  };
  const ts::TimeSeries one = fit_and_forecast(0);
  const ts::TimeSeries eight = fit_and_forecast(7);

  ASSERT_EQ(one.length(), eight.length());
  ASSERT_EQ(one.num_variables(), eight.num_variables());
  for (std::size_t t = 0; t < one.length(); ++t) {
    for (std::size_t v = 0; v < one.num_variables(); ++v) {
      const double lhs = one.at(t, v);
      const double rhs = eight.at(t, v);
      EXPECT_EQ(std::memcmp(&lhs, &rhs, sizeof(double)), 0)
          << "forecast bytes diverged at t=" << t << " v=" << v;
    }
  }
}

TEST(GemmKernels, DegenerateShapesAreZeroFilled) {
  // k == 0: the sum over an empty range is +0.0 everywhere.
  const Matrix a(3, 0);
  const Matrix b(0, 4);
  const Matrix out = MatMul(a, b);
  ASSERT_EQ(out.rows(), 3u);
  ASSERT_EQ(out.cols(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], 0.0);
    EXPECT_FALSE(std::signbit(out.data()[i]));
  }
}

/// Restores whatever dispatch path was active before a test forced one.
class KernelPathGuard {
 public:
  KernelPathGuard() : saved_(kernel::ActiveKernelPath()) {}
  ~KernelPathGuard() { kernel::SetKernelPath(saved_); }

 private:
  kernel::KernelPath saved_;
};

std::vector<kernel::KernelPath> AvailablePaths() {
  std::vector<kernel::KernelPath> paths;
  for (kernel::KernelPath p :
       {kernel::KernelPath::kScalar, kernel::KernelPath::kAvx2,
        kernel::KernelPath::kNeon}) {
    if (kernel::KernelPathAvailable(p)) paths.push_back(p);
  }
  return paths;
}

TEST(GemmDispatch, ScalarPathIsAlwaysAvailable) {
  EXPECT_TRUE(kernel::KernelPathAvailable(kernel::KernelPath::kScalar));
  // At most one SIMD family can be live on a given host.
  EXPECT_FALSE(kernel::KernelPathAvailable(kernel::KernelPath::kAvx2) &&
               kernel::KernelPathAvailable(kernel::KernelPath::kNeon));
}

TEST(GemmDispatch, EveryAvailablePathIsBitEqualOnShapeGrid) {
  // The memcmp shape sweep, repeated on every micro-kernel this host can
  // run: tile-edge dims exercise the zero-filled packing edges of each
  // SIMD path, and the larger shapes cross the blocked-path threshold.
  KernelPathGuard guard;
  for (kernel::KernelPath path : AvailablePaths()) {
    ASSERT_TRUE(kernel::SetKernelPath(path));
    ASSERT_EQ(kernel::ActiveKernelPath(), path);
    const std::size_t dims[] = {1, 3, 4, 5, 7, 8, 9, 17, 33};
    std::uint64_t seed = 5000 + 1000 * static_cast<std::uint64_t>(path);
    for (std::size_t m : dims)
      for (std::size_t n : dims)
        for (std::size_t k : dims) CheckShape(m, n, k, seed++);
    CheckShape(128, 96, 300, seed++);
    CheckShape(67, 257, 311, seed++);
    CheckShape(1, 640, 640, seed++);
    // Products the nn layers run (batch x width x depth): small in volume,
    // yet all take the blocked kernel.
    CheckShape(32, 24, 48, seed++);
    CheckShape(32, 64, 48, seed++);
    CheckShape(64, 16, 48, seed++);
    CheckShape(48, 64, 64, seed++);
    CheckShape(9, 96, 8, seed++);
  }
}

/// Runs one GEMM and checks it bit for bit against the reference.
bool GemmMatchesReference(std::size_t m, std::size_t n, std::size_t k,
                          std::uint64_t seed) {
  const Matrix a = RandomMatrix(m, k, seed);
  const Matrix b = RandomMatrix(k, n, seed + 1);
  std::vector<double> got(m * n), want(m * n);
  kernel::Gemm(m, n, k, {a.data(), k, 1}, {b.data(), n, 1}, got.data());
  kernel::GemmReference(m, n, k, {a.data(), k, 1}, {b.data(), n, 1},
                        want.data());
  return BitEqual(got.data(), want.data(), want.size());
}

TEST(GemmDispatch, ReusedPackWorkspacesKeepBytes) {
  // Every thread keeps its pack workspaces across products. A large
  // product (row-parallel, so every pool thread fills its workspaces) is
  // followed by small ones, on the caller alone and on every pool thread,
  // then by the large one again: a panel that is not fully rewritten
  // before use would show up as a byte difference.
  PoolGuard pool_guard;
  KernelPathGuard path_guard;
  const std::size_t small[][3] = {{7, 9, 9},   {32, 24, 48}, {5, 8, 300},
                                  {64, 16, 8}, {13, 17, 29}, {1, 8, 8}};
  for (kernel::KernelPath path : AvailablePaths()) {
    ASSERT_TRUE(kernel::SetKernelPath(path));
    for (std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
      SCOPED_TRACE(testing::Message() << kernel::KernelPathName(path) << " "
                                      << workers + 1 << " lanes");
      parallel::ThreadPool::Default().Resize(workers);
      EXPECT_TRUE(GemmMatchesReference(400, 400, 320, 21));
      for (std::size_t i = 0; i < std::size(small); ++i) {
        EXPECT_TRUE(GemmMatchesReference(small[i][0], small[i][1],
                                         small[i][2], 30 + i));
      }
      std::vector<char> ok(64, 0);
      parallel::ThreadPool::Default().ParallelFor(
          0, ok.size(), 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t t = lo; t < hi; ++t) {
              const auto* s = small[t % std::size(small)];
              ok[t] = GemmMatchesReference(s[0], s[1], s[2], 100 + t);
            }
          });
      for (std::size_t t = 0; t < ok.size(); ++t) {
        EXPECT_TRUE(ok[t]) << "small product " << t << " on a pool thread";
      }
      EXPECT_TRUE(GemmMatchesReference(400, 400, 320, 22));
    }
  }
}

TEST(GemmDispatch, AllPathsProduceIdenticalBytes) {
  // Cross-path equality on a blocked-size product: whatever the probe
  // picked must equal the scalar baseline byte for byte.
  KernelPathGuard guard;
  const std::size_t m = 257, n = 129, k = 167;
  const Matrix a = RandomMatrix(m, k, 41);
  const Matrix b = RandomMatrix(k, n, 42);
  ASSERT_TRUE(kernel::SetKernelPath(kernel::KernelPath::kScalar));
  const Matrix scalar_out = MatMul(a, b);
  for (kernel::KernelPath path : AvailablePaths()) {
    ASSERT_TRUE(kernel::SetKernelPath(path));
    const Matrix out = MatMul(a, b);
    EXPECT_TRUE(BitEqual(scalar_out.data(), out.data(), scalar_out.size()))
        << "path " << kernel::KernelPathName(path)
        << " diverged from scalar";
  }
}

TEST(GemmDispatch, SetKernelPathByNameContract) {
  KernelPathGuard guard;
  ASSERT_TRUE(kernel::SetKernelPathByName("scalar"));
  EXPECT_EQ(kernel::ActiveKernelPath(), kernel::KernelPath::kScalar);

  // Unknown names fail and leave the active path untouched.
  EXPECT_FALSE(kernel::SetKernelPathByName("bogus"));
  EXPECT_FALSE(kernel::SetKernelPathByName("AVX2"));  // case-sensitive
  EXPECT_FALSE(kernel::SetKernelPathByName(""));
  EXPECT_EQ(kernel::ActiveKernelPath(), kernel::KernelPath::kScalar);

  // Named SIMD paths succeed exactly when the host supports them; an
  // unavailable path must not change the active path.
  for (kernel::KernelPath p :
       {kernel::KernelPath::kAvx2, kernel::KernelPath::kNeon}) {
    const bool ok = kernel::SetKernelPathByName(kernel::KernelPathName(p));
    EXPECT_EQ(ok, kernel::KernelPathAvailable(p));
    EXPECT_EQ(kernel::ActiveKernelPath(),
              ok ? p : kernel::KernelPath::kScalar);
    ASSERT_TRUE(kernel::SetKernelPathByName("scalar"));
  }
}

TEST(GemmBatch, BitEqualToPerItemGemmAcrossShapesAndPaths) {
  // Uniform-shape batches must match per-item Gemm (and hence the naive
  // reference) bitwise on every dispatch path, including shapes that take
  // the small path (m < kMr, n < kNr or k < 8) and strided (transposed)
  // views.
  KernelPathGuard guard;
  const struct {
    std::size_t m, n, k, count;
  } cases[] = {
      {4, 8, 8, 3},    {32, 32, 32, 16}, {7, 5, 9, 4},
      {16, 16, 4, 6},  {64, 48, 32, 9},  {1, 12, 300, 5},
      {33, 17, 65, 2}, {8, 8, 8, 1},
  };
  for (kernel::KernelPath path : AvailablePaths()) {
    ASSERT_TRUE(kernel::SetKernelPath(path));
    std::uint64_t seed = 9000 + 1000 * static_cast<std::uint64_t>(path);
    for (const auto& c : cases) {
      std::vector<Matrix> as, bs;
      as.reserve(c.count);
      bs.reserve(c.count);
      for (std::size_t i = 0; i < c.count; ++i) {
        as.push_back(RandomMatrix(c.m, c.k, seed++));
        bs.push_back(RandomMatrix(c.k, c.n, seed++));
      }
      std::vector<double> batch_out(c.count * c.m * c.n, -1.0);
      std::vector<kernel::GemmBatchItem> items(c.count);
      for (std::size_t i = 0; i < c.count; ++i) {
        items[i] = {{as[i].data(), c.k, 1},
                    {bs[i].data(), c.n, 1},
                    batch_out.data() + i * c.m * c.n};
      }
      kernel::GemmBatch(c.m, c.n, c.k, items);
      std::vector<double> want(c.m * c.n);
      for (std::size_t i = 0; i < c.count; ++i) {
        kernel::Gemm(c.m, c.n, c.k, items[i].a, items[i].b, want.data());
        EXPECT_TRUE(BitEqual(batch_out.data() + i * c.m * c.n, want.data(),
                             want.size()))
            << "GemmBatch item " << i << " diverged from Gemm at m=" << c.m
            << " n=" << c.n << " k=" << c.k << " on path "
            << kernel::KernelPathName(path);
        kernel::GemmReference(c.m, c.n, c.k, items[i].a, items[i].b,
                              want.data());
        EXPECT_TRUE(BitEqual(batch_out.data() + i * c.m * c.n, want.data(),
                             want.size()))
            << "GemmBatch item " << i << " diverged from the reference";
      }
    }
  }
}

TEST(GemmBatch, StridedViewsMatchReference) {
  // Transposed operands through non-unit strides, as the nn backward
  // passes submit them.
  const std::size_t m = 24, n = 16, k = 32, count = 6;
  std::vector<Matrix> ats, bts;
  std::uint64_t seed = 12000;
  for (std::size_t i = 0; i < count; ++i) {
    ats.push_back(RandomMatrix(k, m, seed++));  // A supplied as k×m
    bts.push_back(RandomMatrix(n, k, seed++));  // B supplied as n×k
  }
  std::vector<double> batch_out(count * m * n);
  std::vector<kernel::GemmBatchItem> items(count);
  for (std::size_t i = 0; i < count; ++i) {
    items[i] = {{ats[i].data(), 1, m},
                {bts[i].data(), 1, k},
                batch_out.data() + i * m * n};
  }
  kernel::GemmBatch(m, n, k, items);
  std::vector<double> want(m * n);
  for (std::size_t i = 0; i < count; ++i) {
    kernel::GemmReference(m, n, k, items[i].a, items[i].b, want.data());
    EXPECT_TRUE(
        BitEqual(batch_out.data() + i * m * n, want.data(), want.size()))
        << "strided GemmBatch item " << i;
  }
}

TEST(GemmBatch, ThreadCountDoesNotChangeBytes) {
  PoolGuard guard;
  const std::size_t m = 32, n = 32, k = 32, count = 64;
  std::vector<Matrix> as, bs;
  std::uint64_t seed = 13000;
  for (std::size_t i = 0; i < count; ++i) {
    as.push_back(RandomMatrix(m, k, seed++));
    bs.push_back(RandomMatrix(k, n, seed++));
  }
  const auto run = [&](std::size_t workers) {
    parallel::ThreadPool::Default().Resize(workers);
    std::vector<double> out(count * m * n);
    std::vector<kernel::GemmBatchItem> items(count);
    for (std::size_t i = 0; i < count; ++i) {
      items[i] = {{as[i].data(), k, 1},
                  {bs[i].data(), n, 1},
                  out.data() + i * m * n};
    }
    kernel::GemmBatch(m, n, k, items);
    return out;
  };
  const std::vector<double> lanes1 = run(0);
  const std::vector<double> lanes8 = run(7);
  EXPECT_TRUE(BitEqual(lanes1.data(), lanes8.data(), lanes1.size()));
}

TEST(GemmBatch, DegenerateBatches) {
  // Empty batch: no-op, no crash.
  kernel::GemmBatch(8, 8, 8, {});

  // k == 0: every output is overwritten with +0.0.
  const std::size_t m = 3, n = 4, count = 2;
  std::vector<double> out(count * m * n, -1.0);
  std::vector<kernel::GemmBatchItem> items(count);
  for (std::size_t i = 0; i < count; ++i) {
    items[i] = {{nullptr, 0, 1}, {nullptr, n, 1}, out.data() + i * m * n};
  }
  kernel::GemmBatch(m, n, 0, items);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], 0.0);
    EXPECT_FALSE(std::signbit(out[i]));
  }

  // m == 0: nothing written, nothing read, no crash.
  const kernel::GemmBatchItem empty_item[] = {
      {{nullptr, 1, 1}, {nullptr, 1, 1}, nullptr}};
  kernel::GemmBatch(0, 4, 4, empty_item);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  PoolGuard guard;
  parallel::ThreadPool::Default().Resize(3);
  std::vector<int> hits(1000, 0);
  parallel::ThreadPool::Default().ParallelFor(
      0, hits.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelFor, CoarseReservationShrinksButDoesNotChangeCoverage) {
  PoolGuard guard;
  parallel::ThreadPool::Default().Resize(3);
  parallel::CoarseReservation reservation(4);
  EXPECT_EQ(parallel::ReservedCoarseWorkers(), 4u);
  std::vector<int> hits(257, 0);
  parallel::ThreadPool::Default().ParallelFor(
      0, hits.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1);
}

}  // namespace
}  // namespace tfb::linalg
