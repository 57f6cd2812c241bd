// Differential test of the CART split search. `ReferenceTree` is the
// textbook tree: at every node it sorts (value, target) pairs of every
// candidate feature and scans them. The production DecisionTree instead
// scans columns presorted once per ensemble fit. Both must grow the same
// tree bit for bit and draw the same random numbers, on inputs chosen to
// stress the places where the two could part: duplicate bootstrap rows,
// long runs of tied values, signed zeros and feature subsets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "tfb/base/blob.h"
#include "tfb/base/check.h"
#include "tfb/linalg/matrix.h"
#include "tfb/methods/ml/decision_tree.h"
#include "tfb/methods/ml/gradient_boosting.h"
#include "tfb/methods/ml/window.h"
#include "tfb/stats/rng.h"
#include "tfb/ts/time_series.h"

namespace tfb::methods {
namespace {

// Per-node-sort CART with the same growth rules, tie test and node layout
// as DecisionTree; `Save` writes the same record format.
class ReferenceTree {
 public:
  void Fit(const linalg::Matrix& x, const std::vector<double>& y,
           const std::vector<std::size_t>& indices, const TreeOptions& options,
           stats::Rng* rng) {
    TFB_CHECK(!indices.empty());
    nodes_.clear();
    std::vector<std::size_t> work = indices;
    Build(x, y, work, 0, work.size(), 0, options, rng);
  }

  void Save(base::BlobWriter* blob) const {
    blob->PutU64(nodes_.size());
    for (const Node& n : nodes_) {
      blob->PutI64(n.feature);
      blob->PutDouble(n.threshold);
      blob->PutDouble(n.value);
      blob->PutI64(n.left);
      blob->PutI64(n.right);
    }
  }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  std::int32_t Build(const linalg::Matrix& x, const std::vector<double>& y,
                     std::vector<std::size_t>& indices, std::size_t begin,
                     std::size_t end, int depth, const TreeOptions& options,
                     stats::Rng* rng) {
    const std::size_t count = end - begin;
    const std::int32_t node_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    double mean = 0.0;
    for (std::size_t i = begin; i < end; ++i) mean += y[indices[i]];
    nodes_[node_id].value = mean / static_cast<double>(count);

    if (depth >= options.max_depth || count < options.min_samples_split) {
      return node_id;
    }

    const std::size_t d = x.cols();
    std::vector<std::size_t> features;
    if (options.max_features == 0 || options.max_features >= d) {
      features.resize(d);
      std::iota(features.begin(), features.end(), 0);
    } else {
      std::vector<std::size_t> perm = rng->Permutation(d);
      features.assign(perm.begin(), perm.begin() + options.max_features);
    }

    double parent_sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) parent_sum += y[indices[i]];

    double best_score = -std::numeric_limits<double>::infinity();
    int best_feature = -1;
    double best_threshold = 0.0;
    std::vector<std::pair<double, double>> sorted(count);
    for (std::size_t f : features) {
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t row = indices[begin + i];
        sorted[i] = {x(row, f), y[row]};
      }
      std::sort(sorted.begin(), sorted.end());
      double left_sum = 0.0;
      for (std::size_t i = 0; i + 1 < count; ++i) {
        left_sum += sorted[i].second;
        const std::size_t left_n = i + 1;
        const std::size_t right_n = count - left_n;
        if (left_n < options.min_samples_leaf ||
            right_n < options.min_samples_leaf) {
          continue;
        }
        if (sorted[i].first >= sorted[i + 1].first - 1e-15) continue;
        const double right_sum = parent_sum - left_sum;
        const double score = left_sum * left_sum / left_n +
                             right_sum * right_sum / right_n;
        if (score > best_score) {
          best_score = score;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
        }
      }
    }
    if (best_feature < 0) return node_id;
    const double parent_score = parent_sum * parent_sum / count;
    if (best_score <= parent_score + 1e-12) return node_id;

    const auto mid_it = std::partition(
        indices.begin() + begin, indices.begin() + end, [&](std::size_t row) {
          return x(row, static_cast<std::size_t>(best_feature)) <=
                 best_threshold;
        });
    const std::size_t mid = static_cast<std::size_t>(mid_it - indices.begin());
    if (mid == begin || mid == end) return node_id;

    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    const std::int32_t left =
        Build(x, y, indices, begin, mid, depth + 1, options, rng);
    const std::int32_t right =
        Build(x, y, indices, mid, end, depth + 1, options, rng);
    nodes_[node_id].left = left;
    nodes_[node_id].right = right;
    return node_id;
  }

  std::vector<Node> nodes_;
};

// Rounds to a grid of `step`, turning a continuous draw into long runs of
// ties; zeros come out as -0.0 or +0.0 depending on the sign of `v`.
double Quantize(double v, double step) { return std::round(v / step) * step; }

// A lag matrix as the ensembles build it: windows of a random walk (or of a
// quantized one), optionally last-value subtracted, which makes the last
// lag column all zero.
linalg::Matrix RandomLagMatrix(stats::Rng* rng, bool quantized,
                               bool subtract_last) {
  const std::size_t lookback = 1 + rng->UniformInt(10);
  const std::size_t length = lookback + 4 + rng->UniformInt(120);
  std::vector<double> series(length);
  double level = 0.0;
  for (double& v : series) {
    level += rng->Gaussian();
    v = quantized ? Quantize(level, 0.5) : level;
  }
  return MakeWindows(ts::TimeSeries::Univariate(series), lookback, 1,
                     subtract_last)
      .x;
}

// Appends a copy of column `c`. Twin columns score every split identically
// when their runs are summed in the same order, so the first one must win;
// any change in the order of a run's targets, even one that only moves the
// rounding of a sum, can hand the split to the twin.
linalg::Matrix WithTwinColumn(const linalg::Matrix& x, std::size_t c) {
  linalg::Matrix out(x.rows(), x.cols() + 1);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t j = 0; j < x.cols(); ++j) out(r, j) = x(r, j);
    out(r, x.cols()) = x(r, c);
  }
  return out;
}

// Sprinkles -0.0 over zero cells, so that both zero signs meet in one run.
void FlipZeroSigns(linalg::Matrix* x, stats::Rng* rng) {
  for (std::size_t r = 0; r < x->rows(); ++r) {
    for (std::size_t c = 0; c < x->cols(); ++c) {
      if ((*x)(r, c) == 0.0 && rng->Bernoulli(0.5)) (*x)(r, c) = -0.0;
    }
  }
}

// Targets that are quantized (with ties and -0.0), plain Gaussian, or of
// wildly mixed magnitude, where any change in summation order shows in the
// split scores.
std::vector<double> RandomTargets(std::size_t n, stats::Rng* rng) {
  const std::size_t kind = rng->UniformInt(3);
  std::vector<double> y(n);
  for (double& v : y) {
    v = rng->Gaussian();
    if (kind == 0) v = Quantize(v, 0.25);
    if (kind == 2) v *= std::pow(10.0, static_cast<double>(rng->UniformInt(17)));
    if (v == 0.0 && rng->Bernoulli(0.5)) v = -0.0;
  }
  return y;
}

// A bootstrap draw (with duplicates) or a subsample without replacement.
std::vector<std::size_t> RandomIndices(std::size_t n, stats::Rng* rng) {
  if (rng->Bernoulli(0.5)) {
    const std::size_t sample = 1 + rng->UniformInt(n + n / 2);
    std::vector<std::size_t> indices(sample);
    for (std::size_t& i : indices) i = rng->UniformInt(n);
    return indices;
  }
  const std::vector<std::size_t> perm = rng->Permutation(n);
  return {perm.begin(), perm.begin() + 1 + rng->UniformInt(n)};
}

TreeOptions RandomOptions(std::size_t d, stats::Rng* rng) {
  if (rng->Bernoulli(0.25)) return GradientBoostingOptions{}.tree;
  TreeOptions options;
  options.max_depth = 1 + static_cast<int>(rng->UniformInt(10));
  options.min_samples_leaf = 1 + rng->UniformInt(6);
  options.min_samples_split =
      options.min_samples_leaf + rng->UniformInt(2 * options.min_samples_leaf);
  options.max_features = rng->UniformInt(d + 1);
  return options;
}

std::string Bytes(const DecisionTree& tree) {
  base::BlobWriter blob;
  tree.Save(&blob);
  return blob.TakeBytes();
}

std::string Bytes(const ReferenceTree& tree) {
  base::BlobWriter blob;
  tree.Save(&blob);
  return blob.TakeBytes();
}

TEST(DecisionTreeOracle, PresortedSplitSearchMatchesPerNodeSort) {
  stats::Rng inputs(2024);
  int trees = 0;
  int splits = 0;
  for (int matrix = 0; matrix < 150; ++matrix) {
    linalg::Matrix x = RandomLagMatrix(&inputs, inputs.Bernoulli(0.6),
                                       inputs.Bernoulli(0.7));
    if (inputs.Bernoulli(0.5)) {
      x = WithTwinColumn(x, inputs.UniformInt(x.cols()));
    }
    if (inputs.Bernoulli(0.5)) FlipZeroSigns(&x, &inputs);
    // One workspace serves several trees, as in an ensemble fit, with new
    // targets per tree as in boosting.
    TreeWorkspace workspace(x);
    for (int t = 0; t < 8; ++t, ++trees) {
      const std::vector<double> y = RandomTargets(x.rows(), &inputs);
      const std::vector<std::size_t> indices =
          RandomIndices(x.rows(), &inputs);
      const TreeOptions options = RandomOptions(x.cols(), &inputs);
      const std::uint64_t seed = inputs.NextU64();
      stats::Rng rng(seed);
      stats::Rng reference_rng(seed);
      DecisionTree tree;
      tree.Fit(y, indices, options, &rng, &workspace);
      ReferenceTree reference;
      reference.Fit(x, y, indices, options, &reference_rng);
      ASSERT_EQ(Bytes(tree), Bytes(reference))
          << "matrix " << matrix << " tree " << t;
      ASSERT_EQ(rng.NextU64(), reference_rng.NextU64())
          << "matrix " << matrix << " tree " << t;
      splits += static_cast<int>(tree.num_nodes() / 2);
    }
  }
  EXPECT_EQ(trees, 1200);
  // The trees must actually branch, or equal bytes would prove little.
  EXPECT_GT(splits, 4 * trees);
}

}  // namespace
}  // namespace tfb::methods
