#include "tfb/methods/ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "tfb/base/check.h"

namespace tfb::methods {

namespace {

double MeanOf(const std::vector<double>& y,
              const std::vector<std::size_t>& indices, std::size_t begin,
              std::size_t end) {
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += y[indices[i]];
  return sum / static_cast<double>(end - begin);
}

}  // namespace

TreeWorkspace::TreeWorkspace(const linalg::Matrix& x)
    : x_(x),
      order_(x.cols() * x.rows()),
      multiplicity_(x.rows(), 0),
      goes_left_(x.rows(), 0) {
  TFB_CHECK(x.rows() <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t n = x.rows();
  for (std::size_t f = 0; f < x.cols(); ++f) {
    std::uint32_t* order = order_.data() + f * n;
    std::iota(order, order + n, 0u);
    std::sort(order, order + n, [&](std::uint32_t a, std::uint32_t b) {
      return x(a, f) < x(b, f);
    });
  }
}

void TreeWorkspace::Load(const std::vector<double>& y,
                         const std::vector<std::size_t>& indices) {
  const std::size_t n = x_.rows();
  slots_ = indices.size();
  rows_.assign(indices.begin(), indices.end());
  columns_.resize(x_.cols() * slots_);
  spill_.resize(slots_);
  for (std::size_t row : indices) ++multiplicity_[row];
  for (std::size_t f = 0; f < x_.cols(); ++f) {
    Entry* column = columns_.data() + f * slots_;
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t row = order_[f * n + i];
      for (std::uint32_t c = multiplicity_[row]; c > 0; --c) {
        column[k++] = {x_(row, f), y[row], row};
      }
    }
    // Equal values (-0.0 and +0.0 included) sit in runs; a sort of
    // (value, target) pairs orders each run by target.
    for (std::size_t run = 0; run < slots_;) {
      std::size_t stop = run + 1;
      while (stop < slots_ && column[stop].value == column[run].value) ++stop;
      if (stop - run > 1) {
        std::sort(column + run, column + stop,
                  [](const Entry& a, const Entry& b) {
                    return a.target < b.target;
                  });
      }
      run = stop;
    }
  }
  for (std::size_t row : indices) multiplicity_[row] = 0;
}

void TreeWorkspace::Partition(std::size_t begin, std::size_t mid,
                              std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) goes_left_[rows_[i]] = i < mid;
  for (std::size_t f = 0; f < x_.cols(); ++f) {
    Entry* column = columns_.data() + f * slots_;
    std::size_t left = begin;
    std::size_t right = 0;
    for (std::size_t i = begin; i < end; ++i) {
      // Branch-free: the side is a coin flip to the predictor.
      const Entry entry = column[i];
      const std::size_t to_left = goes_left_[entry.row];
      column[left] = entry;
      spill_[right] = entry;
      left += to_left;
      right += 1 - to_left;
    }
    std::copy(spill_.begin(), spill_.begin() + right, column + left);
  }
}

void DecisionTree::Fit(const std::vector<double>& y,
                       const std::vector<std::size_t>& indices,
                       const TreeOptions& options, stats::Rng* rng,
                       TreeWorkspace* workspace) {
  TFB_CHECK(!indices.empty());
  TFB_CHECK(y.size() == workspace->x_.rows());
  nodes_.clear();
  nodes_.reserve(2 * indices.size() / options.min_samples_leaf + 1);
  workspace->Load(y, indices);
  Build(y, 0, indices.size(), 0, options, rng, workspace);
}

std::int32_t DecisionTree::Build(const std::vector<double>& y,
                                 std::size_t begin, std::size_t end, int depth,
                                 const TreeOptions& options, stats::Rng* rng,
                                 TreeWorkspace* workspace) {
  const linalg::Matrix& x = workspace->x_;
  std::vector<std::size_t>& indices = workspace->rows_;
  const std::size_t count = end - begin;
  const std::int32_t node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].value = MeanOf(y, indices, begin, end);

  if (depth >= options.max_depth || count < options.min_samples_split) {
    return node_id;
  }

  // Candidate features, optionally a random subset (random-forest mode).
  const std::size_t d = x.cols();
  std::vector<std::size_t> features;
  if (options.max_features == 0 || options.max_features >= d) {
    features.resize(d);
    std::iota(features.begin(), features.end(), 0);
  } else {
    TFB_CHECK(rng != nullptr);
    std::vector<std::size_t> perm = rng->Permutation(d);
    features.assign(perm.begin(), perm.begin() + options.max_features);
  }

  // Best split by variance reduction (equivalently, maximizing the sum of
  // child squared-sums). The sums run over `indices` and over the sorted
  // column segments in a fixed order, so the tree is bit-reproducible.
  double parent_sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) parent_sum += y[indices[i]];

  double best_score = -std::numeric_limits<double>::infinity();
  int best_feature = -1;
  double best_threshold = 0.0;

  for (std::size_t f : features) {
    const TreeWorkspace::Entry* sorted = workspace->Column(f) + begin;
    double left_sum = 0.0;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      left_sum += sorted[i].target;
      const std::size_t left_n = i + 1;
      const std::size_t right_n = count - left_n;
      if (left_n < options.min_samples_leaf ||
          right_n < options.min_samples_leaf) {
        continue;
      }
      if (sorted[i].value >= sorted[i + 1].value - 1e-15) continue;
      const double right_sum = parent_sum - left_sum;
      const double score = left_sum * left_sum / left_n +
                           right_sum * right_sum / right_n;
      if (score > best_score) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (sorted[i].value + sorted[i + 1].value);
      }
    }
  }
  if (best_feature < 0) return node_id;
  // Reject splits that do not actually reduce impurity.
  const double parent_score = parent_sum * parent_sum / count;
  if (best_score <= parent_score + 1e-12) return node_id;

  // Partition indices in place.
  const auto mid_it = std::partition(
      indices.begin() + begin, indices.begin() + end, [&](std::size_t row) {
        return x(row, static_cast<std::size_t>(best_feature)) <=
               best_threshold;
      });
  const std::size_t mid = static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return node_id;

  // Only a child that searches for a split reads the sorted columns.
  const auto searches = [&](std::size_t n) {
    return depth + 1 < options.max_depth && n >= options.min_samples_split;
  };
  if (searches(mid - begin) || searches(end - mid)) {
    workspace->Partition(begin, mid, end);
  }

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const std::int32_t left =
      Build(y, begin, mid, depth + 1, options, rng, workspace);
  const std::int32_t right =
      Build(y, mid, end, depth + 1, options, rng, workspace);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

double DecisionTree::Predict(const double* features) const {
  TFB_CHECK(!nodes_.empty());
  std::int32_t node = 0;
  while (nodes_[node].feature >= 0) {
    node = features[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].value;
}


void DecisionTree::Save(base::BlobWriter* blob) const {
  blob->PutU64(nodes_.size());
  for (const Node& n : nodes_) {
    blob->PutI64(n.feature);
    blob->PutDouble(n.threshold);
    blob->PutDouble(n.value);
    blob->PutI64(n.left);
    blob->PutI64(n.right);
  }
}

base::Status DecisionTree::Load(base::BlobReader* blob) {
  std::uint64_t count = 0;
  TFB_RETURN_IF_ERROR(blob->ReadU64(&count));
  // Each node record is 40 bytes; reject counts the blob cannot hold.
  if (count > blob->remaining() / 40) {
    return base::Status::InvalidInput(
        "blob truncated: tree of " + std::to_string(count) +
        " nodes overruns remaining " + std::to_string(blob->remaining()) +
        " bytes");
  }
  std::vector<Node> nodes(static_cast<std::size_t>(count));
  const std::int64_t n = static_cast<std::int64_t>(count);
  for (Node& node : nodes) {
    std::int64_t feature = 0;
    std::int64_t left = 0;
    std::int64_t right = 0;
    TFB_RETURN_IF_ERROR(blob->ReadI64(&feature));
    TFB_RETURN_IF_ERROR(blob->ReadDouble(&node.threshold));
    TFB_RETURN_IF_ERROR(blob->ReadDouble(&node.value));
    TFB_RETURN_IF_ERROR(blob->ReadI64(&left));
    TFB_RETURN_IF_ERROR(blob->ReadI64(&right));
    // Child indices must stay inside the node array (or be -1 for leaves):
    // a corrupted tree must fail the load, not fault at Predict time.
    if (left < -1 || left >= n || right < -1 || right >= n) {
      return base::Status::InvalidInput("corrupt tree: child index out of range");
    }
    node.feature = static_cast<int>(feature);
    node.left = static_cast<std::int32_t>(left);
    node.right = static_cast<std::int32_t>(right);
  }
  nodes_ = std::move(nodes);
  return base::Status::Ok();
}

}  // namespace tfb::methods
