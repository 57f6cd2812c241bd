#ifndef TFB_METHODS_ML_DECISION_TREE_H_
#define TFB_METHODS_ML_DECISION_TREE_H_

#include <cstdint>
#include <vector>

#include "tfb/base/blob.h"
#include "tfb/linalg/matrix.h"
#include "tfb/stats/rng.h"

namespace tfb::methods {

/// Options controlling CART regression-tree growth.
struct TreeOptions {
  int max_depth = 8;
  std::size_t min_samples_leaf = 3;
  std::size_t min_samples_split = 6;
  /// Number of features examined per split; 0 = all (single trees / GBRT),
  /// set to ~sqrt(d) or d/3 for random forests.
  std::size_t max_features = 0;
};

/// The lag matrix of one ensemble fit with each column sorted once, plus
/// the split-search buffers that every tree of the ensemble borrows in turn.
///
/// Sorting a column costs O(n log n); doing it at every node of every tree
/// was most of an ensemble's fit time. With the order fixed here, each tree
/// derives its own sorted columns in O(d n) and grows without sorting. The
/// buffers live for the whole ensemble fit rather than one tree: allocating
/// them per tree interleaves them with the node arrays that stay alive and
/// fragments the heap. A workspace is not shared between threads; each
/// ensemble fit owns one.
class TreeWorkspace {
 public:
  /// Sorts every column of `x`, which must outlive the workspace.
  explicit TreeWorkspace(const linalg::Matrix& x);

 private:
  friend class DecisionTree;

  /// One sample slot of a column: a row of `indices` with its feature value
  /// and target.
  struct Entry {
    double value;
    double target;
    std::uint32_t row;
  };

  /// Lays out, for every column, the slots of `indices` in ascending
  /// (value, target) order: the order a sort of those pairs would give.
  void Load(const std::vector<double>& y,
            const std::vector<std::size_t>& indices);

  /// Splits slots [begin, end) of every column into the rows of
  /// rows_[begin, mid) followed by those of rows_[mid, end), keeping each
  /// side's order.
  void Partition(std::size_t begin, std::size_t mid, std::size_t end);

  const Entry* Column(std::size_t f) const {
    return columns_.data() + f * slots_;
  }

  const linalg::Matrix& x_;
  std::vector<std::uint32_t> order_;         // cols x rows, ascending value
  std::vector<std::size_t> rows_;            // the tree's `indices`, split
  std::vector<Entry> columns_;               // cols x slots_
  std::vector<Entry> spill_;                 // right side during Partition
  std::vector<std::uint32_t> multiplicity_;  // per row, during Load
  std::vector<unsigned char> goes_left_;     // per row, during Partition
  std::size_t slots_ = 0;
};

/// CART regression tree fit by variance reduction: the shared weak learner
/// under both RandomForest (bagged, feature-subsampled) and the
/// XGBoost-style gradient booster. Split search scans presorted columns
/// (XGBoost's exact greedy method): the ensemble sorts each lag column once
/// in a TreeWorkspace, and a split stable-partitions every column's segment
/// instead of sorting it again. Stored as a flat node array for cache-
/// friendly prediction.
class DecisionTree {
 public:
  DecisionTree() = default;

  /// Fits on rows `indices` (repeats allowed) of the workspace's matrix.
  /// `y` is a single output column. `rng` drives feature subsampling
  /// (unused when max_features == 0).
  void Fit(const std::vector<double>& y,
           const std::vector<std::size_t>& indices, const TreeOptions& options,
           stats::Rng* rng, TreeWorkspace* workspace);

  /// Predicts one feature row.
  double Predict(const double* features) const;

  /// Number of nodes (tests / introspection).
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Appends the flat node array to `blob` / restores it. The ensemble
  /// forecasters (RandomForest, XGB) serialize their fitted state as a
  /// sequence of these tree records.
  void Save(base::BlobWriter* blob) const;
  base::Status Load(base::BlobReader* blob);

 private:
  struct Node {
    int feature = -1;        // -1 = leaf
    double threshold = 0.0;
    double value = 0.0;      // leaf mean
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  std::int32_t Build(const std::vector<double>& y, std::size_t begin,
                     std::size_t end, int depth, const TreeOptions& options,
                     stats::Rng* rng, TreeWorkspace* workspace);

  std::vector<Node> nodes_;
};

}  // namespace tfb::methods

#endif  // TFB_METHODS_ML_DECISION_TREE_H_
