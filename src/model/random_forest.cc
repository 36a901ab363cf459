#include "src/model/random_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace llamatune {

namespace {

struct Node {
  bool is_leaf = true;
  // Split definition.
  int feature = -1;
  double threshold = 0.0;     // continuous: x[f] <= threshold goes left
  double category = -1.0;     // categorical: x[f] == category goes left
  bool categorical_split = false;
  int left = -1;
  int right = -1;
  // Leaf statistics.
  double mean = 0.0;
  double variance = 0.0;

  bool GoesLeft(double x) const {
    return categorical_split ? x == category : x <= threshold;
  }
};

// One fit's training data and the scratch all of its trees reuse: x
// feature-major (x[f * n + i] = xs[i][f]), the row-index buffer whose
// [begin, end) ranges are the nodes of the tree being grown, and the
// current node's gathered x, y and y^2.
struct FitBuffers {
  FitBuffers(const std::vector<std::vector<double>>& xs, int d)
      : n(static_cast<int>(xs.size())), x(static_cast<size_t>(n) * d),
        node_x(n), node_y(n), node_y_sq(n), rows(n), features(d) {
    for (int i = 0; i < n; ++i) {
      for (int f = 0; f < d; ++f) x[static_cast<size_t>(f) * n + i] = xs[i][f];
    }
  }

  int n;
  std::vector<double> x, node_x, node_y, node_y_sq;
  std::vector<int> rows, features;
};

// Running count, sum and sum of squares of one side of a candidate split.
struct Moments {
  int count = 0;
  double sum = 0.0, sum_sq = 0.0;
  // n times the variance; 0 below two elements.
  double VarianceTimesN() const {
    return count < 2 ? 0.0 : sum_sq - sum * sum / count;
  }
};

void MakeLeaf(Node* node, const double* y, int m) {
  double sum = 0.0, acc = 0.0;
  for (int k = 0; k < m; ++k) sum += y[k];
  double mean = m == 0 ? 0.0 : sum / m;
  for (int k = 0; k < m; ++k) acc += (y[k] - mean) * (y[k] - mean);
  node->mean = mean;
  node->variance = m < 2 ? 0.0 : acc / m;
}

// Evaluates a few random cuts on one feature over the m rows of
// buf->rows from `begin` (extra-trees style randomized split search:
// fast and a good exploration/variance trade-off for surrogate forests)
// and keeps the best split so far in `best`. All cuts are drawn first,
// then scored in one pass.
void TrySplitsOnFeature(const SearchSpace& space, int feature,
                        FitBuffers* buf, int begin, int m,
                        int min_samples_leaf, Rng* rng, Node* best,
                        double* best_score) {
  const double* column = buf->x.data() + static_cast<size_t>(feature) * buf->n;
  double* x = buf->node_x.data();  // the node's values of `feature`
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (int k = 0; k < m; ++k) {
    x[k] = column[buf->rows[begin + k]];
    lo = std::min(lo, x[k]);
    hi = std::max(hi, x[k]);
  }
  if (!(hi > lo)) return;  // constant feature in this node

  static constexpr int kThresholdsPerFeature = 3;
  bool categorical = space.dim(feature).type == SearchDim::Type::kCategorical;
  double cuts[kThresholdsPerFeature];
  int num_cuts = kThresholdsPerFeature;
  if (categorical) {
    // One-vs-rest splits on one or two categories present in this node.
    cuts[0] = x[rng->UniformInt(0, m - 1)];
    cuts[1] = x[rng->UniformInt(0, m - 1)];
    num_cuts = cuts[1] != cuts[0] ? 2 : 1;
  } else {
    for (double& c : cuts) c = rng->Uniform(lo, hi);
  }

  Moments left[kThresholdsPerFeature], right[kThresholdsPerFeature];
  for (int k = 0; k < m; ++k) {
    for (int t = 0; t < num_cuts; ++t) {
      bool go_left = categorical ? x[k] == cuts[t] : x[k] <= cuts[t];
      Moments& side = go_left ? left[t] : right[t];
      ++side.count;
      side.sum += buf->node_y[k];
      side.sum_sq += buf->node_y_sq[k];
    }
  }
  for (int t = 0; t < num_cuts; ++t) {
    if (std::min(left[t].count, right[t].count) < min_samples_leaf) continue;
    double score = left[t].VarianceTimesN() + right[t].VarianceTimesN();
    if (score < *best_score) {
      *best = Node();
      best->is_leaf = false;
      best->feature = feature;
      best->categorical_split = categorical;
      (categorical ? best->category : best->threshold) = cuts[t];
      *best_score = score;
    }
  }
}

}  // namespace

struct RandomForest::Tree {
  std::vector<Node> nodes;

  const Node& Descend(const std::vector<double>& x) const {
    int idx = 0;
    while (!nodes[idx].is_leaf) {
      const Node& node = nodes[idx];
      idx = node.GoesLeft(x[node.feature]) ? node.left : node.right;
    }
    return nodes[idx];
  }
};

RandomForest::RandomForest(const SearchSpace& space,
                           RandomForestOptions options, uint64_t seed)
    : space_(space), options_(options), rng_(seed) {}

RandomForest::~RandomForest() = default;
RandomForest::RandomForest(RandomForest&&) noexcept = default;
RandomForest& RandomForest::operator=(RandomForest&&) noexcept = default;

void RandomForest::Fit(const std::vector<std::vector<double>>& xs,
                       const std::vector<double>& ys) {
  int d = space_.num_dims();
  int features_per_split = std::min(
      d, std::max(1, static_cast<int>(
                         std::ceil(options_.feature_fraction * d))));
  FitBuffers buf(xs, d);
  int n = buf.n;

  trees_.resize(options_.num_trees);
  for (std::unique_ptr<Tree>& tree : trees_) {
    if (!tree) tree = std::make_unique<Tree>();
    if (options_.bootstrap && n > 1) {
      for (int& row : buf.rows) {
        row = static_cast<int>(rng_.UniformInt(0, n - 1));
      }
    } else {
      std::iota(buf.rows.begin(), buf.rows.end(), 0);
    }

    // Iterative growth with an explicit work stack; each node owns the
    // range [begin, end) of buf.rows.
    struct Work { int node, begin, end, depth; };
    std::vector<Node>& nodes = tree->nodes;
    nodes.assign(1, Node());
    std::vector<Work> stack = {{0, 0, n, 0}};
    while (!stack.empty()) {
      Work work = stack.back();
      stack.pop_back();
      int m = work.end - work.begin;
      for (int k = 0; k < m; ++k) {
        buf.node_y[k] = ys[buf.rows[work.begin + k]];
        buf.node_y_sq[k] = buf.node_y[k] * buf.node_y[k];
      }
      Node best;
      double best_score = std::numeric_limits<double>::infinity();
      if (m >= options_.min_samples_split && work.depth < options_.max_depth) {
        // The same draws as Rng::SampleWithoutReplacement(d, k).
        std::iota(buf.features.begin(), buf.features.end(), 0);
        std::shuffle(buf.features.begin(), buf.features.end(), rng_.engine());
        for (int j = 0; j < features_per_split; ++j) {
          TrySplitsOnFeature(space_, buf.features[j], &buf, work.begin, m,
                             options_.min_samples_leaf, &rng_, &best,
                             &best_score);
        }
      }
      if (best.is_leaf) {
        MakeLeaf(&nodes[work.node], buf.node_y.data(), m);
        continue;
      }
      // Stable, so each child keeps its rows in the parent's order.
      const double* column =
          buf.x.data() + static_cast<size_t>(best.feature) * n;
      int mid = static_cast<int>(
          std::stable_partition(
              buf.rows.begin() + work.begin, buf.rows.begin() + work.end,
              [&](int row) { return best.GoesLeft(column[row]); }) -
          buf.rows.begin());
      int left = static_cast<int>(nodes.size());
      best.left = left;
      best.right = left + 1;
      nodes[work.node] = best;
      nodes.resize(left + 2);
      stack.push_back({left, work.begin, mid, work.depth + 1});
      stack.push_back({left + 1, mid, work.end, work.depth + 1});
    }
  }
  fitted_ = !xs.empty();
}

void RandomForest::Predict(const std::vector<double>& x, double* mean,
                           double* variance) const {
  double sum = 0.0, sum_sq = 0.0, within = 0.0;
  int m = static_cast<int>(trees_.size());
  for (const auto& tree : trees_) {
    const Node& leaf = tree->Descend(x);
    sum += leaf.mean;
    sum_sq += leaf.mean * leaf.mean;
    within += leaf.variance;
  }
  double mu = sum / m;
  // Law of total variance: Var[leaf means] + E[leaf variances].
  double between = std::max(0.0, sum_sq / m - mu * mu);
  *mean = mu;
  *variance = between + within / m;
}

double RandomForest::PredictMean(const std::vector<double>& x) const {
  double mean = 0.0, variance = 0.0;
  Predict(x, &mean, &variance);
  return mean;
}

}  // namespace llamatune
