#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/optimizer/search_space.h"

namespace llamatune {

/// \brief Hyperparameters of the random-forest surrogate.
struct RandomForestOptions {
  int num_trees = 10;
  int min_samples_split = 3;
  int min_samples_leaf = 1;
  int max_depth = 24;
  /// Fraction of features considered at each split (SMAC uses 5/6).
  double feature_fraction = 5.0 / 6.0;
  /// Bootstrap-resample the training set per tree.
  bool bootstrap = true;
};

/// \brief Random-forest regression surrogate (the SMAC model, paper
/// §2.2).
///
/// Regression trees with variance-reduction splits. Continuous
/// features split on thresholds; categorical features split on
/// one-vs-rest category membership — no artificial ordering is imposed
/// on categorical knobs, which is the property that makes RF
/// surrogates effective on heterogeneous DBMS spaces.
///
/// The predictive distribution follows SMAC: the mean is the average
/// of per-tree leaf means, and the variance applies the law of total
/// variance across trees (variance of leaf means + mean of leaf
/// variances).
///
/// Bit contract: a fit is a pure function of the seed, the options,
/// the fits before it and (xs, ys). Rng draws come in a fixed order
/// (per tree its bootstrap rows; per node, depth first and right child
/// first, one feature shuffle and each sampled non-constant feature's
/// cuts). Split scores come from count/sum/sum-of-squares accumulators
/// filled in the node's row order, partitions are stable, and leaves
/// sum in row order, so with FP contraction off (the build pins
/// -ffp-contract=off) the fitted bits do not depend on vectorisation.
class RandomForest {
 public:
  RandomForest(const SearchSpace& space, RandomForestOptions options,
               uint64_t seed);
  ~RandomForest();
  RandomForest(RandomForest&&) noexcept;
  RandomForest& operator=(RandomForest&&) noexcept;

  /// Fits the forest to (X, y). Re-fitting replaces all trees.
  void Fit(const std::vector<std::vector<double>>& xs,
           const std::vector<double>& ys);

  /// Predictive mean and variance at `x`. Must be fitted first.
  void Predict(const std::vector<double>& x, double* mean,
               double* variance) const;

  double PredictMean(const std::vector<double>& x) const;

  bool fitted() const { return fitted_; }

 private:
  struct Tree;

  SearchSpace space_;
  RandomForestOptions options_;
  Rng rng_;
  std::vector<std::unique_ptr<Tree>> trees_;
  bool fitted_ = false;
};

}  // namespace llamatune
