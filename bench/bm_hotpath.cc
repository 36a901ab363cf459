// Math-core hot path benchmark (the first entry in the perf
// trajectory): measures the incremental-GP + flat-matrix + thread-pool
// rewrite against a faithful replica of the pre-PR path, and the
// batch-evaluation speedup over a clonable objective.
//
// Emits machine-readable BENCH_hotpath.json in the working directory:
//   fit_predict[]   — per-n mean fit+predict seconds per GP-BO
//                     iteration, legacy vs fast, and the speedup
//   update_scaling  — fast-path model-update cost at n=100 vs n=200
//                     (a ratio near 4 = O(n^2); near 8 = O(n^3))
//   batch           — batch-1 vs batch-8 session wall-clock over a
//                     clonable spin objective (speedup tracks
//                     min(cores, batch))
//   forest_fit[]    — SMAC's RandomForest::Fit at d in {16, 90} (the
//                     v9.6 catalog's llamatune and identity spaces) and
//                     n in {50, 100}: median and p90 ms over 100 fits
//   ddpg_observe[]  — DdpgOptimizer::Observe (one training round) at
//                     default options over the same two spaces: median
//                     and p90 ms over 100 Observes after warm-up
//
// Usage: bm_hotpath [--max-n=N] (default 200; lower for smoke runs)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/math_util.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/adapter_registry.h"
#include "src/core/tuning_session.h"
#include "src/dbsim/knob_catalog.h"
#include "src/model/acquisition.h"
#include "src/model/gp.h"
#include "src/model/kernels.h"
#include "src/model/random_forest.h"
#include "src/optimizer/ddpg.h"
#include "src/optimizer/random_search.h"
#include "src/optimizer/search_space.h"
#include "src/sampling/uniform.h"

namespace llamatune {
namespace {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// LegacyGp: a line-for-line replica of the pre-PR GaussianProcess hot
// path — full O(n^2 d) KernelMatrix + O(n^3) CholeskyFactor on every
// Fit (per hyperparameter restart), vector<vector> storage, and
// per-candidate O(n^2) Predict. This is the measurement baseline; the
// production GP lives in src/model/gp.
// ---------------------------------------------------------------------------

class LegacyGp {
 public:
  LegacyGp(const SearchSpace& space, GpOptions options, uint64_t seed)
      : space_(space), options_(options), seed_(seed) {}

  Status Fit(const std::vector<std::vector<double>>& xs,
             const std::vector<double>& ys) {
    train_x_ = xs;
    y_mean_ = Mean(ys);
    y_std_ = std::max(Stddev(ys), 1e-9);
    std::vector<double> ys_std(ys.size());
    for (size_t i = 0; i < ys.size(); ++i) {
      ys_std[i] = (ys[i] - y_mean_) / y_std_;
    }
    bool reopt = (fit_count_ % std::max(1, options_.reopt_interval)) == 0 ||
                 !fitted_;
    ++fit_count_;
    KernelParams best = params_;
    if (reopt) {
      Rng rng(HashCombine(seed_, static_cast<uint64_t>(fit_count_)));
      double best_lml = -std::numeric_limits<double>::infinity();
      for (int r = 0; r < options_.hyperparameter_restarts; ++r) {
        KernelParams cand;
        cand.signal_variance =
            std::exp(rng.Uniform(std::log(0.25), std::log(4.0)));
        cand.lengthscale =
            std::exp(rng.Uniform(std::log(0.05), std::log(3.0)));
        cand.hamming_weight =
            std::exp(rng.Uniform(std::log(0.1), std::log(5.0)));
        cand.noise_variance =
            std::exp(rng.Uniform(std::log(1e-6), std::log(1e-1)));
        cand.noise_variance =
            std::max(cand.noise_variance, options_.min_noise_variance);
        double lml = EvaluateLml(cand, train_x_, ys_std);
        if (lml > best_lml) {
          best_lml = lml;
          best = cand;
        }
      }
      if (!std::isfinite(best_lml)) best = KernelParams{};
    }
    Status st = FactorAndCache(best, train_x_, ys_std);
    if (!st.ok()) return st;
    fitted_ = true;
    return Status::OK();
  }

  void Predict(const std::vector<double>& x, double* mean,
               double* variance) const {
    int n = static_cast<int>(train_x_.size());
    std::vector<double> k_star(n);
    for (int i = 0; i < n; ++i) {
      k_star[i] = MixedKernel(space_, params_, x, train_x_[i]);
    }
    double mu_std = Dot(k_star, alpha_);
    std::vector<double> v = ForwardSolve(chol_, k_star);
    double k_xx = MixedKernel(space_, params_, x, x) + params_.noise_variance;
    double var_std = std::max(k_xx - Dot(v, v), 1e-12);
    *mean = mu_std * y_std_ + y_mean_;
    *variance = var_std * y_std_ * y_std_;
  }

 private:
  Status FactorAndCache(const KernelParams& params,
                        const std::vector<std::vector<double>>& xs,
                        const std::vector<double>& ys_std) {
    KernelParams p = params;
    for (int attempt = 0; attempt < 6; ++attempt) {
      auto gram = KernelMatrix(space_, p, xs);  // rebuilt every attempt
      std::vector<std::vector<double>> l;
      Status st = CholeskyFactor(std::move(gram), &l);
      if (st.ok()) {
        chol_ = std::move(l);
        std::vector<double> z = ForwardSolve(chol_, ys_std);
        alpha_ = BackwardSolve(chol_, z);
        params_ = p;
        return Status::OK();
      }
      p.noise_variance = std::max(p.noise_variance, 1e-8) * 10.0;
    }
    return Status::Internal("legacy GP fit failed");
  }

  double EvaluateLml(const KernelParams& params,
                     const std::vector<std::vector<double>>& xs,
                     const std::vector<double>& ys_std) const {
    auto gram = KernelMatrix(space_, params, xs);
    std::vector<std::vector<double>> l;
    if (!CholeskyFactor(std::move(gram), &l).ok()) {
      return -std::numeric_limits<double>::infinity();
    }
    std::vector<double> z = ForwardSolve(l, ys_std);
    std::vector<double> alpha = BackwardSolve(l, z);
    double lml = 0.0;
    for (size_t i = 0; i < ys_std.size(); ++i) {
      lml -= 0.5 * ys_std[i] * alpha[i];
    }
    for (size_t i = 0; i < l.size(); ++i) lml -= std::log(l[i][i]);
    lml -= 0.5 * static_cast<double>(ys_std.size()) *
           std::log(2.0 * 3.14159265358979323846);
    return lml;
  }

  SearchSpace space_;
  GpOptions options_;
  uint64_t seed_;
  int fit_count_ = 0;
  KernelParams params_;
  std::vector<std::vector<double>> train_x_;
  std::vector<std::vector<double>> chol_;
  std::vector<double> alpha_;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  bool fitted_ = false;
};

// ---------------------------------------------------------------------------
// Part 1: GP fit+predict vs n, legacy vs fast.
// ---------------------------------------------------------------------------

SearchSpace BenchSpace() {
  std::vector<SearchDim> dims;
  for (int i = 0; i < 16; ++i) dims.push_back(SearchDim::Continuous(0.0, 1.0));
  for (int i = 0; i < 4; ++i) dims.push_back(SearchDim::Categorical(4));
  return SearchSpace(dims);
}

std::vector<double> DrawPoint(const SearchSpace& space, Rng* rng) {
  std::vector<double> x(space.num_dims());
  for (int i = 0; i < space.num_dims(); ++i) {
    const SearchDim& dim = space.dim(i);
    x[i] = dim.type == SearchDim::Type::kCategorical
               ? static_cast<double>(rng->UniformInt(0, dim.num_categories - 1))
               : rng->Uniform(dim.lo, dim.hi);
  }
  return x;
}

double SyntheticObjective(const std::vector<double>& x) {
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    acc += std::sin(3.0 * x[i] + static_cast<double>(i));
  }
  return acc;
}

struct Checkpoint {
  int n = 0;
  double per_iter_seconds = 0.0;   // mean fit+predict, window before n
  double update_seconds = 0.0;     // mean fit-only, window before n
  /// Mean fit-only seconds over the window's non-reopt iterations —
  /// the pure incremental model update (reopt-boundary refits are
  /// scheduled O(n^3) work in every path).
  double incremental_update_seconds = 0.0;
  double cumulative_seconds = 0.0;
};

// Simulates the model side of a GP-BO session from 10 to max_n
// observations: each iteration refits the GP on everything seen, scores
// 550 candidates, then receives one new observation. The observation
// stream and candidate pools are identical for every path (regenerated
// from fixed seeds), so timings are apples-to-apples.
template <typename FitFn, typename PredictFn>
std::vector<Checkpoint> RunModelLoop(const SearchSpace& space, int max_n,
                                     const std::vector<int>& checkpoints,
                                     FitFn fit, PredictFn predict) {
  constexpr int kCandidates = 550;
  constexpr int kWindow = 10;
  Rng data_rng(4242);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(DrawPoint(space, &data_rng));
    ys.push_back(SyntheticObjective(xs.back()));
  }
  std::vector<Checkpoint> out;
  std::vector<double> iter_seconds, fit_seconds;
  std::vector<bool> is_reopt;
  double cumulative = 0.0;
  for (int n = 10; n <= max_n; ++n) {
    // Mirrors GpOptions::reopt_interval: the GP re-optimizes
    // hyperparameters on fit calls 0, 5, 10, ... (fit call n-10 here).
    is_reopt.push_back((n - 10) % 5 == 0);
    double t0 = NowSeconds();
    fit(xs, ys);
    double t1 = NowSeconds();
    Rng cand_rng(HashCombine(9000, static_cast<uint64_t>(n)));
    std::vector<std::vector<double>> candidates;
    candidates.reserve(kCandidates);
    for (int c = 0; c < kCandidates; ++c) {
      candidates.push_back(DrawPoint(space, &cand_rng));
    }
    predict(candidates);
    double t2 = NowSeconds();
    iter_seconds.push_back(t2 - t0);
    fit_seconds.push_back(t1 - t0);
    cumulative += t2 - t0;
    for (int cp : checkpoints) {
      if (n == cp) {
        int w = std::min<int>(kWindow, iter_seconds.size());
        std::vector<double> iter_window(iter_seconds.end() - w,
                                        iter_seconds.end());
        std::vector<double> fit_window(fit_seconds.end() - w,
                                       fit_seconds.end());
        std::vector<double> incr_window;
        for (int k = 0; k < w; ++k) {
          size_t idx = fit_seconds.size() - w + k;
          if (!is_reopt[idx]) incr_window.push_back(fit_seconds[idx]);
        }
        Checkpoint c;
        c.n = cp;
        c.per_iter_seconds = Mean(iter_window);
        c.update_seconds = Mean(fit_window);
        c.incremental_update_seconds = Mean(incr_window);
        c.cumulative_seconds = cumulative;
        out.push_back(c);
      }
    }
    xs.push_back(DrawPoint(space, &data_rng));
    ys.push_back(SyntheticObjective(xs.back()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Part 2: batch-1 vs batch-8 session wall-clock over a clonable
// objective with a fixed CPU cost per evaluation.
// ---------------------------------------------------------------------------

class SpinObjective : public ObjectiveFunction {
 public:
  explicit SpinObjective(int spin_iters)
      : spin_iters_(spin_iters),
        space_(*ConfigSpace::Create({IntegerKnob("a", 0, 100, 50),
                                     RealKnob("b", 0.0, 1.0, 0.5)})) {}

  EvalResult Evaluate(const Configuration& config) override {
    // Deterministic fixed-cost busy loop standing in for a workload run.
    volatile double sink = 0.0;
    for (int i = 0; i < spin_iters_; ++i) {
      sink = sink + std::sqrt(static_cast<double>(i) + 1.0);
    }
    EvalResult result;
    result.value = config[0] + 10.0 * config[1] + sink * 0.0;
    return result;
  }

  const ConfigSpace& config_space() const override { return space_; }

  std::unique_ptr<ObjectiveFunction> Clone() const override {
    return std::make_unique<SpinObjective>(spin_iters_);
  }

 private:
  int spin_iters_;
  ConfigSpace space_;
};

struct BatchResult {
  double seconds = 0.0;
  double best = 0.0;
};

BatchResult RunBatchSession(int batch_size, int spin_iters) {
  SpinObjective objective(spin_iters);
  std::unique_ptr<SpaceAdapter> adapter =
      std::move(AdapterRegistry::Global().Create(
                    "identity", &objective.config_space(), 77))
          .ValueOrDie();
  RandomSearchOptimizer optimizer(adapter->search_space(), /*seed=*/77);
  SessionOptions options;
  options.num_iterations = 48;
  options.batch_size = batch_size;
  TuningSession session(&objective, adapter.get(), &optimizer, options);
  double t0 = NowSeconds();
  SessionResult result = session.Run();
  BatchResult out;
  out.seconds = NowSeconds() - t0;
  out.best = result.best_performance;
  return out;
}

// ---------------------------------------------------------------------------
// Part 3: random-forest fit (SMAC's per-suggestion model refit).
// ---------------------------------------------------------------------------

struct ForestFitRow {
  int d = 0;
  int n = 0;
  double median_ms = 0.0;
  double p90_ms = 0.0;
};

// Times RandomForest::Fit with the default options (10 trees, as SMAC
// uses) on n uniform points of the adapter's search space. Three
// untimed warm-up fits, then 100 timed refits of the same forest (so
// ten samples lie beyond the reported p90).
ForestFitRow TimeForestFit(const char* adapter_key, int n) {
  constexpr int kWarmup = 3;
  constexpr int kReps = 100;
  ConfigSpace catalog = dbsim::PostgresV96Catalog();
  std::unique_ptr<SpaceAdapter> adapter =
      std::move(AdapterRegistry::Global().Create(adapter_key, &catalog, 5))
          .ValueOrDie();
  const SearchSpace& space = adapter->search_space();
  Rng rng(4242);
  std::vector<std::vector<double>> xs = UniformSamples(space, n, &rng);
  std::vector<double> ys;
  for (const auto& x : xs) ys.push_back(SyntheticObjective(x));
  RandomForest forest(space, RandomForestOptions(), 7);
  std::vector<double> ms;
  for (int r = 0; r < kWarmup + kReps; ++r) {
    double t0 = NowSeconds();
    forest.Fit(xs, ys);
    double t1 = NowSeconds();
    if (r >= kWarmup) ms.push_back((t1 - t0) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  ForestFitRow row;
  row.d = space.num_dims();
  row.n = n;
  row.median_ms = ms[ms.size() / 2];
  row.p90_ms = ms[ms.size() * 9 / 10 - 1];  // nearest rank
  return row;
}

// ---------------------------------------------------------------------------
// Part 4: DDPG Observe (its minibatch training round).
// ---------------------------------------------------------------------------

struct DdpgObserveRow {
  int d = 0;
  double median_ms = 0.0;
  double p90_ms = 0.0;
};

// Times DdpgOptimizer::Observe with the default options (20 minibatch
// updates of 32 per Observe) on the adapter's search space, fed
// uniform metrics and a synthetic objective. The first 40 Observes fill
// the replay buffer past the training threshold and are not timed;
// the next 100 are (so ten samples lie beyond the reported p90).
DdpgObserveRow TimeDdpgObserve(const char* adapter_key) {
  constexpr int kWarmup = 40;
  constexpr int kReps = 100;
  ConfigSpace catalog = dbsim::PostgresV96Catalog();
  std::unique_ptr<SpaceAdapter> adapter =
      std::move(AdapterRegistry::Global().Create(adapter_key, &catalog, 5))
          .ValueOrDie();
  DdpgOptions options;
  DdpgOptimizer ddpg(adapter->search_space(), options, 7);
  Rng env(4243);
  std::vector<double> ms;
  for (int r = 0; r < kWarmup + kReps; ++r) {
    std::vector<double> point = ddpg.Suggest();
    std::vector<double> metrics(options.state_dim);
    for (double& m : metrics) m = env.Uniform(0.0, 2.0);
    ddpg.ObserveMetrics(metrics);
    double value = SyntheticObjective(point);
    double t0 = NowSeconds();
    ddpg.Observe(point, value);
    double t1 = NowSeconds();
    if (r >= kWarmup) ms.push_back((t1 - t0) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  DdpgObserveRow row;
  row.d = adapter->search_space().num_dims();
  row.median_ms = ms[ms.size() / 2];
  row.p90_ms = ms[ms.size() * 9 / 10 - 1];  // nearest rank
  return row;
}

}  // namespace
}  // namespace llamatune

int main(int argc, char** argv) {
  using namespace llamatune;

  int max_n = 200;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-n=", 8) == 0) {
      max_n = std::atoi(argv[i] + 8);
    }
  }
  std::vector<int> checkpoints;
  for (int cp : {50, 100, 200}) {
    if (cp <= max_n) checkpoints.push_back(cp);
  }

  SearchSpace space = BenchSpace();
  GpOptions gp_options;  // paper defaults: 24 restarts, reopt every 5

  std::printf("[hotpath] legacy path (pre-PR replica), max n=%d...\n", max_n);
  LegacyGp legacy(space, gp_options, 1);
  std::vector<Checkpoint> legacy_cp = RunModelLoop(
      space, max_n, checkpoints,
      [&](const std::vector<std::vector<double>>& xs,
          const std::vector<double>& ys) { legacy.Fit(xs, ys); },
      [&](const std::vector<std::vector<double>>& candidates) {
        double best_ei = -1.0;
        for (const auto& c : candidates) {
          double mean = 0.0, variance = 0.0;
          legacy.Predict(c, &mean, &variance);
          best_ei = std::max(best_ei,
                             ExpectedImprovement(mean, variance, 0.0));
        }
      });

  // The fast path is measured twice: serial (num_threads = 1) to
  // isolate the algorithmic gain over the equally-serial legacy
  // replica, and pooled (num_threads = 0) for the wall-clock the
  // default configuration actually delivers on this machine.
  auto run_fast = [&](GpOptions opts) {
    GaussianProcess fast(space, opts, 1);
    return RunModelLoop(
        space, max_n, checkpoints,
        [&](const std::vector<std::vector<double>>& xs,
            const std::vector<double>& ys) {
          // The session feeds observations as they arrive; replicate
          // that by appending only the yet-unseen suffix.
          for (size_t i = static_cast<size_t>(fast.num_observations());
               i < xs.size(); ++i) {
            fast.AddObservation(xs[i], ys[i]);
          }
          fast.Refit();
        },
        [&](const std::vector<std::vector<double>>& candidates) {
          std::vector<double> means, variances;
          fast.PredictBatch(candidates, &means, &variances);
          double best_ei = -1.0;
          for (size_t i = 0; i < candidates.size(); ++i) {
            best_ei = std::max(
                best_ei, ExpectedImprovement(means[i], variances[i], 0.0));
          }
        });
  };
  std::printf("[hotpath] fast path, serial (algorithmic speedup)...\n");
  GpOptions serial_options = gp_options;
  serial_options.num_threads = 1;
  std::vector<Checkpoint> fast_cp = run_fast(serial_options);
  std::printf("[hotpath] fast path, pooled (wall-clock)...\n");
  std::vector<Checkpoint> pooled_cp = run_fast(gp_options);

  std::printf("[hotpath] batch sessions (spin objective)...\n");
  const int spin_iters = 400000;  // ~1-3 ms per evaluation
  BatchResult batch1 = RunBatchSession(1, spin_iters);
  BatchResult batch8 = RunBatchSession(8, spin_iters);
  BatchResult batch8_repeat = RunBatchSession(8, spin_iters);
  bool deterministic = batch8.best == batch8_repeat.best;

  std::printf("[hotpath] random-forest fits...\n");
  std::vector<ForestFitRow> forest_rows;
  for (const char* key : {"llamatune", "identity"}) {
    for (int n : {50, 100}) forest_rows.push_back(TimeForestFit(key, n));
  }

  std::printf("[hotpath] DDPG observes...\n");
  std::vector<DdpgObserveRow> ddpg_rows;
  for (const char* key : {"llamatune", "identity"}) {
    ddpg_rows.push_back(TimeDdpgObserve(key));
  }

  int cores = ThreadPool::DefaultThreads();
  FILE* json = std::fopen("BENCH_hotpath.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_hotpath.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"hotpath\",\n");
  std::fprintf(json, "  \"hardware_cores\": %d,\n", cores);
  std::fprintf(json, "  \"candidates_per_iteration\": 550,\n");
  std::fprintf(json, "  \"fit_predict\": [\n");
  for (size_t i = 0; i < legacy_cp.size(); ++i) {
    // "speedup" is serial-vs-serial (pure algorithmic gain);
    // "pooled_speedup" additionally uses the shared thread pool.
    double speedup = legacy_cp[i].per_iter_seconds /
                     std::max(fast_cp[i].per_iter_seconds, 1e-12);
    double pooled_speedup = legacy_cp[i].per_iter_seconds /
                            std::max(pooled_cp[i].per_iter_seconds, 1e-12);
    std::fprintf(json,
                 "    {\"n\": %d, \"legacy_per_iter_seconds\": %.6e, "
                 "\"fast_per_iter_seconds\": %.6e, \"speedup\": %.2f, "
                 "\"fast_pooled_per_iter_seconds\": %.6e, "
                 "\"pooled_speedup\": %.2f, "
                 "\"legacy_cumulative_seconds\": %.4f, "
                 "\"fast_cumulative_seconds\": %.4f}%s\n",
                 legacy_cp[i].n, legacy_cp[i].per_iter_seconds,
                 fast_cp[i].per_iter_seconds, speedup,
                 pooled_cp[i].per_iter_seconds, pooled_speedup,
                 legacy_cp[i].cumulative_seconds,
                 fast_cp[i].cumulative_seconds,
                 i + 1 < legacy_cp.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  if (fast_cp.size() >= 2) {
    const Checkpoint& a = fast_cp[fast_cp.size() - 2];
    const Checkpoint& b = fast_cp.back();
    // Pure incremental updates (non-reopt iterations): a doubling of n
    // should cost ~4x (O(n^2) Cholesky extension + alpha recompute),
    // not the ~8x a full O(n^3) refit would.
    std::fprintf(json,
                 "  \"update_scaling\": {\"n_lo\": %d, "
                 "\"incremental_update_seconds_lo\": %.6e, \"n_hi\": %d, "
                 "\"incremental_update_seconds_hi\": %.6e, \"ratio\": %.2f, "
                 "\"o_n2_reference\": %.2f, \"o_n3_reference\": %.2f},\n",
                 a.n, a.incremental_update_seconds, b.n,
                 b.incremental_update_seconds,
                 b.incremental_update_seconds /
                     std::max(a.incremental_update_seconds, 1e-12),
                 static_cast<double>(b.n) * b.n / (a.n * a.n),
                 static_cast<double>(b.n) * b.n * b.n /
                     (static_cast<double>(a.n) * a.n * a.n));
  }
  std::fprintf(json,
               "  \"batch\": {\"iterations\": 48, \"batch_sizes\": [1, 8], "
               "\"batch1_seconds\": %.4f, \"batch8_seconds\": %.4f, "
               "\"speedup\": %.2f, \"deterministic_repeat\": %s},\n",
               batch1.seconds, batch8.seconds,
               batch1.seconds / std::max(batch8.seconds, 1e-12),
               deterministic ? "true" : "false");
  std::fprintf(json, "  \"forest_fit\": [\n");
  for (size_t i = 0; i < forest_rows.size(); ++i) {
    std::fprintf(json,
                 "    {\"d\": %d, \"n\": %d, \"fit_ms\": %.4f, "
                 "\"fit_ms_p90\": %.4f}%s\n",
                 forest_rows[i].d, forest_rows[i].n, forest_rows[i].median_ms,
                 forest_rows[i].p90_ms,
                 i + 1 < forest_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"ddpg_observe\": [\n");
  for (size_t i = 0; i < ddpg_rows.size(); ++i) {
    std::fprintf(json,
                 "    {\"d\": %d, \"observe_ms\": %.4f, "
                 "\"observe_ms_p90\": %.4f}%s\n",
                 ddpg_rows[i].d, ddpg_rows[i].median_ms, ddpg_rows[i].p90_ms,
                 i + 1 < ddpg_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n");
  std::fprintf(json, "}\n");
  std::fclose(json);

  for (size_t i = 0; i < legacy_cp.size(); ++i) {
    std::printf("[hotpath] n=%3d  legacy %.3f ms/iter (fit %.3f)  "
                "fast %.3f ms/iter (fit %.3f)  speedup %.1fx  "
                "(pooled %.3f ms/iter, %.1fx)\n",
                legacy_cp[i].n, legacy_cp[i].per_iter_seconds * 1e3,
                legacy_cp[i].update_seconds * 1e3,
                fast_cp[i].per_iter_seconds * 1e3,
                fast_cp[i].update_seconds * 1e3,
                legacy_cp[i].per_iter_seconds /
                    std::max(fast_cp[i].per_iter_seconds, 1e-12),
                pooled_cp[i].per_iter_seconds * 1e3,
                legacy_cp[i].per_iter_seconds /
                    std::max(pooled_cp[i].per_iter_seconds, 1e-12));
  }
  std::printf("[hotpath] batch: %d cores, batch1 %.3f s, batch8 %.3f s, "
              "speedup %.2fx, deterministic=%s\n",
              cores, batch1.seconds, batch8.seconds,
              batch1.seconds / std::max(batch8.seconds, 1e-12),
              deterministic ? "true" : "false");
  for (const ForestFitRow& row : forest_rows) {
    std::printf("[hotpath] forest fit d=%2d n=%3d  median %.3f ms  "
                "p90 %.3f ms\n",
                row.d, row.n, row.median_ms, row.p90_ms);
  }
  for (const DdpgObserveRow& row : ddpg_rows) {
    std::printf("[hotpath] ddpg observe d=%2d  median %.3f ms  p90 %.3f ms\n",
                row.d, row.median_ms, row.p90_ms);
  }
  std::printf("[hotpath] wrote BENCH_hotpath.json\n");
  return 0;
}
