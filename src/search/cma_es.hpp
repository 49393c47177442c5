#pragma once

#include <functional>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"

namespace naas::search {

/// Options for the CMA-ES optimizer.
struct CmaEsOptions {
  int dim = 1;            ///< search-space dimensionality
  int population = 16;    ///< lambda: candidates per generation
  int parents = 0;        ///< mu: selected parents (0 => population/2)
  double sigma0 = 0.25;   ///< initial step size (space is [0,1]^dim)
  std::uint64_t seed = 1;
  int max_resample = 64;  ///< validity-rejection resamples per candidate
};

/// Covariance-Matrix-Adaptation Evolution Strategy (Hansen), the search
/// engine behind both NAAS optimization levels (Section II-A-c): sample a
/// population from a multivariate normal over [0,1]^dim, select the
/// lowest-EDP parents, recenter the distribution on their weighted mean and
/// adapt the covariance (rank-one + rank-mu) and step size (CSA) to
/// increase the likelihood of sampling near the parents.
///
/// Candidates are clipped to [0,1]; an optional validity predicate triggers
/// rejection-resampling ("rule out the invalid accelerator samples and keep
/// sampling", Section II-A-c).
class CmaEs {
 public:
  explicit CmaEs(const CmaEsOptions& options);

  /// Samples one generation of candidates. If `valid` is provided, each
  /// candidate is resampled until the predicate passes (up to
  /// max_resample, after which the clamped mean is returned instead —
  /// see resample_exhausted()).
  std::vector<std::vector<double>> ask(
      const std::function<bool(const std::vector<double>&)>& valid = nullptr);

  /// Reports fitness for the generation returned by the matching ask()
  /// (lower is better) and updates mean, covariance, and step size.
  void tell(const std::vector<std::vector<double>>& population,
            const std::vector<double>& fitness);

  /// --- Non-blocking step API (the task-graph evaluation pipeline) ---
  ///
  /// begin_generation() samples a generation through exactly the same
  /// stream and rejection logic as ask(), but retains it: the pending
  /// population is readable (const, stable storage) while its candidates
  /// evaluate as concurrently-scheduled tasks. Fitness comes back one slot
  /// at a time via tell_partial(); the call that fills the last open slot
  /// applies the full tell() update and returns true, so a generation's
  /// *completion* — not a join — is what schedules the next one.
  const std::vector<std::vector<double>>& begin_generation(
      const std::function<bool(const std::vector<double>&)>& valid = nullptr);

  /// The generation retained by begin_generation(). Valid (and immutable)
  /// until the tell_partial() that completes it returns.
  const std::vector<std::vector<double>>& pending_population() const {
    return pending_population_;
  }

  /// True while a begun generation still has unreported slots.
  bool generation_open() const { return pending_remaining_ > 0; }

  /// Reports fitness for pending candidate `index` (each slot exactly
  /// once). Returns true when this report completed the generation and the
  /// distribution update was applied. Not thread-safe: serialize calls
  /// (the pipeline's continuation tasks do so structurally, the outer
  /// search loop with a mutex).
  bool tell_partial(std::size_t index, double fitness);

  /// Current distribution mean.
  const std::vector<double>& mean() const { return mean_; }

  /// Current global step size.
  double sigma() const { return sigma_; }

  /// Generations processed so far.
  int generation() const { return generation_; }

  /// Candidates that exhausted max_resample and fell back to the clamped
  /// mean. ask() therefore never returns a point the caller's decode cannot
  /// handle; a rapidly growing counter means the validity predicate rejects
  /// nearly all of the current distribution's mass.
  long long resample_exhausted() const { return resample_exhausted_; }

 private:
  /// Draws one candidate into `x` (sized dim): z ~ N(0, I) into scratch,
  /// then x = clamp(mean + sigma * L z, 0, 1).
  void sample_one(std::vector<double>& x);

  /// One generation into `pop`, reusing its storage: ask() fills a fresh
  /// vector, begin_generation() the retained pending population.
  void sample_population(
      const std::function<bool(const std::vector<double>&)>& valid,
      std::vector<std::vector<double>>& pop);

  CmaEsOptions opts_;
  core::Rng rng_;
  int dim_;
  int mu_;
  std::vector<double> weights_;  ///< recombination weights (size mu)
  double mu_eff_ = 0;
  double c_sigma_ = 0, d_sigma_ = 0, c_c_ = 0, c_1_ = 0, c_mu_ = 0;
  double chi_n_ = 0;  ///< E||N(0,I)||

  std::vector<double> mean_;
  double sigma_;
  core::Matrix cov_;  ///< covariance C
  /// Lower Cholesky factor L of C, packed column-major (see
  /// Matrix::cholesky), refactored in place by every tell().
  std::vector<double> chol_;
  std::vector<double> path_sigma_;
  std::vector<double> path_c_;
  int generation_ = 0;
  long long resample_exhausted_ = 0;

  /// Reused scratch: sampling draws z and y = L z here, and tell() keeps
  /// its rank order, the pre-update mean, the mean step (y_w, then z_w)
  /// and the mu parent steps y_i (row i of a flat mu x dim block).
  std::vector<double> z_, y_;
  std::vector<int> order_;
  std::vector<double> old_mean_, y_w_, z_w_, parent_steps_;

  /// Step-API state: the retained generation and its partially-filled
  /// fitness vector (see begin_generation/tell_partial).
  std::vector<std::vector<double>> pending_population_;
  std::vector<double> pending_fitness_;
  std::vector<bool> pending_reported_;
  std::size_t pending_remaining_ = 0;
};

}  // namespace naas::search
