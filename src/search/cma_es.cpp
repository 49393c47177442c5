#include "search/cma_es.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <span>
#include <string>

#include "core/log.hpp"

namespace naas::search {

CmaEs::CmaEs(const CmaEsOptions& options)
    : opts_(options),
      rng_(options.seed),
      dim_(options.dim),
      mu_(options.parents > 0 ? options.parents
                              : std::max(1, options.population / 2)),
      mean_(static_cast<std::size_t>(options.dim), 0.5),
      sigma_(options.sigma0),
      cov_(core::Matrix::identity(options.dim)),
      path_sigma_(static_cast<std::size_t>(options.dim), 0.0),
      path_c_(static_cast<std::size_t>(options.dim), 0.0),
      z_(static_cast<std::size_t>(options.dim)),
      y_(static_cast<std::size_t>(options.dim)) {
  assert(dim_ >= 1 && opts_.population >= 2);
  cov_.cholesky(chol_);
  // Standard log-rank recombination weights.
  weights_.resize(static_cast<std::size_t>(mu_));
  for (int i = 0; i < mu_; ++i)
    weights_[static_cast<std::size_t>(i)] =
        std::log(mu_ + 0.5) - std::log(i + 1.0);
  const double wsum =
      std::accumulate(weights_.begin(), weights_.end(), 0.0);
  for (auto& w : weights_) w /= wsum;
  double w2 = 0.0;
  for (const auto& w : weights_) w2 += w * w;
  mu_eff_ = 1.0 / w2;

  const double n = dim_;
  c_sigma_ = (mu_eff_ + 2.0) / (n + mu_eff_ + 5.0);
  d_sigma_ = 1.0 + 2.0 * std::max(0.0, std::sqrt((mu_eff_ - 1.0) / (n + 1.0)) -
                                           1.0) +
             c_sigma_;
  c_c_ = (4.0 + mu_eff_ / n) / (n + 4.0 + 2.0 * mu_eff_ / n);
  c_1_ = 2.0 / ((n + 1.3) * (n + 1.3) + mu_eff_);
  c_mu_ = std::min(1.0 - c_1_, 2.0 * (mu_eff_ - 2.0 + 1.0 / mu_eff_) /
                                   ((n + 2.0) * (n + 2.0) + mu_eff_));
  chi_n_ = std::sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n));
}

void CmaEs::sample_one(std::vector<double>& x) {
  for (double& v : z_) v = rng_.normal();
  core::lower_matvec(chol_, z_, y_);
  for (std::size_t s = 0; s < x.size(); ++s)
    x[s] = std::clamp(mean_[s] + sigma_ * y_[s], 0.0, 1.0);
}

void CmaEs::sample_population(
    const std::function<bool(const std::vector<double>&)>& valid,
    std::vector<std::vector<double>>& pop) {
  pop.resize(static_cast<std::size_t>(opts_.population));
  for (std::vector<double>& x : pop) {
    x.resize(static_cast<std::size_t>(dim_));
    sample_one(x);
    if (valid) {
      for (int attempt = 0; attempt < opts_.max_resample && !valid(x);
           ++attempt) {
        sample_one(x);
      }
      if (!valid(x)) {
        // Every resample landed outside the feasible space. Never hand a
        // known-invalid random point downstream: fall back to the clamped
        // mean, which is always inside [0,1]^dim and is the distribution's
        // best in-space guess.
        x = mean_;
        for (double& v : x) v = std::clamp(v, 0.0, 1.0);
        ++resample_exhausted_;
        core::log_debug("CmaEs::ask: resample budget exhausted, falling "
                        "back to clamped mean (count=" +
                        std::to_string(resample_exhausted_) + ")");
      }
    }
  }
}

std::vector<std::vector<double>> CmaEs::ask(
    const std::function<bool(const std::vector<double>&)>& valid) {
  std::vector<std::vector<double>> pop;
  sample_population(valid, pop);
  return pop;
}

const std::vector<std::vector<double>>& CmaEs::begin_generation(
    const std::function<bool(const std::vector<double>&)>& valid) {
  assert(!generation_open());
  sample_population(valid, pending_population_);
  pending_fitness_.assign(pending_population_.size(), 0.0);
  pending_reported_.assign(pending_population_.size(), false);
  pending_remaining_ = pending_population_.size();
  return pending_population_;
}

bool CmaEs::tell_partial(std::size_t index, double fitness) {
  assert(generation_open() && index < pending_population_.size() &&
         !pending_reported_[index]);
  pending_fitness_[index] = fitness;
  pending_reported_[index] = true;
  if (--pending_remaining_ > 0) return false;
  // Last slot filled: the assembled fitness vector is in candidate order
  // regardless of the order reports arrived in, so the distribution update
  // is bit-identical to a barrier-style ask()/tell() round trip.
  tell(pending_population_, pending_fitness_);
  return true;
}

void CmaEs::tell(const std::vector<std::vector<double>>& population,
                 const std::vector<double>& fitness) {
  assert(population.size() == fitness.size());
  const int lambda = static_cast<int>(population.size());
  const int mu = std::min(mu_, lambda);

  // Rank candidates by fitness (ascending; lower is better).
  order_.resize(static_cast<std::size_t>(lambda));
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
    return fitness[static_cast<std::size_t>(a)] <
           fitness[static_cast<std::size_t>(b)];
  });
  const auto parent = [&](int i) -> const std::vector<double>& {
    return population[static_cast<std::size_t>(
        order_[static_cast<std::size_t>(i)])];
  };

  old_mean_ = mean_;

  // Truncated-parent case (lambda < configured mu): the weight prefix no
  // longer sums to 1, which would shrink the recombined mean toward the
  // origin. Renormalize the prefix and recompute the effective selection
  // mass used by this update's path coefficients.
  const std::vector<double>* weights = &weights_;
  double mu_eff = mu_eff_;
  std::vector<double> trunc_weights;
  if (mu < mu_) {
    trunc_weights.assign(weights_.begin(), weights_.begin() + mu);
    const double wsum =
        std::accumulate(trunc_weights.begin(), trunc_weights.end(), 0.0);
    double w2 = 0.0;
    for (auto& w : trunc_weights) {
      w /= wsum;
      w2 += w * w;
    }
    mu_eff = 1.0 / w2;
    weights = &trunc_weights;
  }

  // Weighted recombination of the mu best.
  std::fill(mean_.begin(), mean_.end(), 0.0);
  for (int i = 0; i < mu; ++i) {
    const auto& x = parent(i);
    const double w = (*weights)[static_cast<std::size_t>(i)];
    for (std::size_t d = 0; d < mean_.size(); ++d) mean_[d] += w * x[d];
  }

  // Mean displacement in sigma-normalized coordinates.
  y_w_.resize(mean_.size());
  for (std::size_t d = 0; d < mean_.size(); ++d)
    y_w_[d] = (mean_[d] - old_mean_[d]) / sigma_;

  // z_w = L^-1 y_w approximates C^(-1/2) y_w (Cholesky CMA-ES variant).
  z_w_ = y_w_;
  core::lower_solve(chol_, z_w_);

  // Step-size path and CSA update. The population was sampled with the
  // current sigma; capture it before CSA moves it — the covariance vectors
  // below must be normalized by the sampling sigma, not the updated one.
  const double sampled_sigma = sigma_;
  const double cs_coef = std::sqrt(c_sigma_ * (2.0 - c_sigma_) * mu_eff);
  double ps_norm2 = 0.0;
  for (int d = 0; d < dim_; ++d) {
    const auto s = static_cast<std::size_t>(d);
    path_sigma_[s] = (1.0 - c_sigma_) * path_sigma_[s] + cs_coef * z_w_[s];
    ps_norm2 += path_sigma_[s] * path_sigma_[s];
  }
  const double ps_norm = std::sqrt(ps_norm2);
  sigma_ *= std::exp((c_sigma_ / d_sigma_) * (ps_norm / chi_n_ - 1.0));
  sigma_ = std::clamp(sigma_, 1e-8, 1.0);

  // Covariance path (with stall indicator h_sigma).
  const double h_sigma =
      ps_norm / std::sqrt(1.0 - std::pow(1.0 - c_sigma_,
                                         2.0 * (generation_ + 1))) <
              (1.4 + 2.0 / (dim_ + 1.0)) * chi_n_
          ? 1.0
          : 0.0;
  const double cc_coef = std::sqrt(c_c_ * (2.0 - c_c_) * mu_eff);
  for (int d = 0; d < dim_; ++d) {
    const auto s = static_cast<std::size_t>(d);
    path_c_[s] = (1.0 - c_c_) * path_c_[s] + h_sigma * cc_coef * y_w_[s];
  }

  // Covariance update: decay + rank-one (path) + rank-mu (parents), each
  // one elementwise pass over the matrix, in that order.
  const auto n = static_cast<std::size_t>(dim_);
  parent_steps_.resize(static_cast<std::size_t>(mu) * n);
  for (int i = 0; i < mu; ++i) {
    const auto& x = parent(i);
    double* y_i = parent_steps_.data() + static_cast<std::size_t>(i) * n;
    for (std::size_t d = 0; d < n; ++d)
      y_i[d] = (x[d] - old_mean_[d]) / sampled_sigma;
  }
  const double c1a =
      c_1_ * (1.0 - (1.0 - h_sigma * h_sigma) * c_c_ * (2.0 - c_c_));
  cov_.scale(1.0 - c1a - c_mu_);
  cov_.add_outer(path_c_, c_1_);
  for (int i = 0; i < mu; ++i)
    cov_.add_outer(std::span<const double>(parent_steps_)
                       .subspan(static_cast<std::size_t>(i) * n, n),
                   c_mu_ * (*weights)[static_cast<std::size_t>(i)]);
  cov_.symmetrize();
  cov_.cholesky(chol_);
  ++generation_;
}

}  // namespace naas::search
