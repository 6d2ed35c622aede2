#include "util/rng.h"

#include <cassert>
#include <cmath>

#include "util/math.h"

namespace veritas {

double Rng::Uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::size_t Rng::UniformIndex(std::size_t n) {
  assert(n > 0);
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
}

bool Rng::Bernoulli(double p) {
  p = ClampProb(p);
  return Uniform() < p;
}

double Rng::Normal(double mean, double stddev) {
  // std::normal_distribution requires stddev > 0. A standard draw scaled by
  // hand is defined at stddev == 0 and computes the same expression as
  // libstdc++'s own scaling, so every stream stays bit-identical.
  const double z = std::normal_distribution<double>(0.0, 1.0)(engine_);
  return z * stddev + mean;
}

double Rng::Pareto(double alpha) {
  assert(alpha > 0.0);
  double u = Uniform();
  if (u <= 0.0) u = 1e-12;
  return std::pow(u, -1.0 / alpha);
}

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return UniformIndex(weights.size());
  double r = Uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (r < w) return i;
    r -= w;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(engine_()); }

}  // namespace veritas
