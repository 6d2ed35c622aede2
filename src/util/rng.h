// Deterministic random number generation. All stochastic components in
// Veritas (synthetic data generators, Random strategy, noisy oracles) draw
// from an explicitly seeded Rng so that every experiment is reproducible.
#ifndef VERITAS_UTIL_RNG_H_
#define VERITAS_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace veritas {

/// A seeded Mersenne-Twister wrapper with the distributions the library
/// needs. Not thread-safe; use one Rng per thread.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n-1]. n must be > 0.
  std::size_t UniformIndex(std::size_t n);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Normal sample with the given mean and standard deviation. stddev == 0
  /// returns `mean` (and still consumes the draw).
  double Normal(double mean, double stddev);

  /// Pareto-like heavy-tail sample in [1, inf): 1 / U^{1/alpha}.
  /// Larger alpha -> lighter tail.
  double Pareto(double alpha);

  /// Samples an index from an (unnormalized) non-negative weight vector.
  /// All-zero weights fall back to uniform. Weights must not be empty.
  std::size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->size() < 2) return;
    for (std::size_t i = v->size() - 1; i > 0; --i) {
      std::swap((*v)[i], (*v)[UniformIndex(i + 1)]);
    }
  }

  /// Derives an independent child generator (for per-component streams).
  Rng Fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace veritas

#endif  // VERITAS_UTIL_RNG_H_
