#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace gnn4tdl {

/// MT19937-64 with std::mt19937_64's seeding, twist and tempering, and the
/// same result_type, min() and max(): it yields the standard engine's
/// output stream for every seed, so std:: distributions driven by it draw
/// the same values. It adds Generate, a bulk draw that twists and tempers
/// whole 312-word blocks through a caller-chosen block function (the
/// dispatched kernels::KernelTable::mt64_block, scalar or AVX2) and equals
/// the same number of operator() calls.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  /// Words of state, and outputs per twist.
  static constexpr size_t kStateWords = 312;
  /// The twist's parameters: word k reads the word kShift positions on,
  /// joins the upper bits of word k to the lower bits of word k + 1, and
  /// xors in kMatrixA when the joined word is odd.
  static constexpr size_t kShift = 156;
  static constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
  static constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr result_type default_seed = 5489u;

  /// Twists the state block `state` (kStateWords words) to its next block
  /// in place and writes that block's kStateWords tempered outputs to `out`.
  using BlockFn = void (*)(uint64_t* state, uint64_t* out);

  /// Seeds by the standard's initialization recurrence.
  explicit Mt19937_64(result_type seed = default_seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kStateWords) {
      Twist(state_);
      pos_ = 0;
    }
    return Temper(state_[pos_++]);
  }

  /// Writes the next n outputs to `out`: the values, and the engine state
  /// after, of n operator() calls. Whole blocks run through `block`.
  void Generate(result_type* out, size_t n, BlockFn block);

  /// The standard's tempering of one state word.
  static uint64_t Temper(uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

  /// One word of the twist: `far` xor the twisted pair (cur, next).
  static uint64_t TwistWord(uint64_t far, uint64_t cur, uint64_t next) {
    const uint64_t y = (cur & kUpperMask) | (next & ~kUpperMask);
    return far ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrixA : 0);
  }

  /// The standard's twist of a state block, in place: word k becomes
  /// TwistWord(x[k + 156 mod 312], x[k], x[k + 1 mod 312]), in ascending k,
  /// so the far word is already twisted for k >= 156.
  static void Twist(uint64_t* state);

  /// The reference BlockFn: Twist, then Temper every word into `out`.
  static void TwistAndTemper(uint64_t* state, uint64_t* out);

 private:
  uint64_t state_[kStateWords];
  size_t pos_ = kStateWords;  // next state word to temper
};

/// Deterministic random number generator. Every stochastic component in the
/// library takes an explicit Rng (or a seed) so that experiments are
/// reproducible bit-for-bit; there is no hidden global generator.
class Rng {
 public:
  using Engine = Mt19937_64;

  /// Seeds the underlying MT19937-64 engine.
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (or N(mean, stddev^2)) sample.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t Int(int64_t lo, int64_t hi);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Sample from {0,...,weights.size()-1} proportionally to `weights`
  /// (non-negative, not all zero).
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Int(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of {0,...,n-1}.
  std::vector<size_t> Permutation(size_t n);

  /// `k` distinct indices sampled uniformly from {0,...,n-1}, k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Direct access for std::distributions and bulk draws.
  Engine& engine() { return engine_; }

 private:
  Engine engine_;
};

}  // namespace gnn4tdl
