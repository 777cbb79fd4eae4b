#include "common/rng.h"

#include "common/check.h"

namespace gnn4tdl {

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateWords; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist(uint64_t* x) {
  constexpr size_t n = kStateWords;
  for (size_t k = 0; k < n - kShift; ++k)
    x[k] = TwistWord(x[k + kShift], x[k], x[k + 1]);
  for (size_t k = n - kShift; k + 1 < n; ++k)
    x[k] = TwistWord(x[k - (n - kShift)], x[k], x[k + 1]);
  x[n - 1] = TwistWord(x[kShift - 1], x[n - 1], x[0]);
}

void Mt19937_64::TwistAndTemper(uint64_t* state, uint64_t* out) {
  Twist(state);
  for (size_t k = 0; k < kStateWords; ++k) out[k] = Temper(state[k]);
}

void Mt19937_64::Generate(result_type* out, size_t n, BlockFn block) {
  size_t i = 0;
  while (i < n && pos_ < kStateWords) out[i++] = Temper(state_[pos_++]);
  // Whole blocks are tempered straight into out; the state keeps the
  // untempered words, so pos_ = kStateWords leaves them all consumed.
  for (; n - i >= kStateWords; i += kStateWords) block(state_, out + i);
  if (i == n) return;
  uint64_t tail[kStateWords];
  block(state_, tail);
  for (pos_ = 0; i < n; ++i) out[i] = tail[pos_++];
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

int64_t Rng::Int(int64_t lo, int64_t hi) {
  GNN4TDL_CHECK_LE(lo, hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  GNN4TDL_CHECK(!weights.empty());
  std::discrete_distribution<size_t> dist(weights.begin(), weights.end());
  return dist(engine_);
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  Shuffle(perm);
  return perm;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  GNN4TDL_CHECK_LE(k, n);
  std::vector<size_t> perm = Permutation(n);
  perm.resize(k);
  return perm;
}

}  // namespace gnn4tdl
