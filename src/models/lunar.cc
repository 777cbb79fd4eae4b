#include "models/lunar.h"

#include <algorithm>
#include <cmath>

#include "construct/similarity.h"
#include "nn/ops.h"

namespace gnn4tdl {

LunarDetector::LunarDetector(LunarOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      featurizer_(options_.featurizer) {}

LunarDetector::~LunarDetector() = default;

Matrix LunarDetector::DistanceVectors(const Matrix& queries,
                                      const Matrix& reference,
                                      bool exclude_self) const {
  const size_t k = options_.k;
  const size_t n_ref = reference.rows();

  // Pass 1: local kNN radius of every reference row (k-th NN distance within
  // the reference set, the row itself excluded). This is the
  // neighborhood-scale context channel; with it the score network can learn
  // density-relative (LOF-like) abnormality, which a raw distance vector
  // alone cannot express. The Euclidean similarity is the negated distance.
  if (ref_radius_.size() != n_ref) {
    const std::vector<std::vector<KnnHit>> hits =
        KnnReference(reference, SimilarityMetric::kEuclidean)
            .TopK(reference, k, /*exclude_self=*/true);
    ref_radius_.resize(n_ref);
    for (size_t i = 0; i < n_ref; ++i) {
      const double kth = hits[i].empty() ? 0.0 : -hits[i].back().similarity;
      ref_radius_[i] = std::max(kth, 1e-6);
    }
  }

  // Pass 2: per query, the k nearest reference distances plus the mean local
  // radius of those neighbors.
  Matrix out(queries.rows(), k + 1);
  std::vector<std::pair<double, size_t>> scored;
  for (size_t q = 0; q < queries.rows(); ++q) {
    scored.clear();
    scored.reserve(n_ref);
    for (size_t j = 0; j < n_ref; ++j) {
      double d2 = 0.0;
      for (size_t c = 0; c < queries.cols(); ++c) {
        double diff = queries(q, c) - reference(j, c);
        d2 += diff * diff;
      }
      double d = std::sqrt(d2);
      if (exclude_self && d == 0.0) continue;
      scored.push_back({d, j});
    }
    size_t take = std::min(k, scored.size());
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<ptrdiff_t>(take),
                      scored.end());
    double ctx = 0.0;
    for (size_t t = 0; t < take; ++t) ctx += ref_radius_[scored[t].second];
    ctx = std::max(take > 0 ? ctx / static_cast<double>(take) : 1.0, 1e-6);
    for (size_t t = 0; t < k; ++t) {
      double d = t < take ? scored[t].first
                          : (take > 0 ? scored[take - 1].first : 0.0);
      out(q, t) = options_.normalize_distances ? d / ctx : d;
    }
    out(q, k) = std::log1p(ctx);
  }
  return out;
}

Status LunarDetector::Fit(const TabularDataset& data, const Split& split) {
  (void)split;  // unsupervised
  GNN4TDL_RETURN_IF_ERROR(featurizer_.Fit(data));
  StatusOr<Matrix> x = featurizer_.Transform(data);
  if (!x.ok()) return x.status();
  x_reference_ = *x;
  const size_t n = x_reference_.rows();
  const size_t d = x_reference_.cols();

  // Generate negatives: half uniform in the expanded bounding box, half
  // Gaussian perturbations of real rows (LUNAR's two negative schemes).
  size_t num_neg = static_cast<size_t>(
      options_.negative_ratio * static_cast<double>(n));
  num_neg = std::max<size_t>(num_neg, 1);
  std::vector<double> lo(d, 1e300), hi(d, -1e300);
  for (size_t i = 0; i < n; ++i)
    for (size_t c = 0; c < d; ++c) {
      lo[c] = std::min(lo[c], x_reference_(i, c));
      hi[c] = std::max(hi[c], x_reference_(i, c));
    }
  // Perturbation negatives are scaled by the base point's local neighborhood
  // radius, teaching the score network *local* (density-relative)
  // abnormality. Computing positive distance vectors first populates
  // ref_radius_.
  Matrix pos_dv = DistanceVectors(x_reference_, x_reference_,
                                  /*exclude_self=*/true);
  Matrix negatives(num_neg, d);
  for (size_t i = 0; i < num_neg; ++i) {
    if (i % 2 == 0) {
      for (size_t c = 0; c < d; ++c) {
        double center = 0.5 * (lo[c] + hi[c]);
        double half = 0.5 * (hi[c] - lo[c]) * options_.box_expand + 1e-6;
        negatives(i, c) = rng_.Uniform(center - half, center + half);
      }
    } else {
      size_t base = static_cast<size_t>(rng_.Int(0, static_cast<int64_t>(n) - 1));
      double sigma = options_.perturb_std * ref_radius_[base];
      for (size_t c = 0; c < d; ++c)
        negatives(i, c) = x_reference_(base, c) + rng_.Normal(0.0, sigma);
    }
  }

  // Distance-vector "messages" for the generated negatives.
  Matrix neg_dv = DistanceVectors(negatives, x_reference_, false);
  Matrix all_dv = pos_dv.ConcatRows(neg_dv);
  std::vector<double> targets(n + num_neg, 0.0);
  for (size_t i = n; i < n + num_neg; ++i) targets[i] = 1.0;

  score_net_ = std::make_unique<Mlp>(
      std::vector<size_t>{options_.k + 1, options_.hidden_dim,
                          options_.hidden_dim, 1},
      rng_, Activation::kTanh);

  Tensor dv_t = Tensor::Constant(all_dv);
  Trainer trainer(score_net_->Parameters(), options_.train);
  Status trained = trainer.Fit([&] {
    return ops::BceWithLogits(score_net_->Forward(dv_t), targets);
  }).tape_status;
  if (!trained.ok()) score_net_.reset();  // score_net_ doubles as the flag
  return trained;
}

StatusOr<Matrix> LunarDetector::Predict(const TabularDataset& data) {
  if (score_net_ == nullptr) {
    return Status::FailedPrecondition("Predict before Fit");
  }
  StatusOr<Matrix> x = featurizer_.Transform(data);
  if (!x.ok()) return x.status();
  Matrix dv = DistanceVectors(*x, x_reference_, /*exclude_self=*/true);
  Tensor logits = score_net_->Forward(Tensor::Constant(dv));
  Matrix scores(x->rows(), 1);
  for (size_t i = 0; i < x->rows(); ++i)
    scores(i, 0) = 1.0 / (1.0 + std::exp(-logits.value()(i, 0)));
  return scores;
}

}  // namespace gnn4tdl
