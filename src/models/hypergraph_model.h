#pragma once

#include <memory>
#include <string>
#include <vector>

#include "construct/intrinsic.h"
#include "gnn/hypergraph_conv.h"
#include "models/model.h"
#include "train/trainer.h"

namespace gnn4tdl {

/// Options for HypergraphModel.
struct HypergraphModelOptions {
  size_t embed_dim = 32;
  size_t num_layers = 2;
  size_t numeric_bins = 8;
  double dropout = 0.3;
  TrainOptions train;
  uint64_t seed = 10;
};

/// Hypergraph formulation (HCL / PET family, Section 4.1.3): distinct feature
/// values become nodes (numeric columns quantile-binned), each row becomes a
/// hyperedge over its values, and HGNN convolutions propagate through the
/// value/row incidence. The instance representation is its hyperedge
/// embedding; a head on hyperedges predicts the labels.
///
/// Transductive: Predict() must receive the fitted dataset.
class HypergraphModel : public TabularModel {
 public:
  explicit HypergraphModel(HypergraphModelOptions options = {});
  ~HypergraphModel() override;

  Status Fit(const TabularDataset& data, const Split& split) override;
  StatusOr<Matrix> Predict(const TabularDataset& data) override;
  std::string Name() const override { return "hypergraph(hcl)"; }

  const Hypergraph& hypergraph() const { return hypergraph_; }

 private:
  struct Net;

  Tensor Forward(bool training) const;

  HypergraphModelOptions options_;
  mutable Rng rng_;
  Hypergraph hypergraph_;
  HypergraphConvLayer::Operators operators_;
  std::unique_ptr<Net> net_;
  bool fitted_ = false;
};

}  // namespace gnn4tdl
