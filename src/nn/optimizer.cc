#include "nn/optimizer.h"

#include <cmath>

namespace gnn4tdl {

Adam::Adam(std::vector<Tensor> params, double learning_rate)
    : params_(std::move(params)), lr_(learning_rate) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& p : params_) {
    m_.emplace_back(p.rows(), p.cols());
    v_.emplace_back(p.rows(), p.cols());
  }
}

void Adam::ZeroGrad() {
  for (const Tensor& p : params_) p.ZeroGrad();
}

void Adam::Step() {
  ++t_;
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    const Tensor& p = params_[i];
    if (p.grad().empty()) continue;
    const Matrix& g = p.grad();
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    Matrix& value = p.mutable_value();
    for (size_t r = 0; r < g.rows(); ++r)
      for (size_t c = 0; c < g.cols(); ++c) {
        double gv = g(r, c);
        m(r, c) = kBeta1 * m(r, c) + (1.0 - kBeta1) * gv;
        v(r, c) = kBeta2 * v(r, c) + (1.0 - kBeta2) * gv * gv;
        double m_hat = m(r, c) / bias1;
        double v_hat = v(r, c) / bias2;
        double update = m_hat / (std::sqrt(v_hat) + kEpsilon);
        value(r, c) -= lr_ * update;
      }
  }
}

}  // namespace gnn4tdl
