#include "nn/serialize.h"

#include <fstream>

#include "common/text_io.h"

namespace gnn4tdl {

namespace {
constexpr char kMagic[] = "gnn4tdl-params-v1";
}  // namespace

Status SaveParameters(const Module& module, TextWriter& out) {
  std::vector<Tensor> params = module.Parameters();
  out << kMagic << '\n' << params.size() << '\n';
  for (const Tensor& p : params) {
    out << p.rows() << ' ' << p.cols() << '\n';
    const Matrix& m = p.value();
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) {
        if (c > 0) out << ' ';
        out << m(r, c);
      }
      out << '\n';
    }
  }
  return Status::OK();
}

Status SaveParameters(const Module& module, std::ostream& out) {
  TextWriter text;
  GNN4TDL_RETURN_IF_ERROR(SaveParameters(module, text));
  return text.WriteTo(out, "parameter stream");
}

Status LoadParameters(const Module& module, BoundedReader& in) {
  if (in.Token() != kMagic) {
    return Status::InvalidArgument("stream is not a gnn4tdl parameter block");
  }
  size_t count = 0;
  GNN4TDL_RETURN_IF_ERROR(in.Integer("parameter count", &count));

  std::vector<Tensor> params = module.Parameters();
  if (count != params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: file has " + std::to_string(count) +
        ", module has " + std::to_string(params.size()));
  }
  for (Tensor& p : params) {
    size_t rows = 0, cols = 0;
    GNN4TDL_RETURN_IF_ERROR(in.Integer("parameter rows", &rows));
    GNN4TDL_RETURN_IF_ERROR(in.Integer("parameter columns", &cols));
    if (rows != p.rows() || cols != p.cols()) {
      return Status::InvalidArgument(
          "parameter shape mismatch: file has " + std::to_string(rows) + "x" +
          std::to_string(cols) + ", module has " + std::to_string(p.rows()) +
          "x" + std::to_string(p.cols()));
    }
    double* values = p.mutable_value().data();
    for (size_t i = 0; i < rows * cols; ++i) {
      GNN4TDL_RETURN_IF_ERROR(in.Double("parameter weight", &values[i]));
    }
  }
  return Status::OK();
}

Status LoadParameters(const Module& module, std::istream& in) {
  const std::string text = ReadAll(in);
  BoundedReader reader(text, "parameter block");
  return LoadParameters(module, reader);
}

Status SaveParameters(const Module& module, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  Status s = SaveParameters(module, out);
  if (!s.ok()) return s;
  if (!out) return Status::IoError("write failure on '" + path + "'");
  return Status::OK();
}

Status LoadParameters(const Module& module, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  Status s = LoadParameters(module, in);
  if (!s.ok() && s.code() == StatusCode::kInvalidArgument &&
      s.message() == "stream is not a gnn4tdl parameter block") {
    return Status::InvalidArgument("'" + path +
                                   "' is not a gnn4tdl parameter file");
  }
  return s;
}

}  // namespace gnn4tdl
