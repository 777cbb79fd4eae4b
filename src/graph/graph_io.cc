#include "graph/graph_io.h"

#include <fstream>

#include "common/text_io.h"

namespace gnn4tdl {

namespace {
constexpr char kMagic[] = "gnn4tdl-edgelist";
// The shortest edge line, "0\t0\t0\n".
constexpr size_t kMinEdgeBytes = 6;

/// Reads the endpoint of an edge; OutOfRange outside [0, num_nodes).
Status ReadEndpoint(BoundedReader& in, std::string_view field,
                    size_t num_nodes, size_t* out) {
  GNN4TDL_RETURN_IF_ERROR(in.Integer(field, out));
  if (*out < num_nodes) return Status::OK();
  return in.Error(field, std::to_string(*out),
                  "is out of range for " + std::to_string(num_nodes) +
                      " nodes",
                  StatusCode::kOutOfRange);
}
}  // namespace

Status WriteEdgeList(const Graph& g, TextWriter& out, bool with_edge_count) {
  out << "# " << kMagic << ' ' << g.num_nodes();
  if (with_edge_count) out << ' ' << g.num_edges();
  out << '\n';
  for (const Edge& e : g.EdgeList())
    out << e.src << '\t' << e.dst << '\t' << e.weight << '\n';
  return Status::OK();
}

StatusOr<Graph> ReadEdgeList(BoundedReader& in, size_t max_nodes) {
  const std::string_view hash = in.Token();
  if (hash.empty()) return Status::IoError("truncated before the edge list");
  if (hash != "#" || in.Token() != kMagic) {
    return Status::InvalidArgument("stream is not a gnn4tdl edge list");
  }
  // The graph allocates per node, so the count is checked before that.
  size_t num_nodes = 0;
  GNN4TDL_RETURN_IF_ERROR(in.Size("edge list nodes", 0, max_nodes, &num_nodes));
  const bool has_edge_count = !in.AtLineEnd();
  size_t num_edges = 0;
  if (has_edge_count) {
    GNN4TDL_RETURN_IF_ERROR(in.Size("edge count", kMinEdgeBytes,
                                    std::numeric_limits<size_t>::max(),
                                    &num_edges));
  }

  std::vector<Edge> edges;
  edges.reserve(num_edges);
  while (!has_edge_count || edges.size() < num_edges) {
    const char next = in.Peek();
    if (in.remaining() == 0) break;
    if (next == '#') {
      in.SkipLine();
      continue;
    }
    Edge e;
    GNN4TDL_RETURN_IF_ERROR(ReadEndpoint(in, "edge source", num_nodes, &e.src));
    const size_t line = in.line();
    GNN4TDL_RETURN_IF_ERROR(ReadEndpoint(in, "edge target", num_nodes, &e.dst));
    GNN4TDL_RETURN_IF_ERROR(in.Double("edge weight", &e.weight));
    if (in.line() != line) {
      return Status::IoError("malformed edge at line " + std::to_string(line));
    }
    edges.push_back(e);
  }
  if (edges.size() < num_edges) {
    return Status::IoError("edge list truncated: expected " +
                           std::to_string(num_edges) + " edges, got " +
                           std::to_string(edges.size()));
  }
  return Graph::FromEdges(num_nodes, edges, /*symmetrize=*/false);
}

Status WriteEdgeList(const Graph& g, const std::string& path) {
  TextWriter text;
  GNN4TDL_RETURN_IF_ERROR(WriteEdgeList(g, text, /*with_edge_count=*/false));
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  GNN4TDL_RETURN_IF_ERROR(text.WriteTo(out, "'" + path + "'"));
  return Status::OK();
}

StatusOr<Graph> ReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  const std::string text = ReadAll(in);
  if (text.empty()) return Status::IoError("empty file: " + path);
  BoundedReader reader(text, "edge list '" + path + "'");
  StatusOr<Graph> g = ReadEdgeList(reader);
  if (!g.ok() && g.status().code() == StatusCode::kInvalidArgument) {
    return Status::InvalidArgument("'" + path + "' is not a gnn4tdl edge list");
  }
  return g;
}

}  // namespace gnn4tdl
