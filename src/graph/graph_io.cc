#include "graph/graph_io.h"

#include <fstream>
#include <sstream>

namespace gnn4tdl {

namespace {
constexpr char kMagic[] = "# gnn4tdl-edgelist";
}  // namespace

Status WriteEdgeList(const Graph& g, std::ostream& out, bool with_edge_count) {
  if (!out) return Status::IoError("edge list output stream is not writable");
  out << kMagic << ' ' << g.num_nodes();
  if (with_edge_count) out << ' ' << g.num_edges();
  out << '\n';
  std::streamsize old_precision = out.precision(17);
  for (const Edge& e : g.EdgeList())
    out << e.src << '\t' << e.dst << '\t' << e.weight << '\n';
  out.precision(old_precision);
  if (!out) return Status::IoError("write failure on edge list stream");
  return Status::OK();
}

StatusOr<Graph> ReadEdgeList(std::istream& in, size_t max_nodes) {
  std::string line;
  if (!std::getline(in, line)) return Status::IoError("empty edge list stream");
  std::istringstream header(line);
  std::string hash, tag;
  size_t num_nodes = 0;
  if (!(header >> hash >> tag >> num_nodes) || hash != "#" ||
      tag != "gnn4tdl-edgelist") {
    return Status::InvalidArgument("stream is not a gnn4tdl edge list");
  }
  // The graph allocates per node, so the count is checked before that.
  if (num_nodes > max_nodes) {
    return Status::IoError("edge list header claims " +
                           std::to_string(num_nodes) + " nodes, more than " +
                           std::to_string(max_nodes));
  }
  size_t num_edges = 0;
  const bool has_edge_count = static_cast<bool>(header >> num_edges);

  // No reserve(num_edges): the count is unchecked input, and the loop below
  // stops at the stream's real end.
  std::vector<Edge> edges;
  size_t line_no = 1;
  while ((!has_edge_count || edges.size() < num_edges) &&
         std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    Edge e;
    if (!(row >> e.src >> e.dst >> e.weight)) {
      return Status::IoError("malformed edge at line " +
                             std::to_string(line_no));
    }
    if (e.src >= num_nodes || e.dst >= num_nodes) {
      return Status::OutOfRange("edge endpoint out of range at line " +
                                std::to_string(line_no));
    }
    edges.push_back(e);
  }
  if (has_edge_count && edges.size() < num_edges) {
    return Status::IoError("edge list truncated: expected " +
                           std::to_string(num_edges) + " edges, got " +
                           std::to_string(edges.size()));
  }
  return Graph::FromEdges(num_nodes, edges, /*symmetrize=*/false);
}

Status WriteEdgeList(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  Status s = WriteEdgeList(g, out, /*with_edge_count=*/false);
  if (!s.ok()) return s;
  if (!out) return Status::IoError("write failure on '" + path + "'");
  return Status::OK();
}

StatusOr<Graph> ReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  StatusOr<Graph> g = ReadEdgeList(in);
  if (!g.ok() && g.status().code() == StatusCode::kInvalidArgument) {
    return Status::InvalidArgument("'" + path + "' is not a gnn4tdl edge list");
  }
  if (!g.ok() && g.status().code() == StatusCode::kIoError &&
      g.status().message() == "empty edge list stream") {
    return Status::IoError("empty file: " + path);
  }
  return g;
}

}  // namespace gnn4tdl
