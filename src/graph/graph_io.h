#pragma once

#include <limits>
#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace gnn4tdl {

class BoundedReader;
class TextWriter;

/// Writes a graph as a TSV edge list — header line "# gnn4tdl-edgelist
/// <num_nodes>", then one "src\tdst\tweight" line per stored (directed)
/// entry. The format round-trips through ReadEdgeList and loads directly
/// into networkx / Gephi for visualization.
[[nodiscard]] Status WriteEdgeList(const Graph& g, const std::string& path);

/// Reads a graph written by WriteEdgeList. Edges are taken as-is (no
/// symmetrization: the file already contains both directions for symmetric
/// graphs).
[[nodiscard]] StatusOr<Graph> ReadEdgeList(const std::string& path);

/// Appends the edge list to a larger artifact (e.g. a serve/FrozenModel
/// file). With `with_edge_count` the header carries the edge count
/// ("# gnn4tdl-edgelist <num_nodes> <num_edges>") so the reader stops after
/// exactly that many edges; without it the block is only safe at the end.
[[nodiscard]] Status WriteEdgeList(const Graph& g, TextWriter& out,
                                   bool with_edge_count = false);

/// Reads an edge list. If the header carries an edge count, exactly that many
/// edges are consumed and `in` is left after the block; otherwise it reads
/// to the end, skipping lines that start with '#'. A header node count above
/// `max_nodes` is IoError, raised before anything is allocated from it
/// (callers that know what the rest of the input must hold per node pass
/// that bound). An endpoint outside the node count is OutOfRange.
[[nodiscard]] StatusOr<Graph> ReadEdgeList(
    BoundedReader& in, size_t max_nodes = std::numeric_limits<size_t>::max());

}  // namespace gnn4tdl
