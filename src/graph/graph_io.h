#pragma once

#include <iosfwd>
#include <limits>
#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace gnn4tdl {

/// Writes a graph as a TSV edge list — header line "# gnn4tdl-edgelist
/// <num_nodes>", then one "src\tdst\tweight" line per stored (directed)
/// entry. The format round-trips through ReadEdgeList and loads directly
/// into networkx / Gephi for visualization.
[[nodiscard]] Status WriteEdgeList(const Graph& g, const std::string& path);

/// Reads a graph written by WriteEdgeList. Edges are taken as-is (no
/// symmetrization: the file already contains both directions for symmetric
/// graphs).
[[nodiscard]] StatusOr<Graph> ReadEdgeList(const std::string& path);

/// Stream variant for embedding a graph inside a larger artifact (e.g. a
/// serve/FrozenModel file). With `with_edge_count` the header carries the
/// edge count ("# gnn4tdl-edgelist <num_nodes> <num_edges>") so the reader
/// stops after exactly that many edges and leaves the stream positioned after
/// the block; without it the block is only safe at end-of-stream.
[[nodiscard]] Status WriteEdgeList(const Graph& g, std::ostream& out,
                                   bool with_edge_count = false);

/// Reads an edge list from a stream. If the header carries an edge count,
/// exactly that many edge lines are consumed; otherwise reads to end of
/// stream. Standalone files written without the count still parse. A header
/// node count above `max_nodes` is IoError, raised before anything is
/// allocated from it (callers that know what the rest of the stream must
/// hold per node pass that bound).
[[nodiscard]] StatusOr<Graph> ReadEdgeList(
    std::istream& in,
    size_t max_nodes = std::numeric_limits<size_t>::max());

}  // namespace gnn4tdl
