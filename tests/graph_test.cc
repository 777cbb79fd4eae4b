#include "graph/graph.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/bipartite.h"
#include "graph/hetero.h"
#include "graph/hypergraph.h"
#include "graph/graph_io.h"
#include "graph/multiplex.h"

namespace gnn4tdl {
namespace {

Graph Path3() {
  // 0 - 1 - 2
  return Graph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 1.0}});
}

TEST(GraphTest, FromEdgesSymmetrizes) {
  Graph g = Path3();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);  // both directions
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.IsSymmetric());
}

TEST(GraphTest, DirectedWhenNotSymmetrized) {
  Graph g = Graph::FromEdges(2, {{0, 1, 1.0}}, /*symmetrize=*/false);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.IsSymmetric());
}

TEST(GraphTest, FromEdgesSumsCoincidentWeights) {
  // Symmetrizing an edge listed in both directions puts both weights in
  // each entry.
  Graph g = Graph::FromEdges(2, {{0, 1, 0.25}, {1, 0, 0.5}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.adjacency().At(0, 1), 0.75);
  EXPECT_EQ(g.adjacency().At(1, 0), 0.75);
}

TEST(GraphTest, NeighborsAndDegrees) {
  Graph g = Path3();
  EXPECT_EQ(g.Neighbors(1), (std::vector<size_t>{0, 2}));
  std::vector<double> deg = g.Degrees();
  EXPECT_EQ(deg, (std::vector<double>{1, 2, 1}));
}

TEST(GraphTest, GcnNormalizedRowsOfConnectedGraphSumSensibly) {
  Graph g = Path3();
  SparseMatrix norm = g.GcnNormalized();
  // Known GCN normalization of the path graph with self-loops:
  // node 0: deg 2, node 1: deg 3.
  EXPECT_NEAR(norm.At(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(norm.At(0, 1), 1.0 / std::sqrt(6.0), 1e-12);
  EXPECT_NEAR(norm.At(1, 1), 1.0 / 3.0, 1e-12);
  // Symmetric operator.
  EXPECT_NEAR(norm.At(1, 0), norm.At(0, 1), 1e-12);
}

TEST(GraphTest, RowNormalizedRowsSumToOne) {
  Graph g = Path3();
  SparseMatrix norm = g.RowNormalized();
  Matrix ones = Matrix::Ones(3, 1);
  Matrix row_sums = norm.Multiply(ones);
  for (size_t r = 0; r < 3; ++r) EXPECT_NEAR(row_sums(r, 0), 1.0, 1e-12);
}

TEST(GraphTest, RowNormalizedHandlesIsolatedNodes) {
  Graph g = Graph::FromEdges(3, {{0, 1, 1.0}});  // node 2 isolated
  SparseMatrix norm = g.RowNormalized();
  EXPECT_EQ(norm.RowNnz(2), 0u);
}

TEST(GraphTest, EdgeHomophilyFractionOfSameLabelEdges) {
  Graph g = Graph::FromEdges(4, {{0, 1, 1.0}, {2, 3, 1.0}, {1, 2, 1.0}});
  std::vector<int> labels = {0, 0, 1, 1};
  // Edges (0,1): same; (2,3): same; (1,2): different => 2/3 of undirected,
  // same fraction over directed copies.
  EXPECT_NEAR(g.EdgeHomophily(labels), 2.0 / 3.0, 1e-12);
}

TEST(GraphTest, ConnectedComponents) {
  Graph g = Graph::FromEdges(5, {{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_EQ(g.NumConnectedComponents(), 3u);  // {0,1}, {2,3}, {4}
}

TEST(GraphTest, EdgeListRoundTrips) {
  Graph g = Path3();
  std::vector<Edge> edges = g.EdgeList();
  Graph g2 = Graph::FromEdges(3, edges, /*symmetrize=*/false);
  EXPECT_TRUE(
      g2.adjacency().ToDense().AllClose(g.adjacency().ToDense(), 1e-12));
}

TEST(BipartiteTest, FromEdgesSplitsViews) {
  BipartiteGraph b = BipartiteGraph::FromEdges(
      2, 3, {{0, 0, 1.5}, {0, 2, -1.0}, {1, 1, 2.0}});
  EXPECT_EQ(b.num_left(), 2u);
  EXPECT_EQ(b.num_right(), 3u);
  EXPECT_EQ(b.num_edges(), 3u);
  EXPECT_EQ(b.left_to_right().At(0, 2), -1.0);
  EXPECT_EQ(b.right_to_left().At(2, 0), -1.0);
}

TEST(BipartiteTest, MeanAggregatorsRowStochastic) {
  BipartiteGraph b = BipartiteGraph::FromEdges(
      2, 3, {{0, 0, 5.0}, {0, 2, 7.0}, {1, 1, 2.0}});
  SparseMatrix lf = b.MeanAggregatorLeftFromRight();
  Matrix sums = lf.Multiply(Matrix::Ones(3, 1));
  EXPECT_NEAR(sums(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(sums(1, 0), 1.0, 1e-12);
  // Weights are uniform (1/deg), independent of the cell values.
  EXPECT_NEAR(lf.At(0, 0), 0.5, 1e-12);
}

TEST(BipartiteTest, EdgeArraysAlignedWithValues) {
  BipartiteGraph b =
      BipartiteGraph::FromEdges(2, 2, {{1, 0, 3.0}, {0, 1, 4.0}});
  ASSERT_EQ(b.edge_left().size(), 2u);
  EXPECT_EQ(b.edge_left()[0], 0u);
  EXPECT_EQ(b.edge_right()[0], 1u);
  EXPECT_EQ(b.edge_values()[0], 4.0);
  EXPECT_EQ(b.edge_values()[1], 3.0);
}

TEST(MultiplexTest, LayersShareNodeSet) {
  MultiplexGraph mg(4);
  mg.AddLayer("rel_a", Graph::FromEdges(4, {{0, 1, 1.0}}));
  mg.AddLayer("rel_b", Graph::FromEdges(4, {{2, 3, 1.0}}));
  EXPECT_EQ(mg.num_layers(), 2u);
  EXPECT_EQ(mg.layer_name(1), "rel_b");
  Graph flat = mg.Flatten();
  EXPECT_TRUE(flat.HasEdge(0, 1));
  EXPECT_TRUE(flat.HasEdge(3, 2));
  EXPECT_EQ(flat.NumConnectedComponents(), 2u);
}

TEST(HeteroTest, NodeTypesGetContiguousRanges) {
  HeteroGraph hg;
  size_t inst = hg.AddNodeType("instance", 3);
  size_t vals = hg.AddNodeType("city", 2);
  EXPECT_EQ(inst, 0u);
  EXPECT_EQ(vals, 3u);
  EXPECT_EQ(hg.num_nodes(), 5u);
  EXPECT_EQ(hg.NodeType(0), 0u);
  EXPECT_EQ(hg.NodeType(4), 1u);
  auto [offset, count] = hg.TypeRange(1);
  EXPECT_EQ(offset, 3u);
  EXPECT_EQ(count, 2u);
}

TEST(HeteroTest, RelationsAndOperators) {
  HeteroGraph hg;
  hg.AddNodeType("instance", 2);
  hg.AddNodeType("value", 1);
  hg.AddRelation("has_value", {{0, 2, 1.0}, {1, 2, 1.0}});
  EXPECT_EQ(hg.num_relations(), 1u);
  std::vector<SparseMatrix> ops = hg.RelationOperators();
  ASSERT_EQ(ops.size(), 1u);
  // Value node 2 averages over its two instances.
  EXPECT_NEAR(ops[0].At(2, 0), 0.5, 1e-12);
  EXPECT_NEAR(ops[0].At(0, 2), 1.0, 1e-12);
}

TEST(HypergraphTest, IncidenceAndDegrees) {
  Hypergraph h = Hypergraph::FromHyperedges(4, {{0, 1, 2}, {2, 3}});
  EXPECT_EQ(h.num_nodes(), 4u);
  EXPECT_EQ(h.num_hyperedges(), 2u);
  EXPECT_EQ(h.NodeDegrees(), (std::vector<double>{1, 1, 2, 1}));
  EXPECT_EQ(h.EdgeDegrees(), (std::vector<double>{3, 2}));
}

TEST(HypergraphTest, PropagationOperatorPreservesConstantsOnRegular) {
  // On a hypergraph where every node has equal degree, the composed HGNN
  // operator maps the constant vector to a constant vector.
  Hypergraph h = Hypergraph::FromHyperedges(4, {{0, 1}, {2, 3}, {0, 2}, {1, 3}});
  Matrix x = Matrix::Ones(4, 1);
  Matrix mid = h.NodeToEdgeOperator().Multiply(x);
  Matrix out = h.EdgeToNodeOperator().Multiply(mid);
  for (size_t v = 0; v < 4; ++v) EXPECT_NEAR(out(v, 0), 1.0, 1e-12);
}

TEST(HypergraphTest, IsolatedNodesStayZero) {
  Hypergraph h = Hypergraph::FromHyperedges(3, {{0, 1}});
  Matrix x = Matrix::Ones(3, 2);
  Matrix out = h.EdgeToNodeOperator().Multiply(
      h.NodeToEdgeOperator().Multiply(x));
  EXPECT_EQ(out(2, 0), 0.0);
}

TEST(GraphIoTest, EdgeListRoundTrips) {
  Rng rng(42);
  std::vector<Edge> edges;
  for (int e = 0; e < 30; ++e)
    edges.push_back({static_cast<size_t>(rng.Int(0, 9)),
                     static_cast<size_t>(rng.Int(0, 9)), rng.Uniform(0.1, 2.0)});
  Graph g = Graph::FromEdges(10, edges);
  const std::string path = ::testing::TempDir() + "/gnn4tdl_graph.tsv";
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 10u);
  EXPECT_TRUE(
      loaded->adjacency().ToDense().AllClose(g.adjacency().ToDense(), 1e-12));
  std::remove(path.c_str());
}

TEST(GraphIoTest, RejectsBadHeaderAndBounds) {
  const std::string path = ::testing::TempDir() + "/gnn4tdl_badgraph.tsv";
  {
    std::ofstream out(path);
    out << "not an edge list\n";
  }
  EXPECT_FALSE(ReadEdgeList(path).ok());
  {
    std::ofstream out(path);
    out << "# gnn4tdl-edgelist 3\n5\t0\t1.0\n";
  }
  auto result = ReadEdgeList(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gnn4tdl
