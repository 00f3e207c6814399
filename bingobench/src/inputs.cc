#include "bingobench/src/inputs.h"

#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/rng.h"

namespace bingobench {

GraphInput MakeRmatGraph(int scale, uint64_t pairs, bool undirected,
                         bool float_bias, uint64_t seed) {
  bingo::util::Rng rng(seed);
  bingo::graph::EdgePairList list =
      bingo::graph::GenerateRmat(scale, pairs, rng);
  if (undirected) {
    bingo::graph::MakeUndirected(list);
  }
  bingo::graph::Canonicalize(list);
  GraphInput input;
  input.num_vertices = VertexId{1} << scale;
  const bingo::graph::Csr csr =
      bingo::graph::Csr::FromPairs(input.num_vertices, list);
  bingo::graph::BiasParams bias;
  bias.floating_point = float_bias;
  const std::vector<double> biases = bingo::graph::GenerateBiases(csr, bias, rng);
  input.edges = bingo::graph::ToWeightedEdges(csr, biases);
  return input;
}

EdgeModel ModelOf(const GraphInput& input, std::size_t extra_capacity) {
  EdgeModel model(input.num_vertices, input.edges.size() + extra_capacity);
  for (const bingo::graph::WeightedEdge& e : input.edges) {
    model.Insert(e.src, e.dst, e.bias);
  }
  return model;
}

}  // namespace bingobench
