// Input generation. Every workload's inputs are a pure function of the
// seed: the same seed gives the same graph, biases and update stream.
#ifndef BINGOBENCH_SRC_INPUTS_H_
#define BINGOBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <vector>

#include "bingobench/src/model.h"
#include "src/graph/types.h"

namespace bingobench {

struct GraphInput {
  VertexId num_vertices = 0;
  bingo::graph::WeightedEdgeList edges;  // canonical: sorted by (src, dst)
};

// R-MAT (Graph500 parameters) with 2^scale vertices and `pairs` generated
// edges, optionally symmetrized, self loops and duplicates removed, and
// degree-based biases (bias(u->v) = out-degree(v), the paper's default).
// With `float_bias` each bias gets a U(0,1) fractional part (paper Fig 14),
// so every vertex's decimal group holds mass.
GraphInput MakeRmatGraph(int scale, uint64_t pairs, bool undirected,
                         bool float_bias, uint64_t seed);

// A model holding exactly `edges`.
EdgeModel ModelOf(const GraphInput& input, std::size_t extra_capacity = 0);

}  // namespace bingobench

#endif  // BINGOBENCH_SRC_INPUTS_H_
