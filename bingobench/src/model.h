// The benchmark's independent reference model and output checks.
//
//   EdgeModel     an edge multiset fed the same generated edges and updates
//                 as the program; compared with a store through an
//                 order-independent digest (count + sum of per-edge hashes).
//   CheckPaths    a hop validator: every hop of a walk path must be an edge
//                 of the model, and a walk may stop short of its length
//                 only where the model says it may (a dead end).
//   ChiSquare     a first-step goodness-of-fit test at one vertex against
//                 bias / sum(bias) computed from the model's edges.
//
// None of these call into the library's sampling or update code; they read
// only the generated inputs and the program's outputs.
#ifndef BINGOBENCH_SRC_MODEL_H_
#define BINGOBENCH_SRC_MODEL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/graph/types.h"
#include "src/walk/engine.h"

namespace bingobench {

using bingo::graph::VertexId;

// Order-independent summary of an edge multiset.
struct EdgeDigest {
  uint64_t edges = 0;
  uint64_t hash = 0;  // sum over edges of EdgeHash(src, dst, bias)
  bool operator==(const EdgeDigest& o) const {
    return edges == o.edges && hash == o.hash;
  }
  EdgeDigest& operator+=(const EdgeDigest& o) {
    edges += o.edges;
    hash += o.hash;
    return *this;
  }
};
uint64_t EdgeHash(VertexId src, VertexId dst, double bias);
// Digest of every live edge of a store's adjacency.
EdgeDigest DigestOf(const bingo::graph::DynamicGraph& g);

class EdgeModel {
 public:
  explicit EdgeModel(VertexId num_vertices, std::size_t expected_edges = 0);

  void Insert(VertexId src, VertexId dst, double bias);
  // Removes one copy of (src, dst); false if none is live.
  bool Delete(VertexId src, VertexId dst);
  // Applies one update in stream order; false for a delete with no match.
  bool Apply(const bingo::graph::Update& u);

  uint32_t Count(VertexId src, VertexId dst) const;
  bool Has(VertexId src, VertexId dst) const { return Count(src, dst) != 0; }
  uint32_t OutDegree(VertexId v) const {
    return v < out_degree_.size() ? out_degree_[v] : 0;
  }
  uint64_t NumEdges() const { return digest_.edges; }
  const EdgeDigest& Digest() const { return digest_; }
  // (dst, total bias over copies) of v's live out-edges.
  std::vector<std::pair<VertexId, double>> WeightsOf(VertexId v) const;
  // The `k` vertices of highest out-degree, highest first.
  std::vector<VertexId> TopDegree(std::size_t k) const;

 private:
  struct Slot {
    uint64_t key = kEmpty;
    double bias = 0.0;
    uint32_t count = 0;
  };
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static uint64_t Key(VertexId src, VertexId dst) {
    return (uint64_t{src} << 32) | dst;
  }
  std::size_t Find(uint64_t key) const;  // slot index, or the empty slot to use
  void Grow();

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  std::vector<uint32_t> out_degree_;
  EdgeDigest digest_;
};

// Result of validating walk paths.
struct PathCheck {
  uint64_t hops = 0;
  uint64_t errors = 0;
  std::string first_error;
  bool ok() const { return errors == 0; }
  void Error(const std::string& what) {
    if (errors++ == 0) {
      first_error = what;
    }
  }
};

struct PathRules {
  uint64_t num_walkers = 0;
  VertexId num_vertices = 0;  // starts are walker % num_vertices ...
  VertexId start_vertex = bingo::graph::kInvalidVertex;  // ... unless set
  uint32_t walk_length = 0;
  bool stop_anywhere = false;  // PPR: termination draws end walks early
};

// `has_edge(u, v)` says whether hop u -> v is legal; `may_stop(v)` whether a
// walk may end early at v.
PathCheck CheckPaths(const bingo::walk::WalkResult& result, const PathRules& rules,
                     const std::function<bool(VertexId, VertexId)>& has_edge,
                     const std::function<bool(VertexId)>& may_stop);
// Exact rules against a quiescent model: hops are live edges, early stops
// only at vertices with no out-edges.
PathCheck CheckPaths(const bingo::walk::WalkResult& result, const PathRules& rules,
                     const EdgeModel& model);

struct ChiSquareResult {
  double statistic = 0.0;
  int dof = 0;
  double critical = 0.0;
  uint64_t draws = 0;
  uint64_t foreign = 0;  // draws of a vertex that is not a neighbor
  bool pass() const { return foreign == 0 && dof > 0 && statistic <= critical; }
  std::string Describe() const;
};
// Goodness of fit of `draws` to weights (dst, bias); bins with an expected
// count under 5 are pooled. Rejects at significance 1e-6.
ChiSquareResult ChiSquare(const std::vector<std::pair<VertexId, double>>& weights,
                          const std::vector<VertexId>& draws);

// First hop of each walker of a single-source, length-1 walk.
std::vector<VertexId> FirstSteps(const bingo::walk::WalkResult& result);

// Fingerprint of walk output (paths, offsets, step total): equal for
// bit-identical results.
uint64_t Fingerprint(const bingo::walk::WalkResult& result);

}  // namespace bingobench

#endif  // BINGOBENCH_SRC_MODEL_H_
