// 1-D partitioned Bingo (§9.1 supplement).
//
// The paper scales Bingo to multiple GPUs with KnightKing-style 1-D graph
// partitioning: each device owns the out-edges (and sampling structures) of
// a slice of the vertex set, and walkers — not sampling structures — are
// transferred between devices. Here each shard is a BingoStore and shards
// execute on pool threads; the superstep walk driver moves walkers between
// per-shard queues exactly like the walker-transfer design. It keeps the
// variate contract stated in engine.h.

#ifndef BINGO_SRC_WALK_PARTITIONED_H_
#define BINGO_SRC_WALK_PARTITIONED_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/types.h"
#include "src/util/rng.h"
#include "src/util/scratch.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/engine.h"
#include "src/walk/store.h"

namespace bingo::walk {

class PartitionedBingoStore {
 public:
  // Round-robin 1-D partitioning: vertex v lives on shard v % num_shards.
  PartitionedBingoStore(const graph::WeightedEdgeList& edges,
                        graph::VertexId num_vertices, int num_shards,
                        core::BingoConfig config = {},
                        util::ThreadPool* pool = nullptr);

  int NumShards() const { return static_cast<int>(shards_.size()); }
  graph::VertexId NumVertices() const { return num_vertices_; }

  int ShardOf(graph::VertexId v) const {
    return static_cast<int>(v % shards_.size());
  }

  graph::VertexId SampleNeighbor(graph::VertexId v, util::Rng& rng) const {
    return shards_[ShardOf(v)]->SampleNeighbor(v, rng);
  }

  // Adjacency probes route to the shard owning the source's out-edges, so
  // the sharded store answers them exactly like the whole-graph store.
  bool HasEdge(graph::VertexId src, graph::VertexId dst) const {
    return shards_[ShardOf(src)]->HasEdge(src, dst);
  }
  std::span<const graph::Edge> NeighborsOf(graph::VertexId v) const {
    return shards_[ShardOf(v)]->NeighborsOf(v);
  }
  uint64_t NumEdges() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->NumEdges();
    }
    return total;
  }

  void StreamingInsert(graph::VertexId src, graph::VertexId dst, double bias) {
    shards_[ShardOf(src)]->StreamingInsert(src, dst, bias);
  }
  bool StreamingDelete(graph::VertexId src, graph::VertexId dst) {
    return shards_[ShardOf(src)]->StreamingDelete(src, dst);
  }

  // Routes updates to their owning shards, then applies each shard's slice
  // as one batch; shards run in parallel.
  core::BatchResult ApplyBatch(const graph::UpdateList& updates,
                               util::ThreadPool* pool = nullptr);

  const core::BingoStore& Shard(int s) const { return *shards_[s]; }

  core::StoreMemoryStats MemoryStats() const;
  std::size_t MemoryBytes() const { return MemoryStats().TotalBytes(); }
  std::string CheckInvariants() const;

 private:
  graph::VertexId num_vertices_ = 0;
  std::vector<std::unique_ptr<core::BingoStore>> shards_;
};

// A store the superstep driver can route walkers over: sampling plus 1-D
// vertex-to-shard ownership. PartitionedBingoStore models this; so can any
// future multi-device front-end.
template <typename S>
concept ShardRoutedStore =
    SamplingStore<S> && requires(const S& cs, graph::VertexId v) {
      { cs.NumShards() } -> std::convertible_to<int>;
      { cs.ShardOf(v) } -> std::convertible_to<int>;
    };

// Stores whose shards need residency work before a pass — the out-of-core
// tiered store (walk/ooc_store.h) maps a shard's CSR block. The superstep
// driver then goes walk-aware: shards run one at a time, most-loaded queue
// first, each prepared just before its pass, so a budgeted block cache
// serves the whole walk with a single resident block.
template <typename S>
concept ShardPreparableStore =
    ShardRoutedStore<S> && requires(const S& cs, int s) {
      { cs.PrepareShard(s) };
    };

// The engine's WalkResult plus the walker-transfer communication counters.
struct PartitionedWalkResult : WalkResult {
  uint64_t walker_migrations = 0;  // cross-shard transfers (communication)
  uint64_t supersteps = 0;
};

// The superstep schedule: every superstep advances each live walker one hop
// on its owning shard, then delivers it to the shard of its new vertex.
// Walker records carry their own stream and step count, and adjacency
// probes route to the source's owning shard, so second-order and
// step-aware steppers cross shards unchanged.
template <ShardRoutedStore Store, typename Stepper>
PartitionedWalkResult RunPartitionedWalks(const Store& store,
                                          const WalkConfig& cfg,
                                          const Stepper& stepper,
                                          util::ThreadPool* pool = nullptr) {
  WalkBuilder walks(static_cast<graph::VertexId>(store.NumVertices()), cfg,
                    pool);
  const int num_shards = store.NumShards();
  const std::span<WalkSink> sinks = walks.Sinks(num_shards);
  // Queues and outboxes lease the executor's scratch pool, so repeated
  // runs (the serving path) allocate nothing in steady state.
  std::vector<util::ScratchVector<Walker>> queues;
  std::vector<util::ScratchVector<Walker>> outboxes;
  for (int s = 0; s < num_shards; ++s) {
    queues.emplace_back(walks.Scratch());
    outboxes.emplace_back(walks.Scratch());
  }
  for (uint64_t w = 0; w < walks.Launched(); ++w) {
    const Walker walker = walks.Launch(w);
    queues[store.ShardOf(walker.cur)].push_back(walker);
  }

  PartitionedWalkResult result;
  const auto run_shard = [&](std::size_t s) {
    for (Walker walker : queues[s]) {
      // One hop per superstep: the walker never stays.
      if (Advance(stepper, cfg, walker, sinks[s],
                  [](graph::VertexId) { return false; })) {
        outboxes[s].push_back(walker);
      }
    }
    queues[s].clear();
  };
  std::vector<int> shard_order;  // walk-aware dispatch order (see below)
  bool any_live = walks.Launched() > 0;
  while (any_live) {
    ++result.supersteps;
    if constexpr (ShardPreparableStore<Store>) {
      // Walk-aware order: non-empty shards, most parked walkers first
      // (ties: lowest id), residency prepared just before each pass.
      // Sequential by design — a budgeted cache then never needs more than
      // one resident block.
      shard_order.clear();
      for (int s = 0; s < num_shards; ++s) {
        if (!queues[s].empty()) {
          shard_order.push_back(s);
        }
      }
      std::stable_sort(shard_order.begin(), shard_order.end(),
                       [&](int a, int b) {
                         return queues[a].size() > queues[b].size();
                       });
      for (const int s : shard_order) {
        store.PrepareShard(s);
        run_shard(static_cast<std::size_t>(s));
      }
    } else if (pool != nullptr) {
      pool->ParallelFor(0, static_cast<std::size_t>(num_shards), run_shard);
    } else {
      for (int s = 0; s < num_shards; ++s) {
        run_shard(static_cast<std::size_t>(s));
      }
    }

    // Exchange phase: deliver outboxes (the walker transfer).
    any_live = false;
    for (int from = 0; from < num_shards; ++from) {
      for (const Walker& walker : outboxes[from]) {
        const int to = store.ShardOf(walker.cur);
        result.walker_migrations += to != from ? 1 : 0;
        queues[to].push_back(walker);
        any_live = true;
      }
      outboxes[from].clear();
    }
  }
  walks.Finish(result);
  return result;
}

// Application entry points on the walker-transfer path; the same steppers
// and config makers as apps.h.
template <ShardRoutedStore Store>
PartitionedWalkResult RunPartitionedDeepWalk(const Store& store,
                                             const WalkConfig& cfg,
                                             util::ThreadPool* pool = nullptr) {
  return RunPartitionedWalks(store, cfg,
                             internal::FirstOrderStepper<Store>{store}, pool);
}

template <ShardRoutedStore Store>
  requires AdjacencyStore<Store>
PartitionedWalkResult RunPartitionedNode2vec(const Store& store,
                                             const WalkConfig& cfg,
                                             const Node2vecParams& params = {},
                                             util::ThreadPool* pool = nullptr) {
  return RunPartitionedWalks(
      store, cfg, internal::MakeNode2vecStepper(store, params), pool);
}

template <ShardRoutedStore Store>
PartitionedWalkResult RunPartitionedPpr(const Store& store,
                                        const WalkConfig& cfg,
                                        double stop_probability = 1.0 / 80.0,
                                        util::ThreadPool* pool = nullptr) {
  return RunPartitionedWalks(
      store, PprConfig(cfg),
      internal::PprStepper<Store>{store, stop_probability}, pool);
}

template <ShardRoutedStore Store>
  requires AdjacencyStore<Store>
PartitionedWalkResult RunPartitionedSimpleSampling(
    const Store& store, const WalkConfig& cfg,
    util::ThreadPool* pool = nullptr) {
  return RunPartitionedWalks(store, cfg,
                             internal::UniformStepper<Store>{store}, pool);
}

template <ShardRoutedStore Store>
  requires AdjacencyStore<Store>
PartitionedWalkResult RunPartitionedMetapath(const Store& store,
                                             const WalkConfig& cfg,
                                             const MetapathParams& params = {},
                                             util::ThreadPool* pool = nullptr) {
  return RunPartitionedWalks(
      store, cfg, internal::MetapathStepper<Store>{store, params}, pool);
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_PARTITIONED_H_
