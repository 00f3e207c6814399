// Fused walk passes: many queries, one step-synchronous engine sweep.
//
// The per-query driver (walk/engine.h) keeps a small ring of walkers in
// flight and runs each to completion. This driver executes a GROUP of walk
// queries as one pass: the union of all queries' walkers is chunked onto
// the executor, and within a chunk all walkers advance together step by
// step. That layout is what unlocks two serving optimizations:
//
//   * Batched draws — walkers of a chunk standing on the same vertex at the
//     same step resolve their next hop through the store's lane-batched
//     SampleNeighborBatch (SIMD alias/ITS/radix kernels,
//     src/sampling/batch_kernels.h) instead of d independent scalar draws.
//   * Software prefetch — while one vertex's group is being resolved, the
//     store's two prefetch stages (PrefetchingStore, walk/store.h) run
//     ahead of it: stage 1 (PrefetchVertex) kPrefetchAhead groups ahead,
//     stage 2 (PrefetchTables) half as far, hiding the chase behind real
//     work. Scalar sweeps do the same over walkers instead of groups.
//
// Walkers keep the variate contract stated in engine.h: every reordering
// here is across walkers, and the batched draw is itself bit-identical per
// walker (see BatchSamplingStore), so every query's WalkResult is bit-for-
// bit what RunWalks(store, cfg_q, stepper, pool) returns, for any store,
// thread count, and SIMD level (tests/query_batcher_test.cc).
//
// Steppers advertise `kFirstOrder` (walk/apps.h): only first-order steppers
// (DeepWalk, PPR) use the batched-draw path; second-order node2vec keeps
// scalar per-walker draws (its variate count depends on prev) but still
// gains the fused layout and prefetching.
//
// Scratch discipline matches the engine: every per-chunk buffer is a
// ScratchVector leasing from the executor's MemoryPool, so a warmed-up
// fused pass performs zero system allocations for chunk state.

#ifndef BINGO_SRC_WALK_FUSED_H_
#define BINGO_SRC_WALK_FUSED_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <iterator>
#include <span>
#include <vector>

#include "src/graph/types.h"
#include "src/util/rng.h"
#include "src/util/scratch.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/engine.h"
#include "src/walk/store.h"

namespace bingo::walk {

namespace fused_internal {

// Batched draws need a lane-batched store and a stepper that declares
// itself first-order (Next is exactly one SampleNeighbor draw, independent
// of prev).
template <typename Store, typename Stepper>
inline constexpr bool kBatchDraws =
    BatchSamplingStore<Store> && requires { requires Stepper::kFirstOrder; };

// Walkers standing alone on a vertex go through the scalar stepper; only
// runs at least this long pay the batch kernel's tile setup.
inline constexpr std::size_t kMinBatchRun = 4;
// Prefetch distance, in sweep positions (vertex groups or walkers), of
// stage 1; stage 2 runs half as far ahead, once stage 1 has landed.
inline constexpr std::size_t kPrefetchAhead = 8;

// Issues the prefetch stages due at position i of a sweep over `count`
// positions, position j drawing at vertex_at(j). The first position also
// issues stage 1 for those no earlier position covered.
template <typename Store, typename VertexAt>
void PrefetchAhead(const Store& store, std::size_t i, std::size_t count,
                   const VertexAt& vertex_at) {
  if (i == 0) {
    for (std::size_t j = 0; j < std::min(kPrefetchAhead, count); ++j) {
      PrefetchStage1(store, vertex_at(j));
    }
  }
  if (i + kPrefetchAhead < count) {
    PrefetchStage1(store, vertex_at(i + kPrefetchAhead));
  }
  if (i + kPrefetchAhead / 2 < count) {
    PrefetchStage2(store, vertex_at(i + kPrefetchAhead / 2));
  }
}

// Stores may advertise their own break-even run length via a static
// kMinBatchRun member — the out-of-core tiered store fetches the edge run
// once per lane batch, so even a run of 2 amortizes (walk/ooc_store.h).
template <typename Store>
constexpr std::size_t MinBatchRunFor() {
  if constexpr (requires { Store::kMinBatchRun; }) {
    return Store::kMinBatchRun;
  } else {
    return kMinBatchRun;
  }
}

// Advances walkers [lo, hi) of one query to completion, step-synchronously:
// each step resolves every live walker's next vertex and applies it through
// the shared kernel, compacting the survivors into `alive`.
template <typename Store, typename Stepper>
void RunFusedChunk(const Store& store, const Stepper& stepper,
                   const WalkBuilder& walks, uint64_t lo, uint64_t hi,
                   WalkSink& sink) {
  const std::size_t n = static_cast<std::size_t>(hi - lo);
  const uint32_t walk_length = walks.Config().walk_length;
  util::MemoryPool* scratch = walks.Scratch();
  util::ScratchVector<Walker> walkers(scratch);
  util::ScratchVector<uint32_t> alive(scratch);
  util::ScratchVector<uint64_t> order(scratch);
  util::ScratchVector<uint32_t> group_starts(scratch);
  util::ScratchVector<util::Rng*> rng_ptrs(scratch);
  util::ScratchVector<graph::VertexId> batch_out(scratch);
  walkers.reserve(n);
  alive.reserve(n);
  batch_out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    walkers.push_back(walks.Launch(lo + i));
    alive.push_back(static_cast<uint32_t>(i));
  }

  for (std::size_t num_alive = n; num_alive > 0;) {
    // Survivors are written back at or behind the read position of
    // `alive` (the batched path reads lanes from `order` instead).
    std::size_t keep = 0;
    const auto hop = [&](uint32_t i, graph::VertexId next) {
      if (Hop(stepper, walk_length, walkers[i], next, sink)) {
        alive[keep++] = i;
      }
    };
    const auto scalar_hop = [&](uint32_t i) {
      Walker& w = walkers[i];
      hop(i, StepperNext(stepper, w.cur, w.prev, w.len, w.rng));
    };
    if constexpr (kBatchDraws<Store, Stepper>) {
      // Group same-vertex walkers: keys are (cur << 32) | lane, unique, so
      // plain sort is deterministic.
      order.clear();
      for (std::size_t j = 0; j < num_alive; ++j) {
        order.push_back((uint64_t{walkers[alive[j]].cur} << 32) | alive[j]);
      }
      std::sort(order.begin(), order.end());
      const auto lane = [&](std::size_t t) {
        return static_cast<uint32_t>(order[t]);
      };
      const auto vertex = [&](std::size_t t) {
        return static_cast<graph::VertexId>(order[t] >> 32);
      };
      group_starts.clear();
      for (std::size_t t = 0; t < num_alive; ++t) {
        if (t == 0 || vertex(t) != vertex(t - 1)) {
          group_starts.push_back(static_cast<uint32_t>(t));
        }
      }
      const std::size_t num_groups = group_starts.size();
      group_starts.push_back(static_cast<uint32_t>(num_alive));
      for (std::size_t g = 0; g < num_groups; ++g) {
        PrefetchAhead(store, g, num_groups, [&](std::size_t h) {
          return vertex(group_starts[h]);
        });
        const std::size_t a = group_starts[g];
        const std::size_t b = group_starts[g + 1];
        const graph::VertexId v = vertex(a);
        if (b - a < MinBatchRunFor<Store>()) {
          for (std::size_t t = a; t < b; ++t) {
            scalar_hop(lane(t));
          }
          continue;
        }
        rng_ptrs.clear();
        for (std::size_t t = a; t < b; ++t) {
          rng_ptrs.push_back(&walkers[lane(t)].rng);
        }
        store.SampleNeighborBatch(v, rng_ptrs.data(), b - a, batch_out.data());
        for (std::size_t t = a; t < b; ++t) {
          hop(lane(t), batch_out[t - a]);
        }
      }
    } else {
      // Survivors are compacted at or behind j, so alive[j + d] is unread.
      for (std::size_t j = 0; j < num_alive; ++j) {
        PrefetchAhead(store, j, num_alive, [&](std::size_t k) {
          return walkers[alive[k]].cur;
        });
        scalar_hop(alive[j]);
      }
    }
    num_alive = keep;
  }
}

}  // namespace fused_internal

// Runs `cfgs.size()` queries that share one stepper as a single fused pass
// and writes results[q] — bit-identical to RunWalks(store, cfgs[q],
// stepper, pool) — for each. Queries may differ in every WalkConfig field.
template <typename Store, typename Stepper>
  requires SamplingStore<Store>
void RunFusedQueries(const Store& store, std::span<const WalkConfig> cfgs,
                     const Stepper& stepper, std::span<WalkResult> results,
                     util::ThreadPool* pool = nullptr) {
  assert(results.size() == cfgs.size());
  constexpr uint64_t kChunk = 256;
  struct Task {
    WalkBuilder* walks;
    WalkSink* sink;
    uint64_t lo;
    uint64_t hi;
  };
  std::deque<WalkBuilder> builders;  // stable addresses for the tasks
  std::vector<Task> tasks;
  for (const WalkConfig& cfg : cfgs) {
    WalkBuilder& walks = builders.emplace_back(
        static_cast<graph::VertexId>(store.NumVertices()), cfg, pool);
    const uint64_t n = walks.Launched();
    const std::span<WalkSink> sinks = walks.Sinks((n + kChunk - 1) / kChunk);
    for (uint64_t lo = 0; lo < n; lo += kChunk) {
      tasks.push_back(Task{&walks, &sinks[lo / kChunk], lo,
                           std::min(n, lo + kChunk)});
    }
  }
  // Each task folds its sink when done, so dense visit counters live only
  // while their chunk runs.
  const auto run_task = [&](std::size_t t) {
    const Task& task = tasks[t];
    fused_internal::RunFusedChunk(store, stepper, *task.walks, task.lo,
                                  task.hi, *task.sink);
    task.walks->Fold(*task.sink);
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, tasks.size(), run_task);
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      run_task(t);
    }
  }
  for (std::size_t q = 0; q < cfgs.size(); ++q) {
    results[q] = WalkResult{};
    builders[q].Finish(results[q]);
  }
}

// Single-query convenience: one fused pass over one query.
template <typename Store, typename Stepper>
  requires SamplingStore<Store>
WalkResult RunFusedWalks(const Store& store, const WalkConfig& cfg,
                         const Stepper& stepper,
                         util::ThreadPool* pool = nullptr) {
  WalkResult result;
  RunFusedQueries(store, std::span<const WalkConfig>(&cfg, 1), stepper,
                  std::span<WalkResult>(&result, 1), pool);
  return result;
}

// --- fused application entry points ----------------------------------------
//
// Mirrors of RunDeepWalk / RunPpr / RunNode2vec / RunMetapath (walk/apps.h)
// over a query group, with the same steppers and config makers.

template <SamplingStore Store>
void RunDeepWalkFused(const Store& store, std::span<const WalkConfig> cfgs,
                      std::span<WalkResult> results,
                      util::ThreadPool* pool = nullptr) {
  RunFusedQueries(store, cfgs, internal::FirstOrderStepper<Store>{store},
                  results, pool);
}

template <SamplingStore Store>
void RunPprFused(const Store& store, std::span<const WalkConfig> cfgs,
                 std::span<WalkResult> results,
                 double stop_probability = 1.0 / 80.0,
                 util::ThreadPool* pool = nullptr) {
  std::vector<WalkConfig> ppr_cfgs;
  std::transform(cfgs.begin(), cfgs.end(), std::back_inserter(ppr_cfgs),
                 PprConfig);
  RunFusedQueries(store, std::span<const WalkConfig>(ppr_cfgs),
                  internal::PprStepper<Store>{store, stop_probability},
                  results, pool);
}

template <AdjacencyStore Store>
void RunNode2vecFused(const Store& store, std::span<const WalkConfig> cfgs,
                      std::span<WalkResult> results,
                      const Node2vecParams& params = {},
                      util::ThreadPool* pool = nullptr) {
  RunFusedQueries(store, cfgs, internal::MakeNode2vecStepper(store, params),
                  results, pool);
}

template <AdjacencyStore Store>
void RunMetapathFused(const Store& store, std::span<const WalkConfig> cfgs,
                      std::span<WalkResult> results,
                      const MetapathParams& params = {},
                      util::ThreadPool* pool = nullptr) {
  RunFusedQueries(store, cfgs, internal::MetapathStepper<Store>{store, params},
                  results, pool);
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_FUSED_H_
