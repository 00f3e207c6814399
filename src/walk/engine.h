// Parallel random-walk driver, and the variate contract every driver keeps.
//
// The paper launches one walker per vertex and advances walks step by step,
// each step being one sample (§6 implementation notes iii). A Stepper
// supplies the application logic:
//
//   struct Stepper {
//     // Next vertex, or graph::kInvalidVertex to stop (dead end / reject).
//     graph::VertexId Next(graph::VertexId cur, graph::VertexId prev,
//                          util::Rng& rng) const;
//     // Post-step termination test (e.g. PPR's stop probability).
//     bool Terminate(util::Rng& rng) const;
//   };
//
// Step-aware steppers (metapath walks, whose eligible target type is a
// function of the step index) instead expose
//   Next(cur, prev, uint32_t step, rng)
// where `step` is the 0-based index of the transition being taken.
//
// THE VARIATE CONTRACT. Walker i (0 <= i < num_walkers, num_walkers = |V|
// when the config says 0) starts at cfg.start_vertex, or at i mod |V| when
// none is set, and owns the RNG stream Rng::ForStream(cfg.seed, i); nothing
// else draws from it. Each hop is one StepperNext(cur, prev, hops taken)
// draw; a dead end retires the walker, otherwise the hop is applied and one
// Terminate draw follows, after every successful hop including the last.
// The walk also stops after walk_length hops. The start counts as a visit
// and opens the path; a walker "finished" when it took at least one hop. A
// config with no vertices or an out-of-range start_vertex yields no walks
// (only path_offsets, all zero, when recording).
//
// Because the output is a pure function of the contract, every driver —
// this run-to-completion engine, the superstep walker transfer
// (partitioned.h), the fused step-synchronous pass (fused.h) and the
// block-scheduled out-of-core driver (ooc.h) — is bit-identical for any
// thread count, steal order, pinning, schedule and store backend with the
// same sampler semantics (src/walk/store.h). All four advance walkers
// through the one kernel in walker.h and differ only in schedule.
//
// This driver runs contiguous walker chunks of the executor's deterministic
// plan to completion. Chunk buffers are ScratchVectors leasing recycled
// blocks from the executor's MemoryPool: in the steady state a RunWalks
// call performs zero system allocations for them.

#ifndef BINGO_SRC_WALK_ENGINE_H_
#define BINGO_SRC_WALK_ENGINE_H_

#include <cstdint>
#include <span>

#include "src/graph/types.h"
#include "src/util/thread_pool.h"
#include "src/walk/store.h"
#include "src/walk/walker.h"

namespace bingo::walk {

template <typename Stepper>
WalkResult RunWalks(graph::VertexId num_vertices, const WalkConfig& cfg,
                    const Stepper& stepper, util::ThreadPool* pool = nullptr) {
  WalkBuilder walks(num_vertices, cfg, pool);
  const uint64_t num_walkers = walks.Launched();
  constexpr std::size_t kGrain = 256;
  const util::ChunkPlan plan =
      pool != nullptr
          ? util::ComputeChunkPlan(num_walkers, kGrain, pool->NumThreads())
          : util::ChunkPlan{1, static_cast<std::size_t>(num_walkers)};
  const std::span<WalkSink> sinks = walks.Sinks(plan.num_chunks);
  const auto run_chunk = [&](std::size_t chunk, std::size_t lo,
                             std::size_t hi) {
    WalkSink& sink = sinks[chunk];
    sink.Reserve(hi - lo, cfg.walk_length);
    for (std::size_t w = lo; w < hi; ++w) {
      Walker walker = walks.Launch(w);
      Advance(stepper, cfg, walker, sink, kRunToCompletion);
    }
    walks.Fold(sink);
  };
  if (pool != nullptr) {
    pool->ParallelForChunks(0, num_walkers, run_chunk, kGrain);
  } else if (num_walkers > 0) {
    run_chunk(0, 0, num_walkers);
  }
  WalkResult result;
  walks.Finish(result);
  return result;
}

// Store-generic entry point: walkers start one-per-vertex (or cfg-sized)
// over the store's vertex space. Works with any WalkStore backend.
template <typename Store, typename Stepper>
  requires SamplingStore<Store>
WalkResult RunWalks(const Store& store, const WalkConfig& cfg,
                    const Stepper& stepper, util::ThreadPool* pool = nullptr) {
  return RunWalks(static_cast<graph::VertexId>(store.NumVertices()), cfg,
                  stepper, pool);
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_ENGINE_H_
