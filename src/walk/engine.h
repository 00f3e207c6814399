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
// This driver splits the walkers into contiguous chunks of the executor's
// deterministic plan and runs each chunk to completion on a ring of kLanes
// walkers in flight. Lanes take one hop per turn, round-robin; a retired
// walker's lane is refilled with the chunk's next walker. Each step's
// pointer chase (sampler record, then its tables, then the adjacency) is
// hidden behind the other lanes' hops by two prefetch stages
// (PrefetchingStore in store.h): after a lane hops to v it issues stage 1
// for v, and on the same turn the lane half a ring ahead, whose stage 1
// has landed, issues stage 2. Lanes stage their walker's path hops and
// append them to the chunk's sink as one run when the walker retires or
// the stage fills. Chunk buffers are ScratchVectors leasing recycled blocks
// from the executor's MemoryPool: in the steady state a RunWalks call
// performs zero system allocations for them.

#ifndef BINGO_SRC_WALK_ENGINE_H_
#define BINGO_SRC_WALK_ENGINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/graph/types.h"
#include "src/util/thread_pool.h"
#include "src/walk/store.h"
#include "src/walk/walker.h"

namespace bingo::walk {

namespace engine_internal {

// Walkers in flight per chunk, and the most path hops a lane stages before
// it appends them to the sink as one run: more than the default walk
// length (80), so a typical walker's path is one run, as WalkSink::Reserve
// assumes.
inline constexpr std::size_t kLanes = 8;
inline constexpr uint32_t kStageHops = 128;
static_assert((kLanes & (kLanes - 1)) == 0 && kLanes >= 2);

// One ring slot: a walker in flight and its path hops not yet in the
// chunk's sink. It stands in for the sink in Hop: counts go straight
// through, hops are staged, and retiring flushes the stage.
class Lane {
 public:
  Lane() = default;
  explicit Lane(WalkSink& sink) : sink_(&sink) {}

  bool Live() const { return live_; }
  Walker& Current() { return walker_; }

  void Start(const Walker& w) {
    walker_ = w;
    live_ = true;
  }

  void Record(const Walker& w) {
    sink_->Count(w.cur);
    if (sink_->record_paths) {
      if (staged_ == 0) {
        stage_pos_ = w.len;
      }
      stage_[staged_++] = w.cur;
      if (staged_ == kStageHops) {
        Flush(w);
      }
    }
  }

  void Retire(const Walker& w) {
    Flush(w);
    sink_->Retire(w);
    live_ = false;
  }

 private:
  void Flush(const Walker& w) {
    if (staged_ > 0) {
      sink_->AppendRun(w.id, stage_pos_, stage_.data(), staged_);
      staged_ = 0;
    }
  }

  WalkSink* sink_ = nullptr;
  Walker walker_;
  bool live_ = false;
  uint32_t staged_ = 0;
  uint32_t stage_pos_ = 0;  // path position of stage_[0]
  std::array<graph::VertexId, kStageHops> stage_{};
};

// Runs walkers [lo, hi) to completion on the lane ring; `store` takes the
// prefetch hints (any type: hints are no-ops unless it is a
// PrefetchingStore).
template <typename Store, typename Stepper>
void RunChunk(const Store& store, const Stepper& stepper,
              const WalkBuilder& walks, uint64_t lo, uint64_t hi,
              WalkSink& sink) {
  const uint32_t walk_length = walks.Config().walk_length;
  uint64_t next = lo;
  const auto launch = [&](Lane& lane) {
    if (next < hi) {
      lane.Start(walks.Launch(next++));
      PrefetchStage1(store, lane.Current().cur);
    }
  };
  std::array<Lane, kLanes> lanes;
  lanes.fill(Lane(sink));
  for (Lane& lane : lanes) {
    launch(lane);
  }
  // Turn the ring until a whole turn finds every lane empty.
  for (bool any = true; any;) {
    any = false;
    for (std::size_t l = 0; l < kLanes; ++l) {
      Lane& lane = lanes[l];
      if (!lane.Live()) {
        continue;
      }
      any = true;
      Walker& w = lane.Current();
      if (Hop(stepper, walk_length, w,
              StepperNext(stepper, w.cur, w.prev, w.len, w.rng), lane)) {
        PrefetchStage1(store, w.cur);
      } else {
        launch(lane);
      }
      Lane& ahead = lanes[(l + kLanes / 2) & (kLanes - 1)];
      if (ahead.Live()) {
        PrefetchStage2(store, ahead.Current().cur);
      }
    }
  }
}

// No prefetch hooks: the vertex-count entry point runs the same ring bare.
struct NoPrefetch {};

template <typename Store, typename Stepper>
WalkResult RunRing(const Store& store, graph::VertexId num_vertices,
                   const WalkConfig& cfg, const Stepper& stepper,
                   util::ThreadPool* pool) {
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
    RunChunk(store, stepper, walks, lo, hi, sink);
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

}  // namespace engine_internal

template <typename Stepper>
WalkResult RunWalks(graph::VertexId num_vertices, const WalkConfig& cfg,
                    const Stepper& stepper, util::ThreadPool* pool = nullptr) {
  return engine_internal::RunRing(engine_internal::NoPrefetch{}, num_vertices,
                                  cfg, stepper, pool);
}

// Store-generic entry point: walkers start one-per-vertex (or cfg-sized)
// over the store's vertex space. Works with any WalkStore backend, and
// prefetches through its hooks when it is a PrefetchingStore.
template <typename Store, typename Stepper>
  requires SamplingStore<Store>
WalkResult RunWalks(const Store& store, const WalkConfig& cfg,
                    const Stepper& stepper, util::ThreadPool* pool = nullptr) {
  return engine_internal::RunRing(
      store, static_cast<graph::VertexId>(store.NumVertices()), cfg, stepper,
      pool);
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_ENGINE_H_
