// Out-of-core walk driver: block-pass scheduling over a TieredStore (or any
// store modeling BlockScheduledStore).
//
// Execution model (the randgraph engine's discipline): walkers live in
// per-block queues keyed by the block of their current vertex. Each
// scheduling round picks one block — the virtual RAM block first whenever
// it has walkers (draining it costs no I/O), otherwise the block with the
// most parked walkers (the cache's rank query) — maps it under the
// resident-byte budget, and runs one parallel *pass* over its queue. On a
// budgeted store a walker advances while its current vertex stays inside
// the block, then retires or parks in the queue of the block it crossed
// into; queues past a threshold spill to disk as raw Walker records and
// drain back when their block is scheduled. An unbudgeted store
// demand-maps any block, so there a walker runs to completion in the pass
// of its start block and nothing parks.
//
// Walkers keep the variate contract stated in engine.h, and their full
// state travels with them through queues and spill files, so output is
// bit-identical to RunWalks on the same store at ANY cache budget, spill
// threshold, thread count, or block schedule.
//
// Concurrency: one RunOocWalks at a time per *budgeted* store (eviction
// between passes would yank mappings from under a concurrent pass); the
// driver enforces this via the store's exclusive-walk gate and reports an
// error instead of corrupting. Unconstrained stores only ever add
// mappings, so anything may run concurrently.

#ifndef BINGO_SRC_WALK_OOC_H_
#define BINGO_SRC_WALK_OOC_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/block_cache.h"
#include "src/graph/types.h"
#include "src/util/scratch.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/engine.h"
#include "src/walk/store.h"

namespace bingo::walk {

struct OocWalkOptions {
  // Park queues at or past this walker count spill to disk after each
  // merge. 0 = never spill.
  std::size_t spill_threshold_walkers = 0;
  // Directory for spill files (required when spilling is enabled).
  std::string spill_dir;
};

struct OocWalkResult : WalkResult {
  uint64_t block_passes = 0;
  uint64_t walker_parks = 0;     // cross-block queue handoffs
  uint64_t spilled_walkers = 0;  // walker records written to spill files
  uint64_t block_loads = 0;      // cache loads attributable to this walk
  uint64_t block_evictions = 0;
  // Loads admitted past the memory budget (a block larger than the budget,
  // or every resident block pinned); peak_resident_bytes shows by how much.
  uint64_t budget_overshoots = 0;
  std::size_t peak_resident_bytes = 0;
  std::string error;  // non-empty: the walk aborted (results partial)
};

// Disk spill for park queues: one lazily-created file of raw Walker
// records per block. Single-scheduler use only (no internal locking).
class WalkerSpill {
 public:
  // Disabled when dir is empty. Spill files are removed on Drain and in
  // the destructor.
  WalkerSpill(std::string dir, uint32_t num_blocks);
  ~WalkerSpill();

  WalkerSpill(const WalkerSpill&) = delete;
  WalkerSpill& operator=(const WalkerSpill&) = delete;

  bool Enabled() const { return !dir_.empty(); }
  uint64_t Spilled(uint32_t block) const { return counts_[block]; }

  bool Spill(uint32_t block, const Walker* walkers, std::size_t count);
  // Appends block's spilled walkers (oldest first) to `out`, removes the
  // file. False on I/O failure (records may be lost; caller aborts).
  bool Drain(uint32_t block, std::vector<Walker>& out);

 private:
  std::string PathFor(uint32_t block) const;

  std::string dir_;
  std::vector<uint64_t> counts_;
};

// Stores the out-of-core driver can schedule: sampling plus the block
// surface (residency, rank-based scheduling, the exclusive-walk gate).
template <typename S>
concept BlockScheduledStore =
    SamplingStore<S> &&
    requires(const S& cs, graph::VertexId v, uint32_t b, uint64_t n) {
      { cs.NumBlocks() } -> std::convertible_to<uint32_t>;
      { cs.RamBlock() } -> std::convertible_to<uint32_t>;
      { cs.BlockOf(v) } -> std::convertible_to<uint32_t>;
      { cs.PrepareBlock(b) } -> std::convertible_to<bool>;
      { cs.FinishBlockPass(b) };
      { cs.SetParked(b, n) };
      { cs.PickNextBlock() } -> std::convertible_to<int64_t>;
      { cs.CacheStats() } -> std::convertible_to<core::BlockCacheStats>;
      { cs.Budgeted() } -> std::convertible_to<bool>;
      { cs.TryBeginExclusiveWalk() } -> std::convertible_to<bool>;
      { cs.EndExclusiveWalk() };
    };

template <typename Store, typename Stepper>
  requires BlockScheduledStore<Store>
OocWalkResult RunOocWalks(const Store& store, const WalkConfig& cfg,
                          const Stepper& stepper,
                          util::ThreadPool* pool = nullptr,
                          const OocWalkOptions& options = {}) {
  WalkBuilder walks(static_cast<graph::VertexId>(store.NumVertices()), cfg,
                    pool);
  OocWalkResult result;
  uint64_t live = walks.Launched();
  const bool budgeted = store.Budgeted();
  const bool exclusive = live > 0 && budgeted;
  if (exclusive && !store.TryBeginExclusiveWalk()) {
    result.error =
        "concurrent out-of-core walks on one budgeted store are "
        "unsupported; use the engine driver for concurrent queries";
    return result;
  }
  const core::BlockCacheStats before = store.CacheStats();
  const uint32_t num_blocks = store.NumBlocks();
  const uint32_t ram = store.RamBlock();
  std::vector<std::vector<Walker>> queues(num_blocks);
  for (uint64_t w = 0; w < live; ++w) {
    const Walker walker = walks.Launch(w);
    queues[store.BlockOf(walker.cur)].push_back(walker);
  }
  for (uint32_t b = 0; b < num_blocks; ++b) {
    if (b != ram) {
      store.SetParked(b, queues[b].size());
    }
  }
  WalkerSpill spill(options.spill_threshold_walkers > 0 ? options.spill_dir
                                                        : std::string(),
                    num_blocks);

  constexpr std::size_t kGrain = 256;
  std::vector<Walker> run;
  while (live > 0) {
    // RAM-block walkers drain first (no I/O to schedule); otherwise load
    // the block with the most parked walkers.
    const int64_t picked = queues[ram].empty() ? store.PickNextBlock()
                                               : static_cast<int64_t>(ram);
    if (picked < 0) {
      result.error = "ooc scheduler: live walkers but no runnable block";
      break;
    }
    const uint32_t b = static_cast<uint32_t>(picked);
    ++result.block_passes;
    if (!store.PrepareBlock(b)) {
      result.error = "ooc scheduler: mapping a block failed (corrupt CSR?)";
      break;
    }
    run.clear();
    if (spill.Enabled() && spill.Spilled(b) > 0 && !spill.Drain(b, run)) {
      result.error = "ooc scheduler: draining a spill file failed";
      break;
    }
    run.insert(run.end(), queues[b].begin(), queues[b].end());
    queues[b].clear();
    if (run.empty()) {
      result.error = "ooc scheduler: scheduled an empty block";
      break;
    }

    const util::ChunkPlan plan =
        pool != nullptr
            ? util::ComputeChunkPlan(run.size(), kGrain, pool->NumThreads())
            : util::ChunkPlan{1, run.size()};
    // Sinks persist across passes (chunk c of each pass is their single
    // writer); the builder merges them once at the end.
    const std::span<WalkSink> sinks = walks.Sinks(plan.num_chunks);
    std::vector<util::ScratchVector<Walker>> outboxes(plan.num_chunks);
    const auto stay = [&](graph::VertexId v) {
      return !budgeted || store.BlockOf(v) == b;
    };
    const auto run_chunk = [&](std::size_t chunk, std::size_t lo,
                               std::size_t hi) {
      util::ScratchVector<Walker> moved(walks.Scratch());
      for (std::size_t i = lo; i < hi; ++i) {
        Walker w = run[i];
        if (Advance(stepper, cfg, w, sinks[chunk], stay)) {
          moved.push_back(w);  // crossed out: park for its new block
        }
      }
      outboxes[chunk] = std::move(moved);
    };
    if (pool != nullptr) {
      pool->ParallelForChunks(0, run.size(), run_chunk, kGrain);
    } else {
      run_chunk(0, 0, run.size());
    }
    store.FinishBlockPass(b);

    uint64_t parked = 0;
    for (const auto& moved : outboxes) {
      for (const Walker& w : moved) {
        queues[store.BlockOf(w.cur)].push_back(w);
        ++parked;
      }
    }
    result.walker_parks += parked;
    live -= run.size() - parked;

    for (uint32_t q = 0; q < num_blocks; ++q) {
      if (q == ram) {
        continue;
      }
      if (spill.Enabled() && !queues[q].empty() &&
          queues[q].size() >= options.spill_threshold_walkers &&
          spill.Spill(q, queues[q].data(), queues[q].size())) {
        result.spilled_walkers += queues[q].size();
        queues[q].clear();
        queues[q].shrink_to_fit();
      }
      store.SetParked(q, queues[q].size() + spill.Spilled(q));
    }
  }
  if (exclusive) {
    store.EndExclusiveWalk();
  }

  const core::BlockCacheStats after = store.CacheStats();
  result.block_loads = after.loads - before.loads;
  result.block_evictions = after.evictions - before.evictions;
  result.budget_overshoots = after.budget_overshoots - before.budget_overshoots;
  result.peak_resident_bytes = after.peak_resident_bytes;
  walks.Finish(result);
  return result;
}

// Application entry points; the same steppers and config makers as apps.h.

template <BlockScheduledStore Store>
OocWalkResult RunOocDeepWalk(const Store& store, const WalkConfig& cfg,
                             util::ThreadPool* pool = nullptr,
                             const OocWalkOptions& options = {}) {
  return RunOocWalks(store, cfg, internal::FirstOrderStepper<Store>{store},
                     pool, options);
}

template <typename Store>
  requires BlockScheduledStore<Store> && AdjacencyStore<Store>
OocWalkResult RunOocNode2vec(const Store& store, const WalkConfig& cfg,
                             const Node2vecParams& params = {},
                             util::ThreadPool* pool = nullptr,
                             const OocWalkOptions& options = {}) {
  return RunOocWalks(store, cfg, internal::MakeNode2vecStepper(store, params),
                     pool, options);
}

template <BlockScheduledStore Store>
OocWalkResult RunOocPpr(const Store& store, const WalkConfig& cfg,
                        double stop_probability = 1.0 / 80.0,
                        util::ThreadPool* pool = nullptr,
                        const OocWalkOptions& options = {}) {
  return RunOocWalks(store, PprConfig(cfg),
                     internal::PprStepper<Store>{store, stop_probability},
                     pool, options);
}

template <typename Store>
  requires BlockScheduledStore<Store> && AdjacencyStore<Store>
OocWalkResult RunOocMetapath(const Store& store, const WalkConfig& cfg,
                             const MetapathParams& params = {},
                             util::ThreadPool* pool = nullptr,
                             const OocWalkOptions& options = {}) {
  return RunOocWalks(store, cfg,
                     internal::MetapathStepper<Store>{store, params}, pool,
                     options);
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_OOC_H_
