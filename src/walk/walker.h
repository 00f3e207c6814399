// The walker kernel shared by every walk driver.
//
// engine.h states the per-walker variate contract; this header is the only
// code that implements it. A driver is a *schedule*: it decides which
// walkers advance when and where they wait in between, and nothing else.
//
//   Walker       — the full state of one walk (id, position, hop count, RNG
//                  stream); trivially copyable, so schedules may queue,
//                  transfer and spill it as a raw record.
//   Hop/Advance  — the per-hop step: one StepperNext, apply the hop, one
//                  Terminate draw, stop at walk_length. Advance keeps
//                  stepping while the schedule's `stay` predicate holds.
//   WalkBuilder  — one WalkResult: the start guard, walker launch, per-writer
//                  sinks, the visit merge and the path stitch.
//
// Path recording is order-free: a sink logs each walker's hops as runs
// tagged with (walker, path position), so the stitch places them correctly
// no matter which sink, chunk, pass or superstep produced them.

#ifndef BINGO_SRC_WALK_WALKER_H_
#define BINGO_SRC_WALK_WALKER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/graph/types.h"
#include "src/util/rng.h"
#include "src/util/scratch.h"
#include "src/util/thread_pool.h"

namespace bingo::walk {

struct WalkConfig {
  uint64_t num_walkers = 0;   // 0 = one per vertex
  uint32_t walk_length = 80;  // maximum steps (stops earlier on dead ends)
  uint64_t seed = 42;
  bool record_paths = false;   // collect full paths (embedding corpora)
  bool count_visits = false;   // per-vertex visit frequencies (PPR)
  // When set, every walker starts here instead of at (walker id mod
  // num_vertices) — single-source queries (personalized PageRank) run on
  // the same engine and merge path as whole-graph workloads.
  graph::VertexId start_vertex = graph::kInvalidVertex;
};

struct WalkResult {
  uint64_t total_steps = 0;       // edges traversed across all walkers
  uint64_t finished_walkers = 0;  // walkers that took at least one step
  // Flattened paths when record_paths: walker i owns
  // paths[path_offsets[i] .. path_offsets[i+1]).
  std::vector<graph::VertexId> paths;
  std::vector<uint64_t> path_offsets;
  // Visit frequencies when count_visits (includes start vertices).
  std::vector<uint32_t> visit_counts;
};

// Uniform dispatch over the two stepper shapes. `step` is the 0-based index
// of the transition about to be taken (== number of hops already taken);
// classic steppers never see it, so their variate sequences are untouched.
template <typename Stepper>
graph::VertexId StepperNext(const Stepper& stepper, graph::VertexId cur,
                            graph::VertexId prev, uint32_t step,
                            util::Rng& rng) {
  if constexpr (requires { stepper.Next(cur, prev, step, rng); }) {
    return stepper.Next(cur, prev, step, rng);
  } else {
    return stepper.Next(cur, prev, rng);
  }
}

// Everything needed to resume a walk bit-exactly. Spill files store raw
// records (56 bytes).
struct Walker {
  uint64_t id = 0;
  graph::VertexId cur = graph::kInvalidVertex;
  graph::VertexId prev = graph::kInvalidVertex;
  uint32_t len = 0;  // successful hops taken so far
  util::Rng rng;
};
static_assert(std::is_trivially_copyable_v<Walker>,
              "schedules move walkers as raw records");

// One writer's share of a WalkResult. A sink has a single writer at a time
// (a chunk, a shard pass); sums commute and runs carry their position, so
// which sink a hop lands in never changes the result. Sinks sit side by side
// and are written on every hop, so each gets its own cache lines.
struct alignas(64) WalkSink {
  struct Run {
    uint64_t walker;
    uint32_t pos;    // path index of the run's first hop (the start is 0)
    uint32_t count;  // consecutive hops, stored in order in `hops`
  };

  WalkSink(util::MemoryPool* scratch, graph::VertexId num_vertices,
           bool record_paths, bool count_visits)
      : visits(scratch),
        hops(scratch),
        runs(scratch),
        num_vertices(num_vertices),
        record_paths(record_paths),
        count_visits(count_visits) {}

  // Room for `walkers` runs to completion, so a run-to-completion schedule
  // leases every path buffer once (a deterministic scratch demand).
  void Reserve(uint64_t walkers, uint32_t walk_length) {
    if (record_paths) {
      runs.reserve(runs.size() + walkers);
      hops.reserve(hops.size() + std::min<uint64_t>(walkers * walk_length,
                                                    uint64_t{1} << 20));
    }
  }

  // Logs w's latest hop: its count and visit, and its vertex in w's path.
  void Record(const Walker& w) {
    Count(w.cur);
    if (record_paths) {
      if (runs.empty() || runs.back().walker != w.id ||
          runs.back().pos + runs.back().count != w.len) {
        runs.push_back(Run{w.id, w.len, 0});
      }
      ++runs.back().count;
      hops.push_back(w.cur);
    }
  }

  // The counting half of Record, for schedules that log paths themselves.
  void Count(graph::VertexId cur) {
    ++steps;
    if (count_visits) {
      if (visits.empty()) {
        visits.assign(num_vertices, 0);
      }
      ++visits[cur];
    }
  }

  // Logs `count` consecutive hops of `walker`, the first at path position
  // `pos`, as one run.
  void AppendRun(uint64_t walker, uint32_t pos, const graph::VertexId* hop,
                 uint32_t count) {
    runs.push_back(Run{walker, pos, count});
    hops.append(hop, hop + count);
  }

  // `w` stopped; it counts as finished if it took a hop.
  void Retire(const Walker& w) { finished += w.len > 0 ? 1 : 0; }

  uint64_t steps = 0;
  uint64_t finished = 0;
  util::ScratchVector<uint32_t> visits;  // dense, leased on the first visit
  util::ScratchVector<graph::VertexId> hops;
  util::ScratchVector<Run> runs;
  graph::VertexId num_vertices;
  bool record_paths;
  bool count_visits;
};

// Applies the resolved hop `next` (kInvalidVertex: dead end) to `w`, then
// draws Terminate. Returns false once the walker retires. The caller must
// have drawn `next` from w.rng via StepperNext(stepper, w.cur, w.prev,
// w.len, w.rng) — directly or through a bit-identical batched draw. `sink`
// is a WalkSink, or a schedule's stand-in with the same Record/Retire.
template <typename Stepper, typename Sink>
bool Hop(const Stepper& stepper, uint32_t walk_length, Walker& w,
         graph::VertexId next, Sink& sink) {
  if (next == graph::kInvalidVertex) {
    sink.Retire(w);
    return false;
  }
  w.prev = w.cur;
  w.cur = next;
  ++w.len;
  sink.Record(w);
  if (stepper.Terminate(w.rng) || w.len >= walk_length) {
    sink.Retire(w);
    return false;
  }
  return true;
}

// Steps `w` while stay(w.cur) holds. Returns true when the walker left the
// schedule's region still live (the caller parks or transfers it), false
// once it retired. Requires w.len < cfg.walk_length.
template <typename Stepper, typename Stay>
bool Advance(const Stepper& stepper, const WalkConfig& cfg, Walker& w,
             WalkSink& sink, const Stay& stay) {
  while (Hop(stepper, cfg.walk_length, w,
             StepperNext(stepper, w.cur, w.prev, w.len, w.rng), sink)) {
    if (!stay(w.cur)) {
      return true;
    }
  }
  return false;
}

// Builds one WalkResult: owns the guard, walker launch, the sinks and the
// final merge, so every schedule shares their semantics exactly.
class WalkBuilder {
 public:
  WalkBuilder(graph::VertexId num_vertices, const WalkConfig& cfg,
              util::ThreadPool* pool)
      : cfg_(cfg),
        num_vertices_(num_vertices),
        num_walkers_(cfg.num_walkers == 0 ? num_vertices : cfg.num_walkers),
        valid_(num_vertices > 0 && num_walkers_ > 0 &&
               (cfg.start_vertex == graph::kInvalidVertex ||
                cfg.start_vertex < num_vertices)),
        scratch_(pool != nullptr ? &pool->ScratchMemory() : nullptr),
        visits_(valid_ && cfg.count_visits ? num_vertices : 0) {}

  const WalkConfig& Config() const { return cfg_; }
  util::MemoryPool* Scratch() const { return scratch_; }

  // Walkers the schedule must advance: none without a valid start or with
  // walk_length 0 (those walkers only record their start).
  uint64_t Launched() const {
    return valid_ && cfg_.walk_length > 0 ? num_walkers_ : 0;
  }

  Walker Launch(uint64_t id) const {
    return Walker{.id = id,
                  .cur = Start(id),
                  .rng = util::Rng::ForStream(cfg_.seed, id)};
  }

  // At least `n` sinks. Call only between parallel regions: growing the
  // table moves the sinks.
  std::span<WalkSink> Sinks(std::size_t n) {
    while (sinks_.size() < n) {
      sinks_.emplace_back(scratch_, num_vertices_, cfg_.record_paths,
                          cfg_.count_visits);
    }
    return sinks_;
  }

  // Folds a sink's counts into the totals and returns its visit buffer to
  // the pool. Thread-safe, for schedules that retire sinks in-task.
  void Fold(WalkSink& sink) {
    steps_.fetch_add(std::exchange(sink.steps, 0), std::memory_order_relaxed);
    finished_.fetch_add(std::exchange(sink.finished, 0),
                        std::memory_order_relaxed);
    for (std::size_t v = 0; v < sink.visits.size(); ++v) {
      if (sink.visits[v] != 0) {
        visits_[v].fetch_add(sink.visits[v], std::memory_order_relaxed);
      }
    }
    sink.visits = util::ScratchVector<uint32_t>(scratch_);
  }

  void Finish(WalkResult& result) {
    if (cfg_.record_paths) {
      result.path_offsets.assign(num_walkers_ + 1, 0);
    }
    if (!valid_) {
      return;  // nowhere (or nowhere valid) to start a walker
    }
    for (WalkSink& sink : sinks_) {
      Fold(sink);
    }
    result.total_steps = steps_.load(std::memory_order_relaxed);
    result.finished_walkers = finished_.load(std::memory_order_relaxed);
    if (cfg_.count_visits) {
      result.visit_counts.resize(num_vertices_);
      for (graph::VertexId v = 0; v < num_vertices_; ++v) {
        result.visit_counts[v] = visits_[v].load(std::memory_order_relaxed);
      }
      for (uint64_t w = 0; w < num_walkers_; ++w) {
        ++result.visit_counts[Start(w)];
      }
    }
    if (cfg_.record_paths) {
      std::vector<uint64_t>& offsets = result.path_offsets;
      std::fill(offsets.begin() + 1, offsets.end(), 1);  // the start vertex
      for (const WalkSink& sink : sinks_) {
        for (const WalkSink::Run& run : sink.runs) {
          offsets[run.walker + 1] += run.count;
        }
      }
      std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
      result.paths.resize(offsets.back());
      for (uint64_t w = 0; w < num_walkers_; ++w) {
        result.paths[offsets[w]] = Start(w);
      }
      for (const WalkSink& sink : sinks_) {
        const graph::VertexId* hop = sink.hops.data();
        for (const WalkSink::Run& run : sink.runs) {
          std::copy(hop, hop + run.count,
                    result.paths.begin() + offsets[run.walker] + run.pos);
          hop += run.count;
        }
      }
    }
  }

 private:
  graph::VertexId Start(uint64_t id) const {
    return cfg_.start_vertex != graph::kInvalidVertex
               ? cfg_.start_vertex
               : static_cast<graph::VertexId>(id % num_vertices_);
  }

  const WalkConfig cfg_;
  const graph::VertexId num_vertices_;
  const uint64_t num_walkers_;
  const bool valid_;
  util::MemoryPool* const scratch_;
  std::vector<WalkSink> sinks_;
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> finished_{0};
  std::vector<std::atomic<uint32_t>> visits_;
};

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_WALKER_H_
