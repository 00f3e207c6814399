// The three sections every workload runs, and the helpers they share.
#ifndef BINGOBENCH_SRC_WORKLOADS_H_
#define BINGOBENCH_SRC_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "bingobench/src/harness.h"
#include "bingobench/src/model.h"
#include "src/core/bingo_store.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"

namespace bingobench {

// Every run interleaves its sections: kRounds rounds, each giving every
// section one turn, so each metric's samples are spread over the whole run
// rather than bunched in one stretch of it. Ten is the paper's round count
// for the update protocol.
inline constexpr int kRounds = 10;

// A section builds its inputs and set-up in its constructor, measures in
// Round(0) .. Round(kRounds - 1) over about `seconds` in all, and checks its
// outputs and reports its metrics in Finish().
class Section {
 public:
  virtual ~Section() = default;
  // The sum of the section's median build times.
  virtual double setup_s() const = 0;
  virtual void Round(int round) = 0;
  virtual void Finish() = 0;
};

// walk: whole-graph corpora on a static store, every walk driver.
std::unique_ptr<Section> MakeWalkSection(const Options& options, double seconds,
                                         Report& report);
// ingest: §6.1 update rounds on a WAL-backed service, streaming, recovery.
std::unique_ptr<Section> MakeIngestSection(const Options& options, double seconds,
                                           Report& report);
// serve: open-loop updates beside queries on a sharded service.
std::unique_ptr<Section> MakeServeSection(const Options& options, double seconds,
                                          Report& report);

inline double Msteps(uint64_t steps, double seconds) {
  return static_cast<double>(steps) / seconds / 1e6;
}
inline double MiB(double bytes) { return bytes / (1024.0 * 1024.0); }

// First-step chi-square at the model's three highest-degree vertices:
// 200k single-hop walks from each, drawn by the walk engine over `store`,
// against bias / sum(bias) from the model.
template <typename Store>
void FirstStepTest(const Store& store, const EdgeModel& model, uint64_t seed,
                   bingo::util::ThreadPool* pool, Report& report,
                   const std::string& where) {
  for (VertexId hub : model.TopDegree(3)) {
    bingo::walk::WalkConfig cfg;
    cfg.num_walkers = 200'000;
    cfg.walk_length = 1;
    cfg.seed = seed ^ (uint64_t{hub} << 20);
    cfg.record_paths = true;
    cfg.start_vertex = hub;
    const bingo::walk::WalkResult r = bingo::walk::RunDeepWalk(store, cfg, pool);
    const ChiSquareResult chi = ChiSquare(model.WeightsOf(hub), FirstSteps(r));
    report.Check(chi.pass(), where + ": first-step chi-square at vertex " +
                                 std::to_string(hub) + " (" + chi.Describe() + ")");
  }
}

inline volatile VertexId sample_sink = 0;

// Mean cost of one SampleNeighbor call along a walk-like chain of draws
// (restarting at a random vertex at dead ends), timed from one thread.
template <typename Store>
double SampleNs(const Store& store, VertexId num_vertices, uint64_t seed,
                uint64_t draws) {
  bingo::util::Rng rng(seed);
  VertexId cur = static_cast<VertexId>(rng.NextBounded(num_vertices));
  Span span("core.store.sample");
  const double t0 = Now();
  for (uint64_t i = 0; i < draws; ++i) {
    const VertexId next = store.SampleNeighbor(cur, rng);
    cur = next == bingo::graph::kInvalidVertex
              ? static_cast<VertexId>(rng.NextBounded(num_vertices))
              : next;
  }
  const double seconds = Now() - t0;
  sample_sink = cur;  // keeps the chain of draws observable
  span.SetCount(static_cast<double>(draws));
  return seconds * 1e9 / static_cast<double>(draws);
}

// Memory and group-kind metrics of one store replica.
void StoreLayerMetrics(const bingo::core::BingoStore& store, Report& report);

// Each piece of set-up is built this many times; setup_s sums the medians.
inline constexpr int kSetupReps = 3;

// Runs `reset` (untimed: it drops the previous instance) then `build`,
// kSetupReps times; returns the median build time. The last build is kept.
template <typename Reset, typename Build>
double MedianBuildSeconds(Reset&& reset, Build&& build) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    reset();
    const double t0 = Now();
    build();
    times.push_back(Now() - t0);
  }
  return Median(times);
}

// DynamicGraph + BingoStore from an edge list, under the graph.build and
// core.store.build spans. `pool` parallelizes the build (may be null).
std::unique_ptr<bingo::core::BingoStore> BuildStore(
    const bingo::graph::WeightedEdgeList& edges, VertexId num_vertices,
    bingo::util::ThreadPool* pool);

// Median, mean and total duration (seconds) of the spans named `name`;
// 0 if none.
double MedianSpan(const std::string& name);
double MeanSpan(const std::string& name);
double TotalSpan(const std::string& name);

}  // namespace bingobench

#endif  // BINGOBENCH_SRC_WORKLOADS_H_
