// Determinism guarantees across all walk applications, thread counts,
// pinning modes, and both execution models: per-walker RNG streams make
// every result reproducible byte-for-byte, and the executor's chunk plan
// keeps results independent of steal order and CPU placement.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/csr_mmap.h"
#include "src/graph/generators.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/fused.h"
#include "src/walk/incremental.h"
#include "src/walk/ooc.h"
#include "src/walk/ooc_store.h"
#include "src/walk/partitioned.h"

namespace bingo::walk {
namespace {

using core::BingoStore;

BingoStore TestStore(uint64_t seed) {
  util::Rng rng(seed);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::Csr csr = graph::Csr::FromPairs(256, pairs);
  graph::BiasParams params;
  const auto biases = graph::GenerateBiases(csr, params, rng);
  return BingoStore(graph::DynamicGraph::FromCsr(csr, biases));
}

void ExpectIdentical(const WalkResult& a, const WalkResult& b) {
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.finished_walkers, b.finished_walkers);
  EXPECT_EQ(a.path_offsets, b.path_offsets);
  EXPECT_EQ(a.paths, b.paths);
  EXPECT_EQ(a.visit_counts, b.visit_counts);
}

TEST(DeterminismTest, Node2vecAcrossThreadCounts) {
  const BingoStore store = TestStore(1);
  WalkConfig cfg;
  cfg.walk_length = 16;
  cfg.record_paths = true;
  Node2vecParams params;
  util::ThreadPool pool3(3);
  util::ThreadPool pool7(7);
  const auto serial = RunNode2vec(store, cfg, params, nullptr);
  ExpectIdentical(serial, RunNode2vec(store, cfg, params, &pool3));
  ExpectIdentical(serial, RunNode2vec(store, cfg, params, &pool7));
}

TEST(DeterminismTest, PprAcrossThreadCounts) {
  const BingoStore store = TestStore(2);
  WalkConfig cfg;
  cfg.walk_length = 40;
  cfg.num_walkers = 1000;
  util::ThreadPool pool4(4);
  const auto serial = RunPpr(store, cfg, 1.0 / 20.0, nullptr);
  ExpectIdentical(serial, RunPpr(store, cfg, 1.0 / 20.0, &pool4));
}

TEST(DeterminismTest, SimpleSamplingAcrossThreadCounts) {
  const BingoStore store = TestStore(3);
  WalkConfig cfg;
  cfg.walk_length = 12;
  cfg.record_paths = true;
  cfg.count_visits = true;
  util::ThreadPool pool5(5);
  const auto serial = RunSimpleSampling(store, cfg, nullptr);
  ExpectIdentical(serial, RunSimpleSampling(store, cfg, &pool5));
}

TEST(DeterminismTest, SeedChangesResults) {
  const BingoStore store = TestStore(4);
  WalkConfig a;
  a.walk_length = 16;
  a.record_paths = true;
  WalkConfig b = a;
  b.seed = a.seed + 1;
  const auto ra = RunDeepWalk(store, a, nullptr);
  const auto rb = RunDeepWalk(store, b, nullptr);
  EXPECT_NE(ra.paths, rb.paths);
}

// The PR acceptance matrix: threads {1, 4, 16} x pinning {off, on} x apps
// {DeepWalk, node2vec, PPR} x drivers {shared-memory engine, superstep
// walker-transfer} — every cell bit-identical to the serial reference.
// Walk output depends only on the seed: never on thread count, steal
// order, CPU placement, or execution model.
TEST(DeterminismTest, MatrixAcrossThreadsPinningAndDrivers) {
  util::Rng rng(7);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::VertexId n = 256;
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams bias_params;
  const auto biases = graph::GenerateBiases(csr, bias_params, rng);
  const auto edges = graph::ToWeightedEdges(csr, biases);

  const BingoStore store(graph::DynamicGraph::FromEdges(n, edges));
  const PartitionedBingoStore sharded(edges, n, 4);

  WalkConfig cfg;
  cfg.walk_length = 16;
  cfg.record_paths = true;
  cfg.count_visits = true;
  // More walkers than the engine's 256-walker grain, so the parallel cells
  // exercise the multi-chunk slot-array stitch (several chunks per pool),
  // not the single-chunk serial early-return.
  cfg.num_walkers = 2048;

  const char* apps[] = {"deepwalk", "node2vec", "ppr"};
  for (const char* app : apps) {
    const auto run_engine = [&](util::ThreadPool* pool) -> WalkResult {
      if (app == std::string("node2vec")) {
        return RunNode2vec(store, cfg, {}, pool);
      }
      if (app == std::string("ppr")) {
        return RunPpr(store, cfg, 1.0 / 20.0, pool);
      }
      return RunDeepWalk(store, cfg, pool);
    };
    const auto run_superstep = [&](util::ThreadPool* pool) -> WalkResult {
      if (app == std::string("node2vec")) {
        return RunPartitionedNode2vec(sharded, cfg, {}, pool);
      }
      if (app == std::string("ppr")) {
        return RunPartitionedPpr(sharded, cfg, 1.0 / 20.0, pool);
      }
      return RunPartitionedDeepWalk(sharded, cfg, pool);
    };

    const WalkResult reference = run_engine(nullptr);
    EXPECT_GT(reference.total_steps, 0u) << app;
    ExpectIdentical(reference, run_superstep(nullptr));

    for (const std::size_t threads : {1uL, 4uL, 16uL}) {
      for (const bool pin : {false, true}) {
        util::PoolOptions options;
        options.num_threads = threads;
        options.pin_threads = pin;
        options.numa_interleave = pin;
        util::ThreadPool pool(options);
        SCOPED_TRACE(std::string(app) + " threads=" +
                     std::to_string(threads) + " pin=" + (pin ? "on" : "off"));
        ExpectIdentical(reference, run_engine(&pool));
        ExpectIdentical(reference, run_superstep(&pool));
      }
    }
  }
}

// The edge-case rows of the cross-driver table: the start guard, walker
// launch and result merge are shared by every driver, so each must
// reproduce the engine field by field on a zero walk length, an
// out-of-range start, more walkers than vertices, a start on a dead end,
// and paths plus visit counts recorded together. BingoStore drivers
// (superstep, fused) compare with the engine on BingoStore; tiered-store
// drivers (out-of-core at two budgets, superstep, fused) with the engine
// on the tiered store.
TEST(DeterminismTest, EdgeCaseMatrixAcrossDrivers) {
  util::Rng rng(19);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::VertexId n = 260;  // 256..259 have no edges: dead ends
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams bias_params;
  const auto biases = graph::GenerateBiases(csr, bias_params, rng);
  const auto edges = graph::ToWeightedEdges(csr, biases);
  const BingoStore store(graph::DynamicGraph::FromEdges(n, edges));
  const PartitionedBingoStore sharded(edges, n, 4);

  const std::string path = ::testing::TempDir() + "/determinism_edge.csr";
  std::string error;
  ASSERT_TRUE(graph::WriteCsrFile(path, n, edges, 4096, &error)) << error;
  const auto open = [&](std::size_t budget) {
    TieredStoreOptions options;
    options.memory_budget_bytes = budget;
    auto tiered = TieredStore::Open(path, {}, options, nullptr, &error);
    EXPECT_NE(tiered, nullptr) << error;
    return tiered;
  };
  const auto unbudgeted = open(0);
  const auto budgeted = open(edges.size() * sizeof(graph::Edge) / 4);
  ASSERT_NE(unbudgeted, nullptr);
  ASSERT_NE(budgeted, nullptr);

  WalkConfig base;
  base.walk_length = 12;
  base.record_paths = true;
  base.count_visits = true;
  base.num_walkers = 600;
  std::vector<std::pair<std::string, WalkConfig>> cases;
  cases.emplace_back("walk_length=0", base);
  cases.back().second.walk_length = 0;
  cases.emplace_back("start_vertex=|V|", base);
  cases.back().second.start_vertex = n;
  cases.emplace_back("num_walkers>|V|", base);
  cases.back().second.num_walkers = 3 * n + 7;
  cases.emplace_back("dead-end start", base);
  cases.back().second.start_vertex = n - 1;
  cases.emplace_back("one walker per vertex", base);
  cases.back().second.num_walkers = 0;

  util::ThreadPool pool4(4);
  for (const auto& [name, cfg] : cases) {
    for (const bool ppr : {false, true}) {
      // Every driver's DeepWalk or PPR entry point over one store.
      const auto engine = [&](const auto& s, util::ThreadPool* pool) {
        return ppr ? RunPpr(s, cfg, 1.0 / 20.0, pool)
                   : RunDeepWalk(s, cfg, pool);
      };
      const auto superstep = [&](const auto& s, util::ThreadPool* pool) {
        return ppr ? RunPartitionedPpr(s, cfg, 1.0 / 20.0, pool)
                   : RunPartitionedDeepWalk(s, cfg, pool);
      };
      const auto fused = [&](const auto& s, util::ThreadPool* pool) {
        WalkResult result;
        const std::span<const WalkConfig> one(&cfg, 1);
        if (ppr) {
          RunPprFused(s, one, std::span<WalkResult>(&result, 1), 1.0 / 20.0,
                      pool);
        } else {
          RunDeepWalkFused(s, one, std::span<WalkResult>(&result, 1), pool);
        }
        return result;
      };
      const auto ooc = [&](const TieredStore& s, util::ThreadPool* pool) {
        const OocWalkResult result = ppr ? RunOocPpr(s, cfg, 1.0 / 20.0, pool)
                                         : RunOocDeepWalk(s, cfg, pool);
        EXPECT_TRUE(result.error.empty()) << result.error;
        return result;
      };

      const WalkResult reference = engine(store, nullptr);
      const WalkResult tiered_reference = engine(*unbudgeted, nullptr);
      for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                     &pool4}) {
        SCOPED_TRACE(name + (ppr ? " ppr" : " deepwalk") +
                     (pool != nullptr ? " threads=4" : " serial"));
        ExpectIdentical(reference, engine(store, pool));
        ExpectIdentical(reference, superstep(sharded, pool));
        ExpectIdentical(reference, fused(store, pool));
        ExpectIdentical(tiered_reference, engine(*unbudgeted, pool));
        ExpectIdentical(tiered_reference, ooc(*unbudgeted, pool));
        ExpectIdentical(tiered_reference, ooc(*budgeted, pool));
        ExpectIdentical(tiered_reference, superstep(*budgeted, pool));
        ExpectIdentical(tiered_reference, fused(*unbudgeted, pool));
      }

      // The guard semantics themselves, on the reference.
      SCOPED_TRACE(name + (ppr ? " ppr" : " deepwalk"));
      const uint64_t walkers = cfg.num_walkers == 0 ? n : cfg.num_walkers;
      ASSERT_EQ(reference.path_offsets.size(), walkers + 1);
      if (cfg.start_vertex == n) {
        EXPECT_EQ(reference.total_steps, 0u);
        EXPECT_EQ(reference.path_offsets.back(), 0u);
        EXPECT_TRUE(reference.paths.empty());
        EXPECT_TRUE(reference.visit_counts.empty());
        continue;
      }
      uint64_t visits = 0;
      for (const uint32_t count : reference.visit_counts) {
        visits += count;
      }
      EXPECT_EQ(visits, reference.total_steps + walkers);
      EXPECT_EQ(reference.paths.size(), reference.total_steps + walkers);
      // PPR raises a zero walk length to its 16-step cap.
      if ((cfg.walk_length == 0 && !ppr) || cfg.start_vertex == n - 1) {
        EXPECT_EQ(reference.total_steps, 0u);
        EXPECT_EQ(reference.finished_walkers, 0u);
      } else {
        EXPECT_GT(reference.total_steps, 0u);
      }
    }
  }
  std::remove(path.c_str());
}

// The out-of-core row of the acceptance matrix: the block-scheduled driver
// over the tiered store at budgets {unconstrained, 1/2, 1/4 of the edge
// bytes} x threads {1, 4, 16} pinned and unpinned x apps {DeepWalk,
// node2vec, PPR} — every cell bit-identical to the serial unconstrained
// engine walk of the same store. Scheduling order (which block runs when)
// is budget- and load-dependent; walker variate streams are not.
TEST(DeterminismTest, OocMatrixAcrossBudgetsThreadsAndPinning) {
  util::Rng rng(11);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::VertexId n = 256;
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams bias_params;
  const auto biases = graph::GenerateBiases(csr, bias_params, rng);
  const auto edges = graph::ToWeightedEdges(csr, biases);

  const std::string path = ::testing::TempDir() + "/determinism_ooc.csr";
  std::string error;
  ASSERT_TRUE(graph::WriteCsrFile(path, n, edges, 4096, &error)) << error;
  const std::size_t edge_bytes = edges.size() * sizeof(graph::Edge);

  WalkConfig cfg;
  cfg.walk_length = 16;
  cfg.record_paths = true;
  cfg.count_visits = true;
  cfg.num_walkers = 2048;

  const auto open = [&](std::size_t budget) {
    TieredStoreOptions options;
    options.memory_budget_bytes = budget;
    auto store = TieredStore::Open(path, {}, options, nullptr, &error);
    EXPECT_NE(store, nullptr) << error;
    return store;
  };
  const auto run = [&](const char* app, const TieredStore& store,
                       util::ThreadPool* pool) -> WalkResult {
    if (app == std::string("node2vec")) {
      return RunOocNode2vec(store, cfg, {}, pool);
    }
    if (app == std::string("ppr")) {
      return RunOocPpr(store, cfg, 1.0 / 20.0, pool);
    }
    return RunOocDeepWalk(store, cfg, pool);
  };

  const auto reference_store = open(0);
  for (const char* app : {"deepwalk", "node2vec", "ppr"}) {
    WalkResult reference;
    if (app == std::string("node2vec")) {
      reference = RunNode2vec(*reference_store, cfg, {});
    } else if (app == std::string("ppr")) {
      reference = RunPpr(*reference_store, cfg, 1.0 / 20.0);
    } else {
      reference = RunDeepWalk(*reference_store, cfg);
    }
    EXPECT_GT(reference.total_steps, 0u) << app;

    for (const std::size_t budget :
         {std::size_t{0}, edge_bytes / 2, edge_bytes / 4}) {
      const auto store = open(budget);
      for (const std::size_t threads : {1uL, 4uL, 16uL}) {
        for (const bool pin : {false, true}) {
          util::PoolOptions options;
          options.num_threads = threads;
          options.pin_threads = pin;
          util::ThreadPool pool(options);
          SCOPED_TRACE(std::string(app) + " budget=" +
                       std::to_string(budget) + " threads=" +
                       std::to_string(threads) + " pin=" +
                       (pin ? "on" : "off"));
          ExpectIdentical(reference, run(app, *store, &pool));
        }
      }
    }
  }
  std::remove(path.c_str());
}

// The temporal row of the acceptance matrix: walks over a decaying store —
// threads {1, 4, 16} x drivers {engine, superstep, fused} — stay
// bit-identical to the serial engine reference, both before and after an
// AdvanceTime tick lands mid-run. The tick is an ordinary ApplyBatch, so
// every replica (plain and sharded) rescales to identical bits.
TEST(DeterminismTest, TemporalMatrixAcrossThreadsAndDrivers) {
  util::Rng rng(13);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::VertexId n = 256;
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams bias_params;
  const auto biases = graph::GenerateBiases(csr, bias_params, rng);
  auto edges = graph::ToWeightedEdges(csr, biases);
  for (graph::WeightedEdge& e : edges) {
    e.timestamp = static_cast<uint32_t>((e.src + e.dst) % 5);
  }

  core::BingoConfig config;
  config.pipeline.decay = 0.9;
  BingoStore store(graph::DynamicGraph::FromEdges(n, edges), config);
  PartitionedBingoStore sharded(edges, n, 4, config);

  WalkConfig cfg;
  cfg.walk_length = 16;
  cfg.record_paths = true;
  cfg.count_visits = true;
  cfg.num_walkers = 2048;

  const auto check_phase = [&](const std::string& phase) {
    SCOPED_TRACE(phase);
    const WalkResult reference = RunDeepWalk(store, cfg, nullptr);
    EXPECT_GT(reference.total_steps, 0u);
    ExpectIdentical(reference, RunPartitionedDeepWalk(sharded, cfg, nullptr));
    WalkResult fused_serial;
    RunDeepWalkFused(store, std::span<const WalkConfig>(&cfg, 1),
                     std::span<WalkResult>(&fused_serial, 1), nullptr);
    ExpectIdentical(reference, fused_serial);
    for (const std::size_t threads : {1uL, 4uL, 16uL}) {
      util::ThreadPool pool(threads);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectIdentical(reference, RunDeepWalk(store, cfg, &pool));
      ExpectIdentical(reference, RunPartitionedDeepWalk(sharded, cfg, &pool));
      WalkResult fused;
      RunDeepWalkFused(store, std::span<const WalkConfig>(&cfg, 1),
                       std::span<WalkResult>(&fused, 1), &pool);
      ExpectIdentical(reference, fused);
    }
  };

  check_phase("epoch 0");
  // The mid-run clock tick: a deterministic synthetic batch, applied to the
  // plain store and broadcast across the sharded store's partitions.
  store.ApplyBatch({graph::MakeAdvanceTime(5)}, nullptr);
  sharded.ApplyBatch({graph::MakeAdvanceTime(5)}, nullptr);
  check_phase("epoch 5");
}

// Metapath (typed / bipartite) walks across the same driver x thread grid:
// the stepper is step-aware (the eligible type is a function of the walk
// position), so this row proves all three drivers feed identical step
// indices — engine loop counter, superstep walker.len, fused lockstep step.
TEST(DeterminismTest, MetapathMatrixAcrossThreadsAndDrivers) {
  util::Rng rng(17);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::VertexId n = 256;
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams bias_params;
  const auto biases = graph::GenerateBiases(csr, bias_params, rng);
  const auto edges = graph::ToWeightedEdges(csr, biases);

  const BingoStore store(graph::DynamicGraph::FromEdges(n, edges));
  const PartitionedBingoStore sharded(edges, n, 4);

  WalkConfig cfg;
  cfg.walk_length = 16;
  cfg.record_paths = true;
  cfg.count_visits = true;
  cfg.num_walkers = 2048;

  for (const MetapathParams& params :
       {MetapathParams{},                      // bipartite {0, 1}
        MetapathParams{3, {0, 1, 2, 1}}}) {    // longer cyclic pattern
    ASSERT_TRUE(params.Valid());
    SCOPED_TRACE("pattern size=" + std::to_string(params.pattern.size()));
    const WalkResult reference = RunMetapath(store, cfg, params, nullptr);
    EXPECT_GT(reference.total_steps, 0u);
    ExpectIdentical(reference,
                    RunPartitionedMetapath(sharded, cfg, params, nullptr));
    for (const std::size_t threads : {1uL, 4uL, 16uL}) {
      util::ThreadPool pool(threads);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectIdentical(reference, RunMetapath(store, cfg, params, &pool));
      ExpectIdentical(reference,
                      RunPartitionedMetapath(sharded, cfg, params, &pool));
      WalkResult fused;
      RunMetapathFused(store, std::span<const WalkConfig>(&cfg, 1),
                       std::span<WalkResult>(&fused, 1), params, &pool);
      ExpectIdentical(reference, fused);
    }
  }
}

// The incremental walk corpus carries the same contract: corpus contents
// depend only on (seed, update sequence) — never on the repair thread
// count, and never on whether the corpus lived through a checkpoint/
// restore cycle mid-stream.
TEST(DeterminismTest, CorpusMatrixAcrossThreadsAndCheckpointRestore) {
  const uint64_t kSeed = 6;
  IncrementalWalkCorpus::Config config;
  config.walk_length = 16;

  // Shared update stream: 4 mixed batches, fixed ahead of the matrix.
  std::vector<graph::UpdateList> batches;
  {
    util::Rng rng(99);
    for (int round = 0; round < 4; ++round) {
      graph::UpdateList batch;
      for (int i = 0; i < 50; ++i) {
        const auto src = static_cast<graph::VertexId>(rng.NextBounded(256));
        const auto dst = static_cast<graph::VertexId>(rng.NextBounded(256));
        if (rng.NextBool(0.25)) {
          batch.push_back({graph::Update::Kind::kDelete, src, dst, 0.0});
        } else {
          batch.push_back({graph::Update::Kind::kInsert, src, dst,
                           1.0 + rng.NextBounded(16)});
        }
      }
      batches.push_back(std::move(batch));
    }
  }

  const auto corpus_walks = [&](util::ThreadPool* pool,
                                bool checkpoint_mid_stream) {
    BingoStore store = TestStore(kSeed);
    IncrementalWalkCorpus corpus(store, config);
    corpus.Generate(store, pool);
    for (std::size_t round = 0; round < batches.size(); ++round) {
      corpus.ApplyUpdates(store, batches[round], pool);
      if (checkpoint_mid_stream && round == 1) {
        const std::string path = ::testing::TempDir() +
                                 "corpus_matrix_" +
                                 std::to_string(::getpid()) + ".walks";
        EXPECT_TRUE(corpus.SaveTo(path, /*wal_seq=*/round + 1));
        IncrementalWalkCorpus restored(store, config);
        EXPECT_TRUE(restored.LoadFrom(path).has_value());
        corpus = std::move(restored);
        std::remove(path.c_str());
      }
    }
    std::vector<std::vector<graph::VertexId>> walks;
    walks.reserve(corpus.NumWalks());
    for (uint64_t w = 0; w < corpus.NumWalks(); ++w) {
      walks.push_back(corpus.Walk(w));
    }
    return walks;
  };

  const auto reference = corpus_walks(nullptr, false);
  for (const int threads : {1, 4, 16}) {
    util::ThreadPool pool(threads);
    for (const bool restore : {false, true}) {
      EXPECT_EQ(reference, corpus_walks(&pool, restore))
          << threads << " threads, restore=" << restore;
    }
  }
}

TEST(DeterminismTest, SamplingDoesNotMutateStore) {
  // SampleNeighbor is const; a heavy concurrent read workload must leave
  // the structure byte-identical (checked via the exact audit).
  const BingoStore store = TestStore(5);
  util::ThreadPool pool(4);
  WalkConfig cfg;
  cfg.walk_length = 40;
  RunDeepWalk(store, cfg, &pool);
  RunNode2vec(store, cfg, {}, &pool);
  EXPECT_TRUE(store.CheckInvariants().empty()) << store.CheckInvariants();
}

// One walker at a time, straight from the variate contract in engine.h:
// no lanes, sinks or runs, so it is an independent reference for the
// engine's lane ring.
template <typename Stepper>
WalkResult OneWalkerAtATime(graph::VertexId n, const WalkConfig& cfg,
                            const Stepper& stepper) {
  WalkResult result;
  const uint64_t walkers = cfg.num_walkers == 0 ? n : cfg.num_walkers;
  if (cfg.record_paths) {
    result.path_offsets.assign(walkers + 1, 0);
  }
  if (n == 0 || (cfg.start_vertex != graph::kInvalidVertex &&
                 cfg.start_vertex >= n)) {
    return result;
  }
  if (cfg.count_visits) {
    result.visit_counts.assign(n, 0);
  }
  const auto visit = [&](graph::VertexId v) {
    if (cfg.record_paths) {
      result.paths.push_back(v);
    }
    if (cfg.count_visits) {
      ++result.visit_counts[v];
    }
  };
  for (uint64_t id = 0; id < walkers; ++id) {
    graph::VertexId cur = cfg.start_vertex != graph::kInvalidVertex
                              ? cfg.start_vertex
                              : static_cast<graph::VertexId>(id % n);
    graph::VertexId prev = graph::kInvalidVertex;
    util::Rng rng = util::Rng::ForStream(cfg.seed, id);
    uint32_t len = 0;
    visit(cur);
    while (len < cfg.walk_length) {
      const graph::VertexId next = StepperNext(stepper, cur, prev, len, rng);
      if (next == graph::kInvalidVertex) {
        break;
      }
      prev = cur;
      cur = next;
      ++len;
      visit(cur);
      if (stepper.Terminate(rng)) {
        break;
      }
    }
    result.total_steps += len;
    result.finished_walkers += len > 0 ? 1 : 0;
    if (cfg.record_paths) {
      result.path_offsets[id + 1] = result.paths.size();
    }
  }
  return result;
}

// The engine keeps a ring of walkers in flight per chunk and stages each
// walker's hops per lane. Walker counts below, at and just past the ring
// width, walks of zero and one hop, walks longer than a lane's stage (so
// hops flush mid-walk and must land in order), dead-end starts that retire
// on launch, and PPR's early stops all refill lanes mid-ring; every cell
// must match one-walker-at-a-time execution field by field.
TEST(DeterminismTest, LaneRingMatchesOneWalkerAtATime) {
  util::Rng rng(23);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::VertexId n = 260;  // 256..259 have no edges: dead ends
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams bias_params;
  const auto biases = graph::GenerateBiases(csr, bias_params, rng);
  const BingoStore store(graph::DynamicGraph::FromCsr(csr, biases));

  util::ThreadPool pool4(4);
  for (const uint64_t walkers : {1ull, 7ull, 8ull, 9ull, 1000ull}) {
    for (const uint32_t length : {0u, 1u, 10u, 150u}) {
      for (const bool dead_end_start : {false, true}) {
        WalkConfig cfg;
        cfg.num_walkers = walkers;
        cfg.walk_length = length;
        cfg.record_paths = true;
        cfg.count_visits = true;
        cfg.seed = walkers * 131 + length;
        if (dead_end_start) {
          cfg.start_vertex = n - 1;
        }
        const auto node2vec = internal::MakeNode2vecStepper(store, {});
        const WalkResult deepwalk_ref = OneWalkerAtATime(
            n, cfg, internal::FirstOrderStepper<BingoStore>{store});
        const WalkResult node2vec_ref = OneWalkerAtATime(n, cfg, node2vec);
        const WalkResult ppr_ref = OneWalkerAtATime(
            n, PprConfig(cfg),
            internal::PprStepper<BingoStore>{store, 1.0 / 20.0});
        for (util::ThreadPool* pool :
             {static_cast<util::ThreadPool*>(nullptr), &pool4}) {
          SCOPED_TRACE("walkers=" + std::to_string(walkers) +
                       " length=" + std::to_string(length) +
                       (dead_end_start ? " dead-end start" : "") +
                       (pool != nullptr ? " threads=4" : " serial"));
          ExpectIdentical(deepwalk_ref, RunDeepWalk(store, cfg, pool));
          ExpectIdentical(node2vec_ref, RunNode2vec(store, cfg, {}, pool));
          ExpectIdentical(ppr_ref, RunPpr(store, cfg, 1.0 / 20.0, pool));
        }
      }
    }
  }
}

// BingoStore seen through SamplingStore and AdjacencyStore only: no
// prefetch hooks and no batched draw.
struct HintlessStore {
  const BingoStore& store;
  graph::VertexId NumVertices() const { return store.NumVertices(); }
  graph::VertexId SampleNeighbor(graph::VertexId v, util::Rng& rng) const {
    return store.SampleNeighbor(v, rng);
  }
  bool HasEdge(graph::VertexId src, graph::VertexId dst) const {
    return store.HasEdge(src, dst);
  }
  std::span<const graph::Edge> NeighborsOf(graph::VertexId v) const {
    return store.NeighborsOf(v);
  }
};
static_assert(PrefetchingStore<BingoStore>);
static_assert(AdjacencyStore<HintlessStore> &&
              !PrefetchingStore<HintlessStore> &&
              !BatchSamplingStore<HintlessStore>);

// Prefetching is only a hint: the engine and the fused driver walk a store
// without the hooks bit-identically to the same store with them.
TEST(DeterminismTest, PrefetchHooksAreOnlyHints) {
  const BingoStore store = TestStore(29);
  const HintlessStore hintless{store};
  WalkConfig cfg;
  cfg.walk_length = 30;
  cfg.num_walkers = 1500;
  cfg.record_paths = true;
  cfg.count_visits = true;
  util::ThreadPool pool4(4);
  for (util::ThreadPool* pool :
       {static_cast<util::ThreadPool*>(nullptr), &pool4}) {
    SCOPED_TRACE(pool != nullptr ? "threads=4" : "serial");
    ExpectIdentical(RunDeepWalk(store, cfg, pool),
                    RunDeepWalk(hintless, cfg, pool));
    ExpectIdentical(RunNode2vec(store, cfg, {}, pool),
                    RunNode2vec(hintless, cfg, {}, pool));
    ExpectIdentical(RunPpr(store, cfg, 1.0 / 20.0, pool),
                    RunPpr(hintless, cfg, 1.0 / 20.0, pool));
    ExpectIdentical(
        RunFusedWalks(store, cfg,
                      internal::FirstOrderStepper<BingoStore>{store}, pool),
        RunFusedWalks(hintless, cfg,
                      internal::FirstOrderStepper<HintlessStore>{hintless},
                      pool));
  }
}

}  // namespace
}  // namespace bingo::walk
