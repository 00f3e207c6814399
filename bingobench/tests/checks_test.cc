// Benchmark-side tests: each output check of the benchmark accepts a
// correct result and rejects a deliberately broken one.
//
//   dropped update    the edge-multiset comparison after a batch
//   invented hop      the hop validator (also: wrong start, early stop)
//   skewed sampler    the first-step chi-square test
//
// Run: python3 bingobench/run.py --self-test   (exit 0 = all pass)

#include <cstdio>
#include <string>
#include <vector>

#include "bingobench/src/inputs.h"
#include "bingobench/src/model.h"
#include "src/core/bingo_store.h"
#include "src/graph/update_stream.h"
#include "src/util/rng.h"
#include "src/walk/apps.h"

namespace bingobench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

struct Fixture {
  GraphInput graph = MakeRmatGraph(12, 40'000, true, false, 7);
  std::unique_ptr<bingo::core::BingoStore> Store(
      const bingo::graph::WeightedEdgeList& edges) const {
    return std::make_unique<bingo::core::BingoStore>(
        bingo::graph::DynamicGraph::FromEdges(graph.num_vertices, edges));
  }
};

void DroppedUpdate(const Fixture& fx) {
  bingo::util::Rng rng(11);
  bingo::graph::UpdateWorkloadParams params;
  params.batch_size = 2'000;
  params.num_batches = 1;
  const bingo::graph::UpdateWorkload w =
      bingo::graph::BuildUpdateWorkload(fx.graph.edges, params, rng);
  EdgeModel model = ModelOf(GraphInput{fx.graph.num_vertices, w.initial_edges});
  for (const bingo::graph::Update& u : w.updates) {
    model.Apply(u);
  }
  auto whole = fx.Store(w.initial_edges);
  whole->ApplyBatch(w.updates);
  Expect(DigestOf(whole->Graph()) == model.Digest(),
         "multiset check accepts a store that applied every update");

  for (bool drop_insert : {true, false}) {
    bingo::graph::UpdateList dropped = w.updates;
    for (std::size_t i = 0; i < dropped.size(); ++i) {
      if ((dropped[i].kind == bingo::graph::Update::Kind::kInsert) == drop_insert) {
        dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    auto lossy = fx.Store(w.initial_edges);
    lossy->ApplyBatch(dropped);
    Expect(!(DigestOf(lossy->Graph()) == model.Digest()),
           std::string("multiset check rejects a store that dropped one ") +
               (drop_insert ? "insert" : "delete"));
  }
  // Same edge count, one bias changed: the digest still tells them apart.
  bingo::graph::WeightedEdgeList rebiased = w.initial_edges;
  rebiased[rebiased.size() / 2].bias += 1.0;
  auto other = fx.Store(rebiased);
  other->ApplyBatch(w.updates);
  Expect(!(DigestOf(other->Graph()) == model.Digest()),
         "multiset check rejects a store holding one wrong bias");
}

void InventedHop(const Fixture& fx) {
  const EdgeModel model = ModelOf(fx.graph);
  auto store = fx.Store(fx.graph.edges);
  bingo::walk::WalkConfig cfg;
  cfg.walk_length = 20;
  cfg.record_paths = true;
  const bingo::walk::WalkResult good = bingo::walk::RunDeepWalk(*store, cfg);
  PathRules rules;
  rules.num_walkers = fx.graph.num_vertices;
  rules.num_vertices = fx.graph.num_vertices;
  rules.walk_length = cfg.walk_length;
  const PathCheck ok = CheckPaths(good, rules, model);
  Expect(ok.ok() && ok.hops == good.total_steps,
         "hop validator accepts the engine's paths (" + ok.first_error + ")");

  // Invent a hop: redirect one step to a vertex that is not a neighbor.
  bingo::walk::WalkResult bad = good;
  for (std::size_t w = 0; w + 1 < bad.path_offsets.size(); ++w) {
    const uint64_t b = bad.path_offsets[w];
    if (bad.path_offsets[w + 1] - b < 3) {
      continue;
    }
    VertexId from = bad.paths[b + 1];
    VertexId fake = 0;
    while (model.Has(from, fake) || fake == from) {
      ++fake;
    }
    bad.paths[b + 2] = fake;
    break;
  }
  Expect(!CheckPaths(bad, rules, model).ok(), "hop validator rejects an invented hop");

  bingo::walk::WalkResult moved = good;
  moved.paths[0] = moved.paths[0] + 1;
  Expect(!CheckPaths(moved, rules, model).ok(),
         "hop validator rejects a walker that starts at the wrong vertex");

  // End a full-length walk one hop early at a vertex that has out-edges.
  bingo::walk::WalkResult cut = good;
  for (std::size_t w = 0; w + 1 < cut.path_offsets.size(); ++w) {
    const uint64_t len = cut.path_offsets[w + 1] - cut.path_offsets[w];
    if (len == cfg.walk_length + 1) {
      cut.paths.erase(cut.paths.begin() +
                      static_cast<std::ptrdiff_t>(cut.path_offsets[w + 1] - 1));
      for (std::size_t k = w + 1; k < cut.path_offsets.size(); ++k) {
        cut.path_offsets[k] -= 1;
      }
      cut.total_steps -= 1;
      break;
    }
  }
  Expect(!CheckPaths(cut, rules, model).ok(),
         "hop validator rejects a walk that stops early at a live vertex");
}

void SkewedSampler(const Fixture& fx) {
  const EdgeModel model = ModelOf(fx.graph);
  const VertexId hub = model.TopDegree(1).front();
  const auto weights = model.WeightsOf(hub);
  double total = 0.0;
  for (const auto& [dst, w] : weights) {
    total += w;
  }
  // A stand-in sampler: exact inverse-transform draws, optionally with 3%
  // of the probability mass moved onto the lightest neighbor.
  const auto draws = [&](double skew, uint64_t seed) {
    bingo::util::Rng rng(seed);
    std::vector<VertexId> out;
    for (int i = 0; i < 200'000; ++i) {
      if (rng.NextUnit() < skew) {
        out.push_back(weights.front().first);
        continue;
      }
      double x = rng.NextUnit() * total;
      VertexId pick = weights.back().first;
      for (const auto& [dst, w] : weights) {
        if ((x -= w) < 0.0) {
          pick = dst;
          break;
        }
      }
      out.push_back(pick);
    }
    return out;
  };
  for (uint64_t seed : {1, 2, 3}) {
    const ChiSquareResult fair = ChiSquare(weights, draws(0.0, seed));
    Expect(fair.pass(), "chi-square accepts an exact sampler (" + fair.Describe() + ")");
  }
  const ChiSquareResult skewed = ChiSquare(weights, draws(0.03, 4));
  Expect(!skewed.pass(), "chi-square rejects a skewed sampler (" + skewed.Describe() + ")");
  std::vector<VertexId> foreign = draws(0.0, 5);
  foreign[0] = hub;  // the hub is not its own neighbor
  Expect(!ChiSquare(weights, foreign).pass(),
         "chi-square rejects a draw of a non-neighbor");

  auto store = fx.Store(fx.graph.edges);
  bingo::walk::WalkConfig cfg;
  cfg.num_walkers = 200'000;
  cfg.walk_length = 1;
  cfg.record_paths = true;
  cfg.start_vertex = hub;
  const ChiSquareResult real =
      ChiSquare(weights, FirstSteps(bingo::walk::RunDeepWalk(*store, cfg)));
  Expect(real.pass(), "chi-square accepts BingoStore's first steps (" +
                          real.Describe() + ")");
}

}  // namespace
}  // namespace bingobench

int main() {
  const bingobench::Fixture fx;
  bingobench::DroppedUpdate(fx);
  bingobench::InventedHop(fx);
  bingobench::SkewedSampler(fx);
  std::printf("%s\n", bingobench::failures == 0 ? "all checks behave" : "FAILURES");
  return bingobench::failures == 0 ? 0 : 1;
}
