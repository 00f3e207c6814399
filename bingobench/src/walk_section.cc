// walk section: whole-graph walk corpora on a static, skewed R-MAT graph.
//
// Sampling, the four walk drivers and the block cache do nearly all the
// work here; the update path does none. Every store is built up front and
// kept, so each round can run one whole corpus (one walker per vertex,
// length kWalkLength) on every driver in turn, as many times as the
// round's share of time allows: each driver's samples are spread over the
// whole run instead of one burst. Before the first round every driver runs
// one untimed corpus that is checked hop by hop; every timed corpus must
// be bit-identical to its driver's reference.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bingobench/src/inputs.h"
#include "bingobench/src/workloads.h"
#include "src/graph/csr_mmap.h"
#include "src/walk/ooc.h"
#include "src/walk/ooc_store.h"
#include "src/walk/partitioned.h"

namespace bingobench {

namespace {

constexpr int kScale = 18;
constexpr uint64_t kPairs = 550'000;  // symmetrized: ~1.08M directed edges
constexpr uint32_t kWalkLength = 10;
constexpr int kPartitions = 4;

using bingo::walk::OocWalkResult;
using bingo::walk::PartitionedWalkResult;
using bingo::walk::WalkConfig;

// One driver's corpora: the reference fingerprint and the timed rates.
struct Driver {
  const char* span;
  const char* metric;  // end-to-end metric; null: timed in traced runs only
  std::string what;
  uint64_t* reference;  // fingerprint every corpus must match
  std::vector<double> rates;
};

class WalkSection : public Section {
 public:
  WalkSection(const Options& opt, double seconds, Report& report)
      : opt_(opt),
        report_(report),
        round_seconds_(seconds / kRounds),
        pool_(static_cast<std::size_t>(opt.threads)),
        input_(MakeRmatGraph(kScale, kPairs, true, opt.float_bias, opt.seed)),
        model_(ModelOf(input_)),
        n_(input_.num_vertices),
        csr_path_(opt.data_dir + "/walk.csr") {
    std::printf("walk: %u vertices, %zu edges, walk length %u\n", n_,
                input_.edges.size(), kWalkLength);
    dw_.walk_length = kWalkLength;
    dw_.seed = opt.seed * 0x9e3779b97f4a7c15ull + 1;
    dw_.record_paths = true;
    n2v_ = dw_;
    n2v_.seed += 1;
    rules_.num_walkers = n_;
    rules_.num_vertices = n_;
    rules_.walk_length = kWalkLength;
    Build();
    if (resident_ != nullptr && budgeted_ != nullptr) {
      // Reference corpora: the engine on BingoStore for the superstep
      // driver, the engine on the tiered store for the out-of-core driver.
      for (Driver& d : drivers_) {
        Corpus(d, /*check=*/true);
      }
    }
  }

  double setup_s() const override { return setup_s_; }

  void Round(int) override {
    if (resident_ == nullptr || budgeted_ == nullptr) {
      return;
    }
    const double start = Now();
    do {
      for (Driver& d : drivers_) {
        if (d.metric != nullptr || opt_.trace) {
          d.rates.push_back(Corpus(d, /*check=*/false));
        }
      }
    } while (Now() - start < round_seconds_);
  }

  void Finish() override {
    if (resident_ == nullptr || budgeted_ == nullptr) {
      return;
    }
    FirstStepTest(*store_, model_, opt_.seed, &pool_, report_, "walk");
    report_.Check(store_->CheckInvariants().empty(), "walk: BingoStore invariants");
    report_.Check(part_->CheckInvariants().empty(),
                  "walk: partitioned store invariants");
    report_.Check(resident_->CheckInvariants().empty() &&
                      budgeted_->CheckInvariants().empty(),
                  "walk: tiered store invariants");
    for (const Driver& d : drivers_) {
      if (d.metric != nullptr) {
        report_.EndToEnd(d.metric, "Msteps/s", Median(d.rates));
      }
      PrintSamples("walk " + d.what + " Msteps/s", d.rates);
    }
    if (opt_.trace) {
      report_.Layer("core.store.sample_ns", "ns",
                    SampleNs(*store_, n_, opt_.seed, 4'000'000));
      StoreLayerMetrics(*store_, report_);
      const auto per_step = [](uint64_t count, uint64_t steps) {
        return static_cast<double>(count) /
               static_cast<double>(std::max<uint64_t>(steps, 1));
      };
      report_.Layer("walk.partitioned.migrations_per_step", "1/step",
                    per_step(migrations_, superstep_steps_));
      report_.Layer("walk.partitioned.supersteps", "count",
                    static_cast<double>(supersteps_));
      report_.Layer("walk.engine.tiered_msteps_per_s", "Msteps/s",
                    Median(drivers_[3].rates));
      report_.Layer("walk.ooc.walker_parks_per_step", "1/step",
                    per_step(parks_, resident_steps_));
      report_.Layer("walk.ooc.block_passes", "count", static_cast<double>(passes_));
      report_.Layer("core.block_cache.loads", "count", static_cast<double>(loads_));
      report_.Layer("core.block_cache.evictions", "count",
                    static_cast<double>(evictions_));
      report_.Layer("core.block_cache.peak_resident_mib", "MiB",
                    MiB(static_cast<double>(peak_resident_)));
      report_.Layer("core.block_cache.budget_overshoots", "count",
                    static_cast<double>(budgeted_->CacheStats().budget_overshoots));
    }
    store_.reset();
    part_.reset();
    ResetTiered();
  }

 private:
  void Build() {
    setup_s_ += MedianBuildSeconds([&] { store_.reset(); },
                                   [&] { store_ = BuildStore(input_.edges, n_, &pool_); });
    report_.Check(DigestOf(store_->Graph()) == model_.Digest(),
                  "walk: store edge multiset equals the model");
    report_.EndToEnd("store_bytes_per_edge", "B/edge",
                     static_cast<double>(store_->MemoryStats().TotalBytes()) /
                         static_cast<double>(store_->NumEdges()));
    setup_s_ += MedianBuildSeconds([&] { part_.reset(); }, [&] {
      Span span("walk.partitioned.build");
      part_ = std::make_unique<bingo::walk::PartitionedBingoStore>(
          input_.edges, n_, kPartitions, bingo::core::BingoConfig{}, &pool_);
    });
    setup_s_ += MedianBuildSeconds([&] { ResetTiered(); }, [&] { BuildTiered(); });
    // Corpus() dispatches on the position in this list.
    drivers_ = {{"walk.engine.deepwalk", "walk_msteps_per_s", "engine deepwalk",
                 &engine_fp_, {}},
                {"walk.engine.node2vec", "node2vec_msteps_per_s", "engine node2vec",
                 &n2v_fp_, {}},
                {"walk.partitioned.deepwalk", "superstep_msteps_per_s",
                 "superstep deepwalk (reference: engine on BingoStore)",
                 &engine_fp_, {}},
                {"walk.engine.tiered_deepwalk", nullptr,
                 "engine deepwalk on the tiered store", &tiered_fp_, {}},
                {"walk.ooc.deepwalk_resident", "ooc_resident_msteps_per_s",
                 "out-of-core deepwalk, all resident", &tiered_fp_, {}},
                {"walk.ooc.deepwalk_budget", "ooc_budget_msteps_per_s",
                 "out-of-core deepwalk, budget " + std::to_string(budget_) + " B",
                 &tiered_fp_, {}}};
  }

  // The graph written as a CSR container, opened twice: every block
  // resident, and under about a quarter of the edge bytes (never below the
  // largest block).
  void BuildTiered() {
    std::string error;
    {
      Span span("graph.csr_write");
      report_.Check(bingo::graph::WriteCsrFile(csr_path_, n_, input_.edges,
                                               bingo::graph::kDefaultCsrBlockBytes,
                                               &error),
                    "write CSR container: " + error);
    }
    Span span("walk.ooc.open");
    resident_ = bingo::walk::TieredStore::Open(csr_path_, {}, {}, &pool_, &error);
    if (!report_.Check(resident_ != nullptr, "open tiered store: " + error)) {
      return;
    }
    const bingo::graph::CsrMmap& csr = resident_->Csr();
    std::size_t largest = 0;
    for (uint32_t b = 0; b < csr.NumBlocks(); ++b) {
      largest = std::max(largest, csr.BlockPayloadBytes(b));
    }
    budget_ = std::max<std::size_t>(
        largest, csr.NumEdges() * sizeof(bingo::graph::Edge) / 4);
    bingo::walk::TieredStoreOptions options;
    options.memory_budget_bytes = budget_;
    budgeted_ = bingo::walk::TieredStore::Open(csr_path_, {}, options, &pool_, &error);
    report_.Check(budgeted_ != nullptr, "open budgeted tiered store: " + error);
  }

  void ResetTiered() {
    resident_.reset();
    budgeted_.reset();
    std::remove(csr_path_.c_str());
  }

  // Runs one corpus of driver `d`, returns its throughput in Msteps/s. The
  // first corpus of a driver sets its reference fingerprint (unless it
  // already has one) and, with `check`, has its paths checked hop by hop.
  double Corpus(Driver& d, bool check) {
    const std::size_t i = static_cast<std::size_t>(&d - drivers_.data());
    report_.Attempt();
    double seconds = 0.0;
    uint64_t steps = 0;
    std::string error;
    uint64_t fp = 0;
    PathCheck paths;
    const auto timed = [&](auto&& run) {
      const double t0 = Now();
      auto r = [&] {
        Span span(d.span);
        auto result = run();
        span.SetCount(static_cast<double>(result.total_steps));
        return result;
      }();
      seconds = Now() - t0;
      steps = r.total_steps;
      fp = Fingerprint(r);
      if (check) {
        paths = CheckPaths(r, rules_, model_);
      }
      return r;
    };
    switch (i) {
      case 0:
        timed([&] { return bingo::walk::RunDeepWalk(*store_, dw_, &pool_); });
        break;
      case 1:
        timed([&] {
          return bingo::walk::RunNode2vec(*store_, n2v_,
                                          bingo::walk::Node2vecParams{}, &pool_);
        });
        break;
      case 2: {
        const PartitionedWalkResult r = timed(
            [&] { return bingo::walk::RunPartitionedDeepWalk(*part_, dw_, &pool_); });
        migrations_ = r.walker_migrations;
        supersteps_ = r.supersteps;
        superstep_steps_ = r.total_steps;
        break;
      }
      case 3:
        timed([&] { return bingo::walk::RunDeepWalk(*resident_, dw_, &pool_); });
        break;
      case 4: {
        const OocWalkResult r = timed(
            [&] { return bingo::walk::RunOocDeepWalk(*resident_, dw_, &pool_); });
        error = r.error;
        parks_ = r.walker_parks;
        passes_ = r.block_passes;
        resident_steps_ = r.total_steps;
        break;
      }
      default: {
        const OocWalkResult r = timed(
            [&] { return bingo::walk::RunOocDeepWalk(*budgeted_, dw_, &pool_); });
        error = r.error;
        loads_ = r.block_loads;
        evictions_ = r.block_evictions;
        peak_resident_ = r.peak_resident_bytes;
        break;
      }
    }
    if (!error.empty()) {
      report_.Fail();
      report_.Check(false, d.what + ": " + error);
      return 0.0;
    }
    if (check) {
      report_.Check(paths.ok(), d.what + ": paths follow model edges (" +
                                    paths.first_error + ")");
    }
    if (*d.reference == 0) {
      *d.reference = fp;
    }
    report_.Check(fp == *d.reference,
                  d.what + ": corpus bit-identical to the reference");
    return Msteps(steps, seconds);
  }

  const Options& opt_;
  Report& report_;
  const double round_seconds_;
  bingo::util::ThreadPool pool_;
  const GraphInput input_;
  const EdgeModel model_;
  const VertexId n_;
  const std::string csr_path_;
  WalkConfig dw_;
  WalkConfig n2v_;
  PathRules rules_;
  double setup_s_ = 0.0;

  std::unique_ptr<bingo::core::BingoStore> store_;
  std::unique_ptr<bingo::walk::PartitionedBingoStore> part_;
  std::unique_ptr<bingo::walk::TieredStore> resident_;
  std::unique_ptr<bingo::walk::TieredStore> budgeted_;
  std::size_t budget_ = 0;
  std::vector<Driver> drivers_;
  uint64_t engine_fp_ = 0;
  uint64_t n2v_fp_ = 0;
  uint64_t tiered_fp_ = 0;

  // Counts of the latest corpus of each driver (every corpus is the same
  // walk, so they repeat).
  uint64_t migrations_ = 0;
  uint64_t supersteps_ = 0;
  uint64_t superstep_steps_ = 0;
  uint64_t parks_ = 0;
  uint64_t passes_ = 0;
  uint64_t resident_steps_ = 0;
  uint64_t loads_ = 0;
  uint64_t evictions_ = 0;
  std::size_t peak_resident_ = 0;
};

}  // namespace

std::unique_ptr<Section> MakeWalkSection(const Options& options, double seconds,
                                         Report& report) {
  return std::make_unique<WalkSection>(options, seconds, report);
}

}  // namespace bingobench
