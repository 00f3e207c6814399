// ingest section: the paper's §6.1 dynamic-update protocol on a WAL-backed
// WalkService.
//
// Each of the kRounds rounds sends one 100k-update mixed insert/delete
// batch through the service's ApplyBatch (journal, then both replicas);
// then DeepWalks (one walker per ten vertices) run on the reshaped store
// for the rest of the round's share of time. Each round also streams one
// tenth of round 0's updates, one at a time, into a standalone BingoStore
// through ApplyUpdatesStreaming. A compacting checkpoint runs after round
// 5. At the end the service is dropped without a checkpoint (the WAL was
// written with group commit: no fsync per batch), recovered with
// RecoverWalkService and queried once — kRecoveries times over, for a
// median. The update path does most of the work here.

#include <cstdio>
#include <filesystem>
#include <memory>

#include "bingobench/src/inputs.h"
#include "bingobench/src/workloads.h"
#include "src/core/snapshot.h"
#include "src/core/wal.h"
#include "src/graph/update_stream.h"
#include "src/util/rng.h"
#include "src/walk/service.h"

namespace bingobench {

namespace {

constexpr int kScale = 17;
constexpr uint64_t kPairs = 600'000;  // symmetrized: ~1.15M directed edges
constexpr uint64_t kBatch = 100'000;
constexpr int kCheckpointAfterRound = 5;
constexpr uint32_t kWalkLength = 80;
constexpr int kRecoveries = 5;

using bingo::core::BingoStore;
using bingo::graph::UpdateList;
using bingo::walk::WalkConfig;
using bingo::walk::WalkResult;
using bingo::walk::WalkService;

// Every update of a generated batch applies: inserts add, deletes find
// their edge (the protocol only deletes live edges).
bool AllApplied(const bingo::core::BatchResult& r, const UpdateList& batch) {
  return r.inserted + r.deleted == batch.size() && r.skipped_deletes == 0;
}

EdgeDigest ServiceDigest(const WalkService& s) {
  return s.Query([](const BingoStore& store) { return DigestOf(store.Graph()); });
}

class IngestSection : public Section {
 public:
  IngestSection(const Options& opt, double seconds, Report& report)
      : opt_(opt),
        report_(report),
        round_seconds_(seconds / kRounds),
        pool_(static_cast<std::size_t>(opt.threads)),
        dir_(opt.data_dir + "/ingest") {
    const GraphInput graph =
        MakeRmatGraph(kScale, kPairs, true, opt.float_bias, opt.seed);
    n_ = graph.num_vertices;
    bingo::util::Rng rng(opt.seed ^ 0x5bd1e995u);
    bingo::graph::UpdateWorkloadParams params;
    params.kind = bingo::graph::UpdateKind::kMixed;
    params.batch_size = kBatch;
    params.num_batches = kRounds;
    bingo::graph::UpdateWorkload workload =
        bingo::graph::BuildUpdateWorkload(graph.edges, params, rng);
    batches_ = bingo::graph::SplitIntoBatches(workload.updates, kBatch);
    const GraphInput initial{n_, std::move(workload.initial_edges)};
    model_ = std::make_unique<EdgeModel>(ModelOf(initial, kBatch * kRounds / 2));
    stream_model_ = std::make_unique<EdgeModel>(*model_);
    std::printf("ingest: %u vertices, %zu initial edges, %d rounds x %llu "
                "updates\n",
                n_, initial.edges.size(), kRounds,
                static_cast<unsigned long long>(kBatch));
    std::filesystem::remove_all(dir_);

    setup_s_ += MedianBuildSeconds(
        [&] { standalone_.reset(); },
        [&] { standalone_ = BuildStore(initial.edges, n_, &pool_); });
    if (opt.trace) {
      TraceBareApplies(initial);
    }
    const auto reset_service = [&] {
      service_.reset();
      std::filesystem::remove_all(dir_);
    };
    setup_s_ += MedianBuildSeconds(reset_service, [&] {
      service_ = std::make_unique<WalkService>(
          [&] { return BuildStore(initial.edges, n_, &pool_); }, &pool_);
      Span span("walk.service.attach_wal");
      report_.Check(service_->AttachWal(dir_).ok, "attach WAL");
    });

    walk_.num_walkers = n_ / 10;
    walk_.walk_length = kWalkLength;
    walk_.record_paths = true;
    rules_.num_walkers = walk_.num_walkers;
    rules_.num_vertices = n_;
    rules_.walk_length = kWalkLength;
  }

  double setup_s() const override { return setup_s_; }

  void Round(int round) override {
    const double round_start = Now();
    const UpdateList& batch = batches_[static_cast<std::size_t>(round)];
    for (const bingo::graph::Update& u : batch) {
      model_->Apply(u);
    }
    report_.Attempt();
    const double t0 = Now();
    bingo::core::BatchResult r;
    {
      Span span("walk.service.apply_batch", static_cast<uint64_t>(round));
      span.SetCount(static_cast<double>(batch.size()));
      r = service_->ApplyBatch(batch);
    }
    ingest_rates_.push_back(static_cast<double>(batch.size()) / (Now() - t0));
    if (!AllApplied(r, batch)) {
      report_.Fail();
    }
    report_.Check(ServiceDigest(*service_) == model_->Digest(),
                  "round " + std::to_string(round) +
                      ": service edge multiset equals the model");
    StreamSlice(round);
    walk_.seed = opt_.seed * 1000 + static_cast<uint64_t>(round);
    int rep = 0;
    do {
      report_.Attempt();
      const double w0 = Now();
      WalkResult result;
      {
        Span span("walk.service.deepwalk", static_cast<uint64_t>(round));
        result = service_->DeepWalk(walk_, &pool_);
        span.SetCount(static_cast<double>(result.total_steps));
      }
      walk_rates_.push_back(Msteps(result.total_steps, Now() - w0));
      if (rep == 0) {
        const PathCheck check = CheckPaths(result, rules_, *model_);
        report_.Check(check.ok(), "round " + std::to_string(round) +
                                      ": deepwalk paths follow model edges (" +
                                      check.first_error + ")");
      }
      ++rep;
    } while (Now() - round_start < round_seconds_);
    if (round + 1 == kCheckpointAfterRound) {
      Span span("core.snapshot.checkpoint");
      report_.Check(service_->Checkpoint(true).ok, "compacting checkpoint");
    }
  }

  void Finish() override {
    report_.Check(DigestOf(standalone_->Graph()) == stream_model_->Digest(),
                  "streaming round: store edge multiset equals the model");
    report_.Check(standalone_->CheckInvariants().empty(),
                  "streaming round: store invariants");
    standalone_.reset();
    report_.Check(service_->CheckInvariants().empty(), "service invariants");
    if (opt_.trace) {
      const double service_apply_s = MeanSpan("walk.service.apply_batch");
      report_.Layer("walk.service.apply_batch_s", "s", service_apply_s);
      report_.Layer("walk.service.overhead_s", "s",
                    service_apply_s - 2.0 * store_apply_s_ - wal_append_s_);
      report_.Layer("core.store.stream_update_ns", "ns",
                    stream_seconds_ * 1e9 / static_cast<double>(batches_[0].size()));
    }
    CrashAndRecover();
    std::filesystem::remove_all(dir_);

    report_.EndToEnd("updated_walk_msteps_per_s", "Msteps/s", Median(walk_rates_));
    report_.EndToEnd("ingest_updates_per_s", "updates/s", Median(ingest_rates_));
    report_.EndToEnd("stream_updates_per_s", "updates/s", Median(stream_rates_));
    PrintSamples("ingest stream updates/s", stream_rates_);
    PrintSamples("ingest service ApplyBatch updates/s", ingest_rates_);
    std::printf("ingest: %zu deepwalks\n", walk_rates_.size());
  }

 private:
  // Round `round`'s tenth of round 0's updates, one at a time, on the
  // standalone store.
  void StreamSlice(int round) {
    const UpdateList& all = batches_[0];
    const std::size_t slice = all.size() / kRounds;
    const std::size_t begin = static_cast<std::size_t>(round) * slice;
    const std::size_t end = round + 1 == kRounds ? all.size() : begin + slice;
    const UpdateList part(all.begin() + static_cast<std::ptrdiff_t>(begin),
                          all.begin() + static_cast<std::ptrdiff_t>(end));
    for (const bingo::graph::Update& u : part) {
      stream_model_->Apply(u);
    }
    report_.Attempt(part.size());
    const double t0 = Now();
    bingo::core::BatchResult r;
    {
      Span span("core.store.stream_updates");
      r = standalone_->ApplyUpdatesStreaming(part);
      span.SetCount(static_cast<double>(part.size()));
    }
    const double dt = Now() - t0;
    stream_seconds_ += dt;
    stream_rates_.push_back(static_cast<double>(part.size()) / dt);
    if (!AllApplied(r, part)) {
      report_.Fail(part.size() - r.inserted - r.deleted);
    }
  }

  // Traced run only: the same batches on one bare replica and on a bare
  // WAL writer, so the service's apply can be split into its parts.
  void TraceBareApplies(const GraphInput& initial) {
    std::unique_ptr<BingoStore> replica = BuildStore(initial.edges, n_, &pool_);
    const std::string wal_path = opt_.data_dir + "/ingest-bare.wal";
    auto wal = bingo::core::WalWriter::Create(wal_path, 0);
    report_.Check(wal != nullptr, "create bare WAL");
    uint64_t updates = 0;
    for (const UpdateList& batch : batches_) {
      {
        Span span("core.store.apply_batch");
        span.SetCount(static_cast<double>(batch.size()));
        replica->ApplyBatch(batch, &pool_);
      }
      if (wal != nullptr) {
        Span span("core.wal.append");
        span.SetCount(static_cast<double>(batch.size()));
        report_.Check(wal->Append(batch), "bare WAL append");
      }
      updates += batch.size();
    }
    store_apply_s_ = MeanSpan("core.store.apply_batch");
    wal_append_s_ = MeanSpan("core.wal.append");
    report_.Layer("core.store.apply_batch_s", "s", store_apply_s_);
    report_.Layer("core.wal.append_s", "s", wal_append_s_);
    report_.Layer("core.wal.bytes_per_update", "B",
                  wal != nullptr ? static_cast<double>(wal->BytesWritten()) /
                                       static_cast<double>(updates)
                                 : 0.0);
    wal.reset();
    std::filesystem::remove(wal_path);
  }

  // Drops the service without a checkpoint and recovers it kRecoveries
  // times; recovery_s is the median from the recover call until the first
  // query returns.
  void CrashAndRecover() {
    WalkConfig probe = walk_;
    probe.seed = opt_.seed * 1000 + 999;
    const uint64_t before_fp = Fingerprint(service_->DeepWalk(probe, &pool_));
    service_.reset();
    if (opt_.trace) {
      report_.Layer("core.snapshot.base_mib", "MiB",
                    MiB(static_cast<double>(FileBytes(dir_ + "/base.snapshot"))));
      double t0 = Now();
      bingo::graph::WeightedEdgeList base;
      {
        Span span("core.snapshot.load");
        report_.Check(bingo::core::LoadSnapshotEdges(dir_ + "/base.snapshot", base),
                      "load base snapshot");
      }
      report_.Layer("core.snapshot.load_s", "s", Now() - t0);
      base = {};
      uint64_t replayed = 0;
      t0 = Now();
      {
        Span span("core.wal.replay");
        bingo::core::ReplayWal(dir_ + "/wal.log", 0,
                               [&](uint64_t, const UpdateList& b) {
                                 replayed += b.size();
                               });
        span.SetCount(static_cast<double>(replayed));
      }
      report_.Layer("core.wal.replay_s", "s", Now() - t0);
      report_.Layer("core.snapshot.checkpoint_s", "s",
                    MedianSpan("core.snapshot.checkpoint"));
    }
    bingo::walk::RecoveryReport recovery;
    std::unique_ptr<WalkService> recovered;
    std::vector<double> times;
    for (int rep = 0; rep < kRecoveries; ++rep) {
      recovered.reset();
      report_.Attempt();
      const double r0 = Now();
      uint64_t after_fp = 0;
      {
        Span span("walk.service.recover");
        recovered = bingo::walk::RecoverWalkService(dir_, {}, n_, &pool_, &pool_, {},
                                                    &recovery);
        if (recovered != nullptr) {
          after_fp = Fingerprint(recovered->DeepWalk(probe, &pool_));
        }
      }
      times.push_back(Now() - r0);
      if (!report_.Check(recovered != nullptr && recovery.ok, "recover the service")) {
        report_.Fail();
        return;
      }
      report_.Check(after_fp == before_fp,
                    "recovered deepwalk bit-identical to the one before the crash");
    }
    report_.EndToEnd("recovery_s", "s", Median(times));
    PrintSamples("ingest recovery s", times);
    std::printf("ingest: %llu WAL records replayed\n",
                static_cast<unsigned long long>(recovery.wal_records_replayed));
    report_.Check(ServiceDigest(*recovered) == model_->Digest(),
                  "recovered service edge multiset equals the model");
    report_.Check(recovered->CheckInvariants().empty(), "recovered service invariants");
    recovered->Query([&](const BingoStore& s) {
      FirstStepTest(s, *model_, opt_.seed, &pool_, report_, "ingest");
      return 0;
    });
  }

  const Options& opt_;
  Report& report_;
  const double round_seconds_;
  bingo::util::ThreadPool pool_;
  const std::string dir_;
  VertexId n_ = 0;
  std::vector<UpdateList> batches_;
  std::unique_ptr<EdgeModel> model_;         // the service's edges
  std::unique_ptr<EdgeModel> stream_model_;  // the standalone store's edges
  double setup_s_ = 0.0;
  std::unique_ptr<BingoStore> standalone_;
  std::unique_ptr<WalkService> service_;
  WalkConfig walk_;
  PathRules rules_;
  double store_apply_s_ = 0.0;
  double wal_append_s_ = 0.0;
  double stream_seconds_ = 0.0;
  std::vector<double> ingest_rates_;
  std::vector<double> walk_rates_;
  std::vector<double> stream_rates_;
};

}  // namespace

std::unique_ptr<Section> MakeIngestSection(const Options& options, double seconds,
                                           Report& report) {
  return std::make_unique<IngestSection>(options, seconds, report);
}

}  // namespace bingobench
