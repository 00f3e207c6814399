// serve section: writes beside reads on a 2-shard ShardedWalkService behind
// an UpdateBatcher and a QueryBatcher.
//
// The serving window is cut into kRounds slices, one per round; each slice
// ends with both batchers flushed, and the service idles between slices
// while the other sections run. In each slice the generator thread offers
// two independent open-loop Poisson streams at fixed rates well below what
// the service sustains: single-edge updates
// (the §6.1 mixed insert/delete protocol, submitted one at a time) and
// short queries from random sources (PPR, with a smaller share of
// DeepWalk). Queries are timed from their scheduled arrival to the moment
// the generator sees the result; updates from Submit to the batcher's
// on_batch_applied callback for the batch that carried them. The fused
// pass, both batchers and snapshot publishing do the work here.
//
// Threads: the generator, the query dispatcher (fused passes run on it),
// and one batcher writer thread; the batcher's flusher wakes every 1 ms.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "bingobench/src/inputs.h"
#include "bingobench/src/workloads.h"
#include "src/graph/update_stream.h"
#include "src/util/rng.h"
#include "src/walk/batcher.h"
#include "src/walk/query_batcher.h"
#include "src/walk/sharded_service.h"

namespace bingobench {

namespace {

constexpr int kScale = 16;
constexpr uint64_t kPairs = 300'000;  // symmetrized: ~0.57M directed edges
constexpr int kShards = 2;
// One batcher writer drains both shards: with the generator and the query
// dispatcher that keeps three threads busy and one core free, so the
// writer's reader-drain spinning does not crowd out the threads being timed.
constexpr std::size_t kWriterThreads = 1;
constexpr double kUpdateRate = 2000.0;  // updates per second
constexpr double kQueryRate = 300.0;    // queries per second
constexpr double kDeepWalkShare = 0.2;  // of queries; the rest are PPR
constexpr uint64_t kPprWalkers = 64;
constexpr double kPprStop = 1.0 / 20.0;
constexpr uint32_t kPprMaxLength = 20;  // PPR caps walks at 16x this
constexpr uint64_t kDeepWalkWalkers = 16;
constexpr uint32_t kDeepWalkLength = 40;

using bingo::graph::UpdateList;
using bingo::walk::ShardedWalkService;
using bingo::walk::WalkApp;
using bingo::walk::WalkQuery;
using bingo::walk::WalkResult;

// The QueryBatcher's view of the service: acquires the composite snapshot
// itself so it can time the acquire and the fused pass of every dispatch
// and check that each snapshot stayed consistent while it was read.
class Front {
 public:
  struct Dispatch {
    double start;     // dispatcher asked for a snapshot
    double acquired;  // snapshot held; fused passes start
    double end;       // every group of the dispatch answered
  };

  explicit Front(const ShardedWalkService& service) : service_(service) {}

  int ShardOf(VertexId v) const { return service_.ShardOf(v); }

  template <typename Fn>
  auto Query(Fn&& fn) {
    const double start = Now();
    const ShardedWalkService::Snapshot snap = service_.Acquire();
    const double acquired = Now();
    auto result = std::forward<Fn>(fn)(snap);
    const double end = Now();
    const bool consistent = snap.Consistent();
    Tracer::Get().Add("walk.service.acquire", start, acquired, 0, 1);
    Tracer::Get().Add("walk.fused.pass", acquired, end, 0, 1);
    std::lock_guard<std::mutex> lock(mutex_);
    dispatches_.push_back({start, acquired, end});
    inconsistent_ += consistent ? 0 : 1;
    return result;
  }

  std::vector<Dispatch> Dispatches() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dispatches_;
  }
  uint64_t Inconsistent() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return inconsistent_;
  }

 private:
  const ShardedWalkService& service_;
  mutable std::mutex mutex_;
  std::vector<Dispatch> dispatches_;
  uint64_t inconsistent_ = 0;
};

struct Event {
  double at;         // seconds after the serving window opens
  bool is_update;
  uint64_t index;    // into the update stream or the query list
};

double Ms(double seconds) { return seconds * 1e3; }

class ServeSection : public Section {
 public:
  ServeSection(const Options& opt, double seconds, Report& report)
      : opt_(opt), report_(report), window_(seconds) {
    const GraphInput graph =
        MakeRmatGraph(kScale, kPairs, true, opt.float_bias, opt.seed);
    n_ = graph.num_vertices;
    MakeInputs(graph);

    // The sharded service, built three times.
    std::vector<bingo::graph::WeightedEdgeList> per_shard(kShards);
    for (const bingo::graph::WeightedEdge& e : initial_.edges) {
      per_shard[e.src % kShards].push_back(e);
    }
    setup_s_ = MedianBuildSeconds([&] { service_.reset(); }, [&] {
      service_ = std::make_unique<ShardedWalkService>(kShards, [&](int shard) {
        return BuildStore(per_shard[shard], n_, nullptr);
      });
    });
    initial_ = {};

    submitted_at_.assign(updates_.size(), -1.0);
    visible_s_.assign(updates_.size(), -1.0);
    query_latency_.assign(queries_.size(), -1.0);
    query_submitted_.assign(queries_.size(), 0.0);
    results_.resize(queries_.size());
    late_.reserve(events_.size());
    bingo::walk::BatcherOptions batcher_options;
    batcher_options.writer_pool.num_threads = kWriterThreads;
    batcher_options.on_batch_applied = [this](int shard, const UpdateList& batch) {
      OnBatchApplied(shard, batch);
    };
    front_ = std::make_unique<Front>(*service_);
    batcher_ = std::make_unique<bingo::walk::UpdateBatcher>(*service_, batcher_options);
    query_batcher_ = std::make_unique<bingo::walk::QueryBatcherT<Front>>(*front_);
  }

  double setup_s() const override { return setup_s_; }

  // Offers the events of this round's slice of the window on schedule, then
  // waits for every query and flushes every update.
  void Round(int round) override {
    const double slice_start = window_ * round / kRounds;
    const double slice_end = window_ * (round + 1) / kRounds;
    const double open = Now() + 0.01 - slice_start;  // `at` is due at open + at
    for (; next_event_ < events_.size() && events_[next_event_].at < slice_end;
         ++next_event_) {
      const Event& e = events_[next_event_];
      const double due = open + e.at;
      for (double now = Now(); now < due; now = Now()) {
        Collect(false);
        if (due - now > 300e-6) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        } else {
          std::this_thread::yield();
        }
      }
      const double issued = Now();
      late_.push_back(issued - due);
      if (e.is_update) {
        {
          std::lock_guard<std::mutex> lock(callback_mutex_);
          submitted_at_[e.index] = issued;
        }
        batcher_->Submit(updates_[e.index]);
      } else {
        query_submitted_[e.index] = issued;
        pending_.push_back({e.index, due, query_batcher_->Submit(queries_[e.index])});
      }
      Collect(false);
    }
    Collect(true);
    query_batcher_->Flush();
    batcher_->Flush();
  }

  void Finish() override {
    const bingo::walk::BatcherStats batcher_stats = batcher_->Stats();
    const bingo::walk::QueryBatcherStats query_stats = query_batcher_->Stats();
    query_batcher_.reset();
    batcher_.reset();

    // ---- Accounting and checks. ----
    report_.Attempt(queries_.size() + num_updates_);
    report_.Fail(query_failures_ + batcher_stats.dropped_updates);
    report_.Check(batcher_stats.drain_errors == 0 && batcher_stats.dropped_updates == 0,
                  "update batcher: no drain errors, no dropped updates");
    report_.Check(batcher_stats.submitted == num_updates_ &&
                      batcher_stats.flushed_updates == num_updates_,
                  "update batcher: every submitted update applied");
    report_.Check(batcher_stats.applied.skipped_deletes == 0,
                  "update batcher: every delete found its edge");
    report_.Check(mismatched_ == 0, "update batcher: per-shard FIFO order kept");
    report_.Check(front_->Inconsistent() == 0, "every snapshot Consistent()");
    std::vector<double> visible;
    for (const Event& e : events_) {
      if (e.is_update) {
        visible.push_back(visible_s_[e.index]);
      }
    }
    report_.Check(std::all_of(visible.begin(), visible.end(),
                              [](double v) { return v >= 0.0; }),
                  "every update reported applied");
    std::vector<double> latency;
    PathCheck walks;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      if (query_latency_[i] < 0.0) {
        continue;
      }
      latency.push_back(query_latency_[i]);
      PathRules rules;
      rules.num_walkers = queries_[i].cfg.num_walkers;
      rules.num_vertices = n_;
      rules.start_vertex = queries_[i].cfg.start_vertex;
      rules.stop_anywhere = queries_[i].app == WalkApp::kPpr;
      rules.walk_length =
          rules.stop_anywhere
              ? bingo::walk::PprCappedWalkLength(queries_[i].cfg.walk_length)
              : queries_[i].cfg.walk_length;
      const PathCheck c = CheckPaths(
          results_[i], rules,
          [&](VertexId u, VertexId v) { return ever_->Has(u, v); },
          [&](VertexId v) { return may_die_[v] != 0; });
      walks.hops += c.hops;
      if (!c.ok()) {
        walks.Error("query " + std::to_string(i) + ": " + c.first_error);
      }
    }
    report_.Check(walks.ok(), "query paths follow edges (" + walks.first_error + ")");
    EdgeDigest digest;
    service_->Query([&](const ShardedWalkService::Snapshot& snap) {
      for (int s = 0; s < kShards; ++s) {
        digest += DigestOf(snap.shard_store(s).Graph());
      }
      return 0;
    });
    report_.Check(digest == model_->Digest(),
                  "after the final Flush: service edge multiset equals the model");
    report_.Check(service_->CheckInvariants().empty(), "sharded service invariants");
    bingo::util::ThreadPool check_pool(static_cast<std::size_t>(opt_.threads));
    service_->Query([&](const ShardedWalkService::Snapshot& snap) {
      FirstStepTest(snap, *model_, opt_.seed, &check_pool, report_, "serve");
      return 0;
    });

    report_.EndToEnd("query_p50_ms", "ms", Ms(Quantile(latency, 0.5)));
    report_.EndToEnd("update_visible_p50_ms", "ms", Ms(Quantile(visible, 0.5)));
    std::printf("serve: %zu queries (%llu dispatches), %zu updates "
                "(%llu batches), generator late p99 %.3f ms\n",
                latency.size(), static_cast<unsigned long long>(query_stats.dispatches),
                visible.size(), static_cast<unsigned long long>(batcher_stats.batches),
                Ms(Quantile(late_, 0.99)));
    if (opt_.trace) {
      LayerMetrics(batcher_stats, query_stats, latency, visible);
    }
    front_.reset();
    service_.reset();
  }

 private:
  struct Pending {
    uint64_t index;
    double due;
    std::future<WalkResult> future;
  };

  // The update stream, the arrival schedule and the query mix; the final
  // model, the "ever" model (initial edges plus every insert) and the
  // vertices a concurrent walk may legitimately find dead (no edges at the
  // start, or the source of some delete), which judge walks that raced
  // with updates.
  void MakeInputs(const GraphInput& graph) {
    const double expected_updates = kUpdateRate * window_;
    const auto stream_len = static_cast<uint64_t>(
        expected_updates + 10.0 * std::sqrt(expected_updates) + 100.0);
    bingo::util::Rng rng(opt_.seed ^ 0x2545f4914f6cdd1dull);
    bingo::graph::UpdateWorkloadParams params;
    params.kind = bingo::graph::UpdateKind::kMixed;
    params.batch_size = stream_len;
    params.num_batches = 1;
    bingo::graph::UpdateWorkload workload =
        bingo::graph::BuildUpdateWorkload(graph.edges, params, rng);
    updates_ = std::move(workload.updates);
    initial_ = {n_, std::move(workload.initial_edges)};
    model_ = std::make_unique<EdgeModel>(ModelOf(initial_, stream_len));

    std::vector<VertexId> sources;  // vertices with out-edges at the start
    for (VertexId v = 0; v < n_; ++v) {
      if (model_->OutDegree(v) > 0) {
        sources.push_back(v);
      }
    }
    const auto exp_gap = [&](double rate) {
      return -std::log(1.0 - rng.NextUnit()) / rate;
    };
    double next_update = exp_gap(kUpdateRate);
    double next_query = exp_gap(kQueryRate);
    uint64_t used_updates = 0;
    while (std::min(next_update, next_query) < window_) {
      if (next_update <= next_query) {
        if (used_updates < updates_.size()) {
          events_.push_back({next_update, true, used_updates++});
        }
        next_update += exp_gap(kUpdateRate);
      } else {
        WalkQuery q;
        q.cfg.seed = rng.Next();
        q.cfg.record_paths = true;
        q.cfg.start_vertex = sources[rng.NextBounded(sources.size())];
        if (rng.NextUnit() < kDeepWalkShare) {
          q.app = WalkApp::kDeepWalk;
          q.cfg.num_walkers = kDeepWalkWalkers;
          q.cfg.walk_length = kDeepWalkLength;
        } else {
          q.app = WalkApp::kPpr;
          q.cfg.num_walkers = kPprWalkers;
          q.cfg.walk_length = kPprMaxLength;
          q.stop_probability = kPprStop;
        }
        events_.push_back({next_query, false, queries_.size()});
        queries_.push_back(q);
        next_query += exp_gap(kQueryRate);
      }
    }

    ever_ = std::make_unique<EdgeModel>(*model_);
    may_die_.assign(n_, 0);
    for (VertexId v = 0; v < n_; ++v) {
      may_die_[v] = model_->OutDegree(v) == 0 ? 1 : 0;
    }
    shard_sequence_.resize(kShards);
    for (const Event& e : events_) {
      if (e.is_update) {
        const bingo::graph::Update& u = updates_[e.index];
        shard_sequence_[u.src % kShards].push_back(e.index);
        if (u.kind == bingo::graph::Update::Kind::kInsert) {
          ever_->Insert(u.src, u.dst, u.bias);
        } else {
          may_die_[u.src] = 1;
        }
        model_->Apply(u);
        ++num_updates_;
      }
    }
    std::printf("serve: %u vertices, %zu initial edges, %.0f s window: "
                "%llu updates at %.0f/s, %zu queries at %.0f/s\n",
                n_, initial_.edges.size(), window_,
                static_cast<unsigned long long>(num_updates_), kUpdateRate,
                queries_.size(), kQueryRate);
  }

  // The batcher's on_batch_applied: checks per-shard FIFO order and stamps
  // each update's visibility time.
  void OnBatchApplied(int shard, const UpdateList& batch) {
    const double now = Now();
    std::lock_guard<std::mutex> lock(callback_mutex_);
    std::size_t& cursor = shard_cursor_[static_cast<std::size_t>(shard)];
    const std::vector<uint64_t>& seq = shard_sequence_[static_cast<std::size_t>(shard)];
    for (std::size_t j = 0; j < batch.size(); ++j) {
      if (cursor + j >= seq.size()) {
        ++mismatched_;
        continue;
      }
      const uint64_t idx = seq[cursor + j];
      const bingo::graph::Update& want = updates_[idx];
      if (want.src != batch[j].src || want.dst != batch[j].dst ||
          want.kind != batch[j].kind) {
        ++mismatched_;
      }
      visible_s_[idx] = now - submitted_at_[idx];
    }
    if (opt_.trace) {
      // The batch's own apply time is the growth of the batcher's flush
      // total since the previous callback, when exactly one batch landed
      // in between (batches of the two shards can interleave).
      const bingo::walk::BatcherStats stats = batcher_->Stats();
      if (stats.batches == seen_batches_ + 1) {
        const double apply_s = stats.flush_seconds_total - seen_flush_total_;
        ++timed_batches_;
        for (std::size_t j = 0; j < batch.size() && cursor + j < seq.size(); ++j) {
          queue_wait_s_.push_back(now - apply_s - submitted_at_[seq[cursor + j]]);
        }
      }
      seen_batches_ = stats.batches;
      seen_flush_total_ = stats.flush_seconds_total;
    }
    cursor += batch.size();
  }

  // Takes the results of answered queries (with `wait`, of all of them).
  void Collect(bool wait) {
    for (std::size_t i = 0; i < pending_.size();) {
      Pending& p = pending_[i];
      if (!wait && p.future.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready) {
        ++i;
        continue;
      }
      try {
        results_[p.index] = p.future.get();
        query_latency_[p.index] = Now() - p.due;
        // Only the paths are checked; PPR's per-vertex visit counts are as
        // large as the graph, so they are released at once.
        std::vector<uint32_t>().swap(results_[p.index].visit_counts);
      } catch (const std::exception& e) {
        ++query_failures_;
        report_.Check(false, std::string("query failed: ") + e.what());
      }
      pending_[i] = std::move(pending_.back());
      pending_.pop_back();
    }
  }

  void LayerMetrics(const bingo::walk::BatcherStats& batcher_stats,
                    const bingo::walk::QueryBatcherStats& query_stats,
                    const std::vector<double>& latency,
                    const std::vector<double>& visible) {
    double batch_ns = 0.0;
    std::vector<VertexId> sources;
    for (const WalkQuery& q : queries_) {
      sources.push_back(q.cfg.start_vertex);
    }
    service_->Query([&](const ShardedWalkService::Snapshot& snap) {
      // SampleNeighborBatch: 16 lanes at the queries' sources, per-draw cost.
      constexpr std::size_t kLanes = 16;
      constexpr int kCalls = 200'000;
      std::vector<bingo::util::Rng> rngs;
      for (std::size_t i = 0; i < kLanes; ++i) {
        rngs.push_back(bingo::util::Rng::ForStream(opt_.seed, i));
      }
      std::vector<bingo::util::Rng*> lanes;
      for (auto& r : rngs) {
        lanes.push_back(&r);
      }
      std::vector<VertexId> out(kLanes);
      bingo::util::Rng pick(opt_.seed + 7);
      Span span("core.store.sample_batch");
      const double t0 = Now();
      for (int c = 0; c < kCalls; ++c) {
        snap.SampleNeighborBatch(sources[pick.NextBounded(sources.size())],
                                 lanes.data(), kLanes, out.data());
        sample_sink = out[0];
      }
      batch_ns = (Now() - t0) * 1e9 / (static_cast<double>(kCalls) * kLanes);
      span.SetCount(static_cast<double>(kCalls) * kLanes);
      return 0;
    });
    report_.Layer("core.store.sample_batch_ns", "ns", batch_ns);

    const std::vector<Front::Dispatch> dispatches = front_->Dispatches();
    std::vector<double> acquire_us;
    std::vector<double> pass_ms;
    std::vector<double> starts;
    for (const Front::Dispatch& d : dispatches) {
      acquire_us.push_back((d.acquired - d.start) * 1e6);
      pass_ms.push_back(Ms(d.end - d.acquired));
      starts.push_back(d.start);
    }
    // A query waits for the first dispatch that starts after its submit
    // (one dispatcher: dispatches never overlap).
    std::vector<double> dispatch_wait;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const auto it = std::lower_bound(starts.begin(), starts.end(),
                                       query_submitted_[i]);
      if (it != starts.end()) {
        dispatch_wait.push_back(Ms(*it - query_submitted_[i]));
      }
    }
    report_.Layer("walk.service.acquire_us", "us", Median(acquire_us));
    report_.Layer("walk.service.drain_spins", "count",
                  static_cast<double>(service_->Stats().drain_spins));
    report_.Layer("walk.batcher.updates_per_batch", "updates",
                  batcher_stats.CoalesceRatio());
    report_.Layer("walk.batcher.flush_s_mean", "s",
                  batcher_stats.flush_seconds_total /
                      static_cast<double>(std::max<uint64_t>(batcher_stats.batches, 1)));
    report_.Layer("walk.batcher.flush_s_max", "s", batcher_stats.flush_seconds_max);
    report_.Layer("walk.batcher.queue_wait_ms_p50", "ms",
                  Ms(Quantile(queue_wait_s_, 0.5)));
    report_.Layer("walk.batcher.queue_wait_ms_p99", "ms",
                  Ms(Quantile(queue_wait_s_, 0.99)));
    report_.Layer("walk.query_batcher.queries_per_dispatch", "queries",
                  query_stats.CoalesceRatio());
    report_.Layer("walk.query_batcher.dispatch_wait_ms_p50", "ms",
                  Quantile(dispatch_wait, 0.5));
    report_.Layer("walk.query_batcher.dispatch_wait_ms_p99", "ms",
                  Quantile(dispatch_wait, 0.99));
    report_.Layer("walk.fused.pass_ms_p50", "ms", Quantile(pass_ms, 0.5));
    report_.Layer("walk.fused.pass_ms_p99", "ms", Quantile(pass_ms, 0.99));
    report_.Layer("serve.generator_late_ms_p99", "ms", Ms(Quantile(late_, 0.99)));
    // The tails, unbounded: stalls of the virtual machine this benchmark
    // was tuned on (10-50 ms) land in the top percent and move the p99
    // by 30-100% between runs, so it cannot carry an end-to-end bound.
    report_.Layer("serve.query_p99_ms", "ms", Ms(Quantile(latency, 0.99)));
    report_.Layer("serve.update_visible_p99_ms", "ms", Ms(Quantile(visible, 0.99)));
    std::printf("serve trace: %llu of %llu batches timed individually\n",
                static_cast<unsigned long long>(timed_batches_),
                static_cast<unsigned long long>(batcher_stats.batches));
  }

  const Options& opt_;
  Report& report_;
  const double window_;
  VertexId n_ = 0;
  double setup_s_ = 0.0;

  UpdateList updates_;
  GraphInput initial_;
  std::unique_ptr<EdgeModel> model_;  // after every update of the window
  std::unique_ptr<EdgeModel> ever_;
  std::vector<uint8_t> may_die_;
  std::vector<std::vector<uint64_t>> shard_sequence_;
  uint64_t num_updates_ = 0;
  std::vector<Event> events_;
  std::vector<WalkQuery> queries_;
  std::size_t next_event_ = 0;

  std::unique_ptr<ShardedWalkService> service_;
  std::unique_ptr<Front> front_;
  std::unique_ptr<bingo::walk::UpdateBatcher> batcher_;
  std::unique_ptr<bingo::walk::QueryBatcherT<Front>> query_batcher_;

  // Guards the per-update stamps, read and written by the callback.
  std::mutex callback_mutex_;
  std::vector<double> submitted_at_;
  std::vector<double> visible_s_;
  std::vector<double> queue_wait_s_;
  std::vector<std::size_t> shard_cursor_ = std::vector<std::size_t>(kShards, 0);
  uint64_t timed_batches_ = 0;
  uint64_t mismatched_ = 0;
  uint64_t seen_batches_ = 0;
  double seen_flush_total_ = 0.0;

  std::vector<double> query_latency_;
  std::vector<double> query_submitted_;
  std::vector<WalkResult> results_;
  std::vector<double> late_;
  std::vector<Pending> pending_;
  uint64_t query_failures_ = 0;
};

}  // namespace

std::unique_ptr<Section> MakeServeSection(const Options& options, double seconds,
                                          Report& report) {
  return std::make_unique<ServeSection>(options, seconds, report);
}

}  // namespace bingobench
