// Incremental walk-corpus maintenance on top of Bingo.
//
// The paper positions Bingo as orthogonal to systems like Wharf and FIRM
// (§7.2): those systems track which previously-computed walks a graph
// update invalidates, then rebuild each stale walk's sampling space from
// scratch — the step Bingo replaces with O(K) updates and O(1) resampling
// ("once the calculated random walks are identified, Bingo can help them
// rapidly update the random walks").
//
// This module implements the walk-maintenance half so the combination is
// usable end to end: it keeps a corpus of first-order walks, finds the
// walks affected by an update batch through a vertex -> walks index, and
// resamples each affected walk from its first visit to an updated vertex.
// WalkIndexServiceT (src/walk/index_service.h) mounts a corpus on a live
// WalkService/ShardedWalkService and serves queries from it.
//
// Affected-walk semantics: an update with source vertex u changes u's
// transition distribution (insertions, deletions, and bias updates all do),
// so every walk that visits u must be resampled from its first visit to u.
// Transitions before that position are untouched: their source vertices'
// distributions did not change, and edges out of untouched vertices cannot
// have been deleted.
//
// The index may contain stale entries (a repaired walk's old suffix);
// candidates are verified against the actual walk before repair, and the
// index is rebuilt once the stale fraction crosses a threshold. The index
// (and the visit-count table) grow whenever the store's vertex set grows —
// an update batch may introduce brand-new vertex ids, and repaired walks
// must index through them, not skip (or overflow) them.
//
// Determinism: walk w's content depends only on (seed, repair history of w)
// — generation draws from ForStream(seed, w) and each repair in epoch e
// draws from ForStream(seed ^ (e << 32), w). Repairs therefore parallelize
// per walk with no cross-walk RNG coupling: resampling fans out over the
// executor while index/counter bookkeeping stays serial, so the corpus is
// bit-identical across thread counts.
//
// Reads (Generate / RepairAfterUpdates / CheckWalksValid) are generic over
// any sampling view — a concrete store or a service snapshot; the class's
// Store parameter only pins the legacy ApplyUpdates(Store&) entry point.
// `IncrementalWalkCorpus` aliases the BingoStore instantiation.

#ifndef BINGO_SRC_WALK_INCREMENTAL_H_
#define BINGO_SRC_WALK_INCREMENTAL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/types.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/walk/store.h"

namespace bingo::core {
class BingoStore;
}  // namespace bingo::core

namespace bingo::walk {

// On-disk metadata of a corpus checkpoint. `wal_seq` fences the file
// against the service WAL: the corpus reflects every update with seq <=
// wal_seq and none after, so recovery replays repairs for (wal_seq, tip].
struct WalkCorpusMeta {
  uint64_t wal_seq = 0;
  uint64_t repair_epoch = 0;
  uint64_t seed = 0;
  uint64_t num_walks = 0;
  uint32_t walk_length = 0;
};

// Versioned + CRC'd corpus checkpoint (AtomicFileWriter temp+rename, header
// and payload checksummed, counts validated against file size before any
// allocation). Implemented in incremental.cc.
bool SaveWalkCorpusFile(const std::string& path, const WalkCorpusMeta& meta,
                        const std::vector<std::vector<graph::VertexId>>& walks,
                        uint64_t* bytes_written = nullptr,
                        std::string* error = nullptr);
bool LoadWalkCorpusFile(const std::string& path, WalkCorpusMeta* meta,
                        std::vector<std::vector<graph::VertexId>>* walks,
                        std::string* error = nullptr);

template <typename Store>
class IncrementalWalkCorpusT {
 public:
  struct Config {
    uint64_t num_walks = 0;     // 0 = one per vertex
    uint32_t walk_length = 80;  // maximum steps per walk
    uint64_t seed = 42;
    // Rebuild the vertex->walks index when stale entries exceed this
    // fraction of live ones.
    double index_rebuild_threshold = 1.0;
  };

  struct RepairStats {
    uint64_t updates_applied = 0;
    uint64_t candidate_walks = 0;  // index hits (may include stale entries)
    uint64_t walks_repaired = 0;
    uint64_t steps_resampled = 0;
    bool index_rebuilt = false;
  };

  IncrementalWalkCorpusT(graph::VertexId num_vertices, Config config);

  template <typename View>
    requires requires(const View& v) { v.NumVertices(); }
  IncrementalWalkCorpusT(const View& view, Config config)
      : IncrementalWalkCorpusT(
            static_cast<graph::VertexId>(view.NumVertices()), config) {}

  // (Re)generates every walk from the view's current state and rebuilds
  // the index and visit counts.
  template <typename View>
  void Generate(const View& view, util::ThreadPool* pool = nullptr);

  // Applies `updates` to the store (batched, §5.2), then repairs every walk
  // that visits an updated source vertex.
  RepairStats ApplyUpdates(Store& store, const graph::UpdateList& updates,
                           util::ThreadPool* pool = nullptr);

  // Repair half of ApplyUpdates, for callers whose store mutates through a
  // service: `view` must already reflect `updates` (e.g. a post-ApplyBatch
  // snapshot). Resampling parallelizes per walk on `pool`; output is
  // bit-identical to the serial order.
  template <typename View>
  RepairStats RepairAfterUpdates(const View& view,
                                 const graph::UpdateList& updates,
                                 util::ThreadPool* pool = nullptr);

  uint64_t NumWalks() const { return walks_.size(); }
  const std::vector<graph::VertexId>& Walk(uint64_t w) const { return walks_[w]; }

  // Sum of (len - 1) over all walks: the corpus's transition count.
  uint64_t TotalSteps() const;

  // Visits per vertex across all walk positions (maintained incrementally
  // under repairs). Normalizing gives the corpus's PPR-style score vector.
  const std::vector<uint64_t>& VisitCounts() const { return visit_counts_; }
  uint64_t TotalVisits() const { return total_visits_; }

  // Verifies that every transition of every walk is a live edge of the
  // view's graph. Returns the first violation or empty.
  template <typename View>
  std::string CheckWalksValid(const View& view) const;

  std::size_t MemoryBytes() const;

  const Config& config() const { return config_; }
  uint64_t live_index_entries() const { return live_index_entries_; }
  uint64_t stale_index_entries() const { return stale_index_entries_; }
  uint64_t repair_epoch() const { return repair_epoch_; }

  // Writes the corpus checkpoint, fencing it at `wal_seq`.
  bool SaveTo(const std::string& path, uint64_t wal_seq,
              uint64_t* bytes_written = nullptr,
              std::string* error = nullptr) const;

  // Restores walks + repair epoch from a checkpoint whose config matches
  // (seed / walk_length / num_walks), rebuilding the index and visit
  // counts. Returns the checkpoint's wal_seq fence, or nullopt on any
  // mismatch or corruption (corpus untouched in that case).
  std::optional<uint64_t> LoadFrom(const std::string& path,
                                   std::string* error = nullptr);

  // LoadFrom's adoption half for callers that already parsed a checkpoint:
  // verifies `meta` against the config, then installs the walks and rebuilds
  // the derived tables. Returns the wal_seq fence, nullopt on mismatch.
  std::optional<uint64_t> Restore(
      const WalkCorpusMeta& meta,
      std::vector<std::vector<graph::VertexId>>&& walks);

 private:
  template <typename View>
  void ExtendWalk(const View& view, uint64_t walk_id,
                  std::size_t from_position, util::Rng& rng);
  void IndexWalkSuffix(uint64_t walk_id, std::size_t from_position,
                       graph::VertexId skip_vertex = graph::kInvalidVertex);
  void RebuildIndex();
  void RebuildVisitCounts();
  // Grows the vertex-indexed tables; no-op when already large enough.
  void EnsureVertexCapacity(std::size_t num_vertices);

  Config config_;
  std::vector<std::vector<graph::VertexId>> walks_;
  // vertex -> walk ids that visited it (append-only between rebuilds, so it
  // can contain stale or duplicate entries; consumers verify).
  std::vector<std::vector<uint32_t>> index_;
  std::vector<uint64_t> visit_counts_;
  uint64_t total_visits_ = 0;
  uint64_t live_index_entries_ = 0;
  uint64_t stale_index_entries_ = 0;
  uint64_t repair_epoch_ = 0;
};

using IncrementalWalkCorpus = IncrementalWalkCorpusT<core::BingoStore>;

// The BingoStore instantiation is compiled once in incremental.cc.
extern template class IncrementalWalkCorpusT<core::BingoStore>;

// ------------------------------------------------------- implementations --

template <typename Store>
IncrementalWalkCorpusT<Store>::IncrementalWalkCorpusT(
    graph::VertexId num_vertices, Config config)
    : config_(config) {
  if (config_.num_walks == 0) {
    config_.num_walks = num_vertices;
  }
  walks_.resize(config_.num_walks);
  index_.resize(num_vertices);
  visit_counts_.resize(num_vertices, 0);
}

template <typename Store>
void IncrementalWalkCorpusT<Store>::EnsureVertexCapacity(
    std::size_t num_vertices) {
  if (num_vertices > index_.size()) {
    index_.resize(num_vertices);
  }
  if (num_vertices > visit_counts_.size()) {
    visit_counts_.resize(num_vertices, 0);
  }
}

template <typename Store>
template <typename View>
void IncrementalWalkCorpusT<Store>::ExtendWalk(const View& view,
                                               uint64_t walk_id,
                                               std::size_t from_position,
                                               util::Rng& rng) {
  std::vector<graph::VertexId>& walk = walks_[walk_id];
  walk.resize(from_position + 1);
  graph::VertexId cur = walk[from_position];
  while (walk.size() <= config_.walk_length) {
    const graph::VertexId next = view.SampleNeighbor(cur, rng);
    if (next == graph::kInvalidVertex) {
      break;
    }
    walk.push_back(next);
    cur = next;
  }
}

template <typename Store>
void IncrementalWalkCorpusT<Store>::IndexWalkSuffix(
    uint64_t walk_id, std::size_t from_position, graph::VertexId skip_vertex) {
  const std::vector<graph::VertexId>& walk = walks_[walk_id];
  // Index each visited vertex once per walk (consecutive duplicates and
  // revisits add no information for the affected-walk query). A repair
  // passes its pivot as `skip_vertex`: the pivot's original entry is still
  // live, so re-appending it would only inflate the bucket.
  for (std::size_t i = from_position; i < walk.size(); ++i) {
    const graph::VertexId v = walk[i];
    if (v == skip_vertex) {
      continue;
    }
    if (v >= index_.size()) {
      // The walk stepped into a vertex the tables have not seen yet (an
      // update batch can both create the vertex and route walks into it).
      EnsureVertexCapacity(static_cast<std::size_t>(v) + 1);
    }
    auto& bucket = index_[v];
    if (bucket.empty() || bucket.back() != static_cast<uint32_t>(walk_id)) {
      bucket.push_back(static_cast<uint32_t>(walk_id));
      ++live_index_entries_;
    }
  }
}

template <typename Store>
void IncrementalWalkCorpusT<Store>::RebuildIndex() {
  for (auto& bucket : index_) {
    bucket.clear();
  }
  live_index_entries_ = 0;
  stale_index_entries_ = 0;
  for (uint64_t w = 0; w < walks_.size(); ++w) {
    IndexWalkSuffix(w, 0);
  }
}

template <typename Store>
void IncrementalWalkCorpusT<Store>::RebuildVisitCounts() {
  std::fill(visit_counts_.begin(), visit_counts_.end(), 0);
  total_visits_ = 0;
  for (const auto& walk : walks_) {
    for (const graph::VertexId v : walk) {
      if (v >= visit_counts_.size()) {
        EnsureVertexCapacity(static_cast<std::size_t>(v) + 1);
      }
      ++visit_counts_[v];
      ++total_visits_;
    }
  }
}

template <typename Store>
template <typename View>
void IncrementalWalkCorpusT<Store>::Generate(const View& view,
                                             util::ThreadPool* pool) {
  const graph::VertexId n = view.NumVertices();
  EnsureVertexCapacity(n);
  if (n == 0) {  // no start vertices: every walk is empty
    for (auto& walk : walks_) {
      walk.clear();
    }
    RebuildIndex();
    RebuildVisitCounts();
    return;
  }
  const auto run_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t w = lo; w < hi; ++w) {
      util::Rng rng = util::Rng::ForStream(config_.seed, w);  // bingo-lint: allow(walker-stream) -- corpus generation streams are part of the checkpointed corpus format
      walks_[w].clear();
      walks_[w].push_back(static_cast<graph::VertexId>(w % n));
      ExtendWalk(view, w, 0, rng);
    }
  };
  if (pool != nullptr) {
    pool->ParallelForChunked(0, walks_.size(), run_range, 256);
  } else {
    run_range(0, walks_.size());
  }
  RebuildIndex();
  RebuildVisitCounts();
}

template <typename Store>
typename IncrementalWalkCorpusT<Store>::RepairStats
IncrementalWalkCorpusT<Store>::ApplyUpdates(Store& store,
                                            const graph::UpdateList& updates,
                                            util::ThreadPool* pool) {
  // 1. Ingest the batch (O(K) per touched group, one rebuild per vertex).
  store.ApplyBatch(updates, pool);
  // 2..5. Repair against the mutated store.
  return RepairAfterUpdates(store, updates, pool);
}

template <typename Store>
template <typename View>
typename IncrementalWalkCorpusT<Store>::RepairStats
IncrementalWalkCorpusT<Store>::RepairAfterUpdates(
    const View& view, const graph::UpdateList& updates,
    util::ThreadPool* pool) {
  RepairStats stats;
  stats.updates_applied = updates.size();
  ++repair_epoch_;

  // The batch may have grown the vertex set (edges to brand-new ids);
  // size the index and visit table before any unchecked suffix write.
  EnsureVertexCapacity(view.NumVertices());

  // Updated source vertices = the distributions that changed. Kept as a
  // sorted+uniqued vector (not a hash set): candidate discovery and the
  // pivot scan below iterate it, and walk output must never depend on
  // hash order (bingo_lint rule unordered-iteration).
  std::vector<graph::VertexId> touched;
  touched.reserve(updates.size());
  for (const graph::Update& u : updates) {
    if (u.kind == graph::Update::Kind::kAdvanceTime) {
      // A horizonless decay tick rescales every edge of a vertex by the
      // same factor, so no per-vertex distribution changes — no repairs.
      // (Its src is kInvalidVertex, not a real touched vertex.)
      continue;
    }
    touched.push_back(u.src);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Candidate walks from the index; dedup across touched vertices.
  std::vector<uint32_t> candidates;
  for (const graph::VertexId v : touched) {
    if (v < index_.size()) {
      candidates.insert(candidates.end(), index_[v].begin(),
                        index_[v].end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  stats.candidate_walks = candidates.size();

  // Verify candidates and account for the suffixes about to be replaced
  // (serial: shared counters). A candidate whose recorded visit was
  // repaired away is a stale index hit and is skipped. The pivot
  // walk[first] keeps both its position and its index entry — only the
  // entries the old suffix contributed beyond it go stale.
  struct RepairTask {
    uint32_t walk;
    uint32_t first;
  };
  std::vector<RepairTask> tasks;
  tasks.reserve(candidates.size());
  const std::vector<uint32_t>& to_repair = candidates;  // already sorted
  std::vector<graph::VertexId> old_suffix;  // scratch, reused per walk
  for (const uint32_t w : to_repair) {
    std::vector<graph::VertexId>& walk = walks_[w];
    std::size_t first = walk.size();
    for (std::size_t p = 0; p < walk.size(); ++p) {
      if (std::binary_search(touched.begin(), touched.end(), walk[p])) {
        first = p;
        break;
      }
    }
    if (first == walk.size()) {
      continue;  // stale index entry
    }
    const graph::VertexId pivot = walk[first];
    old_suffix.clear();
    for (std::size_t i = first + 1; i < walk.size(); ++i) {
      --visit_counts_[walk[i]];
      --total_visits_;
      if (walk[i] != pivot) {
        old_suffix.push_back(walk[i]);
      }
    }
    std::sort(old_suffix.begin(), old_suffix.end());
    stale_index_entries_ += static_cast<uint64_t>(
        std::unique(old_suffix.begin(), old_suffix.end()) -
        old_suffix.begin());
    tasks.push_back({w, static_cast<uint32_t>(first)});
  }

  // Resample the affected suffixes in parallel: each task owns its walk and
  // its own ForStream(seed ^ epoch, walk) stream, so thread count and steal
  // order cannot change the output.
  const auto resample = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      util::Rng rng = util::Rng::ForStream(  // bingo-lint: allow(walker-stream) -- repair epochs resample suffixes from their own streams
          config_.seed ^ (repair_epoch_ << 32), tasks[i].walk);
      ExtendWalk(view, tasks[i].walk, tasks[i].first, rng);
    }
  };
  if (pool != nullptr && tasks.size() > 1) {
    pool->ParallelForChunked(0, tasks.size(), resample, 16);
  } else {
    resample(0, tasks.size());
  }

  // Serial bookkeeping over the new suffixes.
  for (const RepairTask& t : tasks) {
    const std::vector<graph::VertexId>& walk = walks_[t.walk];
    stats.steps_resampled += walk.size() - t.first - 1;
    for (std::size_t i = t.first + 1; i < walk.size(); ++i) {
      const graph::VertexId v = walk[i];
      if (v >= visit_counts_.size()) {
        EnsureVertexCapacity(static_cast<std::size_t>(v) + 1);
      }
      ++visit_counts_[v];
      ++total_visits_;
    }
    IndexWalkSuffix(t.walk, t.first + 1, /*skip_vertex=*/walk[t.first]);
  }
  stats.walks_repaired = tasks.size();

  // Compact the index once stale entries dominate.
  if (live_index_entries_ > 0 &&
      static_cast<double>(stale_index_entries_) >
          config_.index_rebuild_threshold *
              static_cast<double>(live_index_entries_)) {
    RebuildIndex();
    stats.index_rebuilt = true;
  }
  return stats;
}

template <typename Store>
uint64_t IncrementalWalkCorpusT<Store>::TotalSteps() const {
  uint64_t steps = 0;
  for (const auto& walk : walks_) {
    steps += walk.empty() ? 0 : walk.size() - 1;
  }
  return steps;
}

template <typename Store>
template <typename View>
std::string IncrementalWalkCorpusT<Store>::CheckWalksValid(
    const View& view) const {
  for (uint64_t w = 0; w < walks_.size(); ++w) {
    const auto& walk = walks_[w];
    for (std::size_t i = 1; i < walk.size(); ++i) {
      if (!view.HasEdge(walk[i - 1], walk[i])) {
        return "walk " + std::to_string(w) + " transition " +
               std::to_string(walk[i - 1]) + "->" + std::to_string(walk[i]) +
               " is not a live edge";
      }
    }
  }
  return {};
}

template <typename Store>
std::size_t IncrementalWalkCorpusT<Store>::MemoryBytes() const {
  std::size_t total = walks_.capacity() * sizeof(walks_[0]) +
                      index_.capacity() * sizeof(index_[0]) +
                      visit_counts_.capacity() * sizeof(uint64_t);
  for (const auto& walk : walks_) {
    total += walk.capacity() * sizeof(graph::VertexId);
  }
  for (const auto& bucket : index_) {
    total += bucket.capacity() * sizeof(uint32_t);
  }
  return total;
}

template <typename Store>
bool IncrementalWalkCorpusT<Store>::SaveTo(const std::string& path,
                                           uint64_t wal_seq,
                                           uint64_t* bytes_written,
                                           std::string* error) const {
  WalkCorpusMeta meta;
  meta.wal_seq = wal_seq;
  meta.repair_epoch = repair_epoch_;
  meta.seed = config_.seed;
  meta.num_walks = walks_.size();
  meta.walk_length = config_.walk_length;
  return SaveWalkCorpusFile(path, meta, walks_, bytes_written, error);
}

template <typename Store>
std::optional<uint64_t> IncrementalWalkCorpusT<Store>::LoadFrom(
    const std::string& path, std::string* error) {
  WalkCorpusMeta meta;
  std::vector<std::vector<graph::VertexId>> walks;
  if (!LoadWalkCorpusFile(path, &meta, &walks, error)) {
    return std::nullopt;
  }
  const auto fence = Restore(meta, std::move(walks));
  if (!fence.has_value() && error != nullptr) {
    *error = "corpus checkpoint config mismatch";
  }
  return fence;
}

template <typename Store>
std::optional<uint64_t> IncrementalWalkCorpusT<Store>::Restore(
    const WalkCorpusMeta& meta,
    std::vector<std::vector<graph::VertexId>>&& walks) {
  if (meta.seed != config_.seed || meta.walk_length != config_.walk_length ||
      meta.num_walks != walks_.size() || meta.num_walks != walks.size()) {
    return std::nullopt;
  }
  walks_ = std::move(walks);
  repair_epoch_ = meta.repair_epoch;
  RebuildIndex();
  RebuildVisitCounts();
  return meta.wal_seq;
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_INCREMENTAL_H_
