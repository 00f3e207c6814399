// Per-vertex Bingo sampling structure (§4, §5.1).
//
// Holds the radix groups of one vertex plus the inter-group alias table and
// (for floating-point biases) the decimal group. Hierarchical sampling:
//   stage (i)  alias-sample a group (O(1));
//   stage (ii) uniform pick inside the group (O(1)), or rejection on the
//              adjacency array for dense groups, or decimal-group sampling.
// Streaming insert/delete cost O(K) — the radix decomposition touches one
// entry per set bit plus a K-entry alias rebuild.
//
// The sampler never owns adjacency data; every operation receives the
// source vertex's adjacency span (the graph is the single source of truth,
// and dense-group rejection reads biases straight from it).

#ifndef BINGO_SRC_CORE_VERTEX_SAMPLER_H_
#define BINGO_SRC_CORE_VERTEX_SAMPLER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/bias_pipeline.h"
#include "src/core/decimal_group.h"
#include "src/core/groups.h"
#include "src/core/radix.h"
#include "src/graph/types.h"
#include "src/sampling/alias_table.h"
#include "src/util/prefetch.h"
#include "src/util/rng.h"

namespace bingo::core {

// Counts group-kind conversions (Table 4). Shared across vertices; batched
// updates increment concurrently.
struct ConversionStats {
  // counts[from][to], indexed by GroupKind. kEmpty rows/cols count group
  // births and deaths.
  std::array<std::array<std::atomic<uint64_t>, 5>, 5> counts{};

  void Record(GroupKind from, GroupKind to) {
    counts[static_cast<int>(from)][static_cast<int>(to)].fetch_add(
        1, std::memory_order_relaxed);
  }
  uint64_t Get(GroupKind from, GroupKind to) const {
    return counts[static_cast<int>(from)][static_cast<int>(to)].load(
        std::memory_order_relaxed);
  }
};

struct BingoConfig {
  AdaptiveConfig adaptive;  // GA vs BS and the alpha/beta thresholds
  double lambda = 1.0;      // amortization factor (§4.3); 1.0 for integers
  DecimalGroup::Policy decimal_policy = DecimalGroup::Policy::kRejection;
  ConversionStats* conversion_stats = nullptr;  // optional, for Table 4
  // Composable bias pipeline (decay × type gate). Static configuration:
  // part of the snapshot config fingerprint.
  BiasPipeline pipeline;
  // Current logical epoch. Mutable temporal state, NOT fingerprinted: it
  // advances via graph::MakeAdvanceTime batches and round-trips through the
  // snapshot header on recovery.
  uint32_t logical_epoch = 0;
};

// Memory attribution for Fig 11.
struct VertexMemoryBreakdown {
  std::array<std::size_t, 5> group_bytes{};  // indexed by GroupKind
  std::size_t decimal_bytes = 0;
  std::size_t alias_bytes = 0;

  std::size_t Total() const {
    std::size_t t = decimal_bytes + alias_bytes;
    for (std::size_t b : group_bytes) {
      t += b;
    }
    return t;
  }
  VertexMemoryBreakdown& operator+=(const VertexMemoryBreakdown& other);
};

class VertexSampler {
 public:
  static constexpr uint32_t kNoNeighbor = 0xFFFFFFFFu;

  VertexSampler() = default;
  explicit VertexSampler(const BingoConfig* config) : config_(config) {}

  void SetConfig(const BingoConfig* config) { config_ = config; }

  // Rebuilds everything from scratch (initial load, O(d·K)).
  void Build(std::span<const graph::Edge> adj);

  // --- streaming path (§4.2): one edge at a time -------------------------

  // The edge at neighbor index `idx` was just appended to `adj`; splits its
  // bias into the groups. Call FinishUpdate afterwards.
  void InsertEdge(std::span<const graph::Edge> adj, uint32_t idx);

  // The edge at `idx` is about to be removed from the adjacency; withdraws
  // its sub-biases from the groups. Call with the *pre-removal* adjacency.
  void RemoveEdge(std::span<const graph::Edge> adj, uint32_t idx);

  // The adjacency swap-with-tail moved the edge with bias `moved_bias` from
  // neighbor index `from` to `to`; re-points its group entries.
  void RenameIndex(double moved_bias, uint32_t from, uint32_t to);

  // Reclassifies groups (GA mode, Eq 9) and rebuilds the inter-group alias
  // table. O(K) plus rare conversion rebuilds.
  void FinishUpdate(std::span<const graph::Edge> adj);

  // --- batched path (§5.2): many edges, one rebuild ----------------------

  // Removes all `idxs` (sorted, unique, all present) with per-group
  // two-phase delete-and-swap. Call with the pre-removal adjacency;
  // adjacency compaction + RenameIndex calls follow, then FinishUpdate.
  void RemoveEdgesBatch(std::span<const graph::Edge> adj,
                        std::span<const uint32_t> idxs);

  // --- sampling (§4.1) ----------------------------------------------------

  // Draws a neighbor index with probability bias_i / sum(bias). Returns
  // kNoNeighbor when the vertex has no weight (e.g. no out-edges). O(1).
  uint32_t SampleIndex(std::span<const graph::Edge> adj, util::Rng& rng) const;

  // Batched draws against this vertex: out[i] is exactly what
  // SampleIndex(adj, *rngs[i]) would return. Stage (i) resolves through the
  // SIMD alias kernel; dense-group rejection runs in rounds with the radix
  // bit tests lane-batched (SplitBiasIntBatch). Each walker's variates come
  // from its own stream in SampleIndex's order, so the result is
  // bit-identical to n sequential SampleIndex calls.
  void SampleIndexBatch(std::span<const graph::Edge> adj,
                        util::Rng* const* rngs, std::size_t n,
                        uint32_t* out) const;

  // Advisory prefetch of the tables SampleIndex reads after this record:
  // the slot-to-group map, the inter-group alias table and the head of the
  // group array. Reads only this (already cached) record.
  void PrefetchTables() const {
    if (alias_groups_.empty()) {
      return;
    }
    util::PrefetchRead(alias_groups_.data());
    if (alias_groups_.size() > 1) {
      util::PrefetchReadRange(alias_.Probs().data(),
                              alias_.Probs().size_bytes());
      util::PrefetchReadRange(alias_.Aliases().data(),
                              alias_.Aliases().size_bytes());
    }
    util::PrefetchReadRange(groups_.data(),
                            groups_.size() * sizeof(RadixGroup));
  }

  // --- introspection ------------------------------------------------------

  // Exact distribution the structure implies for each neighbor index
  // (via alias implied probabilities; no sampling). Tests compare this to
  // the bias-derived ground truth.
  std::vector<double> ImpliedDistribution(std::span<const graph::Edge> adj) const;

  // Full structural audit against the adjacency. Empty string = consistent.
  std::string CheckInvariants(std::span<const graph::Edge> adj) const;

  VertexMemoryBreakdown MemoryBreakdown() const;

  // Adds this vertex's group-kind population to `counts` (Fig 11e).
  void CountGroupKinds(std::array<uint64_t, 5>& counts) const;

  int NumActiveGroups() const;
  const RadixGroup* GroupAt(int k) const {
    return k < static_cast<int>(groups_.size()) ? &groups_[k] : nullptr;
  }
  const DecimalGroup& Decimal() const { return decimal_; }

 private:
  static constexpr int kDecimalGroupId = -1;

  BiasParts Split(double bias) const { return SplitBias(bias, config_->lambda); }
  void EnsureGroup(int k);
  void RebuildInterGroupAlias();
  void ReclassifyGroups(std::span<const graph::Edge> adj);
  // Members of group k recovered by scanning the adjacency (used when
  // converting away from dense, which stores no members).
  std::vector<uint32_t> ScanMembers(std::span<const graph::Edge> adj, int k) const;

  const BingoConfig* config_ = nullptr;
  std::vector<RadixGroup> groups_;  // index = radix position k
  DecimalGroup decimal_;
  sampling::AliasTable alias_;
  std::vector<int8_t> alias_groups_;  // alias slot -> radix k, or -1 = decimal
};

}  // namespace bingo::core

#endif  // BINGO_SRC_CORE_VERTEX_SAMPLER_H_
