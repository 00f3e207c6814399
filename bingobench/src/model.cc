#include "bingobench/src/model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>

namespace bingobench {

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

uint64_t EdgeHash(VertexId src, VertexId dst, double bias) {
  return Mix(Mix((uint64_t{src} << 32) | dst) ^ std::bit_cast<uint64_t>(bias));
}

EdgeDigest DigestOf(const bingo::graph::DynamicGraph& g) {
  EdgeDigest d;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const bingo::graph::Edge& e : g.Neighbors(v)) {
      d.edges += 1;
      d.hash += EdgeHash(v, e.dst, e.bias);
    }
  }
  return d;
}

// -------------------------------------------------------------- EdgeModel --

EdgeModel::EdgeModel(VertexId num_vertices, std::size_t expected_edges)
    : out_degree_(num_vertices, 0) {
  std::size_t cap = 1024;
  while (cap < expected_edges + expected_edges / 2) {
    cap <<= 1;
  }
  slots_.resize(cap);
}

std::size_t EdgeModel::Find(uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Mix(key) & mask;
  while (slots_[i].key != kEmpty && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void EdgeModel::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  for (const Slot& s : old) {
    if (s.key != kEmpty) {
      slots_[Find(s.key)] = s;
    }
  }
}

void EdgeModel::Insert(VertexId src, VertexId dst, double bias) {
  if ((used_ + 1) * 10 > slots_.size() * 7) {
    Grow();
  }
  if (src >= out_degree_.size()) {
    out_degree_.resize(src + 1, 0);
  }
  Slot& s = slots_[Find(Key(src, dst))];
  if (s.key == kEmpty) {
    s.key = Key(src, dst);
    s.bias = bias;
    ++used_;
  }
  // Copies of one edge share a bias in every generated stream; a stream
  // that broke this would make "which copy is deleted" observable.
  s.bias = s.count == 0 ? bias : s.bias;
  s.count += 1;
  out_degree_[src] += 1;
  digest_.edges += 1;
  digest_.hash += EdgeHash(src, dst, bias);
}

bool EdgeModel::Delete(VertexId src, VertexId dst) {
  std::size_t i = Find(Key(src, dst));
  if (slots_[i].key == kEmpty) {
    return false;
  }
  const double bias = slots_[i].bias;
  out_degree_[src] -= 1;
  digest_.edges -= 1;
  digest_.hash -= EdgeHash(src, dst, bias);
  if (--slots_[i].count > 0) {
    return true;
  }
  // Backward-shift deletion keeps linear probing tombstone-free.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = i;
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    if (slots_[j].key == kEmpty) {
      break;
    }
    const std::size_t home = Mix(slots_[j].key) & mask;
    // Move j into the hole if its home is not in (hole, j] cyclically.
    const bool between = hole <= j ? (home > hole && home <= j)
                                   : (home > hole || home <= j);
    if (!between) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --used_;
  return true;
}

bool EdgeModel::Apply(const bingo::graph::Update& u) {
  switch (u.kind) {
    case bingo::graph::Update::Kind::kInsert:
      Insert(u.src, u.dst, u.bias);
      return true;
    case bingo::graph::Update::Kind::kDelete:
      return Delete(u.src, u.dst);
    case bingo::graph::Update::Kind::kAdvanceTime:
      return true;  // identity bias pipeline: a clock tick changes no edge
  }
  return false;
}

uint32_t EdgeModel::Count(VertexId src, VertexId dst) const {
  const Slot& s = slots_[Find(Key(src, dst))];
  return s.key == kEmpty ? 0 : s.count;
}

std::vector<std::pair<VertexId, double>> EdgeModel::WeightsOf(VertexId v) const {
  std::vector<std::pair<VertexId, double>> out;
  for (const Slot& s : slots_) {
    if (s.key != kEmpty && (s.key >> 32) == v) {
      out.emplace_back(static_cast<VertexId>(s.key & 0xffffffffu),
                       s.bias * s.count);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VertexId> EdgeModel::TopDegree(std::size_t k) const {
  std::vector<VertexId> ids(out_degree_.size());
  for (VertexId v = 0; v < ids.size(); ++v) {
    ids[v] = v;
  }
  k = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(k),
                    ids.end(), [&](VertexId a, VertexId b) {
                      return out_degree_[a] != out_degree_[b]
                                 ? out_degree_[a] > out_degree_[b]
                                 : a < b;
                    });
  ids.resize(k);
  return ids;
}

// ------------------------------------------------------------ path checks --

PathCheck CheckPaths(const bingo::walk::WalkResult& result, const PathRules& rules,
                     const std::function<bool(VertexId, VertexId)>& has_edge,
                     const std::function<bool(VertexId)>& may_stop) {
  PathCheck check;
  if (result.path_offsets.size() != rules.num_walkers + 1) {
    check.Error("expected " + std::to_string(rules.num_walkers) +
                " paths, got " +
                std::to_string(result.path_offsets.empty()
                                   ? 0
                                   : result.path_offsets.size() - 1));
    return check;
  }
  uint64_t steps = 0;
  for (uint64_t w = 0; w < rules.num_walkers; ++w) {
    const uint64_t begin = result.path_offsets[w];
    const uint64_t end = result.path_offsets[w + 1];
    const VertexId want_start =
        rules.start_vertex != bingo::graph::kInvalidVertex
            ? rules.start_vertex
            : static_cast<VertexId>(w % rules.num_vertices);
    if (end <= begin || result.paths[begin] != want_start) {
      check.Error("walker " + std::to_string(w) + " starts at the wrong vertex");
      continue;
    }
    const uint64_t hops = end - begin - 1;
    if (hops > rules.walk_length) {
      check.Error("walker " + std::to_string(w) + " walked past its length");
    }
    for (uint64_t i = begin; i + 1 < end; ++i) {
      if (!has_edge(result.paths[i], result.paths[i + 1])) {
        check.Error("walker " + std::to_string(w) + " hop " +
                    std::to_string(result.paths[i]) + "->" +
                    std::to_string(result.paths[i + 1]) + " is not an edge");
      }
    }
    check.hops += hops;
    steps += hops;
    if (hops < rules.walk_length && !rules.stop_anywhere &&
        !may_stop(result.paths[end - 1])) {
      check.Error("walker " + std::to_string(w) + " stopped early at " +
                  std::to_string(result.paths[end - 1]) +
                  ", which has out-edges");
    }
  }
  if (steps != result.total_steps) {
    check.Error("total_steps " + std::to_string(result.total_steps) +
                " disagrees with the paths (" + std::to_string(steps) + ")");
  }
  return check;
}

PathCheck CheckPaths(const bingo::walk::WalkResult& result, const PathRules& rules,
                     const EdgeModel& model) {
  return CheckPaths(
      result, rules, [&](VertexId u, VertexId v) { return model.Has(u, v); },
      [&](VertexId v) { return model.OutDegree(v) == 0; });
}

// ------------------------------------------------------------- chi-square --

std::string ChiSquareResult::Describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "chi2=%.2f dof=%d critical(1e-6)=%.2f draws=%llu foreign=%llu",
                statistic, dof, critical,
                static_cast<unsigned long long>(draws),
                static_cast<unsigned long long>(foreign));
  return buf;
}

ChiSquareResult ChiSquare(const std::vector<std::pair<VertexId, double>>& weights,
                          const std::vector<VertexId>& draws) {
  ChiSquareResult res;
  res.draws = draws.size();
  std::map<VertexId, double> weight_of;
  double total = 0.0;
  for (const auto& [dst, w] : weights) {
    weight_of[dst] += w;
    total += w;
  }
  std::map<VertexId, uint64_t> observed;
  for (VertexId v : draws) {
    if (weight_of.count(v) == 0) {
      ++res.foreign;
    } else {
      ++observed[v];
    }
  }
  if (total <= 0.0 || draws.empty()) {
    return res;
  }
  // Pool categories in ascending expected count until each bin expects >= 5.
  std::vector<std::pair<double, double>> cells;  // (expected, observed)
  for (const auto& [dst, w] : weight_of) {
    const auto it = observed.find(dst);
    cells.emplace_back(static_cast<double>(draws.size()) * w / total,
                       it == observed.end() ? 0.0 : static_cast<double>(it->second));
  }
  // Order by expected count only: a tie-break on the observed count would
  // pool low draws with low draws and inflate the statistic.
  std::stable_sort(cells.begin(), cells.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<double, double>> bins;
  std::pair<double, double> acc{0.0, 0.0};
  for (const auto& c : cells) {
    acc.first += c.first;
    acc.second += c.second;
    if (acc.first >= 5.0) {
      bins.push_back(acc);
      acc = {0.0, 0.0};
    }
  }
  if (acc.first > 0.0) {
    if (bins.empty()) {
      bins.push_back(acc);
    } else {
      bins.back().first += acc.first;
      bins.back().second += acc.second;
    }
  }
  for (const auto& [e, o] : bins) {
    res.statistic += (o - e) * (o - e) / e;
  }
  res.dof = static_cast<int>(bins.size()) - 1;
  if (res.dof <= 0) {
    res.dof = 0;
    return res;
  }
  // Wilson-Hilferty upper quantile of chi-square(dof) at p = 1e-6.
  const double k = res.dof;
  const double z = 4.753424;
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  res.critical = k * t * t * t;
  return res;
}

std::vector<VertexId> FirstSteps(const bingo::walk::WalkResult& result) {
  std::vector<VertexId> out;
  for (std::size_t w = 0; w + 1 < result.path_offsets.size(); ++w) {
    const uint64_t begin = result.path_offsets[w];
    if (result.path_offsets[w + 1] - begin >= 2) {
      out.push_back(result.paths[begin + 1]);
    }
  }
  return out;
}

uint64_t Fingerprint(const bingo::walk::WalkResult& result) {
  uint64_t h = Mix(result.total_steps ^ 0x9e3779b97f4a7c15ull);
  for (uint64_t o : result.path_offsets) {
    h = Mix(h ^ o);
  }
  uint64_t acc = 0;
  for (std::size_t i = 0; i < result.paths.size(); ++i) {
    acc = acc * 0x100000001b3ull + result.paths[i] + 1;
  }
  return Mix(h ^ acc);
}

}  // namespace bingobench
