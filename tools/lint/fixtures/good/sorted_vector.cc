// Known-good: sorted+uniqued vector instead of a hash set; annotated
// wrappers instead of raw primitives; ForStream-derived RNG (outside the
// walker kernel that needs a justified walker-stream allow()).
#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/util/rng.h"
#include "src/util/sync.h"

struct Touched {
  bingo::util::Mutex mu;
  std::vector<uint64_t> ids BINGO_GUARDED_BY(mu);

  void Add(uint64_t v) {
    bingo::util::MutexLock lock(mu);
    ids.push_back(v);
  }
  void Seal() {
    bingo::util::MutexLock lock(mu);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
};

uint64_t Draw(uint64_t seed, uint64_t stream) {
  bingo::util::Rng rng = bingo::util::Rng::ForStream(seed, stream);  // bingo-lint: allow(walker-stream) -- a standalone stream, not a driver walker
  return rng.Next();
}
