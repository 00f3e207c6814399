// Known-good: drivers take walkers (and their streams) from WalkBuilder;
// a stream that is not a driver walker's carries a justified allow(), and
// naming Rng::ForStream( in a comment is fine.
#include <cstdint>

#include "src/walk/walker.h"

uint64_t FirstDraw(const bingo::walk::WalkBuilder& walks, uint64_t id) {
  bingo::walk::Walker w = walks.Launch(id);
  return w.rng.Next();
}

uint64_t PairDraw(uint64_t seed, uint64_t pair) {
  bingo::util::Rng rng = bingo::util::Rng::ForStream(seed, pair);  // bingo-lint: allow(walker-stream) -- a pair of coupled walks, not a driver walker
  return rng.Next();
}
