// expect: walker-stream
// Known-bad: a walk driver deriving its own per-walker streams restates the
// variate contract outside the shared walker kernel.
#include <cstdint>

#include "src/util/rng.h"

uint64_t FirstDraw(uint64_t seed, uint64_t walker) {
  bingo::util::Rng rng = bingo::util::Rng::ForStream(seed, walker);
  return rng.Next();
}
