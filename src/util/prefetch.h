// Software prefetch helpers for the walk hot paths.
//
// The walk drivers (src/walk/engine.h, src/walk/fused.h) know, while
// sampling for one walker, which vertices the next few walkers will sample
// from — the classic setting for software prefetching: issue non-blocking
// loads of those vertices' sampler/adjacency metadata now so the lines are
// resident when the walkers reach them. __builtin_prefetch compiles to
// PREFETCHT0 on x86 and PRFM on aarch64; on compilers without it this
// degrades to a no-op, which is always correct (prefetching is a pure hint,
// never semantics).

#ifndef BINGO_SRC_UTIL_PREFETCH_H_
#define BINGO_SRC_UTIL_PREFETCH_H_

#include <cstddef>
#include <cstdint>

namespace bingo::util {

inline void PrefetchRead(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

// Prefetches every cache line that [addr, addr + bytes) touches — for small
// fixed-size records that may straddle a line boundary.
inline void PrefetchLines(const void* addr, std::size_t bytes) {
  constexpr std::uintptr_t kLine = 64;
  const std::uintptr_t begin = reinterpret_cast<std::uintptr_t>(addr);
  for (std::uintptr_t line = begin & ~(kLine - 1); line < begin + bytes;
       line += kLine) {
    PrefetchRead(reinterpret_cast<const void*>(line));
  }
}

// Prefetches the first cache lines of an array region (capped: streaming a
// long adjacency through the prefetcher would evict more than it warms).
inline void PrefetchReadRange(const void* addr, std::size_t bytes) {
  constexpr std::size_t kLine = 64;
  constexpr std::size_t kMaxLines = 4;
  const char* p = static_cast<const char*>(addr);
  const std::size_t lines = (bytes + kLine - 1) / kLine;
  for (std::size_t i = 0; i < (lines < kMaxLines ? lines : kMaxLines); ++i) {
    PrefetchRead(p + i * kLine);
  }
}

}  // namespace bingo::util

#endif  // BINGO_SRC_UTIL_PREFETCH_H_
