// StreamReplayer: the replay half of the capture/replay split.
//
// Consumes a pre-captured access-span view (see sim::AccessStream) and drives
// one SetAssocCache to the exact state + stats the equivalent sequence of
// access_range calls would produce, while converting span traffic back into
// per-scheduled-op DRAM service totals at the recorded op boundaries.
//
// Two engines, selected per cache geometry at construction:
//  * compact: the default 8-way power-of-two geometry on AVX-512 hosts runs a
//    u8 tag lane + one u64 rank/meta lane per set, 8 sets per masked 512-bit
//    group, two groups in flight on runs of 16+ sets (see cache_simd512.cpp).
//    On the e2ebench decode stream (LRU and BRRIP, 388M lines per replay) it
//    takes ~1.6 ns per line on an AVX-512 Xeon (4 vCPUs), against ~2.8 ns
//    with one group at a time and ~15 ns on the direct engine.  Tags are
//    rebased against the stream's address window so they fit the byte lane;
//    finish() expands the compact state back into the cache's own lanes.
//  * direct: every other geometry (or CELLO_DISABLE_AVX512=1) feeds the spans
//    through the cache's public access_range — trivially bit-identical.
// The tag window is a hard limit of the compact engine: every tag the
// stream touches must be less than 255 above the lowest one (tag8 0xFF marks
// an empty way).  One tag value covers sets * line_bytes of address space, so
// at the default 4 MiB / 16 B / 8-way geometry (32768 sets) the stream's
// lowest to highest byte may span at most ~127 MiB.  A wider stream replays
// on the direct engine, bit-identically but several times slower, and
// without notice; compact() tells which engine a replayer took.
//
// Periodic fast-forward: iterative workloads repeat the same span block per
// iteration (AccessStream detects this at capture).  After each occurrence
// the replayer snapshots the replacement state; once the state repeats one
// of the last two snapshots the remaining occurrences are pure arithmetic — stats advance by the cycle's
// delta times the skipped cycles, per-op services copy cyclically, and the
// state restores from the snapshot the final occurrence would land on.  Both
// engines fast-forward (the direct engine for the 8-way layout); this, not
// raw line throughput, is where the order-of-magnitude sweep speedups on
// CG-style workloads come from.
#pragma once

#include <cstddef>
#include <vector>

#include "cache/cache.hpp"

namespace cello::cache {

/// Borrowed struct-of-arrays view of a captured stream (sim::AccessStream
/// provides one; the cache layer stays independent of sim).  Span i starts at
/// min_addr + offset[i] and covers len_write[i] >> 1 bytes; bit 0 of
/// len_write[i] is the write flag.
struct ReplaySpans {
  const u32* offset = nullptr;
  const u32* len_write = nullptr;
  const u32* op_end = nullptr;  ///< per materialized step: exclusive span index
  u64 prefix_steps = 0;
  u64 period_steps = 0;   ///< 0 = linear stream
  u64 period_count = 0;
  u64 suffix_steps = 0;
  u64 schedule_steps = 0; ///< prefix + period * count + suffix
  Addr min_addr = 0;
  Addr max_addr = 0;

  Addr addr(size_t i) const { return min_addr + offset[i]; }
  u32 len(size_t i) const { return len_write[i] >> 1; }
  bool write(size_t i) const { return (len_write[i] & 1) != 0; }
};

/// Per-scheduled-op DRAM traffic the replayed spans incurred.
struct ReplayService {
  Bytes dram_read = 0;
  Bytes dram_write = 0;
};

namespace detail {

/// Compact-engine counters; expanded into CacheStats at finish() (accesses,
/// tag lookups and data accesses all equal the walked line count).
struct CompactStats {
  u64 lines = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 writebacks = 0;
  Bytes dram_read = 0;
  Bytes dram_write = 0;
};

/// Compact replacement state: one u8 tag (0xFF = invalid) and one aux byte
/// per way, set-major — 16 bytes per set, L2-resident for multi-MiB caches.
/// aux is the packed LRU rank word (recency in bits 0..2, dirty in 0x40) or
/// the packed BRRIP meta bytes (RRPV in bits 0..1, dirty in 0x80).
struct CompactState {
  u64 sets = 0;
  u64 set_mask = 0;
  i32 set_shift = 0;
  i32 line_shift = 0;
  u32 line_bytes = 0;
  u32 base_tag = 0;  ///< tags stored rebased: tag8 = (line >> set_shift) - base_tag
  Policy policy = Policy::Lru;
  std::vector<u8> tags;
  std::vector<u64> aux;
  CompactStats s;
};

/// True when this host can run the AVX-512 group kernels (compiled in,
/// CPU-supported, not disabled via CELLO_DISABLE_AVX512).
bool avx512_runtime();

/// Run spans [begin, end) through the compact state (cache_simd512.cpp).
void replay_spans_avx512(CompactState& st, const ReplaySpans& spans, size_t begin, size_t end);

}  // namespace detail

class StreamReplayer {
 public:
  /// Binds one cache (which must be in freshly-reset state) to one span view.
  /// The view must outlive the replayer.
  StreamReplayer(SetAssocCache& cache, const ReplaySpans& spans);

  /// Whole-stream convenience: prefix + every occurrence + suffix + finish.
  void run(std::vector<ReplayService>& services);

  // ---- lockstep interface (replay_many drives N replayers per phase so the
  // shared period block stays hot across engines) ----
  void run_prefix();
  /// One period occurrence; call period_count times.  No-op after the state
  /// cycle is detected and fast-forward has been applied.
  void run_occurrence();
  void run_suffix();
  /// True once the period's cache-state cycle was detected and the remaining
  /// occurrences were fast-forwarded (run_occurrence is a no-op from then on).
  bool converged() const { return converged_; }
  /// True when the AVX-512 compact engine replays this stream; false when
  /// the geometry, the host or the stream's tag window sent it to the direct
  /// engine.
  bool compact() const { return compact_; }
  /// Write compact state + stats back into the cache and expand the recorded
  /// per-occurrence services into schedule order (services.size() ==
  /// schedule_steps afterwards).
  void finish(std::vector<ReplayService>& services);

 private:
  /// Replay the spans of materialized steps [step_begin, step_end), recording
  /// one service per step into `out` (contiguous).
  void run_steps(size_t step_begin, size_t step_end, ReplayService* out);
  /// State after `occ_` occurrences matched snapshot `j`: advance stats and
  /// state over the remaining occurrences arithmetically.
  void fast_forward(u64 j, const CacheStats& c_k);
  void save_state(std::vector<u8>& blob) const;
  void restore_state(const std::vector<u8>& blob);
  CacheStats current_stats() const;
  void set_stats(const CacheStats& st);

  SetAssocCache& cache_;
  const ReplaySpans& spans_;
  bool compact_ = false;      ///< AVX-512 compact engine active
  bool can_cycle_ = false;    ///< snapshot/compare supported for this geometry
  detail::CompactState state_;

  // Occurrence bookkeeping.
  u64 occ_ = 0;               ///< occurrences executed or skipped so far
  bool converged_ = false;    ///< fast-forward applied; run_occurrence is a no-op
  struct Snapshot {
    u64 hash = 0;
    std::vector<u8> blob;
    CacheStats stats;
  };
  /// snaps_[j] = state after j occurrences; blob emptied once j leaves the
  /// detection window (see kSnapshotWindow).
  std::vector<Snapshot> snaps_;
  /// The blob that last left the window, recycled as the next snapshot's
  /// storage: one cache-sized allocation per replay instead of one per
  /// occurrence, which keeps the allocator from fragmenting its arenas.
  std::vector<u8> spare_blob_;
  std::vector<ReplayService> occ_v_;   ///< per executed occurrence: period_steps services
  std::vector<ReplayService> pre_v_;   ///< prefix services
  std::vector<ReplayService> suf_v_;   ///< suffix services
  u64 cycle_from_ = 0;  ///< j: occurrence index the cycle re-enters
  u64 cycle_len_ = 0;   ///< k - j; 0 until detected
};

}  // namespace cello::cache
