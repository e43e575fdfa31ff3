// AVX-512 group kernels for the compact replay engine (StreamReplayer).
//
// Replay walks consecutive lines through consecutive sets with a constant
// tag, so the unit of work is a *group*: up to 8 consecutive sets, one line
// each, processed as one 512-bit lane-parallel step over the compact
// struct-of-arrays state (a u8 tag per way + one aux u64 per set).  Per
// group, each 8-byte lane holds one set; hit detect, invalid-way pick, LRU
// victim/promote and BRRIP victim/aging are masked vector ops with no
// per-way branching:
//  * LRU: the packed rank word ages via one masked add (+1 where rank <
//    rank[selected]); the selected way's lane collapses to rank 0 (MRU) with
//    the dirty bit absorbed in the same blend.
//  * BRRIP: the scalar "age until some RRPV == 3" loop is replaced by its
//    closed form — each full missing set ages by (3 - its max RRPV) in one
//    masked add; the bimodal long-vs-distant insert lands on the exact fill
//    the deterministic counter selects via a PDEP over the missing sets.
// Both make bit-for-bit the replacement decisions of SetAssocCache's scalar
// and AVX2 paths (tests/replay_kernel_test.cpp compares the lanes).
//
// Per-set flags stay in mask registers and vectors: a per-way byte mask
// becomes one bit per set via vpmovm2b + vptestmq; the lane max RRPV and the
// selected LRU rank spread over their qword by rotate-and-max/or; the lowest
// candidate way of each set is C & -C on its qword.  Each policy has one
// group body.  A run of 32 or more sets in one wrap segment goes four groups
// per iteration — load all four, compute all four, store all four — and a
// remaining 16-31 sets take one two-group step, because one group is a single
// long dependency chain that leaves the out-of-order core little to overlap;
// each group's bimodal counter is the previous groups' plus their misses.
// On a 4-vCPU AVX-512 Xeon at -O2, four groups per iteration replay the
// e2ebench decode stream ~12% faster than two (1.16 -> 1.03 ns per line);
// eight, though they compile without zmm spills, measured slower than four.
// Shorter runs (CSR gathers are mostly one-line spans) run the body once per
// group, where its all-hit early-out matters.  Counters accumulate in
// registers and are written back once per replay_spans_avx512 call.
//
// Tags are stored rebased against the stream's address window (tag8 = tag -
// base_tag, 0xFF = empty) so real multi-GiB address spaces fit the byte
// lane; eligibility is checked at StreamReplayer construction.
//
// This TU is compiled with -mavx512f/bw/dq -mbmi2 when the compiler supports
// them (CELLO_HAVE_AVX512); the CPU is probed at runtime and
// CELLO_DISABLE_AVX512=1 forces the portable direct engine.
#include "cache/cache_replay.hpp"

#include <cstdlib>

namespace cello::cache::detail {

namespace {

bool avx512_disabled_by_env() {
  const char* e = std::getenv("CELLO_DISABLE_AVX512");
  return e != nullptr && *e != '\0' && *e != '0';
}

}  // namespace

#if defined(CELLO_HAVE_AVX512)

bool avx512_runtime() {
  // Called once per replayer; re-reads the env so tests can toggle engines.
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("bmi2") &&
         !avx512_disabled_by_env();
}

#else

bool avx512_runtime() {
  (void)avx512_disabled_by_env;
  return false;
}

/// Never reached: StreamReplayer only selects the compact engine when
/// avx512_runtime() is true.
void replay_spans_avx512(CompactState&, const ReplaySpans&, size_t, size_t) {}

#endif

}  // namespace cello::cache::detail

#if defined(CELLO_HAVE_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <utility>

namespace cello::cache::detail {

namespace {

/// Counters of one replay_spans_avx512 call, seeded from the compact state
/// and written back once at its end.  Hits and DRAM bytes follow from these.
struct Tally {
  u64 lines;
  u64 misses;  ///< == the BRRIP bimodal fill counter
  u64 evictions;
  u64 writebacks;
};

/// One group: the tag and aux lanes of up to 8 consecutive sets, and after
/// the kernel ran, the ways that take the probed tag.
struct Group {
  __m512i tags;
  __m512i aux;
  __mmask64 fill;
};

/// Per-qword rotate right.  The masked form with a zero source: GCC's
/// unmasked _mm512_ror_epi64 passes an uninitialized vector as the
/// pass-through operand, which -Wmaybe-uninitialized flags once inlined.
template <unsigned N>
inline __m512i ror64(__m512i v) {
  return _mm512_maskz_ror_epi64(static_cast<__mmask8>(0xFF), v, N);
}

/// Per-set flag of a per-way byte mask: bit i is set when any way of set i
/// is flagged.  Also hands back the per-way flags as 0x00/0xFF bytes.
inline __mmask8 set_flags(__mmask64 ways, __m512i& bytes) {
  bytes = _mm512_movm_epi8(ways);
  return _mm512_test_epi64_mask(bytes, bytes);
}

/// The lowest flagged way of every set in `sets`, from 0x00/0xFF candidate
/// bytes: C & -C keeps bit 0 of the lowest 0xFF byte of each qword.
inline __mmask64 lowest_way(__m512i cand, __mmask8 sets) {
  const __m512i lo =
      _mm512_maskz_and_epi64(sets, cand, _mm512_sub_epi64(_mm512_setzero_si512(), cand));
  return _mm512_test_epi8_mask(lo, lo);
}

/// LRU over one group of sets (`slots` masks their ways, `sets` the sets).
inline void group_lru(Group& g, __m512i T, bool w, __mmask64 slots, __mmask8 sets, Tally& t) {
  const __m512i K7 = _mm512_set1_epi8(7);
  const __m512i K40 = _mm512_set1_epi8(0x40);
  const __m512i R = g.aux;
  const __m512i Rr = _mm512_and_si512(R, K7);
  const __mmask64 hit = _mm512_mask_cmpeq_epi8_mask(slots, g.tags, T);
  __m512i hitb;
  const __mmask8 hs = set_flags(hit, hitb);
  __mmask64 sel = hit;
  g.fill = 0;
  if (hs != sets) {
    // Victim per missing set: its lowest empty way, else the rank-7 way.
    const __mmask8 ms = sets & static_cast<__mmask8>(~hs);
    __m512i invb;
    const __mmask8 is =
        set_flags(_mm512_mask_cmpeq_epi8_mask(slots, g.tags, _mm512_set1_epi8(-1)), invb);
    const __m512i lrub = _mm512_movm_epi8(_mm512_cmpeq_epi8_mask(Rr, K7));
    g.fill = lowest_way(_mm512_mask_blend_epi64(is, lrub, invb), ms);
    sel = hit | g.fill;
    t.misses += static_cast<u64>(std::popcount(static_cast<unsigned>(ms)));
    t.evictions += static_cast<u64>(std::popcount(static_cast<unsigned>(ms & ~is)));
    // Empty ways are never dirty, so every dirty victim is an eviction.
    t.writebacks += static_cast<u64>(std::popcount(_mm512_mask_test_epi8_mask(g.fill, R, K40)));
  }
  // Age: +1 for every way ranked more recently than the selected way, whose
  // rank rotate-or spreads over its set's qword.
  __m512i rs = _mm512_maskz_mov_epi8(sel, Rr);
  rs = _mm512_or_si512(rs, ror64<32>(rs));
  rs = _mm512_or_si512(rs, ror64<16>(rs));
  rs = _mm512_or_si512(rs, ror64<8>(rs));
  const __mmask64 younger = _mm512_mask_cmplt_epu8_mask(slots, Rr, rs);
  const __m512i R2 = _mm512_mask_add_epi8(R, younger, R, _mm512_set1_epi8(1));
  // Selected way: rank 0 (MRU), dirty kept on hits, rebuilt on fills.
  const __m512i ch = _mm512_or_si512(_mm512_and_si512(_mm512_and_si512(hitb, R), K40),
                                     _mm512_set1_epi8(w ? 0x40 : 0));
  g.aux = _mm512_mask_mov_epi8(R2, sel, ch);
}

/// BRRIP over one group of sets; fills before this group = t.misses.
inline void group_brrip(Group& g, __m512i T, bool w, __mmask64 slots, __mmask8 sets, Tally& t) {
  const __m512i K3 = _mm512_set1_epi8(3);
  const __m512i K80 = _mm512_set1_epi8(static_cast<char>(0x80));
  const __m512i WV = _mm512_set1_epi8(w ? static_cast<char>(0x80) : 0);
  __m512i M = g.aux;
  const __mmask64 hit = _mm512_mask_cmpeq_epi8_mask(slots, g.tags, T);
  // Hit ways: RRPV -> 0, dirty absorbed.
  const __m512i ch = _mm512_or_si512(_mm512_and_si512(M, K80), WV);
  __m512i hitb;
  const __mmask8 hs = set_flags(hit, hitb);
  g.fill = 0;
  if (hs == sets) {
    g.aux = _mm512_mask_mov_epi8(M, hit, ch);
    return;
  }
  const __mmask8 ms = sets & static_cast<__mmask8>(~hs);
  __m512i invb;
  const __mmask8 is =
      set_flags(_mm512_mask_cmpeq_epi8_mask(slots, g.tags, _mm512_set1_epi8(-1)), invb);
  const __mmask8 full = ms & static_cast<__mmask8>(~is);
  // Closed-form aging: each full missing set ages by (3 - its max RRPV),
  // exactly the number of +1 rounds the scalar victim search would run.
  // Rotate-max spreads the max over the set's qword; 3 - max never borrows.
  __m512i mx = _mm512_and_si512(M, K3);
  mx = _mm512_max_epu8(mx, ror64<32>(mx));
  mx = _mm512_max_epu8(mx, ror64<16>(mx));
  mx = _mm512_max_epu8(mx, ror64<8>(mx));
  M = _mm512_add_epi8(M, _mm512_maskz_mov_epi64(full, _mm512_sub_epi8(K3, mx)));
  // Victim per missing set: its lowest empty way, else its first distant way.
  const __m512i distb = _mm512_movm_epi8(_mm512_cmpeq_epi8_mask(_mm512_and_si512(M, K3), K3));
  g.fill = lowest_way(_mm512_mask_blend_epi64(is, distb, invb), ms);
  t.evictions += static_cast<u64>(std::popcount(static_cast<unsigned>(full)));
  // Empty ways are never dirty, so every dirty victim is an eviction.
  t.writebacks += static_cast<u64>(std::popcount(_mm512_mask_test_epi8_mask(g.fill, M, K80)));
  // Bimodal insertion: fills land RRPV 3 except the one the deterministic
  // counter picks (every 32nd overall), which lands RRPV 2.  Misses resolve
  // in set order, so the chosen fill sits in the jstar-th missing set — a
  // PDEP over the set mask, 0 when this group has fewer misses.
  const unsigned msu = static_cast<unsigned>(ms);
  const unsigned jstar = 32 - static_cast<unsigned>(t.misses % 32);
  const __mmask8 pick = static_cast<__mmask8>(_pdep_u32(1u << (jstar - 1), msu));
  t.misses += static_cast<u64>(std::popcount(msu));
  const __m512i fills = _mm512_mask_blend_epi64(pick, _mm512_or_si512(WV, K3),
                                                 _mm512_or_si512(WV, _mm512_set1_epi8(2)));
  g.aux = _mm512_mask_mov_epi8(_mm512_mask_mov_epi8(M, g.fill, fills), hit, ch);
}

using GroupFn = void (*)(Group&, __m512i, bool, __mmask64, __mmask8, Tally&);

/// One tile of sizeof...(I) full 8-set groups from `tp` / `ap`: all loaded,
/// all computed in set order (so each group's bimodal counter sees the
/// earlier groups' misses), all stored.  The groups are independent
/// dependency chains the out-of-order core overlaps; at four groups every
/// lane stays in a zmm register.
template <GroupFn Kernel, size_t... I>
[[gnu::always_inline]] inline void run_tile(u8* const tp, u64* const ap, __m512i T, bool w,
                                            Tally& t, std::index_sequence<I...>) {
  Group g[] = {Group{_mm512_loadu_si512(tp + 64 * I), _mm512_loadu_si512(ap + 8 * I), 0}...};
  (Kernel(g[I], T, w, ~__mmask64{0}, 0xFF, t), ...);
  (_mm512_storeu_si512(ap + 8 * I, g[I].aux), ...);
  (_mm512_mask_storeu_epi8(tp + 64 * I, g[I].fill, T), ...);
}

/// Sets [set, set + n) of one wrap segment, all probing `tag8`.  Runs of 32+
/// sets go four 8-set groups per iteration, a remaining 16-31 sets one
/// two-group tile, and the rest one (possibly partial) group at a time.  The
/// tally and the lane pointers live in registers for the whole segment.
/// Forced inline so one-line spans, which call this once per line, do not
/// pay a call and the constants' setup per span.
template <GroupFn Kernel>
[[gnu::always_inline]] inline void run_sets(u8* const tags, u64* const aux, u64 set, u64 n,
                                            u8 tag8, bool w, Tally& tally) {
  const __m512i T = _mm512_set1_epi8(static_cast<char>(tag8));
  Tally t = tally;
  for (; n >= 32; set += 32, n -= 32)
    run_tile<Kernel>(tags + set * 8, aux + set, T, w, t, std::make_index_sequence<4>{});
  if (n >= 16) {
    run_tile<Kernel>(tags + set * 8, aux + set, T, w, t, std::make_index_sequence<2>{});
    set += 16;
    n -= 16;
  }
  while (n != 0) {
    const unsigned k = static_cast<unsigned>(std::min<u64>(n, 8));
    const __mmask64 slots = k == 8 ? ~__mmask64{0} : (__mmask64{1} << (8 * k)) - 1;
    u8* tp = tags + set * 8;
    u64* ap = aux + set;
    Group g{_mm512_maskz_loadu_epi8(slots, tp), _mm512_maskz_loadu_epi8(slots, ap), 0};
    Kernel(g, T, w, slots, static_cast<__mmask8>((1u << k) - 1), t);
    _mm512_mask_storeu_epi8(ap, slots, g.aux);
    // All-hit short runs (re-touched lines) skip the empty tag store.
    if (g.fill != 0) _mm512_mask_storeu_epi8(tp, g.fill, T);
    set += k;
    n -= k;
  }
  tally = t;
}

/// Walk `count` consecutive lines: segment at set wraps (the rebased tag is
/// constant within a segment).
template <GroupFn Kernel>
inline void walk_lines(CompactState& st, u64 first_line, u64 count, bool w, Tally& t) {
  t.lines += count;
  u64 line = first_line, remaining = count;
  while (remaining != 0) {
    const u64 set = line & st.set_mask;
    const u64 tag = (line >> st.set_shift) - st.base_tag;
    const u64 n = std::min(remaining, st.sets - set);
    run_sets<Kernel>(st.tags.data(), st.aux.data(), set, n, static_cast<u8>(tag), w, t);
    line += n;
    remaining -= n;
  }
}

template <GroupFn Kernel>
void replay(CompactState& st, const ReplaySpans& spans, size_t begin, size_t end, Tally& t) {
  const i32 ls = st.line_shift;
  for (size_t si = begin; si < end; ++si) {
    if (si + 4 < end) {
      // Same lookahead the direct path's prefetch_range provides: pull the
      // upcoming span's first set's tag + aux lanes toward the host caches.
      const u64 nset = (spans.addr(si + 4) >> ls) & st.set_mask;
      _mm_prefetch(reinterpret_cast<const char*>(&st.tags[nset * 8]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(&st.aux[nset]), _MM_HINT_T0);
    }
    const Addr a = spans.addr(si);
    const u64 first = a >> ls;
    const u64 last = (a + spans.len(si) - 1) >> ls;
    walk_lines<Kernel>(st, first, last - first + 1, spans.write(si), t);
  }
}

}  // namespace

void replay_spans_avx512(CompactState& st, const ReplaySpans& spans, size_t begin, size_t end) {
  Tally t{st.s.lines, st.s.misses, st.s.evictions, st.s.writebacks};
  if (st.policy == Policy::Lru)
    replay<group_lru>(st, spans, begin, end, t);
  else
    replay<group_brrip>(st, spans, begin, end, t);
  const u64 lines = t.lines - st.s.lines;
  const u64 misses = t.misses - st.s.misses;
  st.s.hits += lines - misses;
  st.s.dram_read += misses * st.line_bytes;
  st.s.dram_write += (t.writebacks - st.s.writebacks) * st.line_bytes;
  st.s.lines = t.lines;
  st.s.misses = t.misses;
  st.s.evictions = t.evictions;
  st.s.writebacks = t.writebacks;
}

}  // namespace cello::cache::detail

#endif  // CELLO_HAVE_AVX512
