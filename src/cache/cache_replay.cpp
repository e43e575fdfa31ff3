#include "cache/cache_replay.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace cello::cache {

namespace {

CacheStats stats_add(const CacheStats& a, const CacheStats& b) {
  CacheStats r;
  r.accesses = a.accesses + b.accesses;
  r.hits = a.hits + b.hits;
  r.misses = a.misses + b.misses;
  r.evictions = a.evictions + b.evictions;
  r.writebacks = a.writebacks + b.writebacks;
  r.dram_read_bytes = a.dram_read_bytes + b.dram_read_bytes;
  r.dram_write_bytes = a.dram_write_bytes + b.dram_write_bytes;
  r.tag_lookups = a.tag_lookups + b.tag_lookups;
  r.data_accesses = a.data_accesses + b.data_accesses;
  return r;
}

CacheStats stats_sub(const CacheStats& a, const CacheStats& b) {
  CacheStats r;
  r.accesses = a.accesses - b.accesses;
  r.hits = a.hits - b.hits;
  r.misses = a.misses - b.misses;
  r.evictions = a.evictions - b.evictions;
  r.writebacks = a.writebacks - b.writebacks;
  r.dram_read_bytes = a.dram_read_bytes - b.dram_read_bytes;
  r.dram_write_bytes = a.dram_write_bytes - b.dram_write_bytes;
  r.tag_lookups = a.tag_lookups - b.tag_lookups;
  r.data_accesses = a.data_accesses - b.data_accesses;
  return r;
}

CacheStats stats_scale(const CacheStats& a, u64 m) {
  CacheStats r;
  r.accesses = a.accesses * m;
  r.hits = a.hits * m;
  r.misses = a.misses * m;
  r.evictions = a.evictions * m;
  r.writebacks = a.writebacks * m;
  r.dram_read_bytes = a.dram_read_bytes * m;
  r.dram_write_bytes = a.dram_write_bytes * m;
  r.tag_lookups = a.tag_lookups * m;
  r.data_accesses = a.data_accesses * m;
  return r;
}

u64 blob_hash(const std::vector<u8>& blob) {
  // FNV-1a over u64 words; save_state blobs of one replayer share a size, so
  // the tail handling only has to be consistent, not canonical.
  u64 h = 0xcbf29ce484222325ull;
  size_t i = 0;
  for (; i + 8 <= blob.size(); i += 8) {
    u64 w;
    std::memcpy(&w, blob.data() + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
  }
  u64 tail = 0;
  if (i < blob.size()) {
    std::memcpy(&tail, blob.data() + i, blob.size() - i);
    h = (h ^ tail) * 0x100000001b3ull;
  }
  return h;
}

/// Cycle detection compares the state after each occurrence with the states
/// after the previous kSnapshotWindow occurrences only, so a replay holds at
/// most that many state blobs (plus the current one) — each as large as the
/// cache's tag + replacement lanes.  Older snapshots keep their hash and
/// stats, which is all the fast-forward arithmetic reads of them.  LRU
/// converges with a cycle of length 1; a longer cycle merely goes undetected
/// and its occurrences replay in full, with the same result.
constexpr size_t kSnapshotWindow = 2;

}  // namespace

StreamReplayer::StreamReplayer(SetAssocCache& cache, const ReplaySpans& spans)
    : cache_(cache), spans_(spans) {
  CELLO_CHECK_MSG(cache_.stats_.accesses == 0 && cache_.stats_.misses == 0,
                  "stream replay requires a freshly reset cache");
  // Compact-engine eligibility: the 8-way shift/mask geometry on an AVX-512
  // host, with every tag the stream can touch rebasable into the u8 lane
  // (0xFF is the empty-way sentinel).
  bool compact = cache_.fast8_ && cache_.line_shift_ >= 0 && cache_.set_shift_ >= 0 &&
                 spans_.offset != nullptr && detail::avx512_runtime();
  if (compact) {
    const u64 min_line = spans_.min_addr >> cache_.line_shift_;
    const u64 max_line = spans_.max_addr >> cache_.line_shift_;
    // Set-aligned base so rebasing shifts tags without disturbing set bits.
    const u64 base_line = min_line & ~cache_.set_mask_;
    const u64 base_tag = base_line >> cache_.set_shift_;
    const u64 max_tag = max_line >> cache_.set_shift_;
    compact = max_tag < SetAssocCache::kInvalidTag32 && max_tag - base_tag < 0xFF;
    if (compact) {
      state_.sets = cache_.sets_;
      state_.set_mask = cache_.set_mask_;
      state_.set_shift = cache_.set_shift_;
      state_.line_shift = cache_.line_shift_;
      state_.line_bytes = cache_.line_bytes_;
      state_.base_tag = static_cast<u32>(base_tag);
      state_.policy = cache_.policy_;
      // +64B / +8 words of tail padding keep the masked group loads inside
      // the allocations at the last sets.
      state_.tags.assign(state_.sets * 8 + 64, 0xFF);
      state_.aux.assign(state_.sets + 8, state_.policy == Policy::Lru
                                             ? 0x0706050403020100ull   // identity ranks
                                             : 0x0303030303030303ull); // clean, distant
    }
  }
  compact_ = compact;
  // The generic (non-8-way) layout stamps recency with a monotonic clock, so
  // its state never revisits itself — no point snapshotting.
  can_cycle_ = compact_ || cache_.fast8_;
}

void StreamReplayer::run_steps(size_t step_begin, size_t step_end, ReplayService* out) {
  if (step_begin == step_end) return;
  const u32* op_end = spans_.op_end;
  size_t span = step_begin == 0 ? 0 : op_end[step_begin - 1];
  if (compact_) {
    for (size_t i = step_begin; i < step_end; ++i) {
      const size_t e = op_end[i];
      const Bytes r0 = state_.s.dram_read, w0 = state_.s.dram_write;
      detail::replay_spans_avx512(state_, spans_, span, e);
      out[i - step_begin] = {state_.s.dram_read - r0, state_.s.dram_write - w0};
      span = e;
    }
    return;
  }
  const size_t total = op_end[step_end - 1];
  for (size_t i = step_begin; i < step_end; ++i) {
    const size_t e = op_end[i];
    const Bytes r0 = cache_.stats_.dram_read_bytes, w0 = cache_.stats_.dram_write_bytes;
    for (size_t j = span; j < e; ++j) {
      // The capture drops prefetch hints; replay re-issues its own lookahead.
      if (j + 4 < total) cache_.prefetch_range(spans_.addr(j + 4), spans_.len(j + 4));
      cache_.access_range(spans_.addr(j), spans_.len(j), spans_.write(j));
    }
    out[i - step_begin] = {cache_.stats_.dram_read_bytes - r0,
                          cache_.stats_.dram_write_bytes - w0};
    span = e;
  }
}

namespace {

/// Canonicalize one LRU set: emit valid (tag, dirty) pairs in recency order,
/// invalid ways last, ranks re-seated as the identity permutation.
///
/// LRU outcomes are invariant under way permutation — a hit is a tag lookup,
/// the eviction victim is the rank-7 *tag*, and fills into invalid ways pick
/// by way index but only decide placement, never traffic.  Identical access
/// sequences therefore drive permuted states to permuted (equivalent) states
/// forever: raw way-major blobs never repeat even when the replacement state
/// has converged.  The canonical form is the unique equivalent concrete state
/// with ranks 0..7 seated at ways 0..7 (so restore stays a straight memcpy);
/// under it the stack property makes CG-style periodic streams converge after
/// one or two occurrences.  BRRIP gets no such form — its RRPV==3 victim scan
/// picks the lowest way *index*, so placement does change future traffic.
template <typename TagT>
void canonicalize_lru_set(const TagT* tags_in, u64 rank_word, TagT invalid, u8 dirty_bit,
                          TagT* tags_out, u8* rank_out) {
  TagT by_rank_tag[8];
  u8 by_rank_dirty[8];
  u8 by_rank_valid[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (int w = 0; w < 8; ++w) {
    const u8 a = static_cast<u8>(rank_word >> (8 * w));
    const u8 r = a & 7;
    by_rank_tag[r] = tags_in[w];
    by_rank_dirty[r] = a & dirty_bit;
    by_rank_valid[r] = tags_in[w] != invalid;
  }
  int pos = 0;
  for (int r = 0; r < 8; ++r) {
    if (!by_rank_valid[r]) continue;
    tags_out[pos] = by_rank_tag[r];
    rank_out[pos] = static_cast<u8>(pos) | by_rank_dirty[r];
    ++pos;
  }
  for (; pos < 8; ++pos) {
    tags_out[pos] = invalid;
    rank_out[pos] = static_cast<u8>(pos);
  }
}

}  // namespace

void StreamReplayer::save_state(std::vector<u8>& blob) const {
  // The blob is everything future replacement decisions can read: tags, the
  // recency/RRPV + dirty lane, and the bimodal counter modulo its period.
  // LRU lanes are canonicalized (see canonicalize_lru_set); mru_way_ is a
  // probe-order hint — it cannot change any outcome, and including it would
  // hide real cycles.
  if (compact_) {
    const size_t nt = state_.sets * 8;
    blob.resize(nt + nt + 1);
    if (state_.policy == Policy::Lru) {
      for (u64 s = 0; s < state_.sets; ++s)
        canonicalize_lru_set<u8>(&state_.tags[s * 8], state_.aux[s], u8{0xFF}, u8{0x40},
                                 blob.data() + s * 8, blob.data() + nt + s * 8);
    } else {
      std::memcpy(blob.data(), state_.tags.data(), nt);
      std::memcpy(blob.data() + nt, state_.aux.data(), nt);
    }
    // The BRRIP bimodal fill counter equals the miss count; LRU has none.
    blob[nt + nt] = state_.policy == Policy::Brrip ? static_cast<u8>(state_.s.misses % 32) : 0;
    return;
  }
  const size_t nt = cache_.sets_ * 8 * sizeof(u32);
  const bool lru = cache_.policy_ == Policy::Lru;
  const size_t na = cache_.sets_ * 8;  // rank words and meta bytes: 8B per set
  blob.resize(nt + na + 1);
  if (lru) {
    for (u64 s = 0; s < cache_.sets_; ++s) {
      u32 ct[8];
      canonicalize_lru_set<u32>(&cache_.tags32_[s * 8], cache_.lru_rank_[s],
                                SetAssocCache::kInvalidTag32,
                                static_cast<u8>(SetAssocCache::kRankDirty), ct,
                                blob.data() + nt + s * 8);
      std::memcpy(blob.data() + s * 8 * sizeof(u32), ct, sizeof(ct));
    }
  } else {
    std::memcpy(blob.data(), cache_.tags32_.data(), nt);
    std::memcpy(blob.data() + nt, cache_.meta_.data(), na);
  }
  blob[nt + na] = static_cast<u8>(cache_.brrip_insert_counter_ % 32);
}

void StreamReplayer::restore_state(const std::vector<u8>& blob) {
  // Lanes only; the counter byte is mod-32 (detection needs no more) and the
  // absolute counter is restored from the misses invariant by the caller.
  if (compact_) {
    const size_t nt = state_.sets * 8;
    std::memcpy(state_.tags.data(), blob.data(), nt);
    std::memcpy(state_.aux.data(), blob.data() + nt, nt);
    return;
  }
  const size_t nt = cache_.sets_ * 8 * sizeof(u32);
  const bool lru = cache_.policy_ == Policy::Lru;
  const size_t na = cache_.sets_ * 8;
  std::memcpy(cache_.tags32_.data(), blob.data(), nt);
  std::memcpy(lru ? reinterpret_cast<u8*>(cache_.lru_rank_.data()) : cache_.meta_.data(),
              blob.data() + nt, na);
}

CacheStats StreamReplayer::current_stats() const {
  if (!compact_) return cache_.stats_;
  CacheStats c;
  c.accesses = c.tag_lookups = c.data_accesses = state_.s.lines;
  c.hits = state_.s.hits;
  c.misses = state_.s.misses;
  c.evictions = state_.s.evictions;
  c.writebacks = state_.s.writebacks;
  c.dram_read_bytes = state_.s.dram_read;
  c.dram_write_bytes = state_.s.dram_write;
  return c;
}

void StreamReplayer::set_stats(const CacheStats& st) {
  if (!compact_) {
    cache_.stats_ = st;
    return;
  }
  state_.s.lines = st.accesses;
  state_.s.hits = st.hits;
  state_.s.misses = st.misses;
  state_.s.evictions = st.evictions;
  state_.s.writebacks = st.writebacks;
  state_.s.dram_read = st.dram_read_bytes;
  state_.s.dram_write = st.dram_write_bytes;
}

void StreamReplayer::run_prefix() {
  pre_v_.resize(spans_.prefix_steps);
  run_steps(0, spans_.prefix_steps, pre_v_.data());
  if (can_cycle_ && spans_.period_steps != 0 && spans_.period_count != 0) {
    Snapshot s0;
    save_state(s0.blob);
    s0.hash = blob_hash(s0.blob);
    s0.stats = current_stats();
    snaps_.push_back(std::move(s0));
  }
}

void StreamReplayer::run_occurrence() {
  if (converged_ || spans_.period_steps == 0 || occ_ >= spans_.period_count) return;
  const size_t L = spans_.period_steps;
  const size_t executed = static_cast<size_t>(occ_);
  occ_v_.resize((executed + 1) * L);
  run_steps(spans_.prefix_steps, spans_.prefix_steps + L, occ_v_.data() + executed * L);
  ++occ_;
  // After the last occurrence there is nothing left to fast-forward.
  if (!can_cycle_ || snaps_.empty() || occ_ == spans_.period_count) return;

  Snapshot cur;
  cur.blob = std::move(spare_blob_);
  save_state(cur.blob);
  cur.hash = blob_hash(cur.blob);
  cur.stats = current_stats();
  const size_t first = snaps_.size() > kSnapshotWindow ? snaps_.size() - kSnapshotWindow : 0;
  for (size_t j = first; j < snaps_.size(); ++j) {
    if (snaps_[j].hash == cur.hash && snaps_[j].blob == cur.blob) {
      fast_forward(j, cur.stats);
      return;
    }
  }
  snaps_.push_back(std::move(cur));
  if (snaps_.size() > kSnapshotWindow)
    spare_blob_ = std::move(snaps_[snaps_.size() - 1 - kSnapshotWindow].blob);
}

void StreamReplayer::fast_forward(u64 j, const CacheStats& c_k) {
  // snaps_[i] is (state, stats) after i occurrences; the state after occ_
  // occurrences just matched snaps_[j], so occurrences advance the state
  // through a cycle of length occ_ - j from here on.  j + rem < occ_, so the
  // restored blob is inside the detection window.
  const u64 k = occ_;
  const u64 cyc = k - j;
  const u64 remaining = spans_.period_count - k;
  const u64 full = remaining / cyc;
  const u64 rem = remaining % cyc;
  const CacheStats cycle_delta = stats_sub(c_k, snaps_[j].stats);
  CacheStats fin = stats_add(c_k, stats_scale(cycle_delta, full));
  fin = stats_add(fin, stats_sub(snaps_[j + rem].stats, snaps_[j].stats));
  restore_state(snaps_[j + rem].blob);
  set_stats(fin);
  // The bimodal fill counter bumps exactly once per miss (and only under
  // BRRIP), so the absolute counter is recoverable from the final stats.
  // (The compact engine reads its counter off the misses directly.)
  if (!compact_ && cache_.policy_ == Policy::Brrip)
    cache_.brrip_insert_counter_ = cache_.stats_.misses;
  cycle_from_ = j;
  cycle_len_ = cyc;
  converged_ = true;
  occ_ = spans_.period_count;
  snaps_.clear();
  snaps_.shrink_to_fit();
  spare_blob_ = {};
}

void StreamReplayer::run_suffix() {
  suf_v_.resize(spans_.suffix_steps);
  const size_t b = spans_.prefix_steps + spans_.period_steps;
  run_steps(b, b + spans_.suffix_steps, suf_v_.data());
}

void StreamReplayer::finish(std::vector<ReplayService>& services) {
  const size_t P = spans_.prefix_steps;
  const size_t L = spans_.period_steps;
  const size_t N = spans_.period_count;
  services.resize(spans_.schedule_steps);
  std::copy(pre_v_.begin(), pre_v_.end(), services.begin());
  const size_t executed = L == 0 ? 0 : occ_v_.size() / L;
  for (size_t o = 0; o < N; ++o) {
    // Skipped occurrences replay the services of their cycle twin: equal
    // starting states produce equal per-op traffic.
    const size_t src =
        o < executed ? o : cycle_from_ + (o - cycle_from_) % cycle_len_;
    std::copy(occ_v_.begin() + src * L, occ_v_.begin() + (src + 1) * L,
              services.begin() + P + o * L);
  }
  std::copy(suf_v_.begin(), suf_v_.end(), services.begin() + P + N * L);

  if (!compact_) return;
  // Expand the compact state back into the cache's own lanes so flush(),
  // contains(), valid_lines() and stats() behave exactly as after a direct
  // run.  (mru_way_ stays at its reset value: it is a probe hint only.)
  const size_t n = state_.sets * 8;
  for (size_t i = 0; i < n; ++i) {
    const u8 t8 = state_.tags[i];
    cache_.tags32_[i] =
        t8 == 0xFF ? SetAssocCache::kInvalidTag32 : state_.base_tag + t8;
  }
  if (state_.policy == Policy::Lru) {
    std::memcpy(cache_.lru_rank_.data(), state_.aux.data(), state_.sets * sizeof(u64));
  } else {
    std::memcpy(cache_.meta_.data(), state_.aux.data(), state_.sets * 8);
    cache_.brrip_insert_counter_ = state_.s.misses;
  }
  cache_.stats_ = current_stats();
}

void StreamReplayer::run(std::vector<ReplayService>& services) {
  run_prefix();
  for (u64 o = 0; o < spans_.period_count && !converged_; ++o) run_occurrence();
  run_suffix();
  finish(services);
}

}  // namespace cello::cache
