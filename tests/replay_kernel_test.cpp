// Differential test of the compact replay kernels (cache/cache_simd512.cpp).
// Seeded random span streams are replayed through StreamReplayer and, as the
// oracle, fed span by span through SetAssocCache::access_range on a second
// cache.  After finish() the two caches must agree on the full CacheStats,
// the tag lane, the LRU rank / BRRIP meta lane and the bimodal fill counter,
// and every op must be charged the same DRAM traffic.
//
// The streams exercise what the kernels special-case: runs of 1..33 sets
// around the one-group (8) and two-group (16) boundaries, spans that cross
// the set-index wrap or sweep every set, reads mixed with writes, each of the
// 32 bimodal counter phases at the start of a group pair, tags at both edges
// of the rebased u8 window (0 and 0xFE), and periodic streams that
// fast-forward.  On a host without the AVX-512 engine the kernel tests skip:
// the direct engine compared with itself would pass vacuously.  The last
// test pins the documented tag-window cliff: a stream whose tags span 255 or
// more values falls back to the direct engine and stays bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/cache_replay.hpp"

namespace cello::cache {

struct SetAssocCacheTestPeer {
  static const std::vector<u32>& tags(const SetAssocCache& c) { return c.tags32_; }
  static const std::vector<u64>& ranks(const SetAssocCache& c) { return c.lru_rank_; }
  static const std::vector<u8>& meta(const SetAssocCache& c) { return c.meta_; }
  static u64 counter(const SetAssocCache& c) { return c.brrip_insert_counter_; }
};

namespace {

using Peer = SetAssocCacheTestPeer;

constexpr u32 kLine = 16;
constexpr u32 kWays = 8;

struct Span {
  Addr addr;
  u32 len;
  bool write;
};

/// A captured-stream stand-in: ops of spans, linear or periodic.
struct Stream {
  std::vector<std::vector<Span>> prefix, period, suffix;  ///< spans per op
  u64 period_count = 0;
};

/// The owned arrays behind one ReplaySpans view.
struct Packed {
  std::vector<u32> offset, len_write, op_end;
  ReplaySpans view;
};

Packed pack(const Stream& s) {
  Packed p;
  Addr lo = ~Addr{0}, hi = 0;
  for (const auto* part : {&s.prefix, &s.period, &s.suffix})
    for (const auto& op : *part)
      for (const Span& sp : op) {
        lo = std::min(lo, sp.addr);
        hi = std::max(hi, sp.addr + sp.len - 1);
      }
  for (const auto* part : {&s.prefix, &s.period, &s.suffix})
    for (const auto& op : *part) {
      for (const Span& sp : op) {
        p.offset.push_back(static_cast<u32>(sp.addr - lo));
        p.len_write.push_back(sp.len << 1 | (sp.write ? 1u : 0u));
      }
      p.op_end.push_back(static_cast<u32>(p.offset.size()));
    }
  ReplaySpans& v = p.view;
  v.offset = p.offset.data();
  v.len_write = p.len_write.data();
  v.op_end = p.op_end.data();
  v.prefix_steps = s.prefix.size();
  v.period_steps = s.period.size();
  v.period_count = s.period.empty() ? 0 : s.period_count;
  v.suffix_steps = s.suffix.size();
  v.schedule_steps = v.prefix_steps + v.period_steps * v.period_count + v.suffix_steps;
  v.min_addr = lo;
  v.max_addr = hi;
  return p;
}

/// One LRU set as (tag, dirty) per recency rank; empty ways read as ~0.
std::vector<std::pair<u32, bool>> lru_by_rank(const SetAssocCache& c, u64 set) {
  std::vector<std::pair<u32, bool>> by_rank(kWays);
  const u64 word = Peer::ranks(c)[set];
  for (u32 w = 0; w < kWays; ++w) {
    const u8 b = static_cast<u8>(word >> (8 * w));
    by_rank[b & 7] = {Peer::tags(c)[set * kWays + w], (b & 0x40) != 0};
  }
  return by_rank;
}

/// Replay `s` on a fresh cache and on an oracle driven through access_range;
/// compare everything a later access or a report can observe.  Returns
/// whether the compact engine ran; `converged` receives whether the replay
/// fast-forwarded.
bool expect_replay_matches_direct(u64 sets, Policy policy, const Stream& s,
                                  const std::string& what, bool* converged = nullptr) {
  const Packed p = pack(s);
  SetAssocCache replayed(sets * kWays * kLine, kLine, kWays, policy);
  StreamReplayer replayer(replayed, p.view);
  std::vector<ReplayService> services;
  replayer.run(services);
  if (converged != nullptr) *converged = replayer.converged();

  SetAssocCache oracle(sets * kWays * kLine, kLine, kWays, policy);
  std::vector<ReplayService> expected;
  auto run_op = [&](const std::vector<Span>& op) {
    const CacheStats before = oracle.stats();
    for (const Span& sp : op) oracle.access_range(sp.addr, sp.len, sp.write);
    expected.push_back({oracle.stats().dram_read_bytes - before.dram_read_bytes,
                        oracle.stats().dram_write_bytes - before.dram_write_bytes});
  };
  for (const auto& op : s.prefix) run_op(op);
  for (u64 o = 0; o < p.view.period_count; ++o)
    for (const auto& op : s.period) run_op(op);
  for (const auto& op : s.suffix) run_op(op);

  const CacheStats& a = replayed.stats();
  const CacheStats& b = oracle.stats();
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes) << what;
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes) << what;
  EXPECT_EQ(a.tag_lookups, b.tag_lookups) << what;
  EXPECT_EQ(a.data_accesses, b.data_accesses) << what;
  EXPECT_GT(b.misses, 0u) << what;

  EXPECT_EQ(Peer::counter(replayed), Peer::counter(oracle)) << what;
  if (policy == Policy::Lru && replayer.converged()) {
    // A fast-forward restores a canonical LRU snapshot: the same lines at
    // the same recency ranks, possibly in other ways of their set.
    u64 set = 0;
    while (set < sets && lru_by_rank(replayed, set) == lru_by_rank(oracle, set)) ++set;
    EXPECT_EQ(set, sets) << what << ": LRU sets differ first at set " << set;
    return replayer.compact();
  }
  const auto& ta = Peer::tags(replayed);
  const auto& tb = Peer::tags(oracle);
  const auto tag_diff = std::mismatch(ta.begin(), ta.end(), tb.begin());
  EXPECT_TRUE(tag_diff.first == ta.end())
      << what << ": tag lanes differ first at set " << (tag_diff.first - ta.begin()) / kWays
      << " way " << (tag_diff.first - ta.begin()) % kWays;
  if (policy == Policy::Lru) {
    const auto& ra = Peer::ranks(replayed);
    const auto& rb = Peer::ranks(oracle);
    const auto d = std::mismatch(ra.begin(), ra.end(), rb.begin());
    EXPECT_TRUE(d.first == ra.end())
        << what << ": rank words differ first at set " << (d.first - ra.begin());
  } else {
    const auto& ma = Peer::meta(replayed);
    const auto& mb = Peer::meta(oracle);
    const auto d = std::mismatch(ma.begin(), ma.end(), mb.begin());
    EXPECT_TRUE(d.first == ma.end())
        << what << ": meta bytes differ first at set " << (d.first - ma.begin()) / kWays
        << " way " << (d.first - ma.begin()) % kWays;
  }

  EXPECT_EQ(services.size(), expected.size()) << what;
  for (size_t i = 0; i < std::min(services.size(), expected.size()); ++i) {
    EXPECT_EQ(services[i].dram_read, expected[i].dram_read) << what << " op " << i;
    EXPECT_EQ(services[i].dram_write, expected[i].dram_write) << what << " op " << i;
  }
  return replayer.compact();
}

/// Random spans at tags counted from `base_tag`: each covers `n` lines from a
/// given set, starting and ending at random bytes of its end lines, and is a
/// write one time in three.
class SpanGen {
 public:
  SpanGen(u64 seed, u64 sets, u64 base_tag) : rng_(seed), sets_(sets), base_tag_(base_tag) {}

  /// `n` consecutive lines from (tag8, set); tag8 is relative to base_tag.
  Span lines(u64 tag8, u64 set, u64 n) {
    const u64 first = (base_tag_ + tag8) * sets_ + set;
    const u64 off = pick(kLine);
    const u64 end = n == 1 ? off + pick(kLine - off) : pick(kLine);
    const Addr a = first * kLine + off;
    const Addr last = (first + n - 1) * kLine + end;
    return {a, static_cast<u32>(last - a + 1), pick(3) == 0};
  }

  u64 pick(u64 n) { return std::uniform_int_distribution<u64>(0, n - 1)(rng_); }

 private:
  std::mt19937_64 rng_;
  u64 sets_;
  u64 base_tag_;
};

/// Runs of every length around the group boundaries, starting anywhere,
/// over a small tag pool (hits, fills, evictions) that includes both window
/// edges; some cross the wrap and some sweep every set.
Stream mixed_stream(u64 seed, u64 sets, u64 spans, u64 per_op) {
  static constexpr u64 kRuns[] = {1, 7, 8, 9, 15, 16, 17, 31, 32, 33};
  static constexpr u64 kTags[] = {0, 1, 2, 3, 5, 8, 13, 21, 34, 0x7F, 0xFD, 0xFE};
  SpanGen g(seed, sets, /*base_tag=*/4242);
  Stream s;
  std::vector<Span> op;
  // Pin the window: the lowest and highest tags the stream may use.
  op.push_back(g.lines(0, 0, 1));
  op.push_back(g.lines(0xFE, sets - 1, 1));
  for (u64 i = 0; i < spans; ++i) {
    const u64 kind = g.pick(16);
    u64 n = kRuns[g.pick(std::size(kRuns))];
    u64 tag8 = kTags[g.pick(std::size(kTags))];
    u64 set = g.pick(sets);
    if (kind == 0)
      n = sets + g.pick(2 * sets);  // at least one full sweep
    else if (kind <= 3)
      set = sets - 1 - g.pick(std::min<u64>(n, sets));  // cross the wrap
    // Each wrap bumps the tag; stay inside the window.
    tag8 = std::min<u64>(tag8, 0xFE - (set + n - 1) / sets);
    op.push_back(g.lines(tag8, set, n));
    if (op.size() >= per_op) {
      s.prefix.push_back(std::move(op));
      op.clear();
    }
  }
  if (!op.empty()) s.prefix.push_back(std::move(op));
  return s;
}

bool compact_engine_available() { return detail::avx512_runtime(); }

#define REQUIRE_COMPACT_ENGINE()                                                    \
  if (!compact_engine_available())                                                  \
  GTEST_SKIP() << "no AVX-512 compact engine on this host (or CELLO_DISABLE_AVX512 " \
                  "set): the direct engine would only be compared with itself"

class ReplayKernel : public ::testing::TestWithParam<Policy> {};

TEST_P(ReplayKernel, RandomRunsMatchDirectAccess) {
  REQUIRE_COMPACT_ENGINE();
  for (const u64 sets : {16ull, 64ull, 1024ull}) {
    for (u64 seed = 1; seed <= 4; ++seed) {
      const std::string what = std::string(to_string(GetParam())) + " sets=" +
                               std::to_string(sets) + " seed=" + std::to_string(seed);
      EXPECT_TRUE(expect_replay_matches_direct(sets, GetParam(),
                                               mixed_stream(seed, sets, 3000, 7), what))
          << what << ": the stream should fit the compact engine's tag window";
    }
  }
}

TEST_P(ReplayKernel, DefaultGeometryMatchesDirectAccess) {
  REQUIRE_COMPACT_ENGINE();
  const u64 sets = (4ull << 20) / (kWays * kLine);  // the 4 MiB default
  EXPECT_TRUE(expect_replay_matches_direct(sets, GetParam(), mixed_stream(99, sets, 400, 5),
                                           to_string(GetParam())));
}

TEST_P(ReplayKernel, EveryCounterPhaseAtThePairStart) {
  REQUIRE_COMPACT_ENGINE();
  // p one-line misses bring the bimodal counter to p; then group pairs start
  // on empty sets (fills into empty ways), on full sets (aging, evictions)
  // and on a mix, each at a counter phase the previous group left.
  constexpr u64 sets = 64;
  for (u64 p = 0; p < 32; ++p) {
    SpanGen g(1000 + p, sets, /*base_tag=*/17);
    Stream s;
    std::vector<Span> seed_op;
    for (u64 i = 0; i < p; ++i) seed_op.push_back(g.lines(1, 32 + i, 1));
    s.prefix.push_back(std::move(seed_op));
    s.prefix.push_back({g.lines(2, 0, 16)});   // one all-miss pair, empty ways
    s.prefix.push_back({g.lines(3, 0, 33)});   // two pairs and a one-set tail
    for (u64 t = 4; t < 14; ++t) s.prefix.push_back({g.lines(t, 0, 32)});  // full sets
    s.prefix.push_back({g.lines(2, 3, 17), g.lines(13, 0, 16), g.lines(14, 8, 31)});
    for (u64 i = 0; i < 40; ++i)
      s.prefix.push_back({g.lines(2 + g.pick(14), g.pick(sets - 33), 16 + g.pick(18))});
    EXPECT_TRUE(
        expect_replay_matches_direct(sets, GetParam(), s, "counter phase " + std::to_string(p)));
  }
}

TEST_P(ReplayKernel, PeriodicStreamFastForwardsToTheDirectState) {
  REQUIRE_COMPACT_ENGINE();
  constexpr u64 sets = 64;
  const Stream base = mixed_stream(7, sets, 600, 6);
  Stream s;
  s.prefix.assign(base.prefix.begin(), base.prefix.begin() + 10);
  s.period.assign(base.prefix.begin() + 10, base.prefix.begin() + 60);
  s.suffix.assign(base.prefix.begin() + 60, base.prefix.end());
  s.period_count = 9;
  bool converged = false;
  EXPECT_TRUE(expect_replay_matches_direct(sets, GetParam(), s, "periodic", &converged));
  // LRU's canonical snapshots find the cycle; BRRIP's counter rarely cycles.
  if (GetParam() == Policy::Lru) {
    EXPECT_TRUE(converged);
  }
}

// The compact engine stores tags as u8 offsets into a window of 255 values
// (0xFF marks an empty way).  A stream whose tags span more falls back to the
// direct engine, silently and bit-identically.
TEST_P(ReplayKernel, OverWindowStreamFallsBackBitIdentically) {
  constexpr u64 sets = 64;
  SpanGen g(5, sets, /*base_tag=*/300);
  Stream s;
  for (u64 i = 0; i < 200; ++i) {
    const u64 tag8 = i % 2 == 0 ? g.pick(4) : 0xFF + g.pick(64);  // tags 255+ apart
    s.prefix.push_back({g.lines(tag8, g.pick(sets - 17), 1 + g.pick(17))});
  }
  EXPECT_FALSE(expect_replay_matches_direct(sets, GetParam(), s, "over-window"))
      << "a tag window of 255 or more must take the direct engine";
}

INSTANTIATE_TEST_SUITE_P(Policies, ReplayKernel, ::testing::Values(Policy::Lru, Policy::Brrip),
                         [](const ::testing::TestParamInfo<Policy>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace cello::cache
