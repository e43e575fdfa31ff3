// CachePolicy: the implicit-buffer baselines (Flex+LRU, Flex+BRRIP) behind
// the BufferPolicy interface.  Trace-driven at cache-line granularity: every
// routed op is replayed as a chunked access stream, including the SpMM
// gather pattern against the real sparse matrix when one is provided.
//
// Two servicing paths, bit-identical by construction:
//  * replay() consumes a captured AccessStream through cache::StreamReplayer
//    — the path every untraced run takes.  One capture amortizes address
//    generation across every cache geometry in a sweep column, and periodic
//    streams fast-forward once the cache state cycles.  replay_many()
//    batches N pooled policies over a single stream pass.
//  * service_op drives the cache directly through the shared span emitter
//    (sim/policies/access_gen.hpp), allocation-free on the steady path — the
//    path of traced runs (per-step occupancy samples) and of the
//    CELLO_DISABLE_REPLAY oracle.
#pragma once

#include <vector>

#include "cache/cache.hpp"
#include "sim/policies/access_gen.hpp"
#include "sim/policies/buffer_policy.hpp"

namespace cello::sim {

class CachePolicy final : public BufferPolicy {
 public:
  CachePolicy(const AcceleratorConfig& arch, cache::Policy replacement)
      : arch_(arch),
        replacement_(replacement),
        cache_(arch.sram_bytes, arch.line_bytes, arch.cache_associativity, replacement) {}

  const char* name() const override {
    return replacement_ == cache::Policy::Lru ? "LRU" : "BRRIP";
  }
  bool trace_driven() const override { return true; }

  bool reusable() const override { return true; }
  void reset() override {
    cache_.reset();
    scratch_.large_in.clear();
    scratch_.small_in.clear();
  }

  BufferService service_op(const OpTrace& trace) override;

  bool supports_replay() const override { return true; }
  /// Stream replay; requires a compatible stream and a freshly reset cache
  /// (returns false otherwise — the caller falls back to service_op).
  bool replay(const AccessStream& stream, std::vector<BufferService>& services) override;

  /// Batched replay: run every policy over one pass of the stream in
  /// occurrence lockstep, so N cache geometries (LRU/BRRIP x SRAM budgets)
  /// share each hot period block while it is resident in the host caches.
  /// Equivalent to N independent replay() calls; all-or-nothing (returns
  /// false with every policy untouched when any one is ineligible).
  static bool replay_many(const AccessStream& stream, const std::vector<CachePolicy*>& policies,
                          std::vector<std::vector<BufferService>>& services);

  /// End-of-run flush of dirty lines.
  std::optional<std::vector<DrainItem>> drain(const DrainContext& ctx) override;

  Bytes occupancy_bytes() const override {
    return static_cast<Bytes>(cache_.valid_lines()) * cache_.line_bytes();
  }

  void finalize(const AcceleratorConfig& arch, u64 pipeline_sram_lines,
                RunMetrics& m) const override;

  const cache::SetAssocCache& cache() const { return cache_; }

 private:
  AcceleratorConfig arch_;
  cache::Policy replacement_;
  cache::SetAssocCache cache_;

  // Reused operand-partition scratch — service_op allocates nothing
  // steady-state.
  OpAccessScratch scratch_;
};

BufferPolicyFactory lru_cache();
BufferPolicyFactory brrip_cache();

}  // namespace cello::sim
