#include "sim/policies/cache_policy.hpp"

#include <memory>

#include "cache/cache_replay.hpp"
#include "mem/sram_model.hpp"
#include "sim/access_stream.hpp"

namespace cello::sim {

namespace {

cache::ReplaySpans spans_view(const AccessStream& s) {
  cache::ReplaySpans v;
  v.offset = s.offset.data();
  v.len_write = s.len_write.data();
  v.op_end = s.op_end.data();
  v.prefix_steps = s.prefix_steps;
  v.period_steps = s.period_steps;
  v.period_count = s.period_count;
  v.suffix_steps = s.suffix_steps;
  v.schedule_steps = s.schedule_steps;
  v.min_addr = s.min_addr;
  v.max_addr = s.max_addr;
  return v;
}

void convert_services(const std::vector<cache::ReplayService>& in,
                      std::vector<BufferService>& out) {
  out.resize(in.size());
  for (size_t i = 0; i < in.size(); ++i) out[i] = {in[i].dram_read, in[i].dram_write};
}

}  // namespace

BufferService CachePolicy::service_op(const OpTrace& trace) {
  const Bytes read_before = cache_.stats().dram_read_bytes;
  const Bytes write_before = cache_.stats().dram_write_bytes;

  emit_op_accesses(
      trace, arch_, scratch_,
      [&](Addr a, Bytes l, bool w) { cache_.access_range(a, l, w); },
      [&](Addr a, Bytes l) { cache_.prefetch_range(a, l); });

  return {.dram_read = cache_.stats().dram_read_bytes - read_before,
          .dram_write = cache_.stats().dram_write_bytes - write_before};
}

bool CachePolicy::replay(const AccessStream& stream, std::vector<BufferService>& services) {
  if (!stream.compatible(arch_) || cache_.stats().accesses != 0) return false;
  const cache::ReplaySpans view = spans_view(stream);
  cache::StreamReplayer rep(cache_, view);
  std::vector<cache::ReplayService> rs;
  rep.run(rs);
  convert_services(rs, services);
  return true;
}

bool CachePolicy::replay_many(const AccessStream& stream,
                              const std::vector<CachePolicy*>& policies,
                              std::vector<std::vector<BufferService>>& services) {
  for (CachePolicy* p : policies)
    if (!stream.compatible(p->arch_) || p->cache_.stats().accesses != 0) return false;
  const cache::ReplaySpans view = spans_view(stream);
  std::vector<std::unique_ptr<cache::StreamReplayer>> reps;
  reps.reserve(policies.size());
  for (CachePolicy* p : policies)
    reps.push_back(std::make_unique<cache::StreamReplayer>(p->cache_, view));
  for (auto& r : reps) r->run_prefix();
  // Occurrence lockstep: every engine consumes the same period block before
  // the stream moves on, so the block's spans stay hot across all of them.
  // Engines converge (fast-forward) independently and then no-op.
  for (u64 o = 0; o < stream.period_count; ++o) {
    bool live = false;
    for (auto& r : reps) {
      r->run_occurrence();
      live = live || !r->converged();
    }
    if (!live) break;
  }
  services.resize(reps.size());
  std::vector<cache::ReplayService> rs;
  for (size_t i = 0; i < reps.size(); ++i) {
    reps[i]->run_suffix();
    rs.clear();
    reps[i]->finish(rs);
    convert_services(rs, services[i]);
  }
  return true;
}

std::optional<std::vector<DrainItem>> CachePolicy::drain(const DrainContext&) {
  const Bytes before = cache_.stats().dram_bytes();
  cache_.flush();
  return std::vector<DrainItem>{{std::string(), cache_.stats().dram_bytes() - before}};
}

void CachePolicy::finalize(const AcceleratorConfig& arch, u64 /*pipeline_sram_lines*/,
                           RunMetrics& m) const {
  const auto& cs = cache_.stats();
  // The cache's line-granularity accounting is authoritative for the traffic
  // it serviced; fold it into whatever the schedule moved directly (register
  // file cold fetches, SCORE result drains).
  m.dram_read_bytes += cs.dram_read_bytes;
  m.dram_write_bytes += cs.dram_write_bytes;
  m.dram_bytes = m.dram_read_bytes + m.dram_write_bytes;
  mem::SramModel sram({arch.sram_bytes, arch.line_bytes, arch.cache_associativity});
  const auto e = sram.access_energy(mem::BufferKind::Cache);
  m.sram_line_accesses = cs.data_accesses;
  m.onchip_energy_pj = static_cast<double>(cs.data_accesses) * e.data_pj +
                       static_cast<double>(cs.tag_lookups) * e.tag_pj;
}

BufferPolicyFactory lru_cache() {
  return [](const AcceleratorConfig& arch) {
    return std::make_unique<CachePolicy>(arch, cache::Policy::Lru);
  };
}

BufferPolicyFactory brrip_cache() {
  return [](const AcceleratorConfig& arch) {
    return std::make_unique<CachePolicy>(arch, cache::Policy::Brrip);
  };
}

}  // namespace cello::sim
