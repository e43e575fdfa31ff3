// Capture/replay split of the trace-driven cache path (sim/access_stream.hpp,
// cache/cache_replay.hpp): replaying a captured AccessStream must be
// bit-identical to direct service_op simulation — per metric field, per op —
// on every golden workload under all seven Table IV presets (plus Flex+KV,
// which is trace-driven but not replayable and must be untouched by the
// plumbing), on multi-node sweep cells and their 1-node baselines, and on
// runs that capture their own stream.  The direct oracle is always the
// CELLO_DISABLE_REPLAY escape hatch.  Also pins: capture determinism
// (fingerprint + field level), decoded stream contents against digests of
// the unpacked pre-packing capture, the linear fallback of a failed period
// verification, replay_many ≡ N independent replays, and the scalar replay
// engine (CELLO_DISABLE_AVX512) against the SIMD one.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "sim/access_stream.hpp"
#include "sim/policies/cache_policy.hpp"
#include "sim/policies/schedule_policy.hpp"
#include "sim/registry.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/workload_registry.hpp"
#include "sparse/datasets.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/resnet.hpp"

namespace {

using namespace cello;
using namespace cello::sim;

/// Scoped setenv: restores (unsets) on destruction so a failing EXPECT can't
/// leak the toggle into later tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) { setenv(name, value, 1); }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

void expect_metrics_equal(const RunMetrics& a, const RunMetrics& b, const std::string& what) {
  EXPECT_EQ(a.seconds, b.seconds) << what;
  EXPECT_EQ(a.total_macs, b.total_macs) << what;
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes) << what;
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes) << what;
  EXPECT_EQ(a.dram_bytes, b.dram_bytes) << what;
  EXPECT_EQ(a.sram_line_accesses, b.sram_line_accesses) << what;
  EXPECT_EQ(a.onchip_energy_pj, b.onchip_energy_pj) << what;
  EXPECT_EQ(a.offchip_energy_pj, b.offchip_energy_pj) << what;
  EXPECT_EQ(a.traffic_by_tensor, b.traffic_by_tensor) << what;
  ASSERT_EQ(a.per_op.size(), b.per_op.size()) << what;
  for (size_t i = 0; i < a.per_op.size(); ++i) {
    EXPECT_EQ(a.per_op[i].op, b.per_op[i].op) << what << " op " << i;
    EXPECT_EQ(a.per_op[i].macs, b.per_op[i].macs) << what << " op " << i;
    EXPECT_EQ(a.per_op[i].dram_bytes, b.per_op[i].dram_bytes) << what << " op " << i;
  }
}

u64 dbits(double v) {
  u64 u;
  static_assert(sizeof u == sizeof v);
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// expect_metrics_equal plus the multi-node fold's fields.
void expect_folded_equal(const RunMetrics& a, const RunMetrics& b, const std::string& what) {
  expect_metrics_equal(a, b, what);
  EXPECT_EQ(a.nodes, b.nodes) << what;
  EXPECT_EQ(a.noc_bytes, b.noc_bytes) << what;
  EXPECT_EQ(dbits(a.noc_seconds), dbits(b.noc_seconds)) << what;
  EXPECT_EQ(dbits(a.parallel_efficiency), dbits(b.parallel_efficiency)) << what;
}

/// Every registered configuration whose buffer policy replays streams.
std::vector<std::string> replay_capable_configs(const AcceleratorConfig& arch) {
  std::vector<std::string> names;
  for (const auto& name : ConfigRegistry::global().names()) {
    const Configuration& config = ConfigRegistry::global().at(name);
    if (!config.buffers) continue;
    const auto probe = config.buffers(arch);
    if (probe->trace_driven() && probe->supports_replay()) names.push_back(name);
  }
  return names;
}

/// The metrics-golden workload set: synthetic CG (periodic — exercises the
/// period detector and fast-forward), GNN and ResNet (linear streams), and CG
/// over a real sparse matrix (CSR gather capture).
std::vector<SweepWorkload> golden_workloads(const sparse::CsrMatrix& fv1) {
  std::vector<SweepWorkload> wls;
  wls.push_back({"cg", workloads::build_cg_dag({81920, 16, 327680, 5, 4}), nullptr});
  wls.push_back({"gnn", workloads::build_gnn_dag({2708, 9464, 1433, 7}), nullptr});
  wls.push_back({"resnet", workloads::build_resnet_block_dag({}), nullptr});
  wls.push_back(
      {"cg_fv1",
       workloads::build_cg_dag({sparse::dataset_by_name("fv1").rows, 16, fv1.nnz(), 3, 4}),
       &fv1});
  return wls;
}

// Sweep-level bit-identity: the full golden grid — every golden workload x
// all seven Table IV presets + Flex+KV — run with stream replay vs run with
// the escape hatch (which suppresses capture entirely, so every cell takes
// the direct service_op path).
TEST(AccessStream, SweepReplayBitIdenticalOnGoldens) {
  const sparse::CsrMatrix fv1 = sparse::instantiate(sparse::dataset_by_name("fv1"));
  const auto wls = golden_workloads(fv1);
  std::vector<std::string> configs = ConfigRegistry::table4_names();
  configs.push_back("Flex+KV");
  const AcceleratorConfig arch;
  const SweepRunner runner(2);

  const auto fast = runner.run(wls, configs, arch);
  std::vector<SweepResult> slow;
  {
    ScopedEnv off("CELLO_DISABLE_REPLAY", "1");
    slow = runner.run(wls, configs, arch);
  }

  ASSERT_EQ(fast.size(), slow.size());
  ASSERT_EQ(fast.size(), wls.size() * configs.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    ASSERT_TRUE(fast[i].ok()) << fast[i].error;
    ASSERT_TRUE(slow[i].ok()) << slow[i].error;
    expect_metrics_equal(fast[i].metrics, slow[i].metrics,
                         fast[i].workload + "/" + fast[i].config);
  }
}

// Simulator-level identity on the real-matrix golden: capture a stream, run
// with it attached vs without, for both cache presets and both replay
// engines (AVX-512 and scalar), plus the per-run escape hatch.
TEST(AccessStream, DirectRunReplayMatchesServiceOp) {
  const sparse::CsrMatrix fv1 = sparse::instantiate(sparse::dataset_by_name("fv1"));
  const ir::TensorDag dag =
      workloads::build_cg_dag({sparse::dataset_by_name("fv1").rows, 16, fv1.nnz(), 5, 4});
  const AcceleratorConfig arch;
  const Simulator simulator(arch, &fv1);

  for (const char* cname : {"Flex+LRU", "Flex+BRRIP"}) {
    const auto& config = ConfigRegistry::global().at(cname);
    const score::Schedule sched = simulator.make_schedule(dag, config);
    const AddressMap map = AddressMap::build(dag);
    const Router router(dag, sched, config.schedule, config.allow_delayed_hold, arch);
    const AccessStream stream = AccessStream::capture(dag, sched, map, &fv1, arch, router);
    EXPECT_TRUE(stream.compatible(arch));
    EXPECT_EQ(stream.schedule_steps, sched.steps.size());

    RunArtifacts direct_art;
    direct_art.schedule = &sched;
    direct_art.address_map = &map;
    RunMetrics direct;
    {
      ScopedEnv off("CELLO_DISABLE_REPLAY", "1");
      direct = simulator.run(dag, config, direct_art);
    }

    RunArtifacts replay_art = direct_art;
    replay_art.access_stream = &stream;
    const RunMetrics replayed = simulator.run(dag, config, replay_art);
    expect_metrics_equal(direct, replayed, std::string(cname) + " simd replay");

    {
      ScopedEnv scalar("CELLO_DISABLE_AVX512", "1");
      const RunMetrics scalar_replayed = simulator.run(dag, config, replay_art);
      expect_metrics_equal(direct, scalar_replayed, std::string(cname) + " scalar replay");
    }
    {
      ScopedEnv off("CELLO_DISABLE_REPLAY", "1");
      const RunMetrics escaped = simulator.run(dag, config, replay_art);
      expect_metrics_equal(direct, escaped, std::string(cname) + " escape hatch");
    }
    // Without a stream the run captures its own and still replays.
    const RunMetrics lazy = simulator.run(dag, config, direct_art);
    expect_metrics_equal(direct, lazy, std::string(cname) + " lazy capture");
  }
}

// Multi-node sweep cells replay their shard DAG's stream and the 1-node
// baselines replay the full DAG's; both must be bit-identical to the direct
// path — every fold field, parallel efficiency included.  With a single-chip
// fabric in the grid the baselines share that row's stream; without one they
// capture their own.
TEST(AccessStream, MultinodeSweepReplayBitIdenticalOnGoldens) {
  const AcceleratorConfig arch;
  const std::vector<std::string> specs = {"cg:m=81920,n=16,nnz=327680,iters=5,words=4",
                                          "gnn:m=2708,nnz=9464,in=1433,out=7", "resnet",
                                          "cg:dataset=fv1,n=16,iters=3,words=4"};
  const std::vector<std::string> configs = replay_capable_configs(arch);
  ASSERT_GE(configs.size(), 4u);
  const SweepRunner runner(2);
  struct Case {
    std::vector<std::string> specs;
    std::vector<std::string> fabrics;
  };
  const Case cases[] = {
      {specs, {"1", "mesh:2x2", "torus:2x2", "mesh:4x4", "torus:4x4"}},
      {{specs[1], specs[3]}, {"mesh:2x2", "torus:4x4"}},
  };
  for (const Case& c : cases) {
    const SweepGrid grid = make_grid(c.specs, configs, arch, c.fabrics);
    const ShardPlan plan = plan_shard(grid, 1, 1);
    const auto fast = runner.run_shard(grid, plan);
    std::vector<SweepResult> slow;
    {
      ScopedEnv off("CELLO_DISABLE_REPLAY", "1");
      slow = runner.run_shard(grid, plan);
    }
    ASSERT_EQ(fast.size(), grid.cells());
    ASSERT_EQ(slow.size(), grid.cells());
    for (size_t i = 0; i < fast.size(); ++i) {
      ASSERT_TRUE(fast[i].ok()) << fast[i].error;
      ASSERT_TRUE(slow[i].ok()) << slow[i].error;
      expect_folded_equal(fast[i].metrics, slow[i].metrics,
                          fast[i].workload + "/" + fast[i].fabric + "/" + fast[i].config);
    }
  }
}

// A Simulator::run with no artifacts captures its stream lazily — for the
// single-chip run and, at nodes = 4, for the shard run and its baseline —
// and must match the direct path bit for bit.  (The synthetic 81920-row CG
// is left to the sweep tests above: its direct runs dominate the suite.)
TEST(AccessStream, LazyCaptureRunMatchesDirect) {
  const sparse::CsrMatrix fv1 = sparse::instantiate(sparse::dataset_by_name("fv1"));
  const auto wls = golden_workloads(fv1);
  for (const i64 nodes : {1, 4}) {
    AcceleratorConfig arch;
    arch.nodes = nodes;
    for (const auto& name : replay_capable_configs(AcceleratorConfig{})) {
      const Configuration& config = ConfigRegistry::global().at(name);
      for (const auto& wl : wls) {
        if (wl.name == "cg") continue;
        const Simulator simulator(arch, wl.matrix);
        const RunMetrics lazy = simulator.run(wl.dag, config);
        RunMetrics direct;
        {
          ScopedEnv off("CELLO_DISABLE_REPLAY", "1");
          direct = simulator.run(wl.dag, config);
        }
        expect_folded_equal(lazy, direct,
                            wl.name + "/" + name + "/nodes=" + std::to_string(nodes));
      }
    }
  }
}

/// Decoded spans of a stream in schedule order, periods expanded.
struct DecodedSpan {
  Addr addr;
  u32 len;
  bool write;
  bool operator==(const DecodedSpan&) const = default;
};
std::vector<DecodedSpan> expand(const AccessStream& s) {
  std::vector<DecodedSpan> out;
  auto steps = [&](u64 begin, u64 end) {
    const size_t b = begin == 0 ? 0 : s.op_end[begin - 1];
    const size_t e = end == 0 ? 0 : s.op_end[end - 1];
    for (size_t i = b; i < e; ++i) out.push_back({s.addr(i), s.len(i), s.write(i)});
  };
  steps(0, s.prefix_steps);
  for (u64 o = 0; o < s.period_count; ++o)
    steps(s.prefix_steps, s.prefix_steps + s.period_steps);
  const u64 suffix = s.prefix_steps + s.period_steps;
  steps(suffix, suffix + s.suffix_steps);
  return out;
}

// A failed period verification (forced through the "access_stream.verify"
// fail point) keeps prefix + occurrence 1 and re-emits the rest linearly:
// the stream must expand to exactly the periodic capture's spans and replay
// bit-identically to the direct path.
TEST(AccessStream, ForcedVerificationMismatchFallsBackToLinear) {
  const sparse::CsrMatrix fv1 = sparse::instantiate(sparse::dataset_by_name("fv1"));
  const ir::TensorDag dag =
      workloads::build_cg_dag({sparse::dataset_by_name("fv1").rows, 16, fv1.nnz(), 3, 4});
  const AcceleratorConfig arch;
  const Simulator simulator(arch, &fv1);
  for (const char* cname : {"Flex+LRU", "SCORE+BRRIP"}) {
    const auto& config = ConfigRegistry::global().at(cname);
    const score::Schedule sched = simulator.make_schedule(dag, config);
    const AddressMap map = AddressMap::build(dag);
    const Router router(dag, sched, config.schedule, config.allow_delayed_hold, arch);
    const AccessStream periodic = AccessStream::capture(dag, sched, map, &fv1, arch, router);
    ASSERT_GT(periodic.period_steps, 0u) << cname;

    failpoint::arm("access_stream.verify", "throw");
    const AccessStream linear = AccessStream::capture(dag, sched, map, &fv1, arch, router);
    EXPECT_EQ(failpoint::hit_count("access_stream.verify"), 1u);
    failpoint::disarm("access_stream.verify");

    EXPECT_EQ(linear.period_steps, 0u) << cname;
    EXPECT_EQ(linear.period_count, 0u) << cname;
    EXPECT_EQ(linear.prefix_steps, linear.schedule_steps) << cname;
    EXPECT_EQ(linear.total_lines, periodic.total_lines) << cname;
    EXPECT_EQ(linear.min_addr, periodic.min_addr) << cname;
    EXPECT_EQ(linear.max_addr, periodic.max_addr) << cname;
    EXPECT_TRUE(expand(linear) == expand(periodic)) << cname;

    RunArtifacts art;
    art.schedule = &sched;
    art.address_map = &map;
    RunMetrics direct;
    {
      ScopedEnv off("CELLO_DISABLE_REPLAY", "1");
      direct = simulator.run(dag, config, art);
    }
    art.access_stream = &linear;
    expect_metrics_equal(direct, simulator.run(dag, config, art),
                         std::string(cname) + " linear fallback");
  }
}

// A span the packed lanes cannot hold (here a 4 GiB activation: lengths cap
// at 2 GiB) makes the whole stream unpackable: no spans, never compatible,
// refused by replay — runs fall back to direct servicing instead of failing.
TEST(AccessStream, UnpackableStreamIsRefused) {
  const Workload wl = WorkloadRegistry::global().resolve("resnet:spatial=4194304");
  const AcceleratorConfig arch;
  const Simulator simulator(arch);
  const auto& config = ConfigRegistry::global().at("Flex+LRU");
  const score::Schedule sched = simulator.make_schedule(*wl.dag, config);
  const AddressMap map = AddressMap::build(*wl.dag);
  const Router router(*wl.dag, sched, config.schedule, config.allow_delayed_hold, arch);
  const AccessStream s = AccessStream::capture(*wl.dag, sched, map, nullptr, arch, router);
  EXPECT_FALSE(s.packable);
  EXPECT_EQ(s.spans(), 0u);
  EXPECT_TRUE(s.op_end.empty());
  EXPECT_EQ(s.schedule_steps, sched.steps.size());
  EXPECT_FALSE(s.compatible(arch));
  CachePolicy policy(arch, cache::Policy::Lru);
  std::vector<BufferService> services;
  EXPECT_FALSE(policy.replay(s, services));
}

// The packed lanes must decode to exactly what the unpacked capture stored
// (64-bit addresses, 32-bit lengths, a write byte per span): digests of the
// decoded contents, recorded from the capture before packing, for every
// golden workload under both cache routing policies.
TEST(AccessStream, DecodedCaptureMatchesUnpackedDigests) {
  struct Fnv {
    u64 h = 0xcbf29ce484222325ull;
    void mix(u64 v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
  };
  auto digest = [](const AccessStream& s) {
    Fnv f;
    for (u64 v : {s.schedule_steps, s.prefix_steps, s.period_steps, s.period_count,
                  s.suffix_steps, s.min_addr, s.max_addr, s.total_lines, u64{s.spans()}})
      f.mix(v);
    for (size_t i = 0; i < s.spans(); ++i) {
      f.mix(s.addr(i));
      f.mix(s.len(i));
      f.mix(s.write(i) ? 1 : 0);
    }
    for (u32 e : s.op_end) f.mix(e);
    return f.h;
  };
  struct Expected {
    const char* workload;
    const char* config;
    u64 digest;
  };
  const Expected expected[] = {
      {"cg", "Flex+LRU", 0x7249318197040a7bull},
      {"cg", "SCORE+LRU", 0xe47f2214b0f34cf6ull},
      {"gnn", "Flex+LRU", 0xf40fc51cfaec77cdull},
      {"gnn", "SCORE+LRU", 0x504dcd1fa0673db7ull},
      {"resnet", "Flex+LRU", 0xc51da61207ca70a6ull},
      {"resnet", "SCORE+LRU", 0xa953db5bce36f2f8ull},
      {"cg_fv1", "Flex+LRU", 0x3c231a0f6329c10aull},
      {"cg_fv1", "SCORE+LRU", 0x0405c253fb0d1187ull},
  };
  const sparse::CsrMatrix fv1 = sparse::instantiate(sparse::dataset_by_name("fv1"));
  const auto wls = golden_workloads(fv1);
  const AcceleratorConfig arch;
  size_t checked = 0;
  for (const auto& wl : wls) {
    for (const Expected& e : expected) {
      if (wl.name != e.workload) continue;
      const auto& config = ConfigRegistry::global().at(e.config);
      const Simulator simulator(arch, wl.matrix);
      const score::Schedule sched = simulator.make_schedule(wl.dag, config);
      const AddressMap map = AddressMap::build(wl.dag);
      const Router router(wl.dag, sched, config.schedule, config.allow_delayed_hold, arch);
      const AccessStream s = AccessStream::capture(wl.dag, sched, map, wl.matrix, arch, router);
      EXPECT_TRUE(s.packable) << wl.name << "/" << e.config;
      EXPECT_EQ(s.offset.capacity(), s.spans()) << "lanes stored at exact size";
      EXPECT_EQ(digest(s), e.digest) << wl.name << "/" << e.config;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(expected));
}

// Two captures of the same slot must be identical — fingerprint and every
// header/array field — and the synthetic-CG stream must actually be periodic
// (otherwise the fast-forward path is silently untested).
TEST(AccessStream, CaptureIsDeterministic) {
  const ir::TensorDag dag = workloads::build_cg_dag({81920, 16, 327680, 5, 4});
  const AcceleratorConfig arch;
  const Simulator simulator(arch);
  const auto& config = ConfigRegistry::global().at("Flex+LRU");
  const score::Schedule sched = simulator.make_schedule(dag, config);
  const AddressMap map = AddressMap::build(dag);
  const Router router(dag, sched, config.schedule, config.allow_delayed_hold, arch);

  const AccessStream a = AccessStream::capture(dag, sched, map, nullptr, arch, router);
  const AccessStream b = AccessStream::capture(dag, sched, map, nullptr, arch, router);

  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.line_bytes, b.line_bytes);
  EXPECT_EQ(a.rf_bytes, b.rf_bytes);
  EXPECT_EQ(a.schedule_steps, b.schedule_steps);
  EXPECT_EQ(a.prefix_steps, b.prefix_steps);
  EXPECT_EQ(a.period_steps, b.period_steps);
  EXPECT_EQ(a.period_count, b.period_count);
  EXPECT_EQ(a.suffix_steps, b.suffix_steps);
  EXPECT_EQ(a.offset, b.offset);
  EXPECT_EQ(a.len_write, b.len_write);
  EXPECT_EQ(a.op_end, b.op_end);
  EXPECT_EQ(a.min_addr, b.min_addr);
  EXPECT_EQ(a.max_addr, b.max_addr);
  EXPECT_EQ(a.total_lines, b.total_lines);

  EXPECT_GT(a.period_steps, 0u) << "iterative CG should capture as periodic";
  EXPECT_GE(a.period_count, 2u);
  EXPECT_EQ(a.materialized_steps() + a.period_steps * (a.period_count - 1),
            a.schedule_steps);
}

// replay_many must equal N independent replay() calls — same per-step
// services, same final cache state — across mixed policies and geometries.
TEST(AccessStream, ReplayManyMatchesIndependentReplays) {
  const ir::TensorDag dag = workloads::build_cg_dag({81920, 16, 327680, 5, 4});
  const AcceleratorConfig base;
  const Simulator simulator(base);
  const auto& config = ConfigRegistry::global().at("Flex+LRU");
  const score::Schedule sched = simulator.make_schedule(dag, config);
  const AddressMap map = AddressMap::build(dag);
  const Router router(dag, sched, config.schedule, config.allow_delayed_hold, base);
  const AccessStream stream = AccessStream::capture(dag, sched, map, nullptr, base, router);

  // LRU / BRRIP across two SRAM budgets: four distinct cache geometries.
  struct Geometry {
    cache::Policy policy;
    Bytes sram;
  };
  const std::vector<Geometry> geoms = {{cache::Policy::Lru, 1ull << 20},
                                       {cache::Policy::Lru, 4ull << 20},
                                       {cache::Policy::Brrip, 1ull << 20},
                                       {cache::Policy::Brrip, 4ull << 20}};

  std::vector<std::unique_ptr<CachePolicy>> batch, solo;
  std::vector<CachePolicy*> batch_ptrs;
  for (const auto& g : geoms) {
    AcceleratorConfig arch = base;
    arch.sram_bytes = g.sram;
    batch.push_back(std::make_unique<CachePolicy>(arch, g.policy));
    solo.push_back(std::make_unique<CachePolicy>(arch, g.policy));
    batch_ptrs.push_back(batch.back().get());
  }

  std::vector<std::vector<BufferService>> batch_services;
  ASSERT_TRUE(CachePolicy::replay_many(stream, batch_ptrs, batch_services));
  ASSERT_EQ(batch_services.size(), geoms.size());

  for (size_t p = 0; p < geoms.size(); ++p) {
    std::vector<BufferService> services;
    ASSERT_TRUE(solo[p]->replay(stream, services));
    ASSERT_EQ(batch_services[p].size(), services.size()) << "policy " << p;
    for (size_t s = 0; s < services.size(); ++s) {
      EXPECT_EQ(batch_services[p][s].dram_read, services[s].dram_read)
          << "policy " << p << " step " << s;
      EXPECT_EQ(batch_services[p][s].dram_write, services[s].dram_write)
          << "policy " << p << " step " << s;
    }
    EXPECT_EQ(batch[p]->cache().valid_lines(), solo[p]->cache().valid_lines())
        << "policy " << p;
    EXPECT_EQ(batch[p]->occupancy_bytes(), solo[p]->occupancy_bytes()) << "policy " << p;
  }
}

// A geometry-incompatible stream must be refused (caller falls back to
// service_op), and a dirty policy must be refused until reset.
TEST(AccessStream, ReplayRefusesIncompatibleOrDirtyState) {
  const ir::TensorDag dag = workloads::build_cg_dag({81920, 16, 327680, 3, 4});
  const AcceleratorConfig arch;
  const Simulator simulator(arch);
  const auto& config = ConfigRegistry::global().at("Flex+LRU");
  const score::Schedule sched = simulator.make_schedule(dag, config);
  const AddressMap map = AddressMap::build(dag);
  const Router router(dag, sched, config.schedule, config.allow_delayed_hold, arch);
  const AccessStream stream = AccessStream::capture(dag, sched, map, nullptr, arch, router);

  AcceleratorConfig other = arch;
  other.line_bytes = arch.line_bytes * 2;
  CachePolicy mismatched(other, cache::Policy::Lru);
  std::vector<BufferService> services;
  EXPECT_FALSE(mismatched.replay(stream, services));
  EXPECT_TRUE(services.empty());

  CachePolicy dirty(arch, cache::Policy::Lru);
  ASSERT_TRUE(dirty.replay(stream, services));
  std::vector<BufferService> again;
  EXPECT_FALSE(dirty.replay(stream, again)) << "second replay without reset must refuse";
  dirty.reset();
  EXPECT_TRUE(dirty.replay(stream, again)) << "reset policy replays again";
  ASSERT_EQ(services.size(), again.size());
  for (size_t s = 0; s < services.size(); ++s) {
    EXPECT_EQ(services[s].dram_read, again[s].dram_read) << "step " << s;
    EXPECT_EQ(services[s].dram_write, again[s].dram_write) << "step " << s;
  }
}

}  // namespace
