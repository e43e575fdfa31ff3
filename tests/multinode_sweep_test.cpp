// End-to-end multi-chip sweep (the ISSUE 8 acceptance grid): {1,4,16,64}
// nodes x {mesh,torus} x two presets on GNN, as a first-class fabric axis of
// the sharded sweep.  Pins:
//  * sweep-path results are bit-identical to the direct Simulator::run
//    multi-node path (same fold, same pooled artifacts);
//  * shard / merge / checkpoint round-trips stay byte-identical with the
//    fabric axis in play;
//  * the Sec. V-B score-vs-naive traffic gap is visible in every multi-node
//    row, and the whole merged file matches a checked-in golden byte for
//    byte (CELLO_UPDATE_GOLDENS=1 to refresh after an intended change);
//  * fabrics with equal node counts share one per-node run, and the `1` row
//    shares the baseline's: cells stay bit-identical to one sweep per
//    fabric, and a fault in one twin leaves the other untouched.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "noc/topology.hpp"
#include "sim/checkpoint.hpp"
#include "sim/policies/buffer_policy.hpp"
#include "sim/registry.hpp"
#include "sim/result_io.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/workload_registry.hpp"

namespace {

using namespace cello;
using sim::AcceleratorConfig;
using sim::SweepGrid;
using sim::SweepResult;
using sim::SweepRunner;

const std::vector<std::string>& acceptance_fabrics() {
  // --nodes 1,4,16,64 --topology mesh,torus, already canonicalized.
  static const std::vector<std::string> fabrics{"1",         "mesh:2x2",  "torus:2x2",
                                                "mesh:4x4",  "torus:4x4", "mesh:8x8",
                                                "torus:8x8"};
  return fabrics;
}

SweepGrid acceptance_grid() {
  const AcceleratorConfig arch;
  return sim::make_grid({"gnn:cora"}, {"Flexagon", "Cello"}, arch, acceptance_fabrics());
}

u64 dbits(double v) {
  u64 u;
  static_assert(sizeof u == sizeof v);
  std::memcpy(&u, &v, sizeof u);
  return u;
}

TEST(MultinodeSweep, GridCrossesFabricsBetweenWorkloadsAndConfigs) {
  const SweepGrid grid = acceptance_grid();
  EXPECT_TRUE(grid.has_fabric_axis());
  EXPECT_EQ(grid.cells(), 1u * 7u * 2u);
  // Duplicate and non-canonical fabric spellings are rejected up front.
  EXPECT_THROW(sim::make_grid({"gnn:cora"}, {"Cello"}, AcceleratorConfig{}, {"1", "1"}), Error);
  EXPECT_THROW(sim::make_grid({"gnn:cora"}, {"Cello"}, AcceleratorConfig{},
                              {"mesh:4", "mesh:2x2"}),
               Error);
  // A multi-node arch cannot host a grid: node counts ride the fabric axis.
  AcceleratorConfig multi;
  multi.nodes = 4;
  EXPECT_THROW(sim::make_grid({"gnn:cora"}, {"Cello"}, multi), Error);
}

// The sweep replays cache cells and baselines from shared access streams;
// the oracle is the direct Simulator::run multi-node path with replay
// disabled, so the two sides share no servicing code.
TEST(MultinodeSweep, SweepCellsMatchDirectSimulatorBitForBit) {
  const SweepGrid grid = sim::make_grid(
      {"gnn:cora"}, {"Flexagon", "Cello", "Flex+LRU", "SCORE+BRRIP"}, AcceleratorConfig{},
      acceptance_fabrics());
  const auto results = SweepRunner(/*threads=*/2).run_shard(grid, sim::plan_shard(grid, 1, 1));
  ASSERT_EQ(results.size(), grid.cells());
  const sim::Workload wl = sim::WorkloadRegistry::global().resolve("gnn:cora");
  for (const SweepResult& cell : results) {
    ASSERT_TRUE(cell.ok()) << cell.error;
    AcceleratorConfig arch = grid.arch;
    const noc::TopologySpec spec =
        noc::TopologySpec::parse(cell.fabric.empty() ? "1" : cell.fabric);
    arch.nodes = spec.nodes();
    arch.topology = spec.to_string();
    const sim::Simulator simulator(arch, wl.matrix.get());
    setenv("CELLO_DISABLE_REPLAY", "1", 1);
    const sim::RunMetrics direct =
        simulator.run(*wl.dag, sim::ConfigRegistry::global().at(cell.config));
    unsetenv("CELLO_DISABLE_REPLAY");
    const std::string ctx = cell.fabric + "/" + cell.config;
    EXPECT_EQ(dbits(direct.seconds), dbits(cell.metrics.seconds)) << ctx;
    EXPECT_EQ(direct.nodes, cell.metrics.nodes) << ctx;
    EXPECT_EQ(direct.total_macs, cell.metrics.total_macs) << ctx;
    EXPECT_EQ(direct.dram_bytes, cell.metrics.dram_bytes) << ctx;
    EXPECT_EQ(direct.noc_bytes, cell.metrics.noc_bytes) << ctx;
    EXPECT_EQ(direct.naive_noc_bytes, cell.metrics.naive_noc_bytes) << ctx;
    EXPECT_EQ(dbits(direct.noc_seconds), dbits(cell.metrics.noc_seconds)) << ctx;
    EXPECT_EQ(dbits(direct.parallel_efficiency), dbits(cell.metrics.parallel_efficiency))
        << ctx;
    EXPECT_EQ(dbits(direct.offchip_energy_pj), dbits(cell.metrics.offchip_energy_pj)) << ctx;
  }
}

TEST(MultinodeSweep, ScoreVsNaiveTrafficGapIsVisible) {
  const SweepGrid grid = acceptance_grid();
  const auto results = SweepRunner(2).run_shard(grid, sim::plan_shard(grid, 1, 1));
  for (const SweepResult& cell : results) {
    ASSERT_TRUE(cell.ok()) << cell.error;
    if (cell.metrics.nodes <= 1) {
      EXPECT_EQ(cell.metrics.noc_bytes, 0) << cell.fabric;
      EXPECT_EQ(cell.metrics.naive_noc_bytes, 0) << cell.fabric;
      continue;
    }
    EXPECT_GT(cell.metrics.noc_bytes, 0) << cell.fabric;
    EXPECT_GT(cell.metrics.naive_noc_bytes, 0) << cell.fabric;
    EXPECT_GT(cell.metrics.noc_seconds, 0.0) << cell.fabric;
    EXPECT_GT(cell.metrics.parallel_efficiency, 0.0) << cell.fabric;
    // Sec. V-B: cluster-local pipelines ship only the small m-free tensors;
    // the naive pipeline split ships the skewed intermediates.  Up to 16
    // nodes even the routed byte-hops stay well under the naive byte count
    // (at 64 the per-hop inflation overtakes it — exactly the saturation the
    // busiest-link term is there to show).
    if (cell.metrics.nodes <= 16) {
      EXPECT_LT(cell.metrics.noc_bytes, cell.metrics.naive_noc_bytes / 4) << cell.fabric;
    }
  }
}

TEST(MultinodeSweep, ShardMergeAndCheckpointRoundTripByteIdentically) {
  const SweepGrid grid = acceptance_grid();

  // Full single-process run: the reference file.
  sim::ShardResult full;
  full.grid = grid;
  full.plan = sim::plan_shard(grid, 1, 1);
  full.results = SweepRunner(2).run_shard(grid, full.plan);
  const std::string reference = sim::shard_to_json(full);

  // The same grid as three strided shards, merged in scrambled order.
  std::vector<sim::ShardResult> shards;
  for (u32 i : {2u, 3u, 1u}) {
    sim::ShardResult s;
    s.grid = grid;
    s.plan = sim::plan_shard(grid, i, 3, sim::ShardMode::Strided);
    s.results = SweepRunner(2).run_shard(grid, s.plan);
    shards.push_back(std::move(s));
  }
  sim::ShardResult merged;
  merged.grid = grid;
  merged.results = sim::merge_shards(std::move(shards));
  merged.plan = sim::plan_shard(grid, 1, 1);
  EXPECT_EQ(sim::shard_to_json(merged), reference);

  // Shard-file JSON round-trips through parse losslessly (fabrics included).
  const sim::ShardResult reloaded = sim::shard_from_json(reference);
  EXPECT_EQ(reloaded.grid.fabrics, grid.fabrics);
  EXPECT_EQ(sim::shard_to_json(reloaded), reference);

  // Checkpointed run: journal every cell, then resume with nothing left to
  // do — recovered payloads must reproduce the reference byte for byte.
  const std::string journal =
      std::string("/tmp/cello_multinode_sweep_") + std::to_string(::getpid()) + ".journal";
  std::remove(journal.c_str());
  sim::SweepOptions opts;
  opts.checkpoint = journal;
  sim::ShardResult ck;
  ck.grid = grid;
  ck.plan = sim::plan_shard(grid, 1, 1);
  ck.results = SweepRunner(2).run_shard(grid, ck.plan, opts);
  opts.resume = true;
  sim::ShardResult resumed;
  resumed.grid = grid;
  resumed.plan = sim::plan_shard(grid, 1, 1);
  resumed.results = SweepRunner(2).run_shard(grid, resumed.plan, opts);
  EXPECT_EQ(sim::shard_to_json(ck), reference);
  EXPECT_EQ(sim::shard_to_json(resumed), reference);
  std::remove(journal.c_str());

  // CSV export carries the fabric and NoC columns and round-trips exactly.
  const std::string csv = sim::results_to_csv(full.results);
  EXPECT_NE(csv.find(",fabric,"), std::string::npos);
  EXPECT_NE(csv.find("torus:8x8"), std::string::npos);
  const auto back = sim::results_from_csv(csv);
  ASSERT_EQ(back.size(), full.results.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].fabric, full.results[i].fabric);
    EXPECT_EQ(back[i].metrics.nodes, full.results[i].metrics.nodes);
    EXPECT_EQ(back[i].metrics.noc_bytes, full.results[i].metrics.noc_bytes);
    EXPECT_EQ(dbits(back[i].metrics.noc_seconds), dbits(full.results[i].metrics.noc_seconds));
  }
}

// ---- one per-node run per (DAG, configuration) ----------------------------

const std::vector<std::string>& twin_fabrics() {
  static const std::vector<std::string> fabrics{"1", "mesh:2x2", "torus:2x2", "mesh:4x4",
                                                "torus:4x4"};
  return fabrics;
}

const std::vector<std::string>& twin_configs() {
  static const std::vector<std::string> configs{"Flexagon", "Flex+LRU", "Flex+BRRIP", "Cello"};
  return configs;
}

const std::string kTwinSpec = "cg:m=4096,n=8,iters=3";

SweepGrid twin_grid() {
  return sim::make_grid({kTwinSpec}, twin_configs(), AcceleratorConfig{}, twin_fabrics());
}

std::string cell_json(SweepResult r, const std::string& fabric) {
  r.fabric = fabric;  // a single-chip-only grid leaves the fabric column empty
  std::string out;
  sim::result_to_json(out, r, 0);
  return out;
}

sim::CheckpointState read_journal_file(const std::string& path, const SweepGrid& grid,
                                       const sim::ShardPlan& plan) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return sim::read_journal(buf.str(), grid, plan);
}

/// Delegates to a preset's policy and counts finalize() calls, which happen
/// exactly once per per-node simulation.
class CountingPolicy final : public sim::BufferPolicy {
 public:
  CountingPolicy(std::unique_ptr<sim::BufferPolicy> inner, std::atomic<int>* runs)
      : inner_(std::move(inner)), runs_(runs) {}
  const char* name() const override { return inner_->name(); }
  bool trace_driven() const override { return inner_->trace_driven(); }
  bool reusable() const override { return inner_->reusable(); }
  void reset() override { inner_->reset(); }
  sim::BufferService read_tensor(const chord::TensorMeta& t) override {
    return inner_->read_tensor(t);
  }
  sim::BufferService write_tensor(const chord::TensorMeta& t) override {
    return inner_->write_tensor(t);
  }
  void retire(i32 base_id) override { inner_->retire(base_id); }
  sim::BufferService service_op(const sim::OpTrace& op) override {
    return inner_->service_op(op);
  }
  bool supports_replay() const override { return inner_->supports_replay(); }
  bool replay(const sim::AccessStream& stream,
              std::vector<sim::BufferService>& services) override {
    return inner_->replay(stream, services);
  }
  Bytes occupancy_bytes() const override { return inner_->occupancy_bytes(); }
  std::optional<std::vector<sim::DrainItem>> drain(const sim::DrainContext& ctx) override {
    return inner_->drain(ctx);
  }
  void finalize(const AcceleratorConfig& arch, u64 pipeline_sram_lines,
                sim::RunMetrics& m) const override {
    ++*runs_;
    inner_->finalize(arch, pipeline_sram_lines, m);
  }

 private:
  std::unique_ptr<sim::BufferPolicy> inner_;
  std::atomic<int>* runs_;
};

TEST(MultinodeSweep, TwinFabricsShareOnePerNodeRunBitIdentically) {
  const SweepGrid grid = twin_grid();
  const auto shared = SweepRunner(2).run_shard(grid, sim::plan_shard(grid, 1, 1));
  ASSERT_EQ(shared.size(), grid.cells());
  // Reference: the same cells, one sweep per fabric, so no fabric shares a
  // run with another.
  const size_t F = twin_fabrics().size();
  const size_t C = twin_configs().size();
  for (size_t fi = 0; fi < F; ++fi) {
    const std::string& fabric = twin_fabrics()[fi];
    const SweepGrid single = sim::make_grid({kTwinSpec}, twin_configs(), grid.arch, {fabric});
    const auto alone = SweepRunner(2).run_shard(single, sim::plan_shard(single, 1, 1));
    ASSERT_EQ(alone.size(), C);
    for (size_t ci = 0; ci < C; ++ci) {
      ASSERT_TRUE(alone[ci].ok()) << alone[ci].error;
      EXPECT_EQ(cell_json(shared[fi * C + ci], fabric), cell_json(alone[ci], fabric))
          << fabric << "/" << twin_configs()[ci];
    }
  }

  // Per configuration: the full DAG (the `1` cell and every baseline), one
  // 4-node shard and one 16-node shard — 3 simulations, not one per cell
  // plus a baseline.
  static std::atomic<int> runs[4];
  static const bool registered = [] {
    for (size_t ci = 0; ci < 4; ++ci) {
      sim::Configuration counted = sim::ConfigRegistry::global().at(twin_configs()[ci]);
      counted.name = "Counted " + counted.name;
      counted.buffers = [inner = counted.buffers, ci](const AcceleratorConfig& a) {
        return std::make_unique<CountingPolicy>(inner(a), &runs[ci]);
      };
      sim::ConfigRegistry::global().add(std::move(counted));
    }
    return true;
  }();
  ASSERT_TRUE(registered);
  std::vector<std::string> counted_names;
  for (const auto& name : twin_configs()) counted_names.push_back("Counted " + name);
  for (auto& r : runs) r = 0;
  const SweepGrid counted = sim::make_grid({kTwinSpec}, counted_names, grid.arch, twin_fabrics());
  const auto counted_cells = SweepRunner(2).run_shard(counted, sim::plan_shard(counted, 1, 1));
  for (size_t ci = 0; ci < 4; ++ci) EXPECT_EQ(runs[ci].load(), 3) << counted_names[ci];
  ASSERT_EQ(counted_cells.size(), shared.size());
  for (size_t i = 0; i < shared.size(); ++i) {
    SweepResult renamed = counted_cells[i];
    renamed.config = shared[i].config;
    EXPECT_EQ(cell_json(renamed, shared[i].fabric), cell_json(shared[i], shared[i].fabric))
        << "cell " << i;
  }
}

TEST(MultinodeSweep, FaultInOneTwinLeavesTheOtherIntact) {
  const SweepGrid grid = twin_grid();
  const sim::ShardPlan plan = sim::plan_shard(grid, 1, 1);
  const auto reference = SweepRunner(2).run_shard(grid, plan);
  const std::string reference_json = sim::shard_to_json({grid, plan, reference});
  const size_t C = twin_configs().size();
  const size_t mesh_cell = 1 * C + 1;   // mesh:2x2, Flex+LRU
  const size_t torus_cell = 2 * C + 1;  // torus:2x2, Flex+LRU: same 4-node shard run

  failpoint::arm("sweep.cell", "throw@key=" + std::to_string(mesh_cell));
  const std::string journal =
      std::string("/tmp/cello_multinode_twins_") + std::to_string(::getpid()) + ".journal";
  std::remove(journal.c_str());
  sim::SweepOptions opts;
  opts.keep_going = true;
  opts.checkpoint = journal;
  const auto faulted = SweepRunner(2).run_shard(grid, plan, opts);
  failpoint::disarm_all();
  ASSERT_EQ(faulted.size(), reference.size());
  for (size_t i = 0; i < faulted.size(); ++i) {
    if (i == mesh_cell) continue;
    ASSERT_TRUE(faulted[i].ok()) << faulted[i].error;
    EXPECT_EQ(cell_json(faulted[i], ""), cell_json(reference[i], "")) << "cell " << i;
  }
  EXPECT_FALSE(faulted[mesh_cell].ok());
  EXPECT_NE(faulted[mesh_cell].error.find("fabric 'mesh:2x2'"), std::string::npos)
      << faulted[mesh_cell].error;

  // The journal holds the torus twin but not the mesh one; resuming re-runs
  // only the mesh cell (alone on its shard run now) and merges byte-identically.
  const sim::CheckpointState state = read_journal_file(journal, grid, plan);
  std::vector<size_t> journaled;
  for (const auto& [cell, result] : state.completed) journaled.push_back(cell);
  EXPECT_NE(std::find(journaled.begin(), journaled.end(), torus_cell), journaled.end());
  EXPECT_EQ(std::find(journaled.begin(), journaled.end(), mesh_cell), journaled.end());
  EXPECT_EQ(journaled.size(), grid.cells() - 1);
  opts.keep_going = false;
  opts.resume = true;
  const auto resumed = SweepRunner(2).run_shard(grid, plan, opts);
  EXPECT_EQ(sim::shard_to_json({grid, plan, resumed}), reference_json);
  std::remove(journal.c_str());
}

/// An analytic policy whose every run fails when it finalizes.
class FailingPolicy final : public sim::BufferPolicy {
 public:
  const char* name() const override { return "failing"; }
  void finalize(const AcceleratorConfig&, u64, sim::RunMetrics&) const override {
    throw Error("injected run failure");
  }
};

TEST(MultinodeSweep, FailedSharedRunFailsEachOfItsCellsByName) {
  static const bool registered = [] {
    sim::ConfigRegistry::global().add(sim::make_configuration(
        "Failing run", sim::SchedulePolicy::OpByOp,
        [](const AcceleratorConfig&) { return std::make_unique<FailingPolicy>(); }, "failing"));
    return true;
  }();
  ASSERT_TRUE(registered);
  const SweepGrid grid =
      sim::make_grid({kTwinSpec}, {"Flexagon", "Failing run"}, AcceleratorConfig{},
                     twin_fabrics());
  const sim::ShardPlan plan = sim::plan_shard(grid, 1, 1);
  const SweepGrid healthy =
      sim::make_grid({kTwinSpec}, {"Flexagon"}, AcceleratorConfig{}, twin_fabrics());
  const auto reference = SweepRunner(2).run_shard(healthy, sim::plan_shard(healthy, 1, 1));

  sim::SweepOptions opts;
  opts.keep_going = true;
  for (const u32 retries : {0u, 1u}) {
    opts.retries = retries;
    const auto cells = SweepRunner(2).run_shard(grid, plan, opts);
    ASSERT_EQ(cells.size(), 2 * twin_fabrics().size());
    for (size_t fi = 0; fi < twin_fabrics().size(); ++fi) {
      const SweepResult& ok = cells[2 * fi];
      ASSERT_TRUE(ok.ok()) << ok.error;
      EXPECT_EQ(cell_json(ok, ""), cell_json(reference[fi], "")) << twin_fabrics()[fi];
      const SweepResult& bad = cells[2 * fi + 1];
      EXPECT_FALSE(bad.ok());
      EXPECT_NE(bad.error.find("sweep cell " + std::to_string(2 * fi + 1)), std::string::npos)
          << bad.error;
      EXPECT_NE(bad.error.find("fabric '" + twin_fabrics()[fi] + "'"), std::string::npos)
          << bad.error;
      EXPECT_NE(bad.error.find("injected run failure"), std::string::npos) << bad.error;
      EXPECT_EQ(bad.error.find("after 2 attempts") != std::string::npos, retries == 1)
          << bad.error;
    }
  }

  // Without quarantine the first failure aborts the sweep, naming a cell.
  try {
    SweepRunner(2).run_shard(grid, plan);
    FAIL() << "expected the failing configuration to abort the sweep";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sweep cell"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Failing run"), std::string::npos) << msg;
    EXPECT_NE(msg.find("injected run failure"), std::string::npos) << msg;
  }

  // A checkpointed sweep journals each cell as soon as its runs finish: when
  // the later configuration's first run aborts the sweep, every cell of the
  // earlier one — 1-node and multi-node alike — is already on disk.  One
  // worker makes the configuration-major run order deterministic.
  const std::string journal =
      std::string("/tmp/cello_multinode_abort_") + std::to_string(::getpid()) + ".journal";
  std::remove(journal.c_str());
  sim::SweepOptions checkpointed;
  checkpointed.checkpoint = journal;
  EXPECT_THROW(SweepRunner(1).run_shard(grid, plan, checkpointed), Error);
  const sim::CheckpointState state = read_journal_file(journal, grid, plan);
  std::remove(journal.c_str());
  ASSERT_EQ(state.completed.size(), twin_fabrics().size());
  for (const auto& [cell, result] : state.completed) {
    ASSERT_EQ(cell % 2, 0u) << "only Flexagon cells can complete, got cell " << cell;
    EXPECT_EQ(cell_json(result, ""), cell_json(reference[cell / 2], "")) << "cell " << cell;
  }
}

TEST(MultinodeSweep, MergedFileMatchesCheckedInGolden) {
  const char* path = CELLO_SOURCE_DIR "/tests/goldens/multinode_sweep_gnn.json";
  sim::ShardResult full;
  full.grid = acceptance_grid();
  full.plan = sim::plan_shard(full.grid, 1, 1);
  full.results = SweepRunner(2).run_shard(full.grid, full.plan);
  const std::string current = sim::shard_to_json(full);

  if (std::getenv("CELLO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << current;
    GTEST_SKIP() << "golden updated";
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " — run CELLO_UPDATE_GOLDENS=1 ./multinode_sweep_test";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(current, buf.str())
      << "multi-node sweep drifted from the checked-in golden; if intended, refresh with "
         "CELLO_UPDATE_GOLDENS=1 ./multinode_sweep_test";
}

}  // namespace
