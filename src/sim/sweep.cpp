#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <map>
#include <optional>
#include <tuple>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "noc/topology.hpp"
#include "score/schedule.hpp"
#include "sim/access_stream.hpp"
#include "sim/checkpoint.hpp"
#include "sim/partition.hpp"
#include "sim/policies/buffer_policy.hpp"
#include "sim/policies/schedule_policy.hpp"
#include "sim/registry.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace cello::sim {

namespace {

/// Borrowed view of one grid row; both the Workload and the legacy
/// SweepWorkload overloads funnel into this.
struct WorkloadView {
  const std::string* name;
  const ir::TensorDag* dag;
  const sparse::CsrMatrix* matrix;  ///< may be null
};

/// Mirror of the Simulator::run escape hatch: when CELLO_DISABLE_REPLAY is
/// set the sweep skips stream capture too, instead of capturing streams the
/// runs would then ignore.
bool replay_disabled_by_env() {
  const char* e = std::getenv("CELLO_DISABLE_REPLAY");
  return e != nullptr && *e != '\0' && *e != '0';
}

/// One grid row after the fabric axis is applied: a (workload, fabric) pair.
/// Multi-node rows run the workload's shard DAG (one node's slice) and fold
/// the NoC cost in afterwards; single-node rows are the workload unchanged.
struct RowView {
  const ir::TensorDag* dag = nullptr;   ///< effective DAG (shard for nodes > 1)
  const Partition* part = nullptr;      ///< non-null exactly when nodes > 1
  std::string error;                    ///< partition failure, reported per cell
};

/// `cells`, when non-null, restricts the run to those flattened row-major
/// cell ids (shard-scoped sweep): results come back in `cells` order and only
/// the schedules/address maps those cells touch are prebuilt.  Null runs the
/// whole grid in row-major order.  `fabrics`, when non-null, inserts the
/// fabric axis between workloads and configs (canonical TopologySpec strings;
/// requires `cells`).  `grid`/`plan` carry the shard identity a checkpoint
/// journal is keyed by; they are non-null exactly when the caller is
/// run_shard.
std::vector<SweepResult> run_grid(u32 threads, const std::vector<WorkloadView>& workloads,
                                  const std::vector<Configuration>& configs,
                                  const AcceleratorConfig& arch,
                                  const std::vector<std::string>* fabrics = nullptr,
                                  const std::vector<size_t>* cells = nullptr,
                                  const SweepOptions& opts = {},
                                  const SweepGrid* grid = nullptr,
                                  const ShardPlan* plan = nullptr) {
  static const std::vector<std::string> kSingleChip{"1"};
  const std::vector<std::string>& fabs =
      fabrics != nullptr && !fabrics->empty() ? *fabrics : kSingleChip;
  const bool fabric_axis = fabs.size() != 1 || fabs[0] != "1";
  CELLO_CHECK_MSG(fabrics == nullptr || cells != nullptr,
                  "a fabric axis requires a shard-scoped run");
  const size_t F = fabs.size();
  const size_t C = configs.size();
  const size_t grid_size = workloads.size() * F * C;
  const size_t total = cells != nullptr ? cells->size() : grid_size;
  std::vector<SweepResult> out(total);
  if (total == 0) return out;
  if (cells != nullptr)
    for (const size_t cell : *cells)
      CELLO_CHECK_MSG(cell < grid_size,
                      "shard cell " << cell << " outside the " << grid_size << "-cell grid");
  CELLO_CHECK_MSG((opts.trace_cell >= 0) == (opts.trace_sink != nullptr),
                  "SweepOptions::trace_cell and ::trace_sink travel together: both or neither");
  CELLO_CHECK_MSG(!opts.trace_sink_for || opts.trace_cell < 0,
                  "SweepOptions::trace_sink_for excludes trace_cell/trace_sink: one selector");
  CELLO_CHECK_MSG(opts.trace_cell < 0 || static_cast<size_t>(opts.trace_cell) < grid_size,
                  "trace cell " << opts.trace_cell << " outside the " << grid_size
                                << "-cell grid");

  // Parse each fabric once; nodes > 1 fabrics carry the routed topology the
  // fold prices collectives against.
  struct FabricInfo {
    i64 nodes = 1;
    std::optional<noc::Topology> topo;
  };
  std::vector<FabricInfo> finfo(F);
  for (size_t fi = 0; fi < F; ++fi) {
    const noc::TopologySpec spec = noc::TopologySpec::parse(fabs[fi]);
    finfo[fi].nodes = spec.nodes();
    if (finfo[fi].nodes > 1) finfo[fi].topo = noc::Topology::build(spec);
  }

  // ---- checkpoint journal ----
  // Cells recovered from an existing journal are marked done up front: they
  // skip simulation entirely (their hexfloat-exact journal payloads are
  // bit-identical to re-running them) and the prebuild below only builds what
  // the still-pending cells touch.
  CheckpointJournal journal;
  std::vector<char> done(total, 0);
  if (!opts.checkpoint.empty()) {
    CELLO_CHECK_MSG(grid != nullptr && plan != nullptr,
                    "checkpointing requires a shard-scoped run (SweepRunner::run_shard): the "
                    "journal is keyed by the grid fingerprint");
    CheckpointState state;
    journal = CheckpointJournal::open(opts.checkpoint, *grid, *plan, opts.resume, &state);
    std::map<size_t, size_t> job_of;  // flattened cell id -> index into `out`
    for (size_t j = 0; j < cells->size(); ++j) job_of.emplace((*cells)[j], j);
    for (auto& [cell, result] : state.completed) {
      const size_t job = job_of.at(cell);  // read_journal validated membership
      out[job] = std::move(result);
      done[job] = 1;
    }
  }

  // ---- shared immutable prebuild ----
  // One AddressMap per distinct DAG and one score::Schedule per (DAG,
  // schedule-options) pair present in the grid.  The cache key is
  // Simulator::schedule_options(config) — by construction exactly the
  // scheduling inputs make_schedule consumes — so configurations with equal
  // options (today: all pipelining policies share one slot, op-by-op the
  // other) replay against the same read-only copy, bit-identically to a
  // per-cell rebuild, and a future config knob that feeds scheduling splits
  // the slots automatically.
  const Simulator scheduler(arch);  // matrix context is irrelevant to scheduling
  std::vector<score::ScheduleOptions> opt_keys;  ///< distinct options, first-seen order
  std::vector<size_t> config_slot(configs.size());
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const score::ScheduleOptions opts = scheduler.schedule_options(configs[ci]);
    const auto it = std::find(opt_keys.begin(), opt_keys.end(), opts);
    config_slot[ci] = static_cast<size_t>(it - opt_keys.begin());
    if (it == opt_keys.end()) opt_keys.push_back(opts);
  }

  // Router tables key on everything RouterTables::build consumes beyond the
  // DAG: the schedule slot plus the policy / hold-flag / effective-arch
  // triple.  Configurations sharing a schedule slot (FLAT vs Cello) can still
  // need distinct tables, so this is a finer partition than config_slot.
  struct RouterKey {
    size_t sched_slot;
    SchedulePolicy policy;
    bool allow_delayed_hold;
    AcceleratorConfig arch;
    bool operator==(const RouterKey&) const = default;
  };
  std::vector<RouterKey> router_keys;  ///< distinct keys, first-seen order
  std::vector<size_t> config_rslot(configs.size());
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const RouterKey key{config_slot[ci], configs[ci].schedule, configs[ci].allow_delayed_hold,
                        scheduler.effective_arch(configs[ci])};
    const auto it = std::find(router_keys.begin(), router_keys.end(), key);
    config_rslot[ci] = static_cast<size_t>(it - router_keys.begin());
    if (it == router_keys.end()) router_keys.push_back(key);
  }

  // ---- fabric rows ----
  // Partition each workload once per distinct (DAG, node count): two fabrics
  // with equal node counts (mesh:2x2 and torus:2x2) share one shard DAG, and
  // a partition that cannot be built (more nodes than the shard rank has
  // extent) quarantines its cells instead of killing the shard.  Serial and
  // in row order, so shard DAG construction is deterministic.
  std::deque<Partition> partitions;  // deque: stable addresses as it grows
  std::map<std::pair<const ir::TensorDag*, i64>, const Partition*> part_cache;
  std::vector<char> row_used(workloads.size() * F, cells == nullptr ? 1 : 0);
  if (cells != nullptr)
    for (size_t j = 0; j < cells->size(); ++j)
      if (!done[j]) row_used[(*cells)[j] / C] = 1;
  std::vector<RowView> rows(workloads.size() * F);
  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    for (size_t fi = 0; fi < F; ++fi) {
      const size_t rf = wi * F + fi;
      RowView& row = rows[rf];
      row.dag = workloads[wi].dag;
      if (!row_used[rf] || row.dag == nullptr || finfo[fi].nodes <= 1) continue;
      const auto key = std::make_pair(row.dag, finfo[fi].nodes);
      auto it = part_cache.find(key);
      if (it == part_cache.end()) {
        try {
          partitions.push_back(build_partition(*row.dag, finfo[fi].nodes));
          it = part_cache.emplace(key, &partitions.back()).first;
        } catch (const std::exception& e) {
          it = part_cache.emplace(key, nullptr).first;
          row.error = e.what();
        }
      }
      row.part = it->second;
      if (row.part != nullptr) {
        row.dag = &row.part->shard;
      } else if (row.error.empty()) {
        // A later row hitting an already-failed cache entry re-derives the
        // message so its cells still explain themselves.
        try {
          build_partition(*workloads[wi].dag, finfo[fi].nodes);
        } catch (const std::exception& e) {
          row.error = e.what();
        }
        row.dag = nullptr;
      } else {
        row.dag = nullptr;
      }
    }
  }

  // Prebuilds key on DAG identity, not grid row: listing the same resolved
  // workload twice shares its AddressMap and schedules too.  Multi-node rows
  // register their shard DAG; the original full DAG is registered separately
  // below for the parallel-efficiency baseline those rows also need.
  std::map<const ir::TensorDag*, size_t> unique_dag;
  std::vector<size_t> dag_slot(rows.size());
  for (size_t rf = 0; rf < rows.size(); ++rf)
    dag_slot[rf] = unique_dag.emplace(rows[rf].dag, unique_dag.size()).first->second;

  // ---- per-node runs ----
  // Every simulation of the sweep: one per distinct (DAG slot,
  // configuration, matrix) that a pending untraced cell or a 1-node baseline
  // needs, plus one per traced cell, which simulates on its own with its
  // sink.  Topology enters only fold_multinode, so every cell derives from
  // one of these runs: a 1-node cell takes its metrics as they are, a
  // multi-node cell folds its shard run through its own topology.  Fabrics
  // with equal node counts (mesh:2x2 and torus:2x2) thus share one shard
  // run, and the `1` row's cell and the parallel-efficiency baseline of every
  // multi-node cell share the full DAG's run.
  struct NodeRun {
    size_t di = 0;  ///< unique-DAG slot
    size_t ci = 0;  ///< configuration index
    const sparse::CsrMatrix* matrix = nullptr;
    trace::TraceSink* sink = nullptr;  ///< a traced cell's own run
    RunMetrics metrics;
    double seconds = 0;  ///< metrics.seconds, kept for baselines once metrics move out
    std::string error;   ///< empty = success
    size_t readers = 0;  ///< cells that read `metrics` (baselines read `seconds` only)
    std::vector<size_t> consumers;  ///< jobs derived from this run, as cell or baseline
  };
  std::vector<NodeRun> runs;
  std::map<std::tuple<size_t, size_t, const sparse::CsrMatrix*>, size_t> run_of;
  auto need_run = [&](size_t di, size_t ci, const sparse::CsrMatrix* matrix) {
    const auto [it, fresh] = run_of.emplace(std::make_tuple(di, ci, matrix), runs.size());
    if (fresh) {
      NodeRun& r = runs.emplace_back();
      r.di = di;
      r.ci = ci;
      r.matrix = matrix;
    }
    return it->second;
  };
  std::vector<size_t> cell_run(total, SIZE_MAX);  ///< per-node run of a cell
  std::vector<size_t> base_run(total, SIZE_MAX);  ///< 1-node baseline of a multi-node cell
  for (size_t j = 0; j < total; ++j) {
    if (done[j]) continue;  // recovered from the checkpoint journal
    const size_t cell = cells != nullptr ? (*cells)[j] : j;
    trace::TraceSink* sink = nullptr;
    if (opts.trace_sink_for) {
      sink = opts.trace_sink_for(cell);
    } else if (opts.trace_sink != nullptr && opts.trace_cell == static_cast<i64>(cell)) {
      sink = opts.trace_sink;
    }
    const size_t rf = cell / C;
    const size_t ci = cell % C;
    const WorkloadView& wl = workloads[rf / F];
    if (rows[rf].dag == nullptr) continue;  // failed partition: the cell reports it
    if (rows[rf].part != nullptr) {
      // The baseline runs the workload's full DAG, registered next to the
      // shard DAGs so it shares their prebuild.  Registered first, so it
      // leads its configuration in the wave and multi-node cells wait on it
      // no longer than on their shard run.
      const size_t full = unique_dag.emplace(wl.dag, unique_dag.size()).first->second;
      base_run[j] = need_run(full, ci, wl.matrix);
      runs[base_run[j]].consumers.push_back(j);
    }
    if (sink == nullptr) {
      cell_run[j] = need_run(dag_slot[rf], ci, wl.matrix);
    } else {
      cell_run[j] = runs.size();
      NodeRun& r = runs.emplace_back();
      r.di = dag_slot[rf];
      r.ci = ci;
      r.matrix = wl.matrix;
      r.sink = sink;
    }
    ++runs[cell_run[j]].readers;
    runs[cell_run[j]].consumers.push_back(j);
  }
  std::vector<const ir::TensorDag*> slot_dag(unique_dag.size());
  for (const auto& [dag, di] : unique_dag) slot_dag[di] = dag;

  // ---- shared prebuild ----
  // Built for exactly the per-node runs: checkpoint-recovered cells need
  // nothing.
  std::vector<std::optional<AddressMap>> maps(unique_dag.size());
  std::vector<std::vector<std::optional<score::Schedule>>> scheds(
      unique_dag.size(), std::vector<std::optional<score::Schedule>>(opt_keys.size()));
  // The immutable reuse index rides next to its schedule: it derives from
  // (schedule, address map), so it shares their (DAG, options) cache slots
  // and the same read-only-across-the-pool lifetime.
  std::vector<std::vector<std::optional<score::ReuseIndex>>> reuse(
      unique_dag.size(), std::vector<std::optional<score::ReuseIndex>>(opt_keys.size()));
  // Shared immutable router tables, one per (DAG, router key).
  std::vector<std::vector<std::optional<RouterTables>>> rtables(
      unique_dag.size(), std::vector<std::optional<RouterTables>>(router_keys.size()));
  // One captured AccessStream per (DAG, router key) that an untraced
  // trace-driven replay-capable run touches: single-node rows, multi-node
  // shard DAGs and the full DAGs the baselines run alike.  Capture is
  // config-independent — only the schedule shape and routing decisions enter
  // the stream — so configurations sharing a router slot (e.g. the Table IV
  // cache presets on the op-by-op schedule) replay one stream: address
  // generation is paid once per column instead of once per cell.
  // Simulator::run picks replay up from RunArtifacts; traced cells stay on
  // the direct path (run_impl gates replay on the absence of a sink).
  std::vector<std::vector<std::optional<AccessStream>>> streams(
      unique_dag.size(), std::vector<std::optional<AccessStream>>(router_keys.size()));
  std::vector<char> config_replayable(C, 0);
  if (!replay_disabled_by_env()) {
    for (size_t ci = 0; ci < C; ++ci) {
      if (!configs[ci].buffers) continue;
      const auto probe = configs[ci].buffers(router_keys[config_rslot[ci]].arch);
      config_replayable[ci] =
          probe != nullptr && probe->trace_driven() && probe->supports_replay();
    }
  }
  std::vector<char> map_needed(unique_dag.size(), 0);
  std::vector<std::vector<char>> sched_needed(unique_dag.size(),
                                              std::vector<char>(opt_keys.size(), 0));
  std::vector<std::vector<char>> rtable_needed(unique_dag.size(),
                                               std::vector<char>(router_keys.size(), 0));
  std::vector<std::vector<char>> stream_needed(unique_dag.size(),
                                               std::vector<char>(router_keys.size(), 0));
  std::vector<const sparse::CsrMatrix*> dag_matrix(unique_dag.size(), nullptr);
  auto need_artifacts = [&](size_t di, size_t ci, const sparse::CsrMatrix* matrix,
                            bool traced) {
    map_needed[di] = 1;
    sched_needed[di][config_slot[ci]] = 1;
    rtable_needed[di][config_rslot[ci]] = 1;
    if (traced || !config_replayable[ci]) return;
    stream_needed[di][config_rslot[ci]] = 1;
    dag_matrix[di] = matrix;
  };
  for (const NodeRun& r : runs) need_artifacts(r.di, r.ci, r.matrix, r.sink != nullptr);

  struct PrebuildJob {
    const ir::TensorDag* dag;
    size_t di;  ///< unique-DAG index
    i32 slot;   ///< index into scheds[di] / opt_keys, or -1 for the AddressMap
  };
  std::vector<PrebuildJob> jobs;
  jobs.reserve(unique_dag.size() * (1 + opt_keys.size()));
  for (const auto& [dag, di] : unique_dag) {
    if (map_needed[di]) jobs.push_back({dag, di, -1});
    for (size_t k = 0; k < opt_keys.size(); ++k)
      if (sched_needed[di][k]) jobs.push_back({dag, di, static_cast<i32>(k)});
  }

  parallel_for(threads, jobs.size(), [&](size_t j, u32 /*worker*/) {
    const PrebuildJob& job = jobs[j];
    if (job.slot < 0) {
      maps[job.di].emplace(AddressMap::build(*job.dag));
    } else {
      scheds[job.di][job.slot].emplace(score::build_schedule(*job.dag, opt_keys[job.slot]));
    }
  });

  // Second prebuild wave: reuse indexes and router tables both derive from a
  // built schedule (reuse also needs the address map), so they build once
  // those exist.  `router` distinguishes the two job kinds; `slot` indexes
  // opt_keys for reuse jobs and router_keys for table jobs.
  struct DerivedJob {
    const ir::TensorDag* dag;
    size_t di;
    size_t slot;
    bool router;
  };
  std::vector<DerivedJob> derived_jobs;
  derived_jobs.reserve(unique_dag.size() * (opt_keys.size() + router_keys.size()));
  for (const auto& [dag, di] : unique_dag) {
    for (size_t k = 0; k < opt_keys.size(); ++k)
      if (sched_needed[di][k]) derived_jobs.push_back({dag, di, k, false});
    for (size_t r = 0; r < router_keys.size(); ++r)
      if (rtable_needed[di][r]) derived_jobs.push_back({dag, di, r, true});
  }
  parallel_for(threads, derived_jobs.size(), [&](size_t j, u32 /*worker*/) {
    const DerivedJob& job = derived_jobs[j];
    if (job.router) {
      const RouterKey& key = router_keys[job.slot];
      rtables[job.di][job.slot].emplace(RouterTables::build(
          *job.dag, *scheds[job.di][key.sched_slot], key.policy, key.allow_delayed_hold,
          key.arch));
    } else {
      reuse[job.di][job.slot].emplace(
          score::ReuseIndex::build(*job.dag, *scheds[job.di][job.slot],
                                   maps[job.di]->base_of, maps[job.di]->entries.size()));
    }
  });

  // Third prebuild wave: the access streams.
  struct StreamJob {
    const ir::TensorDag* dag;
    size_t di;
    size_t ri;
  };
  std::vector<StreamJob> stream_jobs;
  for (const auto& [dag, di] : unique_dag)
    for (size_t r = 0; r < router_keys.size(); ++r)
      if (stream_needed[di][r]) stream_jobs.push_back({dag, di, r});
  parallel_for(threads, stream_jobs.size(), [&](size_t j, u32 /*worker*/) {
    const StreamJob& job = stream_jobs[j];
    const RouterKey& key = router_keys[job.ri];
    const score::Schedule& sched = *scheds[job.di][key.sched_slot];
    const Router router(*job.dag, sched, key.policy, *rtables[job.di][job.ri]);
    streams[job.di][job.ri].emplace(AccessStream::capture(
        *job.dag, sched, *maps[job.di], dag_matrix[job.di], key.arch, router));
  });

  // Each pool worker owns one RunScratch: per-run mutable state (reuse
  // cursors, attribution scratch, pooled buffer policies) is reset, not
  // reallocated, between the simulations that worker executes.
  std::vector<RunScratch> scratches(worker_count(threads, runs.size()));
  auto simulate = [&](const NodeRun& r, u32 worker) {
    const Simulator simulator(arch, r.matrix);
    RunArtifacts art;
    art.schedule = &*scheds[r.di][config_slot[r.ci]];
    art.address_map = &*maps[r.di];
    art.reuse_index = &*reuse[r.di][config_slot[r.ci]];
    art.router_tables = &*rtables[r.di][config_rslot[r.ci]];
    art.scratch = &scratches[worker];
    const auto& stream = streams[r.di][config_rslot[r.ci]];
    if (stream.has_value()) art.access_stream = &*stream;
    art.trace = r.sink;
    return simulator.run(*slot_dag[r.di], configs[r.ci], art);
  };

  // ---- the cells ----
  // A cell is derived — and journaled — by the worker that finishes the last
  // run it needs (its per-node run and, for a multi-node cell, the 1-node
  // baseline), so a checkpointed sweep saves each cell as soon as it can be
  // computed.  `waiting` counts a cell's unfinished runs; `unread` counts
  // the cells that still have to read a run's metrics, and the last one
  // frees them.
  std::vector<std::atomic<u32>> waiting(total);
  for (const NodeRun& r : runs)
    for (const size_t job : r.consumers) waiting[job].fetch_add(1, std::memory_order_relaxed);
  std::vector<std::atomic<size_t>> unread(runs.size());
  for (size_t k = 0; k < runs.size(); ++k)
    unread[k].store(runs[k].readers, std::memory_order_relaxed);

  auto derive_cell = [&](size_t job, u32 worker) {
    const size_t cell = cells != nullptr ? (*cells)[job] : job;
    const size_t rf = cell / C;
    const size_t fi = rf % F;
    const size_t ci = cell % C;
    const RowView& row = rows[rf];
    const std::string& wl_name = *workloads[rf / F].name;
    SweepResult result{wl_name, configs[ci].name, {}, {}, {}};
    if (fabric_axis) result.fabric = fabs[fi];
    // Deterministic bounded retries: attempts run back-to-back on the same
    // worker, so the final outcome is independent of thread scheduling.  A
    // failed run stands in for the cell's first attempt; later attempts
    // re-run the cell's own simulation.
    std::string error;
    for (u32 attempt = 0; attempt <= opts.retries; ++attempt) {
      error.clear();
      try {
        failpoint::maybe_throw("sweep.cell", std::to_string(cell));
        if (!row.error.empty()) throw Error(row.error);
        NodeRun& run = runs[cell_run[job]];
        std::optional<RunMetrics> own;
        if (!run.error.empty()) {
          if (attempt == 0) throw Error(run.error);
          own = simulate(run, worker);
        }
        if (row.part == nullptr) {
          if (own) {
            result.metrics = std::move(*own);
          } else if (run.readers == 1) {
            result.metrics = std::move(run.metrics);  // the run's only reader takes it
          } else {
            result.metrics = run.metrics;
          }
        } else {
          const NodeRun& base = runs[base_run[job]];
          if (!base.error.empty()) throw Error("1-node baseline failed: " + base.error);
          const RunMetrics& per_node = own ? *own : run.metrics;
          result.metrics =
              fold_multinode(per_node, base.seconds, *row.part, *finfo[fi].topo, arch);
          // The span starts at the per-node time, where the direct multi-node
          // run places it.
          if (run.sink != nullptr) trace_collectives(*run.sink, result.metrics, per_node.seconds);
        }
        break;
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    const size_t k = cell_run[job];
    if (k != SIZE_MAX && unread[k].fetch_sub(1, std::memory_order_acq_rel) == 1)
      runs[k].metrics = RunMetrics{};
    if (!error.empty()) {
      // Every cell-level throw carries its full grid coordinates: a failure
      // in a million-cell sweep names exactly what died and under what.
      std::string context = "sweep cell " + std::to_string(cell) + " (workload '" + wl_name + "'";
      if (fabric_axis) context += ", fabric '" + fabs[fi] + "'";
      context += ", config '" + configs[ci].name + "') failed";
      if (opts.retries > 0)
        context += " after " + std::to_string(opts.retries + 1) + " attempts";
      context += ": " + error;
      if (!opts.keep_going) throw Error(context);
      result.metrics = RunMetrics{};
      result.error = std::move(context);
    }
    const bool completed = result.ok();
    out[job] = std::move(result);
    // Only successes are journaled: a quarantined failure stays pending, so a
    // later resume (possibly with the fault fixed) re-runs it.
    if (journal.active() && completed) journal.append(cell, out[job]);
  };

  // Cells with no run (their partition failed) report before anything
  // simulates.
  for (size_t job = 0; job < total; ++job)
    if (!done[job] && cell_run[job] == SIZE_MAX) derive_cell(job, 0);

  // ---- worker-affine tiling ----
  // Runs are claimed in configuration-major run-length chunks instead of one
  // by one: a worker executing a chunk runs the same configuration
  // repeatedly, so its scratch's pooled buffer policy is reset — not rebuilt
  // — between consecutive runs.  Each configuration run splits into at most
  // worker_count pieces to keep the pool load-balanced.  Results are written
  // by job index and each simulation is untouched, so output order and bits
  // match one-run-at-a-time claiming at any thread count.
  const u32 nworkers = worker_count(threads, runs.size());
  std::vector<size_t> order(runs.size());
  for (size_t k = 0; k < runs.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return runs[a].ci < runs[b].ci; });
  struct Chunk {
    size_t begin, end;  ///< half-open range into `order`
  };
  std::vector<Chunk> chunks;
  for (size_t s = 0; s < order.size();) {
    size_t e = s;
    while (e < order.size() && runs[order[e]].ci == runs[order[s]].ci) ++e;
    const size_t pieces = std::min<size_t>(nworkers, e - s);
    const size_t step = (e - s + pieces - 1) / pieces;
    for (size_t p = s; p < e; p += step) chunks.push_back({p, std::min(p + step, e)});
    s = e;
  }
  parallel_for(threads, chunks.size(), [&](size_t cj, u32 worker) {
    for (size_t i = chunks[cj].begin; i < chunks[cj].end; ++i) {
      NodeRun& r = runs[order[i]];
      try {
        r.metrics = simulate(r, worker);
        r.seconds = r.metrics.seconds;
        if (r.readers == 0) r.metrics = RunMetrics{};  // baseline only: the seconds suffice
      } catch (const std::exception& e) {
        r.error = e.what();  // each consuming cell reports it with its own coordinates
      }
      for (const size_t job : r.consumers)
        if (waiting[job].fetch_sub(1, std::memory_order_acq_rel) == 1) derive_cell(job, worker);
    }
  });
  return out;
}

std::vector<Configuration> named_configs(const std::vector<std::string>& names) {
  std::vector<Configuration> configs;
  configs.reserve(names.size());
  for (const auto& name : names) configs.push_back(ConfigRegistry::global().at(name));
  return configs;
}

}  // namespace

std::vector<SweepResult> SweepRunner::run(const std::vector<Workload>& workloads,
                                          const std::vector<Configuration>& configs,
                                          const AcceleratorConfig& arch) const {
  return run(workloads, configs, arch, SweepOptions{});
}

std::vector<SweepResult> SweepRunner::run(const std::vector<Workload>& workloads,
                                          const std::vector<Configuration>& configs,
                                          const AcceleratorConfig& arch,
                                          const SweepOptions& options) const {
  CELLO_CHECK_MSG(options.checkpoint.empty(),
                  "checkpointing requires a shard-scoped run (SweepRunner::run_shard): the "
                  "journal is keyed by the grid fingerprint");
  std::vector<WorkloadView> views;
  views.reserve(workloads.size());
  for (const auto& w : workloads) {
    CELLO_CHECK_MSG(w.dag != nullptr, "sweep workload '" << w.name << "' has no DAG");
    views.push_back({&w.name, w.dag.get(), w.matrix.get()});
  }
  return run_grid(threads_, views, configs, arch, nullptr, nullptr, options);
}

std::vector<SweepResult> SweepRunner::run(const std::vector<Workload>& workloads,
                                          const std::vector<std::string>& config_names,
                                          const AcceleratorConfig& arch) const {
  return run(workloads, named_configs(config_names), arch);
}

std::vector<SweepResult> SweepRunner::run(const std::vector<WorkloadSpec>& specs,
                                          const std::vector<Configuration>& configs,
                                          const AcceleratorConfig& arch) const {
  // resolve() caches by canonical spec, so duplicate specs share one DAG.
  std::vector<Workload> workloads;
  workloads.reserve(specs.size());
  for (const auto& spec : specs) workloads.push_back(WorkloadRegistry::global().resolve(spec));
  return run(workloads, configs, arch);
}

std::vector<SweepResult> SweepRunner::run(const std::vector<std::string>& workload_specs,
                                          const std::vector<std::string>& config_names,
                                          const AcceleratorConfig& arch) const {
  std::vector<Workload> workloads;
  workloads.reserve(workload_specs.size());
  for (const auto& text : workload_specs)
    workloads.push_back(WorkloadRegistry::global().resolve(text));
  return run(workloads, named_configs(config_names), arch);
}

std::vector<SweepResult> SweepRunner::run_shard(const SweepGrid& grid,
                                                const ShardPlan& plan) const {
  return run_shard(grid, plan, SweepOptions{});
}

std::vector<SweepResult> SweepRunner::run_shard(const SweepGrid& grid, const ShardPlan& plan,
                                                const SweepOptions& options) const {
  // Resolve (build the DAG of, load the matrix of) only the workloads the
  // shard's cells actually touch: a shard of a dataset-heavy grid must not
  // pay — or even require access to — the other shards' datasets.  Untouched
  // rows keep null views; run_grid never dereferences a row no cell selects,
  // and their names come from the grid's canonical spec strings (identical
  // to the resolved names by construction).
  const size_t row_cells = grid.fabrics.size() * grid.configs.size();
  std::vector<char> needed(grid.workloads.size(), 0);
  for (const size_t cell : plan.cells)
    if (row_cells != 0 && cell / row_cells < grid.workloads.size())
      needed[cell / row_cells] = 1;
  std::vector<Workload> workloads(grid.workloads.size());
  for (size_t wi = 0; wi < grid.workloads.size(); ++wi)
    if (needed[wi]) workloads[wi] = WorkloadRegistry::global().resolve(grid.workloads[wi]);
  const std::vector<Configuration> configs = named_configs(grid.configs);
  std::vector<WorkloadView> views;
  views.reserve(workloads.size());
  for (size_t wi = 0; wi < grid.workloads.size(); ++wi)
    views.push_back(
        {&grid.workloads[wi], workloads[wi].dag.get(), workloads[wi].matrix.get()});
  return run_grid(threads_, views, configs, grid.arch, &grid.fabrics, &plan.cells, options,
                  &grid, &plan);
}

std::vector<SweepResult> SweepRunner::run(const std::vector<SweepWorkload>& workloads,
                                          const std::vector<Configuration>& configs,
                                          const AcceleratorConfig& arch) const {
  std::vector<WorkloadView> views;
  views.reserve(workloads.size());
  for (const auto& w : workloads) views.push_back({&w.name, &w.dag, w.matrix});
  return run_grid(threads_, views, configs, arch);
}

std::vector<SweepResult> SweepRunner::run(const std::vector<SweepWorkload>& workloads,
                                          const std::vector<std::string>& config_names,
                                          const AcceleratorConfig& arch) const {
  return run(workloads, named_configs(config_names), arch);
}

}  // namespace cello::sim
