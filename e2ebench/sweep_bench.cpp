// sweep_bench: host-time benchmark program behind e2ebench/run.py.
//
// Runs one named sweep workload the way `cello_cli sweep --out` does and
// prints one JSON line of raw per-pass samples; run.py turns them into the
// benchmark's metrics.  Two modes:
//
//   untraced  closed loop, one client: pass after pass until --seconds is
//             spent.  A pass is cold (WorkloadRegistry::clear_cache), resolves
//             every spec (setup), then SweepRunner::run_shard with --workers,
//             then writes the shard result file (and, in scaleout, a fresh
//             fsync'd checkpoint journal).
//   --trace   alternates a single-worker untraced pass with a traced pass that
//             replicates the same sweep through each layer's public functions
//             (generators, DAG builders, schedule / address map / reuse index /
//             router tables, AccessStream::capture, Simulator::run, partition +
//             fold, result and journal I/O), recording host-time spans around
//             every call.  The traced pass must write a result file
//             byte-identical to the untraced one.
//
// Every pass checks every cell: it must not be quarantined, must satisfy
// dram_bytes == dram_read_bytes + dram_write_bytes, and its serialized result
// must match the recorded reference digest (or, for seeds without a recorded
// reference, the run's first pass).
//
//   sweep_bench --workload table4|scaleout|decode --seed N --seconds S
//               --workers W --work DIR [--min-passes N (default 3)]
//               [--reference FILE] [--record FILE]
//               [--trace] [--trace-out FILE]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "noc/topology.hpp"
#include "score/reuse_index.hpp"
#include "score/schedule.hpp"
#include "sim/access_stream.hpp"
#include "sim/address_map.hpp"
#include "sim/checkpoint.hpp"
#include "sim/partition.hpp"
#include "sim/policies/schedule_policy.hpp"
#include "sim/registry.hpp"
#include "sim/result_io.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/workload_registry.hpp"
#include "sim/workload_spec.hpp"
#include "sparse/generators.hpp"
#include "trace/trace.hpp"
#include "workloads/bicgstab.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/llm.hpp"
#include "workloads/poweriter.hpp"

namespace {

using namespace cello;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads ---------------------------------------------------------------

/// One benchmark workload: the sweep grid `cello_cli sweep` would build.
struct WorkloadDef {
  std::vector<std::string> specs;
  std::vector<std::string> fabrics;  ///< empty = single chip
  bool journal = false;              ///< scaleout also runs with --checkpoint
};

WorkloadDef workload_def(const std::string& name, i64 seed) {
  const std::string s = ",seed=" + std::to_string(seed);
  const std::string cg = "cg:gen=fem,m=81920,nnz=327680" + s;
  if (name == "table4")
    return {{cg, "bicgstab:gen=fem,m=4704,nnz=104756" + s,
             "gnn:gen=graph,m=2708,nnz=9464,in=1433,out=7" + s,
             "power:gen=circuit,m=150102,nnz=726674" + s},
            {},
            false};
  if (name == "scaleout") {
    // `--nodes 1,4,16,64 --topology mesh,torus`, canonicalized like the CLI.
    std::vector<std::string> fabs;
    for (const i64 nodes : {1, 4, 16, 64})
      for (const char* topo : {"mesh", "torus"}) {
        const std::string spec = noc::resolve_topology(topo, nodes).to_string();
        if (std::find(fabs.begin(), fabs.end(), spec) == fabs.end()) fabs.push_back(spec);
      }
    return {{cg}, fabs, true};
  }
  if (name == "decode") return {{"llm:d_model=512,seq=2048,decode_steps=32,layers=8"}, {}, false};
  throw Error("unknown workload '" + name + "' (table4 | scaleout | decode)");
}

sim::AcceleratorConfig cli_arch() {
  // cello_cli's defaults: --bw-gbps 1000, --sram-mib 4.
  sim::AcceleratorConfig arch;
  arch.dram_bytes_per_sec = 1000 * 1e9;
  arch.sram_bytes = 4ull * 1024 * 1024;
  return arch;
}

// ---- correctness -------------------------------------------------------------

u64 fnv1a(const std::string& text) {
  u64 h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

u64 cell_digest(const sim::SweepResult& r) {
  std::string text;
  sim::result_to_json(text, r, 0);
  return fnv1a(text);
}

std::string cell_label(const sim::SweepResult& r) {
  return r.workload + " | " + (r.fabric.empty() ? "1" : r.fabric) + " | " + r.config;
}

/// Per-cell reference digests, in plan (row-major) order.
struct Reference {
  std::vector<u64> digest;
  std::vector<std::string> label;
};

std::optional<Reference> read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    size_t cell = 0;
    std::string hex;
    if (!(row >> cell >> hex) || cell != ref.digest.size())
      throw Error("malformed reference line in '" + path + "': " + line);
    ref.digest.push_back(std::stoull(hex, nullptr, 16));
    std::string rest;
    std::getline(row, rest);
    ref.label.push_back(rest.empty() ? rest : rest.substr(1));
  }
  return ref;
}

void write_reference(const std::string& path, const std::string& workload, i64 seed,
                     const std::vector<sim::SweepResult>& cells) {
  std::ofstream out(path, std::ios::binary);
  out << "# e2ebench reference: workload=" << workload << " seed=" << seed
      << " cells=" << cells.size() << "\n"
      << "# <cell> <FNV-1a of the cell's result JSON> <workload | fabric | config>"
         " seconds=<hexfloat> dram_bytes=<n> energy_pj=<hexfloat>\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const sim::RunMetrics& m = cells[i].metrics;
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(cell_digest(cells[i])));
    out << i << " " << hex << " " << cell_label(cells[i])
        << " seconds=" << sim::hex_double(m.seconds) << " dram_bytes=" << m.dram_bytes
        << " energy_pj=" << sim::hex_double(m.total_energy_pj()) << "\n";
  }
  if (!out.flush()) throw Error("failed writing '" + path + "'");
}

struct Check {
  size_t failed = 0;      ///< quarantined or violating dram conservation
  size_t mismatched = 0;  ///< digest differs from the reference
  std::vector<u64> digests;
};

Check check_cells(const std::vector<sim::SweepResult>& cells, const Reference* ref) {
  Check c;
  c.digests.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    const sim::SweepResult& r = cells[i];
    const sim::RunMetrics& m = r.metrics;
    const u64 d = cell_digest(r);
    c.digests.push_back(d);
    if (!r.ok() || m.dram_bytes != m.dram_read_bytes + m.dram_write_bytes) {
      if (c.failed++ < 3)
        std::cerr << "cell " << i << " (" << cell_label(r) << ") failed: "
                  << (r.ok() ? "dram_bytes != dram_read_bytes + dram_write_bytes" : r.error)
                  << "\n";
    } else if (ref != nullptr && (i >= ref->digest.size() || ref->digest[i] != d)) {
      if (c.mismatched++ < 3)
        std::cerr << "cell " << i << " (" << cell_label(r) << ") differs from the reference"
                  << (i < ref->label.size() ? " (" + ref->label[i] + ")" : std::string())
                  << "\n";
    }
  }
  if (ref != nullptr && ref->digest.size() != cells.size()) {
    std::cerr << "reference holds " << ref->digest.size() << " cells, the sweep "
              << cells.size() << "\n";
    c.mismatched += ref->digest.size() > cells.size() ? ref->digest.size() - cells.size() : 0;
  }
  return c;
}

// ---- file I/O (as cello_cli's write_file) ------------------------------------

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write '" + path + "'");
  out << content;
  if (!out.flush()) throw Error("failed writing '" + path + "'");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read '" + path + "'");
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}


// ---- untraced pass -----------------------------------------------------------

struct PassSample {
  double e2e_s = 0;
  double setup_s = 0;
  size_t cells = 0;
  Check check;
};

/// One cold CLI-equivalent pass: resolve every spec, run_shard, write the
/// result file (and a fresh journal).  The clock stops once the file is
/// flushed; checking happens after.
PassSample untraced_pass(const WorkloadDef& def, u32 workers, const std::string& result_path,
                         const std::string& journal_path, const Reference* ref,
                         std::vector<sim::SweepResult>* keep) {
  const sim::WorkloadRegistry& registry = sim::WorkloadRegistry::global();
  registry.clear_cache();
  std::remove(journal_path.c_str());

  PassSample s;
  const auto t0 = Clock::now();
  for (const std::string& spec : def.specs) registry.resolve(spec);
  s.setup_s = seconds_since(t0);

  const sim::SweepGrid grid =
      sim::make_grid(def.specs, sim::ConfigRegistry::global().names(), cli_arch(), def.fabrics);
  const sim::ShardPlan plan = sim::plan_shard(grid, 1, 1);
  sim::SweepOptions options;
  options.keep_going = true;
  if (def.journal) options.checkpoint = journal_path;
  sim::ShardResult shard{grid, plan, sim::SweepRunner(workers).run_shard(grid, plan, options)};
  write_file(result_path, sim::shard_to_json(shard));
  s.e2e_s = seconds_since(t0);

  s.cells = shard.results.size();
  s.check = check_cells(shard.results, ref);
  if (keep != nullptr) *keep = std::move(shard.results);
  std::remove(journal_path.c_str());
  return s;
}

// ---- traced pass -------------------------------------------------------------

/// In-memory host-time spans, nested on the single driving thread.  Each span
/// names the layer its self time is charged to; spans of one grid cell share
/// the cell id.
class Spans {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0;
    double end = 0;
    i64 parent = -1;
    i64 cell = -1;
  };

  class Scope {
   public:
    Scope(Spans& owner, size_t id) : owner_(owner), id_(id) {}
    ~Scope() { owner_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& owner_;
    size_t id_;
  };

  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] Scope open(std::string name, std::string layer, i64 cell = -1) {
    const i64 parent = stack_.empty() ? -1 : static_cast<i64>(stack_.back());
    spans_.push_back({std::move(name), std::move(layer), now(), 0, parent, cell});
    stack_.push_back(spans_.size() - 1);
    return Scope(*this, spans_.size() - 1);
  }

  /// Self time per layer: a span's duration minus the time its children cover.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].layer] += spans_[i].end - spans_[i].start - child[i];
    return out;
  }

  /// Chrome trace_event JSON (one host track; id / parent / cell in args).
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw Error("cannot write '" + path + "'");
    trace::ChromeTraceWriter writer(out);
    writer.track(1, 0, "e2ebench", "host");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      writer.span(1, 0, s.name, s.start, s.end - s.start,
                  {trace::arg("id", static_cast<i64>(i)), trace::arg("parent", s.parent),
                   trace::arg("cell", s.cell), trace::arg("layer", s.layer)});
    }
    writer.finish();
    if (!out.flush()) throw Error("failed writing '" + path + "'");
  }

 private:
  double now() const { return seconds_since(origin_); }
  void close(size_t id) {
    spans_[id].end = now();
    stack_.pop_back();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

/// Work counts recorded at the same boundaries as the spans.
struct Counts {
  u64 nnz = 0;
  u64 ops = 0;
  u64 slots = 0;                 ///< (DAG, schedule-options) slots prebuilt
  u64 cells = 0;
  u64 stream_spans = 0;
  u64 materialized_steps = 0;
  u64 schedule_steps = 0;        ///< of the captured streams
  u64 lines = 0;                 ///< cache line accesses of trace-driven cells
  u64 trace_driven_cells = 0;
  u64 replayed_cells = 0;
  u64 byte_hops = 0;
  u64 result_bytes = 0;
  u64 journal_bytes = 0;
};

i64 param(const sim::WorkloadSpec& spec, const std::string& key, i64 fallback) {
  const auto it = spec.params.find(key);
  return it == spec.params.end() ? fallback : std::stoll(it->second);
}

/// The registry's build of the benchmark's specs, through the public
/// generator and DAG-builder functions so each gets its own span.  Any
/// divergence from WorkloadRegistry::resolve shows up as a result mismatch.
sim::Workload build_workload(const std::string& text, Spans& spans, Counts& counts) {
  const sim::WorkloadSpec spec = sim::WorkloadSpec::parse(text);
  sim::Workload w;
  w.name = spec.to_string();
  w.kind = spec.kind;
  i64 rows = 0, nnz = 0;
  {
    // The matrix source stage; shape-only kinds (llm) generate nothing.
    const auto scope = spans.open("matrix " + spec.kind, "sparse.gen_ms");
    if (const auto gen = spec.params.find("gen"); gen != spec.params.end()) {
      Rng rng(static_cast<u64>(param(spec, "seed", 1)));
      const i64 m = param(spec, "m", 0);
      const i64 target = param(spec, "nnz", 8 * m);
      sparse::CsrMatrix built =
          gen->second == "fem"       ? sparse::make_fem_banded(m, target, rng)
          : gen->second == "circuit" ? sparse::make_circuit(m, target, rng)
                                     : sparse::make_powerlaw_graph(m, target, rng);
      rows = built.rows();
      nnz = built.nnz();
      counts.nnz += static_cast<u64>(nnz);
      w.matrix = std::make_shared<const sparse::CsrMatrix>(std::move(built));
    }
  }
  const auto scope = spans.open("dag " + spec.kind, "workloads.dag_ms");
  ir::TensorDag dag;
  if (spec.kind == "cg") {
    workloads::CgShape s;
    s.m = rows;
    s.nnz = nnz;
    s.n = param(spec, "n", 16);
    s.iterations = param(spec, "iters", 10);
    s.word_bytes = static_cast<Bytes>(param(spec, "words", 4));
    dag = workloads::build_cg_dag(s);
  } else if (spec.kind == "bicgstab") {
    workloads::BiCgStabShape s;
    s.m = rows;
    s.nnz = nnz;
    s.n = param(spec, "n", 1);
    s.iterations = param(spec, "iters", 10);
    s.word_bytes = static_cast<Bytes>(param(spec, "words", 4));
    dag = workloads::build_bicgstab_dag(s);
  } else if (spec.kind == "gnn") {
    workloads::GnnShape s;
    s.vertices = rows;
    s.nnz = nnz;
    s.in_features = param(spec, "in", 64);
    s.out_features = param(spec, "out", 16);
    s.word_bytes = static_cast<Bytes>(param(spec, "words", 4));
    dag = workloads::build_gnn_dag(s);
  } else if (spec.kind == "power") {
    workloads::PowerIterShape s;
    s.m = rows;
    s.nnz = nnz;
    s.iterations = param(spec, "iters", 10);
    s.word_bytes = static_cast<Bytes>(param(spec, "words", 4));
    dag = workloads::build_power_iteration_dag(s);
  } else if (spec.kind == "llm") {
    workloads::LlmShape s;
    s.layers = param(spec, "layers", s.layers);
    s.heads = param(spec, "heads", s.heads);
    s.d_model = param(spec, "d_model", s.d_model);
    s.seq = param(spec, "seq", s.seq);
    s.decode_steps = param(spec, "decode_steps", s.decode_steps);
    s.d_ff = param(spec, "d_ff", 0);
    s.gqa = param(spec, "gqa", 0);
    s.word_bytes = static_cast<Bytes>(param(spec, "words", 2));
    dag = workloads::build_llm_decode_dag(s);
  } else {
    throw Error("the traced pass does not know workload kind '" + spec.kind + "'");
  }
  counts.ops += dag.ops().size();
  w.dag = std::make_shared<const ir::TensorDag>(std::move(dag));
  return w;
}

struct TracedSample {
  double e2e_s = 0;
  std::map<std::string, double> self_s;  ///< per layer
  Counts counts;
  Check check;
};

/// Single-worker replica of `cello_cli sweep --out`: resolve, then run_grid's
/// stages one after another, each stage one span charged to its layer and
/// opened even when the workload gives it nothing to do.  Sharing mirrors
/// run_grid: one AddressMap per DAG, one schedule + reuse index per (DAG,
/// schedule options), one router table and access stream per (DAG, router
/// key), one partition per (workload, node count) and one 1-node baseline per
/// (workload, config) of a multi-node column.  Cells run in servicing waves
/// (analytic, replay, direct) and fold / journal afterwards; per-cell spans
/// carry the cell id.
TracedSample traced_pass(const WorkloadDef& def, const std::string& result_path,
                         const std::string& journal_path, const Reference* ref,
                         Spans& spans) {
  std::remove(journal_path.c_str());
  TracedSample out;
  Counts& counts = out.counts;
  const auto t0 = Clock::now();
  std::vector<sim::SweepResult> results;
  {
    const auto pass = spans.open("pass", "unaccounted");
    std::vector<sim::Workload> wls;
    for (const std::string& spec : def.specs) {
      const auto scope = spans.open("resolve " + spec, "unaccounted");
      wls.push_back(build_workload(spec, spans, counts));
    }

    const sim::AcceleratorConfig arch = cli_arch();
    const sim::SweepGrid grid =
        sim::make_grid(def.specs, sim::ConfigRegistry::global().names(), arch, def.fabrics);
    const sim::ShardPlan plan = sim::plan_shard(grid, 1, 1);
    std::vector<sim::Configuration> configs;
    for (const std::string& name : grid.configs)
      configs.push_back(sim::ConfigRegistry::global().at(name));
    const size_t W = wls.size(), F = grid.fabrics.size(), C = configs.size();

    // Per-config keys, as run_grid derives them.
    const sim::Simulator scheduler(arch);
    std::vector<score::ScheduleOptions> opt_keys;
    std::vector<size_t> config_slot(C);
    struct RouterKey {
      size_t sched_slot;
      sim::SchedulePolicy policy;
      bool allow_delayed_hold;
      sim::AcceleratorConfig arch;
      bool operator==(const RouterKey&) const = default;
    };
    std::vector<RouterKey> router_keys;
    std::vector<size_t> config_rslot(C);
    std::vector<char> trace_driven(C, 0), replayable(C, 0);
    for (size_t ci = 0; ci < C; ++ci) {
      const score::ScheduleOptions o = scheduler.schedule_options(configs[ci]);
      auto it = std::find(opt_keys.begin(), opt_keys.end(), o);
      config_slot[ci] = static_cast<size_t>(it - opt_keys.begin());
      if (it == opt_keys.end()) opt_keys.push_back(o);
      const RouterKey key{config_slot[ci], configs[ci].schedule, configs[ci].allow_delayed_hold,
                          scheduler.effective_arch(configs[ci])};
      auto rit = std::find(router_keys.begin(), router_keys.end(), key);
      config_rslot[ci] = static_cast<size_t>(rit - router_keys.begin());
      if (rit == router_keys.end()) router_keys.push_back(key);
      const auto probe = configs[ci].buffers(key.arch);
      trace_driven[ci] = probe->trace_driven();
      replayable[ci] = probe->trace_driven() && probe->supports_replay();
    }

    // Multi-chip layer: parse every fabric, route the multi-node ones and
    // partition each workload once per node count.
    std::vector<i64> fab_nodes(F, 1);
    std::vector<std::optional<noc::Topology>> topos(F);
    std::map<std::pair<size_t, i64>, sim::Partition> parts;
    {
      const auto scope = spans.open("fabrics + partitions", "partition.build_ms");
      for (size_t fi = 0; fi < F; ++fi) {
        const noc::TopologySpec spec = noc::TopologySpec::parse(grid.fabrics[fi]);
        fab_nodes[fi] = spec.nodes();
        if (fab_nodes[fi] > 1) topos[fi] = noc::Topology::build(spec);
      }
      for (size_t wi = 0; wi < W; ++wi)
        for (size_t fi = 0; fi < F; ++fi)
          if (fab_nodes[fi] > 1 && !parts.count({wi, fab_nodes[fi]}))
            parts.emplace(std::make_pair(wi, fab_nodes[fi]),
                          sim::build_partition(*wls[wi].dag, fab_nodes[fi]));
    }

    // Distinct DAGs: each workload's full DAG plus every shard DAG.
    struct DagSlot {
      const ir::TensorDag* dag;
      const sparse::CsrMatrix* matrix;
      bool single_chip;
      std::optional<sim::AddressMap> map;
      std::vector<std::optional<score::Schedule>> sched;
      std::vector<std::optional<score::ReuseIndex>> reuse;
      std::vector<std::optional<sim::RouterTables>> tables;
      std::vector<std::optional<sim::AccessStream>> streams;
    };
    std::vector<DagSlot> dags;
    std::vector<size_t> full_slot(W);
    std::map<std::pair<size_t, i64>, size_t> shard_slot;
    for (size_t wi = 0; wi < W; ++wi) {
      full_slot[wi] = dags.size();
      dags.push_back({wls[wi].dag.get(), wls[wi].matrix.get(), true, {}, {}, {}, {}, {}});
    }
    for (const auto& [key, part] : parts) {
      shard_slot[key] = dags.size();
      dags.push_back({&part.shard, wls[key.first].matrix.get(), false, {}, {}, {}, {}, {}});
    }

    // Setup layer: address maps, schedules, reuse indexes, router tables.
    {
      const auto scope = spans.open("setup", "score.setup_ms");
      for (DagSlot& d : dags) {
        d.map.emplace(sim::AddressMap::build(*d.dag));
        d.sched.resize(opt_keys.size());
        d.reuse.resize(opt_keys.size());
        d.tables.resize(router_keys.size());
        d.streams.resize(router_keys.size());
        for (size_t k = 0; k < opt_keys.size(); ++k) {
          d.sched[k].emplace(score::build_schedule(*d.dag, opt_keys[k]));
          d.reuse[k].emplace(score::ReuseIndex::build(*d.dag, *d.sched[k], d.map->base_of,
                                                      d.map->entries.size()));
          ++counts.slots;
        }
        for (size_t r = 0; r < router_keys.size(); ++r) {
          const RouterKey& key = router_keys[r];
          d.tables[r].emplace(sim::RouterTables::build(*d.dag, *d.sched[key.sched_slot],
                                                       key.policy, key.allow_delayed_hold,
                                                       key.arch));
        }
      }
    }

    // Capture layer: one stream per (single-chip DAG, router key) that a
    // replay-capable configuration reads.
    {
      const auto scope = spans.open("capture", "access_stream.capture_ms");
      for (DagSlot& d : dags) {
        if (!d.single_chip) continue;
        for (size_t r = 0; r < router_keys.size(); ++r) {
          bool needed = false;
          for (size_t ci = 0; ci < C; ++ci) needed |= replayable[ci] && config_rslot[ci] == r;
          if (!needed) continue;
          const RouterKey& key = router_keys[r];
          const score::Schedule& sched = *d.sched[key.sched_slot];
          const sim::Router router(*d.dag, sched, key.policy, *d.tables[r]);
          d.streams[r].emplace(
              sim::AccessStream::capture(*d.dag, sched, *d.map, d.matrix, key.arch, router));
          counts.stream_spans += d.streams[r]->spans();
          counts.materialized_steps += d.streams[r]->materialized_steps();
          counts.schedule_steps += d.streams[r]->schedule_steps;
        }
      }
    }

    sim::RunScratch scratch;
    auto artifacts = [&](const DagSlot& d, size_t ci, bool with_stream) {
      sim::RunArtifacts art;
      art.schedule = &*d.sched[config_slot[ci]];
      art.address_map = &*d.map;
      art.reuse_index = &*d.reuse[config_slot[ci]];
      art.router_tables = &*d.tables[config_rslot[ci]];
      art.scratch = &scratch;
      const auto& stream = d.streams[config_rslot[ci]];
      if (with_stream && stream.has_value()) art.access_stream = &*stream;
      return art;
    };

    // 1-node baselines of the multi-node columns (no stream, as run_grid).
    std::map<std::pair<size_t, size_t>, double> baseline;
    {
      const auto scope = spans.open("baselines", "partition.baseline_ms");
      for (const auto& [key, part] : parts)
        for (size_t ci = 0; ci < C; ++ci) {
          if (baseline.count({key.first, ci})) continue;
          const DagSlot& d = dags[full_slot[key.first]];
          baseline[{key.first, ci}] =
              sim::Simulator(arch, d.matrix).run(*d.dag, configs[ci], artifacts(d, ci, false))
                  .seconds;
        }
    }

    // Cell servicing, one wave per servicing mode, configuration-major inside
    // a wave (run_grid's worker-affine order).
    results.resize(grid.cells());
    enum Mode { Analytic, Replay, Direct };
    auto mode_of = [&](size_t cell) {
      const size_t ci = cell % C;
      if (!trace_driven[ci]) return Analytic;
      return fab_nodes[cell / C % F] <= 1 && replayable[ci] ? Replay : Direct;
    };
    const struct {
      Mode mode;
      const char* name;
      const char* layer;
    } waves[] = {{Analytic, "analytic", "service.analytic_ms"},
                 {Replay, "replay", "service.replay_ms"},
                 {Direct, "direct", "service.direct_ms"}};
    for (const auto& [mode, name, layer] : waves) {
      const auto wave = spans.open(name, layer);
      for (size_t ci = 0; ci < C; ++ci)
        for (size_t rf = 0; rf < W * F; ++rf) {
          const size_t cell = rf * C + ci, wi = rf / F, fi = rf % F;
          if (mode_of(cell) != mode) continue;
          sim::SweepResult& r = results[cell];
          r.workload = grid.workloads[wi];
          r.config = configs[ci].name;
          if (grid.has_fabric_axis()) r.fabric = grid.fabrics[fi];
          const bool multi = fab_nodes[fi] > 1;
          const DagSlot& d = dags[multi ? shard_slot.at({wi, fab_nodes[fi]}) : full_slot[wi]];
          const auto scope = spans.open(configs[ci].name, layer, static_cast<i64>(cell));
          try {
            r.metrics = sim::Simulator(arch, wls[wi].matrix.get())
                            .run(*d.dag, configs[ci], artifacts(d, ci, mode == Replay));
          } catch (const std::exception& e) {
            r.error = "sweep cell " + std::to_string(cell) + " failed: " + e.what();
          }
          if (mode != Analytic) {
            ++counts.trace_driven_cells;
            counts.replayed_cells += mode == Replay;
            counts.lines += r.metrics.sram_line_accesses;
          }
        }
    }

    {
      const auto scope = spans.open("fold", "partition.fold_ms");
      for (size_t cell = 0; cell < results.size(); ++cell) {
        const size_t rf = cell / C, wi = rf / F, fi = rf % F, ci = cell % C;
        sim::SweepResult& r = results[cell];
        if (fab_nodes[fi] <= 1 || !r.ok()) continue;
        const auto fold = spans.open("fold", "partition.fold_ms", static_cast<i64>(cell));
        r.metrics = sim::fold_multinode(r.metrics, baseline.at({wi, ci}),
                                        parts.at({wi, fab_nodes[fi]}), *topos[fi], arch);
        counts.byte_hops += r.metrics.noc_bytes;
      }
    }
    counts.cells = results.size();

    {
      const auto scope = spans.open("journal", "io.journal_ms");
      if (def.journal) {
        sim::CheckpointState state;
        sim::CheckpointJournal journal =
            sim::CheckpointJournal::open(journal_path, grid, plan, false, &state);
        for (size_t cell = 0; cell < results.size(); ++cell) {
          if (!results[cell].ok()) continue;
          const auto append = spans.open("append", "io.journal_ms", static_cast<i64>(cell));
          journal.append(cell, results[cell]);
        }
      }
    }

    {
      const auto scope = spans.open("result file", "io.result_ms");
      sim::ShardResult shard{grid, plan, std::move(results)};
      const std::string text = sim::shard_to_json(shard);
      write_file(result_path, text);
      counts.result_bytes = text.size();
      results = std::move(shard.results);
    }
  }
  out.e2e_s = seconds_since(t0);
  out.check = check_cells(results, ref);
  if (def.journal) counts.journal_bytes = std::filesystem::file_size(journal_path);
  std::remove(journal_path.c_str());
  out.self_s = spans.self_seconds();
  return out;
}

// ---- main loop ---------------------------------------------------------------

struct Options {
  std::string workload;
  i64 seed = 1;
  double seconds = 10;
  size_t min_passes = 3;
  u32 workers = 4;
  bool trace = false;
  std::string work_dir;
  std::string reference;
  std::string record;
  std::string trace_out;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw Error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoll(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--min-passes") o.min_passes = std::stoul(value());
    else if (a == "--workers") o.workers = static_cast<u32>(std::stoul(value()));
    else if (a == "--work") o.work_dir = value();
    else if (a == "--reference") o.reference = value();
    else if (a == "--record") o.record = value();
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--trace") o.trace = true;
    else throw Error("unknown argument '" + a + "'");
  }
  if (o.workload.empty() || o.work_dir.empty()) throw Error("--workload and --work are required");
  if (o.seed < 0) throw Error("--seed must be non-negative");
  if (o.workers == 0 || o.min_passes == 0)
    throw Error("--workers and --min-passes must be positive");
  return o;
}

std::string json_list(const std::vector<double>& v) {
  std::ostringstream s;
  s.precision(17);
  s << "[";
  for (size_t i = 0; i < v.size(); ++i) s << (i ? ", " : "") << v[i];
  s << "]";
  return s.str();
}

/// Simulated Cello-over-Flexagon speedup, geomean over (workload, fabric) rows.
double cello_over_flexagon(const std::vector<sim::SweepResult>& cells) {
  std::map<std::string, double> flex, cello;
  for (const auto& r : cells) {
    const std::string row = r.workload + "|" + r.fabric;
    if (r.config == "Flexagon") flex[row] = r.metrics.seconds;
    if (r.config == "Cello") cello[row] = r.metrics.seconds;
  }
  double log_sum = 0;
  size_t n = 0;
  for (const auto& [row, s] : flex)
    if (cello.count(row) && cello[row] > 0 && s > 0) {
      log_sum += std::log(s / cello[row]);
      ++n;
    }
  return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

int run(const Options& o) {
  const WorkloadDef def = workload_def(o.workload, o.seed);
  std::optional<Reference> ref;
  if (!o.reference.empty()) ref = read_reference(o.reference);
  const std::string result_path = o.work_dir + "/result.json";
  const std::string traced_path = o.work_dir + "/result.traced.json";
  const std::string journal_base = o.work_dir + "/journal.";

  std::vector<double> e2e, setup, run_s;
  size_t attempted = 0, failed = 0, mismatched = 0, cells = 0;
  const bool recorded = ref.has_value();
  double speedup = 0;
  std::vector<std::map<std::string, double>> layer_self;
  std::vector<double> traced_e2e;
  std::optional<Counts> counts;
  bool traced_identical = true;
  std::optional<Spans> kept_spans;

  const u32 workers = o.trace ? 1 : o.workers;
  const auto start = Clock::now();
  for (size_t pass = 0; pass < o.min_passes || seconds_since(start) < o.seconds; ++pass) {
    const Reference* check_ref = ref ? &*ref : nullptr;
    std::vector<sim::SweepResult> first;
    const PassSample s =
        untraced_pass(def, workers, result_path, journal_base + std::to_string(pass), check_ref,
                      pass == 0 ? &first : nullptr);
    if (pass == 0) {
      cells = s.cells;
      speedup = cello_over_flexagon(first);
      if (!o.record.empty()) write_reference(o.record, o.workload, o.seed, first);
      // Without a recorded reference for this seed, later passes must repeat
      // the first one exactly.
      if (!ref) ref = Reference{s.check.digests, {}};
    }
    e2e.push_back(s.e2e_s);
    setup.push_back(s.setup_s);
    run_s.push_back(s.e2e_s - s.setup_s);
    attempted += s.cells;
    failed += s.check.failed;
    mismatched += s.check.mismatched;

    if (o.trace) {
      Spans spans(Clock::now());
      TracedSample t = traced_pass(def, traced_path, journal_base + "traced", check_ref, spans);
      attempted += t.counts.cells;
      failed += t.check.failed;
      mismatched += t.check.mismatched;
      if (read_file(traced_path) != read_file(result_path)) {
        traced_identical = false;
        std::cerr << "traced pass " << pass << " wrote a result file that differs from the "
                  << "untraced pass\n";
      }
      traced_e2e.push_back(t.e2e_s);
      layer_self.push_back(std::move(t.self_s));
      counts = t.counts;
      kept_spans.emplace(std::move(spans));
    }
  }

  if (kept_spans && !o.trace_out.empty()) kept_spans->write(o.trace_out);

  std::ostringstream js;
  js.precision(17);
  js << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
     << ", \"workers\": " << workers << ", \"cells\": " << cells
     << ", \"specs\": " << def.specs.size() << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"mismatched\": " << mismatched
     << ", \"reference\": " << (recorded ? "true" : "false")
     << ", \"cello_over_flexagon\": " << speedup
     << ", \"e2e_s\": " << json_list(e2e) << ", \"setup_s\": " << json_list(setup)
     << ", \"run_s\": " << json_list(run_s);
  if (o.trace) {
    js << ", \"traced_identical\": " << (traced_identical ? "true" : "false")
       << ", \"traced_e2e_s\": " << json_list(traced_e2e) << ", \"layer_self_s\": {";
    // Every traced pass opens the same stage spans, so all share one key set.
    const char* sep = "";
    for (const auto& [layer, unused] : layer_self.front()) {
      std::vector<double> v;
      for (const auto& m : layer_self) v.push_back(m.at(layer));
      js << sep << "\"" << layer << "\": " << json_list(v);
      sep = ", ";
    }
    const Counts& c = *counts;
    js << "}, \"counts\": {\"nnz\": " << c.nnz << ", \"ops\": " << c.ops
       << ", \"slots\": " << c.slots << ", \"cells\": " << c.cells
       << ", \"stream_spans\": " << c.stream_spans
       << ", \"materialized_steps\": " << c.materialized_steps
       << ", \"schedule_steps\": " << c.schedule_steps << ", \"lines\": " << c.lines
       << ", \"trace_driven_cells\": " << c.trace_driven_cells
       << ", \"replayed_cells\": " << c.replayed_cells << ", \"byte_hops\": " << c.byte_hops
       << ", \"result_bytes\": " << c.result_bytes
       << ", \"journal_bytes\": " << c.journal_bytes << "}";
  }
  js << "}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "sweep_bench: " << e.what() << "\n";
    return 1;
  }
}
