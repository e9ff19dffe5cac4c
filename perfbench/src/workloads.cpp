// The four workloads, their oracles, the per-layer probes of a traced run,
// and the closed-loop runner. Every layer call the benchmark makes is
// wrapped in an obs span of category "perfbench" named after the layer, so
// a traced run's per-layer times are read back from the same span dump it
// exports as Chrome-trace JSON.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>

#include "bench.hpp"
#include "core/cube_curve.hpp"
#include "core/sfc_partition.hpp"
#include "core/validate.hpp"
#include "io/trace_io.hpp"
#include "mesh/cubed_sphere.hpp"
#include "obs/obs.hpp"
#include "partition/metrics.hpp"
#include "perf/machine.hpp"
#include "perf/simulate.hpp"
#include "runtime/partition_fabric.hpp"
#include "seam/advection.hpp"
#include "seam/distributed.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace sfcbench {

sizes full_sizes() { return {}; }

sizes tiny_sizes() {
  sizes s;
  s.cold_ne = 4;
  s.cold_parts = 24;
  s.repart_ne = 8;
  s.seam_ne = 4;
  s.seam_np = 4;
  return s;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

using namespace sfp;

constexpr const char* kCat = "perfbench";

/// Per-layer counts of a traced run, one sample per distributed call.
using counts = std::map<std::string, std::vector<double>>;

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(what);
}

void record_fabric(counts& c, const runtime::parallel_partition_report& r) {
  // Max over ranks: a killed rank's stats stop early, a survivor's
  // accumulate over its re-execution attempts.
  double rounds = 0, probes = 0, window = 0;
  for (const core::parallel_partition_stats& s : r.rank_stats) {
    rounds = std::max(rounds, static_cast<double>(s.rounds));
    probes = std::max(probes, static_cast<double>(s.probes_evaluated));
    window = std::max(window, static_cast<double>(s.window_records));
  }
  c["core.splitter_rounds"].push_back(rounds);
  c["core.probes_per_op"].push_back(probes);
  c["core.window_records_per_op"].push_back(window);
  c["runtime.data_msgs_per_op"].push_back(
      static_cast<double>(r.reliable.data_sent));
  c["runtime.retransmits_per_op"].push_back(
      static_cast<double>(r.reliable.retransmits));
  c["core.regroup_agreement_rounds"].push_back(
      static_cast<double>(r.regroup.agreement_rounds));
  c["core.regroup_stale_dropped"].push_back(
      static_cast<double>(r.regroup.stale_dropped));
  c["runtime.timeouts_per_op"].push_back(
      static_cast<double>(r.counters.timeouts));
}

void record_seam(counts& c, const seam::dist_stats& s, int steps) {
  const double n = steps;
  c["seam.compute_s_per_step"].push_back(s.compute_seconds / n);
  c["seam.exchange_s_per_step"].push_back(s.exchange_seconds / n);
  c["seam.exchange_share"].push_back(
      s.exchange_seconds / (s.compute_seconds + s.exchange_seconds));
  c["seam.max_rank_s"].push_back(s.max_rank_seconds);
  c["seam.messages_per_step"].push_back(static_cast<double>(s.messages) / n);
  c["seam.doubles_per_step"].push_back(static_cast<double>(s.doubles_sent) /
                                       n);
}

/// The heavy-tailed positive weight family of the parity tests: 1..9, and
/// one element in 16 two orders heavier.
std::vector<graph::weight> heavy_tail_weights(int k, rng& r) {
  std::vector<graph::weight> w(static_cast<std::size_t>(k));
  for (graph::weight& x : w) {
    x = 1 + static_cast<graph::weight>(r.below(9));
    if (r.below(16) == 0) x *= 100;
  }
  return w;
}

template <typename T>
void shuffle(std::vector<T>& v, rng& r) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(r.below(i))]);
}

/// Gaussian tracer blob centred on a seeded point of the unit sphere.
std::vector<double> blob_field(const seam::advection_model& model, rng& r) {
  const double z = r.uniform(-1, 1);
  const double phi = r.uniform(0, 6.283185307179586);
  const double s = std::sqrt(1 - z * z);
  const mesh::vec3 c{s * std::cos(phi), s * std::sin(phi), z};
  const std::vector<mesh::vec3>& pos = model.geometry().position;
  std::vector<double> q(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const double dx = pos[i].x - c.x, dy = pos[i].y - c.y, dz = pos[i].z - c.z;
    q[i] = std::exp(-6.0 * (dx * dx + dy * dy + dz * dz));
  }
  return q;
}

bool fields_match(std::span<const double> got, std::span<const double> want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(std::abs(got[i] - want[i]) < 1e-12)) return false;
  return true;
}

bool plans_match(const partition::partition& got,
                 const partition::partition& want) {
  return got.num_parts == want.num_parts && got.part_of == want.part_of;
}

/// Reliable tuning of bench/bench_partition_recovery.cpp: fast retransmit
/// exhaustion and a short base recv timeout, so a kill costs the regroup
/// protocol rather than the ~16 s of production default timeouts.
runtime::parallel_partition_run_options recovery_run_options() {
  runtime::parallel_partition_run_options opts;
  opts.reliable.retransmit_timeout = std::chrono::microseconds(5000);
  opts.reliable.max_backoff = std::chrono::microseconds(20000);
  opts.reliable.max_retransmits = 12;
  opts.reliable.recv_timeout = std::chrono::milliseconds(100);
  opts.timeout = std::chrono::milliseconds(20000);
  return opts;
}

// ---- layer probes of a traced run -----------------------------------------

struct built_mesh {
  std::unique_ptr<mesh::cubed_sphere> mesh;
  graph::csr dual;
  core::cube_curve curve;
  core::cube_curve_spec spec;
};

/// Mesh, dual graph, curve, curve spec and the SFC keys of every element.
built_mesh probe_mesh_layers(int ne) {
  built_mesh b;
  {
    const obs::trace_scope span("mesh.build", kCat);
    b.mesh = std::make_unique<mesh::cubed_sphere>(ne);
  }
  {
    const obs::trace_scope span("mesh.dual_graph", kCat);
    b.dual = b.mesh->dual_graph();
  }
  {
    const obs::trace_scope span("core.curve_build", kCat);
    b.curve = core::build_cube_curve(*b.mesh);
  }
  {
    const obs::trace_scope span("core.curve_spec", kCat);
    b.spec = core::build_cube_curve_spec(*b.mesh);
  }
  const std::int64_t k = b.mesh->num_elements();
  std::int64_t sum = 0;
  {
    const obs::trace_scope span("core.keys", kCat);
    for (int e = 0; e < b.mesh->num_elements(); ++e)
      sum += core::curve_position_of(b.spec, *b.mesh, e);
  }
  require(sum == k * (k - 1) / 2, "SFC keys are not a permutation of [0, K)");
  return b;
}

/// Serial slicer, 1-rank pipeline, optionally the 4-rank pipeline, and the
/// partition metrics and performance model of the resulting plan.
void probe_partition_layers(const built_mesh& b, int nparts,
                            std::span<const graph::weight> weights,
                            bool fabric, counts& c) {
  partition::partition serial;
  {
    const obs::trace_scope span("core.serial_slice", kCat);
    serial = core::sfc_partition(b.curve, nparts, weights);
  }
  {
    const obs::trace_scope span("core.solo_partition", kCat);
    const auto solo =
        runtime::run_parallel_partition(*b.mesh, b.spec, nparts, weights, 1);
    require(plans_match(solo.plan, serial),
            "1-rank pipeline diverged from the serial slicer");
  }
  if (fabric) {
    runtime::parallel_partition_report r;
    {
      const obs::trace_scope span("runtime.partition", kCat);
      r = runtime::run_parallel_partition(*b.mesh, b.spec, nparts, weights,
                                          kRanks);
    }
    require(!r.aborted && plans_match(r.plan, serial),
            "4-rank pipeline diverged from the serial slicer");
    record_fabric(c, r);
  }
  {
    const obs::trace_scope span("partition.metrics", kCat);
    const partition::metrics m = partition::compute_metrics(b.dual, serial);
    require(m.edgecut_edges > 0 || nparts == 1, "empty edgecut");
  }
  {
    const obs::trace_scope span("perf.simulate", kCat);
    const perf::step_time t = perf::simulate_step(
        b.dual, serial, perf::machine_model{}, perf::seam_workload{});
    require(t.total_s > 0, "non-positive modeled step time");
  }
}

/// SEAM model set-up, serial steps, and (optionally) distributed runs at
/// the seam-advect configuration.
void probe_seam_layers(const sizes& sz, bool distributed, counts& c) {
  const mesh::cubed_sphere m(sz.seam_ne);
  const partition::partition part =
      core::sfc_partition(core::build_cube_curve(m), sz.seam_parts);
  std::optional<seam::advection_model> model;
  {
    const obs::trace_scope span("seam.model_setup", kCat);
    model.emplace(m, sz.seam_np);
  }
  rng r(7);
  const std::vector<double> q = blob_field(*model, r);
  std::copy(q.begin(), q.end(), model->mutable_field().begin());
  const double dt = model->cfl_dt(0.3);
  if (distributed) {
    for (int rep = 0; rep < 2; ++rep) {
      seam::dist_stats st;
      const obs::trace_scope span("seam.distributed", kCat);
      (void)seam::run_distributed(*model, part, dt, sz.seam_steps, &st);
      record_seam(c, st, sz.seam_steps);
    }
  }
  for (int s = 0; s < sz.seam_steps; ++s) {
    const obs::trace_scope span("seam.serial_step", kCat);
    model->step(dt);
  }
}

// ---- workloads --------------------------------------------------------------

class workload {
 public:
  virtual ~workload() = default;
  /// Build what every op and its oracle need; timed as setup_s.
  virtual void setup() = 0;
  /// Draw the next op's inputs (untimed).
  virtual void next_input(rng& r) = 0;
  /// The timed operation.
  virtual void op() = 0;
  /// The oracle (untimed); also records the op's layer counts.
  virtual bool check() = 0;
  /// Traced runs only: probe every layer on this workload's inputs.
  virtual void probe_layers() = 0;
  virtual std::int64_t num_elements() const = 0;
  /// Ops per input cycle; a loop ends only on a cycle boundary, so every
  /// run measures the same mix of part counts, victims or initial fields.
  virtual std::size_t cycle() const { return 1; }
  virtual double work_per_op() const {
    return static_cast<double>(num_elements());
  }
  virtual void add_facts(run_result&) const {}

  counts layer_counts;
};

/// One op = what `sfcpart partition --ne=16 --nproc=384` computes, from
/// Ne and nparts alone to the modeled SEAM step time. Unit weights and a
/// fixed size: the seed changes nothing, by design.
class cold_plan final : public workload {
 public:
  explicit cold_plan(const sizes& sz) : sz_(sz) {}

  // The reference is the distributed pipeline on one rank: same keys and
  // splitter search, no rank threads whose timeouts a stalled host can trip.
  void setup() override {
    const mesh::cubed_sphere m(sz_.cold_ne);
    const core::cube_curve_spec spec = core::build_cube_curve_spec(m);
    runtime::parallel_partition_report r =
        runtime::run_parallel_partition(m, spec, sz_.cold_parts, {}, 1);
    require(!r.aborted, "distributed reference plan aborted");
    reference_ = std::move(r.plan);
  }

  void next_input(rng&) override {}

  void op() override {
    std::optional<mesh::cubed_sphere> m;
    {
      const obs::trace_scope span("mesh.build", kCat);
      m.emplace(sz_.cold_ne);
    }
    graph::csr dual;
    {
      const obs::trace_scope span("mesh.dual_graph", kCat);
      dual = m->dual_graph();
    }
    {
      const obs::trace_scope span("core.curve_build", kCat);
      curve_ = core::build_cube_curve(*m);
    }
    {
      const obs::trace_scope span("core.serial_slice", kCat);
      plan_ = core::sfc_partition(curve_, sz_.cold_parts);
    }
    partition::metrics pm;
    {
      const obs::trace_scope span("partition.metrics", kCat);
      pm = partition::compute_metrics(dual, plan_);
    }
    perf::step_time t;
    {
      const obs::trace_scope span("perf.simulate", kCat);
      t = perf::simulate_step(dual, plan_, perf::machine_model{},
                              perf::seam_workload{});
    }
    edgecut_ = pm.edgecut_edges;
    model_step_us_ = t.total_s * 1e6;
  }

  bool check() override {
    const bool ok = core::validate_plan(plan_, curve_).ok &&
                    plans_match(plan_, reference_) && model_step_us_ > 0;
    curve_ = {};
    plan_ = {};
    return ok;
  }

  void probe_layers() override {
    const built_mesh b = probe_mesh_layers(sz_.cold_ne);
    probe_partition_layers(b, sz_.cold_parts, {}, true, layer_counts);
    probe_seam_layers(sz_, true, layer_counts);
  }

  std::int64_t num_elements() const override {
    return 6LL * sz_.cold_ne * sz_.cold_ne;
  }

  void add_facts(run_result& res) const override {
    res.facts.push_back({"model_step_us", model_step_us_, "us"});
    res.facts.push_back(
        {"edgecut", static_cast<double>(edgecut_), "count"});
  }

 private:
  sizes sz_;
  partition::partition reference_;
  core::cube_curve curve_;
  partition::partition plan_;
  std::int64_t edgecut_ = 0;
  double model_step_us_ = 0;
};

/// repartition, repartition-solo and rank-loss: one op =
/// run_parallel_partition on 4 in-process ranks (1 for repartition-solo:
/// keys, sort and splitter search with no fabric) over a built mesh and
/// curve spec, with fresh seeded weights. rank-loss fixes nparts and kills
/// one rank per op at its third
/// comm op, cycling through a seeded order of all ranks: which rank dies
/// sets the recovery path (root succession, retransmit exhaustion or the
/// silence budget), so every run must see each victim equally often.
class fabric_partition final : public workload {
 public:
  fabric_partition(const sizes& sz, int ranks, bool rank_loss,
                   std::uint64_t seed)
      : sz_(sz), ranks_(ranks), rank_loss_(rank_loss) {
    rng r(seed ^ 0x5eedc7c1e5ull);
    if (rank_loss_) {
      parts_cycle_ = {sz.loss_parts};
      kill_cycle_.resize(static_cast<std::size_t>(ranks_));
      std::iota(kill_cycle_.begin(), kill_cycle_.end(), 0);
      shuffle(kill_cycle_, r);
    } else {
      for (int p : core::equal_load_nprocs(sz.repart_ne))
        if (p >= sz.repart_min_parts && p <= sz.repart_max_parts)
          parts_cycle_.push_back(p);
      shuffle(parts_cycle_, r);
    }
    require(!parts_cycle_.empty(), "no part count in range");
  }

  void setup() override {
    mesh_.emplace(sz_.repart_ne);
    curve_ = core::build_cube_curve(*mesh_);
    spec_ = core::build_cube_curve_spec(*mesh_);
  }

  void next_input(rng& r) override {
    nparts_ = parts_cycle_[ops_ % parts_cycle_.size()];
    weights_ = heavy_tail_weights(mesh_->num_elements(), r);
    opts_ = {};
    if (rank_loss_) {
      opts_ = recovery_run_options();
      const int victim = kill_cycle_[ops_ % kill_cycle_.size()];
      opts_.faults.kills = {{victim, kKillAtOp}};
    }
    ++ops_;
  }

  void op() override {
    const obs::trace_scope span("runtime.partition", kCat);
    report_ = runtime::run_parallel_partition(*mesh_, spec_, nparts_, weights_,
                                              ranks_, opts_);
  }

  bool check() override {
    partition::partition serial;
    {
      const obs::trace_scope span("core.serial_slice", kCat);
      serial = core::sfc_partition(curve_, nparts_, weights_);
    }
    bool ok = !report_.aborted && plans_match(report_.plan, serial);
    if (rank_loss_)
      ok = ok && report_.recoveries >= 1 &&
           report_.counters.injected_kills == 1;
    record_fabric(layer_counts, report_);
    if (obs::trace::enabled() && ranks_ > 1) {
      // Traced half: the same inputs on 1 rank, for the fabric overhead.
      const obs::trace_scope span("core.solo_partition", kCat);
      const auto solo = runtime::run_parallel_partition(
          *mesh_, spec_, nparts_, weights_, 1);
      ok = ok && plans_match(solo.plan, serial);
    }
    report_ = {};
    return ok;
  }

  void probe_layers() override {
    const built_mesh b = probe_mesh_layers(sz_.repart_ne);
    probe_partition_layers(b, nparts_, weights_, false, layer_counts);
    probe_seam_layers(sz_, true, layer_counts);
  }

  std::int64_t num_elements() const override {
    return 6LL * sz_.repart_ne * sz_.repart_ne;
  }
  std::size_t cycle() const override {
    return rank_loss_ ? kill_cycle_.size() : parts_cycle_.size();
  }

 private:
  static constexpr std::int64_t kKillAtOp = 3;
  sizes sz_;
  int ranks_;
  bool rank_loss_;
  std::vector<int> parts_cycle_;
  std::vector<int> kill_cycle_;
  std::size_t ops_ = 0;
  std::optional<mesh::cubed_sphere> mesh_;
  core::cube_curve curve_;
  core::cube_curve_spec spec_;
  int nparts_ = 0;
  std::vector<graph::weight> weights_;
  runtime::parallel_partition_run_options opts_;
  runtime::parallel_partition_report report_;
};

/// One op = seam::run_distributed for seam_steps SSP-RK3 solid-body
/// rotation steps of an SFC plan over 4 ranks, from one of four seeded
/// initial blobs.
class seam_advect final : public workload {
 public:
  seam_advect(const sizes& sz, std::uint64_t seed) : sz_(sz), seed_(seed) {}

  void setup() override {
    mesh_.emplace(sz_.seam_ne);
    part_ = core::sfc_partition(core::build_cube_curve(*mesh_), sz_.seam_parts);
    model_.emplace(*mesh_, sz_.seam_np);
    dt_ = model_->cfl_dt(0.3);
    rng r(seed_ ^ 0xb10bull);
    initial_.clear();
    for (int i = 0; i < 4; ++i) initial_.push_back(blob_field(*model_, r));
    reference_.assign(initial_.size(), {});
  }

  void next_input(rng&) override {
    current_ = ops_++ % initial_.size();
    const std::vector<double>& q = initial_[current_];
    std::copy(q.begin(), q.end(), model_->mutable_field().begin());
  }

  void op() override {
    stats_ = {};
    const obs::trace_scope span("seam.distributed", kCat);
    field_ =
        seam::run_distributed(*model_, part_, dt_, sz_.seam_steps, &stats_);
  }

  bool check() override {
    std::vector<double>& want = reference_[current_];
    if (want.empty()) {
      seam::advection_model serial = *model_;
      for (int s = 0; s < sz_.seam_steps; ++s) {
        const obs::trace_scope span("seam.serial_step", kCat);
        serial.step(dt_);
      }
      want.assign(serial.field().begin(), serial.field().end());
    }
    record_seam(layer_counts, stats_, sz_.seam_steps);
    return fields_match(field_, want);
  }

  void probe_layers() override {
    const built_mesh b = probe_mesh_layers(sz_.seam_ne);
    probe_partition_layers(b, sz_.seam_parts, {}, true, layer_counts);
    probe_seam_layers(sz_, false, layer_counts);
  }

  std::int64_t num_elements() const override {
    return 6LL * sz_.seam_ne * sz_.seam_ne;
  }
  double work_per_op() const override {
    return static_cast<double>(num_elements()) * sz_.seam_steps;
  }
  std::size_t cycle() const override { return initial_.size(); }

 private:
  sizes sz_;
  std::uint64_t seed_;
  std::optional<mesh::cubed_sphere> mesh_;
  partition::partition part_;
  std::optional<seam::advection_model> model_;
  double dt_ = 0;
  std::vector<std::vector<double>> initial_;
  std::vector<std::vector<double>> reference_;
  std::size_t ops_ = 0;
  std::size_t current_ = 0;
  std::vector<double> field_;
  seam::dist_stats stats_;
};

std::unique_ptr<workload> make_workload(const run_config& cfg) {
  if (cfg.workload == "cold-plan") return std::make_unique<cold_plan>(cfg.size);
  if (cfg.workload == "repartition")
    return std::make_unique<fabric_partition>(cfg.size, kRanks, false,
                                              cfg.seed);
  if (cfg.workload == "repartition-solo")
    return std::make_unique<fabric_partition>(cfg.size, 1, false, cfg.seed);
  if (cfg.workload == "seam-advect")
    return std::make_unique<seam_advect>(cfg.size, cfg.seed);
  if (cfg.workload == "rank-loss")
    return std::make_unique<fabric_partition>(cfg.size, kRanks, true,
                                              cfg.seed);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

/// The per-layer table, in BENCHMARK.json order: times are medians of the
/// benchmark's own spans, counts are means over the recorded calls.
std::vector<metric> layer_metrics(const obs::trace_dump& dump,
                                  const workload& w, const run_result& res) {
  std::map<std::string_view, std::vector<double>> spans;
  for (const obs::thread_trace& t : dump.threads)
    for (const obs::trace_event& e : t.events)
      if (std::string_view(e.category) == kCat)
        spans[e.name].push_back(static_cast<double>(e.dur_ns) / 1e6);
  const auto ms = [&](const char* name) {
    const auto it = spans.find(name);
    if (it == spans.end())
      throw std::runtime_error(std::string("no span recorded for ") + name);
    return quantile(it->second, 0.5);
  };
  const auto mean = [&](const char* name) {
    const auto it = w.layer_counts.find(name);
    if (it == w.layer_counts.end() || it->second.empty())
      throw std::runtime_error(std::string("no count recorded for ") + name);
    return std::accumulate(it->second.begin(), it->second.end(), 0.0) /
           static_cast<double>(it->second.size());
  };
  const double untraced = quantile(res.op_ms, 0.5);
  const double traced = quantile(res.traced_op_ms, 0.5);
  return {
      {"mesh.build_ms", ms("mesh.build"), "ms"},
      {"mesh.dual_graph_ms", ms("mesh.dual_graph"), "ms"},
      {"core.curve_build_ms", ms("core.curve_build"), "ms"},
      {"core.curve_spec_ms", ms("core.curve_spec"), "ms"},
      {"core.serial_slice_ms", ms("core.serial_slice"), "ms"},
      {"core.keys_ns_per_elem",
       ms("core.keys") * 1e6 / static_cast<double>(w.num_elements()), "ns"},
      {"core.solo_partition_ms", ms("core.solo_partition"), "ms"},
      {"core.splitter_rounds", mean("core.splitter_rounds"), "count"},
      {"core.probes_per_op", mean("core.probes_per_op"), "count"},
      {"core.window_records_per_op", mean("core.window_records_per_op"),
       "count"},
      {"runtime.fabric_overhead_ms",
       ms("runtime.partition") - ms("core.solo_partition"), "ms"},
      {"runtime.data_msgs_per_op", mean("runtime.data_msgs_per_op"), "count"},
      {"runtime.retransmits_per_op", mean("runtime.retransmits_per_op"),
       "count"},
      {"core.regroup_agreement_rounds", mean("core.regroup_agreement_rounds"),
       "count"},
      {"core.regroup_stale_dropped", mean("core.regroup_stale_dropped"),
       "count"},
      {"runtime.timeouts_per_op", mean("runtime.timeouts_per_op"), "count"},
      {"seam.serial_step_ms", ms("seam.serial_step"), "ms"},
      {"seam.compute_s_per_step", mean("seam.compute_s_per_step"), "s"},
      {"seam.exchange_s_per_step", mean("seam.exchange_s_per_step"), "s"},
      {"seam.exchange_share", mean("seam.exchange_share"), "ratio"},
      {"seam.max_rank_s", mean("seam.max_rank_s"), "s"},
      {"seam.messages_per_step", mean("seam.messages_per_step"), "count"},
      {"seam.doubles_per_step", mean("seam.doubles_per_step"), "count"},
      {"seam.model_setup_ms", ms("seam.model_setup"), "ms"},
      {"partition.metrics_ms", ms("partition.metrics"), "ms"},
      {"perf.simulate_ms", ms("perf.simulate"), "ms"},
      {"obs.trace_overhead_pct", (traced - untraced) / untraced * 100, "%"},
  };
}

}  // namespace

run_result run_workload(const run_config& cfg) {
  const std::unique_ptr<workload> w = make_workload(cfg);
  run_result res;

  // Set up at least three times, and for at least two seconds when that is
  // cheap, so setup_s is a median rather than one cold sample.
  const stopwatch setup_total;
  while (res.setup_s.size() < 3 ||
         (setup_total.seconds() < 2.0 && res.setup_s.size() < 200)) {
    const stopwatch sw;
    w->setup();
    res.setup_s.push_back(sw.seconds());
  }

  // Closed loop, one caller: each op starts after the previous one returned
  // and was checked. Only passing ops are timed samples; a loop without a
  // sample vector is the warm-up, whose ops are checked but not timed.
  rng inputs(cfg.seed);
  const auto loop = [&](double budget_s, std::vector<double>* samples) {
    const stopwatch wall;
    std::size_t ops = 0;
    do {
      ++ops;
      w->next_input(inputs);
      ++res.attempted;
      bool ok = false;
      double op_ms = 0;
      try {
        const stopwatch sw;
        {
          const obs::trace_scope span("op", kCat);
          w->op();
        }
        op_ms = sw.milliseconds();
        ok = w->check();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "op %lld threw: %s\n",
                     static_cast<long long>(res.attempted), e.what());
      }
      if (!ok) {
        ++res.failed;
      } else if (samples != nullptr) {
        samples->push_back(op_ms);
      }
    } while (wall.seconds() < budget_s ||
             (samples != nullptr && ops % w->cycle() != 0));
  };

  // Half a second (at least one op) untimed, so caches and the allocator
  // have settled before the first sample.
  loop(0.5, nullptr);
  if (!cfg.trace) {
    loop(cfg.seconds, &res.op_ms);
  } else {
    loop(cfg.seconds / 2, &res.op_ms);
    w->layer_counts.clear();
    obs::session session;
    loop(cfg.seconds / 2, &res.traced_op_ms);
    w->probe_layers();
    const obs::trace_dump dump = session.finish();
    const obs::metrics_snapshot snap = obs::registry::global().snapshot();
    io::write_chrome_trace_file(cfg.trace_path, dump, &snap);
    res.per_layer = layer_metrics(dump, *w, res);
  }
  res.work_per_op = w->work_per_op();
  res.num_elements = w->num_elements();
  w->add_facts(res);
  return res;
}

bool oracle_self_test(std::string* why) {
  // Plan oracle: a plan equal to the serial slicer's passes; the same plan
  // with one label moved to a neighbouring part fails both checks.
  const mesh::cubed_sphere m(4);
  const core::cube_curve curve = core::build_cube_curve(m);
  const partition::partition good = core::sfc_partition(curve, 8);
  partition::partition bad = good;
  const std::size_t victim = static_cast<std::size_t>(curve.order[40]);
  bad.part_of[victim] = (bad.part_of[victim] + 1) % bad.num_parts;
  if (!plans_match(good, good) || !core::validate_plan(good, curve).ok) {
    *why = "plan oracle rejects a correct plan";
    return false;
  }
  if (plans_match(bad, good) || core::validate_plan(bad, curve).ok) {
    *why = "plan oracle accepts a plan with one corrupted label";
    return false;
  }
  // Field oracle: one value off by 1e-9 fails.
  const std::vector<double> field(64, 0.5);
  std::vector<double> off = field;
  off[17] += 1e-9;
  if (!fields_match(field, field) || fields_match(off, field)) {
    *why = "field oracle does not flag a 1e-9 deviation";
    return false;
  }
  return true;
}

}  // namespace sfcbench
