#include "seam/distributed.hpp"

#include <algorithm>
#include <exception>
#include <initializer_list>
#include <mutex>

#include "core/escalation.hpp"
#include "obs/trace.hpp"
#include "runtime/reliable.hpp"  // lint: layering-ok — seam hosts the timeout-aware wrappers over the virtual-rank world (see blocking rule)
#include "runtime/world.hpp"  // lint: layering-ok — seam hosts the timeout-aware wrappers over the virtual-rank world (see blocking rule)
#include "seam/exchange.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"

namespace sfp::seam {

namespace {

/// Shared accounting across ranks.
struct stats_collector {
  std::mutex mutex;
  dist_stats total;
};

/// One rank's cost accounting, shared by every runner: the stopwatch, the
/// compute/exchange split, the wire counts, the DSS tag sequence (identical
/// on every rank, which all run the same exchange schedule) and the
/// seam.compute / seam.exchange spans.
class rank_meter {
 public:
  explicit rank_meter(halo_exchanger& halo) : halo_(&halo) {}

  /// Run `kernel` (the owned-element compute) as one seam.compute span.
  template <typename Kernel>
  void compute(Kernel&& kernel) {
    SFP_TRACE_SCOPE_CAT("seam.compute", "seam");
    clock_.reset();
    kernel();
    compute_s_ += clock_.seconds();
  }

  /// DSS-average `fields` in order, each under the next tag, as one
  /// seam.exchange span; `prepare` runs first inside the same span.
  template <typename Prepare>
  void exchange(std::initializer_list<std::vector<double>*> fields,
                Prepare&& prepare) {
    SFP_TRACE_SCOPE_CAT("seam.exchange", "seam");
    clock_.reset();
    prepare();
    for (std::vector<double>* f : fields) {
      const auto [msgs, sent] = halo_->dss_average(*f, next_tag_++);
      messages_ += msgs;
      doubles_sent_ += sent;
    }
    exchange_s_ += clock_.seconds();
  }
  void exchange(std::vector<double>& field) { exchange({&field}, [] {}); }

  /// Add this rank's totals to the cross-rank collector.
  void report(stats_collector& collector) const {
    std::lock_guard<std::mutex> lock(collector.mutex);
    dist_stats& total = collector.total;
    total.compute_seconds += compute_s_;
    total.exchange_seconds += exchange_s_;
    total.messages += messages_;
    total.doubles_sent += doubles_sent_;
    total.max_rank_seconds =
        std::max(total.max_rank_seconds, compute_s_ + exchange_s_);
  }

 private:
  halo_exchanger* halo_;
  sfp::stopwatch clock_;
  double compute_s_ = 0, exchange_s_ = 0;
  std::int64_t messages_ = 0, doubles_sent_ = 0;
  int next_tag_ = 0;
};

/// SSP-RK3 stage scratch for one advected field.
struct rk3_scratch {
  explicit rk3_scratch(std::size_t n) : rhs(n, 0.0), s1(n, 0.0), s2(n, 0.0) {}
  std::vector<double> rhs, s1, s2;
};

/// Advance `q` one SSP-RK3 step of size `dt` on the rank's owned elements,
/// closing every stage with one DSS. The only copy of the stage loop: the
/// plain, resilient and layered runners all step through it (a layer passes
/// its scaled step dt * omega).
void advect_step(const advection_model& model, const rank_exchange_plan& rp,
                 rank_meter& meter, double dt, std::vector<double>& q,
                 rk3_scratch& s) {
  const auto tendency = [&](const std::vector<double>& src) {
    meter.compute([&] {
      for (const int e : rp.owned) model.tendency_element(src, s.rhs, e);
    });
  };
  tendency(q);
  for (const std::size_t n : rp.owned_nodes) s.s1[n] = q[n] + dt * s.rhs[n];
  meter.exchange(s.s1);

  tendency(s.s1);
  for (const std::size_t n : rp.owned_nodes)
    s.s2[n] = 0.75 * q[n] + 0.25 * (s.s1[n] + dt * s.rhs[n]);
  meter.exchange(s.s2);

  tendency(s.s2);
  for (const std::size_t n : rp.owned_nodes)
    q[n] = q[n] / 3.0 + (2.0 / 3.0) * (s.s2[n] + dt * s.rhs[n]);
  meter.exchange(q);
}

/// The one place the plain (non-resilient) runners construct the in-process
/// fabric: runs `body(rank plan, meter)` on every rank over a raw halo
/// exchanger, then fills `stats` (when non-null) with the ranks' totals and
/// the world's per-rank counters.
template <typename RankBody>
void run_on_world(const exchange_plan& plan,
                  const runtime::world::options& wopts, dist_stats* stats,
                  RankBody&& body) {
  const int nranks = static_cast<int>(plan.ranks.size());
  stats_collector collector;
  runtime::world w(nranks, wopts);  // lint: transport-discipline-ok — run_on_world is the plain runners' single fabric construction site
  w.run([&](runtime::communicator& comm) {
    const rank_exchange_plan& rp =
        plan.ranks[static_cast<std::size_t>(comm.rank())];
    halo_exchanger halo(rp, comm);
    rank_meter meter(halo);
    body(rp, meter);
    meter.report(collector);
  });
  if (!stats) return;
  *stats = std::move(collector.total);
  stats->per_rank.reserve(static_cast<std::size_t>(nranks));
  for (int p = 0; p < nranks; ++p) stats->per_rank.push_back(w.counters(p));
}

}  // namespace

std::vector<double> run_distributed(const advection_model& model,
                                    const partition::partition& part,
                                    double dt, int nsteps, dist_stats* stats,
                                    const runtime::world::options& wopts) {
  SFP_REQUIRE(nsteps >= 0, "step count must be non-negative");
  SFP_REQUIRE(dt > 0, "timestep must be positive");
  const exchange_plan plan = exchange_plan::build(model.dofs(), part);
  const std::size_t nfield = model.field().size();

  std::vector<double> result(nfield, 0.0);
  run_on_world(plan, wopts, stats,
               [&](const rank_exchange_plan& rp, rank_meter& meter) {
                 std::vector<double> q(model.field().begin(),
                                       model.field().end());
                 rk3_scratch scratch(nfield);
                 for (int step = 0; step < nsteps; ++step) {
                   SFP_TRACE_SCOPE_CAT("seam.step", "seam");
                   advect_step(model, rp, meter, dt, q, scratch);
                 }
                 for (const std::size_t n : rp.owned_nodes) result[n] = q[n];
               });
  return result;
}

std::vector<double> run_distributed_resilient(
    const advection_model& model, const core::cube_curve& curve,
    const partition::partition& part, double dt, int nsteps,
    const resilience_options& ropts, recovery_report* report,
    dist_stats* stats) {
  SFP_REQUIRE(nsteps >= 0, "step count must be non-negative");
  SFP_REQUIRE(dt > 0, "timestep must be positive");
  SFP_REQUIRE(part.part_of.size() == curve.order.size(),
              "partition must cover the curve's mesh");
  SFP_REQUIRE(ropts.max_recoveries >= 0, "max_recoveries must be >= 0");
  const std::size_t nfield = model.field().size();

  recovery_report rep;
  stats_collector collector;

  // Committed global state: the tracer field after `done` completed steps.
  std::vector<double> state(model.field().begin(), model.field().end());
  partition::partition cur = part;
  int done = 0;

  for (int attempt = 0; done < nsteps; ++attempt) {
    const exchange_plan plan = exchange_plan::build(model.dofs(), cur);
    const int nranks = cur.num_parts;
    rep.attempts = attempt + 1;

    // Per-step checkpoints, double-buffered. A buffer for step s is sealed
    // by the end-of-step barrier and can only be overwritten at step s+2,
    // which requires the step s+1 barrier — so the newest fully-barriered
    // buffer is never torn, even with ranks one step apart mid-abort.
    std::vector<std::vector<double>> snap(2, state);
    std::mutex progress_mutex;
    std::vector<int> progress(static_cast<std::size_t>(nranks), 0);

    // How this attempt died, for the escalation policy. Set under
    // reliable_mutex-free single-writer discipline: only the root-cause
    // exception reaches the catch blocks below.
    core::failure_kind kind = core::failure_kind::unknown;
    int thrower = -1, unreachable_peer = -1;
    std::exception_ptr failure;
    std::mutex reliable_mutex;

    // One rank's attempt, independent of the fabric underneath: `halo`
    // carries the exchanges and `seal()` closes every step's checkpoint.
    const auto attempt_body = [&](int rank, halo_exchanger& halo,
                                  const auto& seal) {
      const rank_exchange_plan& rp =
          plan.ranks[static_cast<std::size_t>(rank)];
      rank_meter meter(halo);
      std::vector<double> q(state.begin(), state.end());
      rk3_scratch scratch(nfield);
      for (int step = done; step < nsteps; ++step) {
        SFP_TRACE_SCOPE_CAT("seam.step", "seam");
        advect_step(model, rp, meter, dt, q, scratch);
        auto& checkpoint = snap[static_cast<std::size_t>((step - done) & 1)];
        for (const std::size_t n : rp.owned_nodes) checkpoint[n] = q[n];
        seal();
        {
          std::lock_guard<std::mutex> lock(progress_mutex);
          progress[static_cast<std::size_t>(rank)] = step - done + 1;
        }
      }
      for (const std::size_t n : rp.owned_nodes) state[n] = q[n];
      meter.report(collector);
    };

    // Reliable mode, one rank body for both backends (a world communicator
    // is itself a transport). The seal MUST be the pumping fence, not a raw
    // barrier: a rank parked in a non-pumping collective can never
    // retransmit or re-ack, so a peer still healing a lost message would
    // starve until its recv_timeout and fake a peer_unreachable escalation.
    const auto reliable_main = [&](runtime::transport& t) {
      runtime::reliable_options reliable_opts = ropts.reliable;
      reliable_opts.epoch = static_cast<std::uint64_t>(attempt);
      runtime::reliable_channel channel(t, reliable_opts);
      halo_exchanger halo(plan.ranks[static_cast<std::size_t>(t.rank())],
                          t.rank(), channel);
      attempt_body(t.rank(), halo, [&] { channel.fence(); });
      std::lock_guard<std::mutex> lock(reliable_mutex);
      rep.reliable += channel.stats();
    };

    // Identical fabric-failure handling on every backend: exactly these
    // three exception types feed the escalation ladder. Anything else
    // (model assertions, contract violations) propagates.
    const auto run_attempt = [&](auto& fabric, const auto& main_fn) {
      try {
        fabric.run(main_fn);
      } catch (const runtime::rank_killed&) {
        kind = core::failure_kind::rank_killed;
        thrower = fabric.failed_rank();
        failure = std::current_exception();
      } catch (const runtime::peer_unreachable_error& e) {
        kind = core::failure_kind::peer_unreachable;
        thrower = e.rank();
        unreachable_peer = e.peer();
        failure = std::current_exception();
      } catch (const runtime::comm_timeout_error& e) {
        kind = core::failure_kind::comm_timeout;
        thrower = e.rank();
        failure = std::current_exception();
      }
    };

    if (ropts.backend == runtime::transport_backend::inproc) {
      runtime::world::options wopts;
      wopts.timeout = ropts.timeout;
      if (attempt == 0) wopts.faults = ropts.faults;
      runtime::world w(nranks, wopts);  // lint: transport-discipline-ok — the resilient runner's in-process fabric branch
      run_attempt(w, [&](runtime::communicator& comm) {
        if (ropts.reliable_transport) return reliable_main(comm);
        halo_exchanger halo(plan.ranks[static_cast<std::size_t>(comm.rank())],
                            comm);
        attempt_body(comm.rank(), halo, [&] {
          comm.barrier();  // lint: blocking-ok — per-step sync; world::options::timeout turns a lost rank into comm_timeout_error
        });
      });
      rep.counters += w.total_counters();
    } else {
      SFP_REQUIRE(ropts.reliable_transport,
                  "socket backend requires reliable_transport");
      runtime::socket_fabric_options sopts;
      if (attempt == 0) {
        sopts.faults = ropts.faults;
        sopts.stream_faults = ropts.stream_faults;
      }
      // Pin stream faults to reliable *data* frames: acks are smaller than
      // one envelope payload, so their interleaving can't shift a fault's
      // nth index between runs.
      sopts.stream_fault_min_payload = runtime::wire::header_doubles + 1;
      runtime::socket_fabric fab(nranks, sopts);  // lint: transport-discipline-ok — the resilient runner's socket fabric branch
      run_attempt(fab, reliable_main);
      rep.counters += fab.total_counters();
      rep.socket += fab.total_stats();
    }

    if (failure) {
      const core::escalation_decision decision = core::decide_escalation(
          kind, thrower, unreachable_peer, attempt, ropts.max_recoveries,
          nranks);
      if (!decision.recover) std::rethrow_exception(failure);

      // Roll back to the newest checkpoint every rank sealed, then re-slice
      // the curve over the survivors and go again.
      int completed = 0;
      for (const int p : progress) completed = std::max(completed, p);
      if (completed > 0)
        state = snap[static_cast<std::size_t>((completed - 1) & 1)];
      done += completed;
      core::recovery_plan rplan =
          core::plan_recovery(curve, cur, decision.victim);
      if (rep.failed_rank < 0) {
        rep.failed_rank = decision.victim;
        rep.restart_step = done;
        rep.migration = rplan.migration;
        rep.survivor_of = std::move(rplan.survivor_of);
      }
      cur = std::move(rplan.part);
      continue;
    }
    done = nsteps;
  }

  rep.final_partition = std::move(cur);
  if (report) *report = std::move(rep);
  if (stats) *stats = collector.total;
  return state;
}

swe_state run_distributed_swe(const shallow_water_model& model,
                              const partition::partition& part, double dt,
                              int nsteps, dist_stats* stats) {
  SFP_REQUIRE(nsteps >= 0, "step count must be non-negative");
  SFP_REQUIRE(dt > 0, "timestep must be positive");
  const exchange_plan plan = exchange_plan::build(model.dofs(), part);
  const std::size_t nfield = model.depth().size();

  swe_state result;
  result.h.assign(nfield, 0.0);
  result.ux.assign(nfield, 0.0);
  result.uy.assign(nfield, 0.0);
  result.uz.assign(nfield, 0.0);

  const auto rank_main = [&](const rank_exchange_plan& rp,
                             rank_meter& meter) {
    // Four prognostic fields, full layout, owned slices meaningful.
    std::vector<double> h(model.depth().begin(), model.depth().end());
    std::vector<double> ux(model.velocity_x().begin(), model.velocity_x().end());
    std::vector<double> uy(model.velocity_y().begin(), model.velocity_y().end());
    std::vector<double> uz(model.velocity_z().begin(), model.velocity_z().end());
    std::vector<double> rh(nfield), rx(nfield), ry(nfield), rz(nfield);
    std::vector<double> t1h(nfield), t1x(nfield), t1y(nfield), t1z(nfield);
    std::vector<double> t2h(nfield), t2x(nfield), t2y(nfield), t2z(nfield);
    auto scratch = model.make_scratch();

    const auto project_dss = [&](std::vector<double>& fh,
                                 std::vector<double>& fx,
                                 std::vector<double>& fy,
                                 std::vector<double>& fz) {
      meter.exchange({&fh, &fx, &fy, &fz}, [&] {
        for (const std::size_t n : rp.owned_nodes)
          model.project_node(n, fx, fy, fz);
      });
    };
    const auto local_rhs = [&](const std::vector<double>& sh,
                               const std::vector<double>& sx,
                               const std::vector<double>& sy,
                               const std::vector<double>& sz) {
      meter.compute([&] {
        for (const int e : rp.owned)
          model.rhs_element(sh, sx, sy, sz, rh, rx, ry, rz, e, scratch);
      });
    };
    for (int step = 0; step < nsteps; ++step) {
      local_rhs(h, ux, uy, uz);
      for (const std::size_t n : rp.owned_nodes) {
        t1h[n] = h[n] + dt * rh[n];
        t1x[n] = ux[n] + dt * rx[n];
        t1y[n] = uy[n] + dt * ry[n];
        t1z[n] = uz[n] + dt * rz[n];
      }
      project_dss(t1h, t1x, t1y, t1z);

      local_rhs(t1h, t1x, t1y, t1z);
      for (const std::size_t n : rp.owned_nodes) {
        t2h[n] = 0.75 * h[n] + 0.25 * (t1h[n] + dt * rh[n]);
        t2x[n] = 0.75 * ux[n] + 0.25 * (t1x[n] + dt * rx[n]);
        t2y[n] = 0.75 * uy[n] + 0.25 * (t1y[n] + dt * ry[n]);
        t2z[n] = 0.75 * uz[n] + 0.25 * (t1z[n] + dt * rz[n]);
      }
      project_dss(t2h, t2x, t2y, t2z);

      local_rhs(t2h, t2x, t2y, t2z);
      for (const std::size_t n : rp.owned_nodes) {
        h[n] = h[n] / 3.0 + (2.0 / 3.0) * (t2h[n] + dt * rh[n]);
        ux[n] = ux[n] / 3.0 + (2.0 / 3.0) * (t2x[n] + dt * rx[n]);
        uy[n] = uy[n] / 3.0 + (2.0 / 3.0) * (t2y[n] + dt * ry[n]);
        uz[n] = uz[n] / 3.0 + (2.0 / 3.0) * (t2z[n] + dt * rz[n]);
      }
      project_dss(h, ux, uy, uz);
    }

    for (const std::size_t n : rp.owned_nodes) {
      result.h[n] = h[n];
      result.ux[n] = ux[n];
      result.uy[n] = uy[n];
      result.uz[n] = uz[n];
    }
  };
  run_on_world(plan, {}, stats, rank_main);
  return result;
}

std::vector<std::vector<double>> run_distributed_layered(
    const layered_advection& model, const partition::partition& part,
    double dt, int nsteps, dist_stats* stats) {
  SFP_REQUIRE(nsteps >= 0, "step count must be non-negative");
  SFP_REQUIRE(dt > 0, "timestep must be positive");
  const advection_model& base = model.base();
  const exchange_plan plan = exchange_plan::build(base.dofs(), part);
  const std::size_t nfield = base.field().size();
  const int nlev = model.nlev();

  std::vector<std::vector<double>> result(
      static_cast<std::size_t>(nlev), std::vector<double>(nfield, 0.0));
  run_on_world(plan, {}, stats,
               [&](const rank_exchange_plan& rp, rank_meter& meter) {
                 std::vector<std::vector<double>> q(
                     static_cast<std::size_t>(nlev));
                 for (int l = 0; l < nlev; ++l)
                   q[static_cast<std::size_t>(l)].assign(
                       model.layer(l).begin(), model.layer(l).end());
                 rk3_scratch scratch(nfield);
                 for (int step = 0; step < nsteps; ++step)
                   for (int l = 0; l < nlev; ++l)
                     advect_step(base, rp, meter, dt * model.omega_at(l),
                                 q[static_cast<std::size_t>(l)], scratch);
                 for (int l = 0; l < nlev; ++l)
                   for (const std::size_t n : rp.owned_nodes)
                     result[static_cast<std::size_t>(l)][n] =
                         q[static_cast<std::size_t>(l)][n];
               });
  return result;
}

}  // namespace sfp::seam
