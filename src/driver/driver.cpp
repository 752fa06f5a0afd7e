#include "driver/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

#include "comm/runner.hpp"
#include "comm/tcp_transport.hpp"
#include "common/trace.hpp"
#include "driver/checkpoint.hpp"
#include "driver/distributed.hpp"
#include "driver/scenario.hpp"
#include "driver/telemetry.hpp"
#include "io/perf_report.hpp"
#include "parallel/distributed_solver.hpp"
#include "vlasov/sweeps.hpp"

namespace v6d::driver {

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kFinished:
      return "finished";
    case StopReason::kMaxSteps:
      return "max-steps";
    case StopReason::kWallBudget:
      return "wall-budget";
  }
  return "unknown";
}

Driver::Driver(const SimulationConfig& cfg) : Driver(cfg, /*with_ics=*/true) {}

Driver::Driver(const SimulationConfig& cfg, bool with_ics)
    : cfg_(cfg), rng_(cfg.seed), a_(cfg.a_init) {
  if (cfg_.transport == "tcp") {
    // This process is one rank of a multi-process world: every process
    // builds the same global problem (same seed -> same ICs) and the
    // distributed path shards it by cfg_.rank.
    if (cfg_.world <= 0)
      throw std::invalid_argument(
          "transport=tcp requires world=N (total processes)");
    if (cfg_.rank < 0 || cfg_.rank >= cfg_.world)
      throw std::invalid_argument("transport=tcp requires 0 <= rank < world");
    if (cfg_.transport_hosts.empty())
      throw std::invalid_argument(
          "transport=tcp requires transport_hosts= (a host:port,... list or "
          "a shared rendezvous directory; env V6D_TRANSPORT_HOSTS works too)");
    cfg_.ranks = cfg_.world;
  } else if (cfg_.transport != "inproc") {
    throw std::invalid_argument("unknown transport '" + cfg_.transport +
                                "' (expected inproc or tcp)");
  } else if (cfg_.ranks < 1) {
    throw std::invalid_argument("ranks must be >= 1");
  }
  const Scenario* scenario = find_scenario(cfg_.scenario);
  if (!scenario)
    throw std::invalid_argument("unknown scenario: " + cfg_.scenario);
  solver_ = scenario->build(cfg_, with_ics);
}

Driver Driver::resume(const std::string& dir, const Options& overrides) {
  Checkpoint meta;
  std::string detail;
  auto status = read_checkpoint_meta(dir, meta, &detail);
  if (status != io::SnapshotStatus::kOk)
    throw std::runtime_error("cannot read checkpoint meta (" +
                             std::string(io::to_string(status)) +
                             "): " + detail);
  // A meta that references missing or short payloads is torn — resuming
  // from it would rebuild garbage state, so refuse before reading any.
  status = validate_checkpoint_payloads(dir, meta, &detail);
  if (status != io::SnapshotStatus::kOk)
    throw std::runtime_error("refusing to resume (" +
                             std::string(io::to_string(status)) +
                             "): " + detail);
  // Apply only keys the caller set explicitly.  A plain apply() would let
  // stray V6D_* environment variables override the checkpointed config
  // for every key the caller left alone — silently breaking bit-identical
  // continuation.  The checkpoint echo outranks the environment.
  auto kv = meta.config.to_kv();
  for (const auto& key : overrides.keys())
    kv[key] = overrides.get(key, "");
  meta.config = SimulationConfig::from_kv(kv);

  Driver driver(meta.config, /*with_ics=*/false);

  // The scenario was rebuilt with an empty phase space; a neutrino run
  // whose meta carries neither a global payload nor shards would silently
  // continue from all-zero f, so refuse it here.
  if (driver.solver_->neutrinos().dims().total_interior() > 0 &&
      !meta.has_phase_space && meta.shard_files.empty())
    throw std::runtime_error(
        "checkpoint has no phase-space payload (global or shards) but the "
        "configured scenario has neutrinos — corrupt or truncated meta");

  // The scenario rebuild fixes the expected shapes; the payload must
  // agree or the config was overridden incompatibly.
  const auto expected_dims = driver.solver_->neutrinos().dims();
  hybrid::HybridSolver::StepForces forces;
  status = read_checkpoint_payload(dir, meta, &driver.solver_->neutrinos(),
                                   &driver.solver_->cdm(), &forces, &detail);
  if (status != io::SnapshotStatus::kOk)
    throw std::runtime_error("cannot read checkpoint payload (" +
                             std::string(io::to_string(status)) +
                             "): " + detail);
  // Runs write one phase-space shard per rank; a global payload (read
  // above) is the format of checkpoints written before 1-rank runs were
  // sharded too, and still resumes.
  if (!meta.shard_files.empty()) {
    // Assemble the global phase space from the per-rank shards; the next
    // run() re-shards it (bit-identically when ranks/decomp are
    // unchanged).
    status = assemble_phase_space_shards(dir, meta,
                                         driver.solver_->neutrinos(), &detail);
    if (status != io::SnapshotStatus::kOk)
      throw std::runtime_error("cannot read checkpoint shards (" +
                               std::string(io::to_string(status)) +
                               "): " + detail);
  }
  if (meta.has_forces && !driver.solver_->import_step_forces(forces))
    throw std::runtime_error(
        "checkpoint force cache does not match the configured scenario "
        "shape (physics keys must not change across a resume)");
  const auto& dims = driver.solver_->neutrinos().dims();
  if (dims.nx != expected_dims.nx || dims.ny != expected_dims.ny ||
      dims.nz != expected_dims.nz || dims.nux != expected_dims.nux ||
      dims.nuy != expected_dims.nuy || dims.nuz != expected_dims.nuz ||
      dims.ghost != expected_dims.ghost)
    throw std::runtime_error(
        "checkpoint phase space does not match the configured scenario "
        "shape (physics keys must not change across a resume)");

  driver.a_ = meta.a;
  driver.steps_ = meta.step;
  driver.rng_.set_state(meta.rng);
  return driver;
}

RunResult Driver::run() {
  RunResult result;
  const auto dims = resolve_run_decomp(cfg_, *solver_);
  Stopwatch wall;

  // transport=tcp means this process IS one rank of a multi-process world:
  // no thread fan-out, one endpoint, and anything that would clobber a
  // shared file (telemetry, traces, reports) belongs to the rank-0 process.
  const bool multiproc = cfg_.transport == "tcp";
  const bool lead_process = !multiproc || cfg_.rank == 0;

  // Tracing is armed before the rank threads exist and flushed after they
  // join — the control-plane quiescence the trace buffers require.
  if (!cfg_.trace.empty()) {
    trace::reset();
    trace::enable();
  }
  // The heartbeat needs collectives (global mass, comm-byte allreduce), so
  // the *decision* to emit it must be uniform across ranks; only the lead
  // rank owns the stream and writes rows (in a multi-process world, only
  // the lead process may even open the path — a peer's open would truncate
  // the lead's stream).
  const bool heartbeat = !cfg_.telemetry.empty();
  TelemetryStream telemetry;
  if (heartbeat && lead_process) {
    std::string error;
    if (!telemetry.open(cfg_.telemetry, &error))
      throw std::runtime_error(error);
  }

  const auto rank_body = [&](comm::Communicator& comm) {
    trace::set_rank(comm.rank());
    parallel::DistributedHybridSolver ds(*solver_, comm, dims, cfg_.overlap);
    const bool lead = comm.rank() == 0;
    // Thread ranks share one Driver, so only the lead writes its fields;
    // process ranks each own their Driver and keep it coherent locally.
    // Every rank times its driver phases (and emits their trace spans)
    // into its own registry, folded into timers_ by the owner at the end.
    const bool own_driver = lead || multiproc;
    TimerRegistry driver_timers;
    double a = a_;
    std::int64_t steps = steps_;
    int steps_here = 0;
    StopReason reason = StopReason::kFinished;
    bool early = false;
    std::string checkpoint_written;
    const double mass0 = heartbeat ? ds.total_mass() : 0.0;
    // Per-step phase increments for the heartbeat = deltas of the merged
    // (driver + solver) bucket totals around the step.
    const auto phase_snapshot = [&] {
      TimerRegistry merged;
      merged.merge(timers_);
      merged.merge(driver_timers);
      merged.merge(ds.timers(), "solver:");
      return timer_totals(merged);
    };

    auto checkpoint_all = [&] {
      write_distributed_checkpoint(cfg_, rng_.state(), ds, comm,
                                   cfg_.checkpoint_dir, a, steps);
      checkpoint_written = cfg_.checkpoint_dir;
    };

    while (a < cfg_.a_final - 1e-12) {
      // Stop decisions come from rank 0 alone (wall clocks differ across
      // threads) so every rank leaves the loop on the same step.
      int stop = 0;
      if (lead) {
        if (cfg_.max_steps > 0 && steps >= cfg_.max_steps)
          stop = 1;
        else if (cfg_.wall_budget_s > 0.0 &&
                 wall.seconds() >= cfg_.wall_budget_s)
          stop = 2;
      }
      comm.bcast(&stop, 1, 0);
      if (stop != 0) {
        reason = stop == 1 ? StopReason::kMaxSteps : StopReason::kWallBudget;
        early = true;
        break;
      }

      double a1;
      {
        ScopedTimer t(driver_timers, "step-control");
        a1 = std::min(ds.suggest_next_a(a, cfg_.da_max), cfg_.a_final);
      }
      std::map<std::string, double> phases_before;
      if (heartbeat && lead) phases_before = phase_snapshot();
      double step_seconds;
      {
        // Per-step samples feed the paper's median-of-steps metric in the
        // perf report alongside the accumulated total.
        trace::Span step_span("step");
        Stopwatch step_watch;
        ds.step(a, a1);
        step_seconds = step_watch.seconds();
        driver_timers.add_sample("step", step_seconds);
      }
      trace::counter("comm-bytes-sent",
                     static_cast<double>(comm.bytes_sent_to_peers()));
      if (heartbeat) {
        // Collectives: every rank participates, the lead writes the row.
        const double mass = ds.total_mass();
        const std::uint64_t comm_bytes =
            static_cast<std::uint64_t>(comm.allreduce_sum(
                static_cast<std::int64_t>(comm.bytes_sent_to_peers())));
        if (lead) {
          Heartbeat hb;
          hb.step = steps + 1;
          hb.a = a1;
          hb.da = a1 - a;
          if (ds.has_neutrinos())
            // Geometry-only bound, identical on every rank — no collective.
            hb.cfl_shift = vlasov::max_position_shift(
                ds.local_f(), ds.background().drift_factor(a, a1));
          hb.mass = mass;
          hb.mass_drift = mass0 != 0.0 ? (mass - mass0) / mass0 : 0.0;
          hb.step_seconds = step_seconds;
          hb.phase_seconds = timer_delta(phases_before, phase_snapshot());
          hb.comm_bytes = comm_bytes;
          hb.rss_mb = current_rss_mb();
          telemetry.write(hb);
          trace::counter("mass-drift", hb.mass_drift);
        }
      }
      a = a1;
      ++steps;
      ++steps_here;

      if (lead && cfg_.progress_every > 0 && steps % cfg_.progress_every == 0)
        std::printf("  [%s] step %lld  a = %.4f  (%d rank%s)\n",
                    cfg_.scenario.c_str(), static_cast<long long>(steps), a,
                    cfg_.ranks, cfg_.ranks == 1 ? "" : "s");

      if (cfg_.checkpoint_every > 0 && !cfg_.checkpoint_dir.empty() &&
          steps % cfg_.checkpoint_every == 0) {
        ScopedTimer t(driver_timers, "checkpoint-io");
        checkpoint_all();
      }
    }

    if (early && !cfg_.checkpoint_dir.empty()) {
      ScopedTimer t(driver_timers, "checkpoint-io");
      checkpoint_all();
    }

    // Fold the evolved state back into the global solver so accessors and
    // perf reports see it.  Across processes the bricks travel as messages
    // and only the rank-0 process assembles a global view.
    ds.gather_into(*solver_, multiproc);
    if (own_driver) {
      a_ = a;
      steps_ = steps;
      result.reason = reason;
      result.steps = steps_here;
      result.checkpoint = checkpoint_written;
      timers_.merge(driver_timers);
      solver_->timers().merge(ds.timers());
    }

    if (multiproc && !cfg_.trace.empty()) {
      // One merged Chrome trace, exactly like the thread-rank path: every
      // process ships its (POD) event buffer to rank 0 over the transport
      // — all plan traffic has drained (gather_into ends in a barrier), so
      // the tag cannot collide with live traffic.
      constexpr int kTraceTag = 0x7ace;
      trace::disable();
      auto events = trace::collect();
      if (lead) {
        for (int r = 1; r < comm.size(); ++r) {
          const auto blob = comm.recv_bytes(r, kTraceTag);
          const std::size_t n = blob.size() / sizeof(trace::Event);
          const std::size_t at = events.size();
          events.resize(at + n);
          std::memcpy(events.data() + at, blob.data(),
                      n * sizeof(trace::Event));
        }
        std::string error;
        if (!trace::write_chrome_trace(cfg_.trace, events, &error))
          throw std::runtime_error("cannot write trace: " + error);
      } else {
        comm.send_bytes(0, kTraceTag, events.data(),
                        events.size() * sizeof(trace::Event));
      }
      trace::reset();
      comm.barrier();
    }
  };

  if (multiproc) {
    comm::TcpOptions tcp_options;
    tcp_options.rank = cfg_.rank;
    tcp_options.world = cfg_.world;
    tcp_options.hosts = cfg_.transport_hosts;
    tcp_options.liveness_timeout_s = cfg_.transport_timeout;
    comm::TcpTransport transport(tcp_options);
    comm::Communicator comm(transport);
    try {
      rank_body(comm);
    } catch (const comm::AbortedError&) {
      transport.abort();
      // A secondary wakeup, but this endpoint may know the primary cause
      // (a lost peer, a liveness deadline) — surface that diagnosis so
      // the process exits with the retryable transport classification
      // instead of an anonymous abort.
      transport.rethrow_diagnosis();
      throw;
    } catch (...) {
      transport.abort();  // wake remote peers parked on this rank
      throw;
    }
    transport.shutdown();
  } else {
    comm::run(cfg_.ranks, rank_body);
  }

  result.a = a_;
  result.total_steps = steps_;
  if (lead_process && !cfg_.perf_report.empty())
    write_perf_report(cfg_.perf_report);
  // The multi-process trace was merged and written inside rank_body (it
  // needs the transport); the thread-rank path flushes here, after join.
  if (!cfg_.trace.empty()) {
    if (multiproc) {
      trace::disable();
      trace::reset();
    } else {
      write_trace_file(cfg_.trace);
    }
  }
  return result;
}

void Driver::write_perf_report(const std::string& path) const {
  auto report = io::make_perf_report("driver:" + cfg_.scenario);
  report.context["scenario"] = cfg_.scenario;
  report.context["a"] = std::to_string(a_);
  report.context["steps"] = std::to_string(static_cast<long long>(steps_));
  report.context["ranks"] = std::to_string(cfg_.ranks);
  report.context["transport"] = cfg_.transport;

  // Driver buckets (step / step-control / checkpoint-io) and the solver's
  // force/sweep buckets (vlasov / pm / tree / vlasov-moments) share one
  // report; phase-space cell counts turn the step total into a rate.
  TimerRegistry merged;
  merged.merge(timers_);
  merged.merge(solver_->timers(), "solver:");
  report.add_timers(merged);
  const double step_median = timers_.median_sample("step");
  if (step_median > 0.0)
    report.add_metric("step_median_seconds", step_median, "s");
  // Rate over the steps *this* process actually timed (a resumed run's
  // steps_ includes pre-resume steps whose time it never saw).
  const double cells =
      static_cast<double>(solver_->neutrinos().dims().total_interior());
  const double step_total = timers_.total("step");
  const auto timed_steps =
      static_cast<double>(timers_.samples("step").size());
  if (cells > 0.0 && step_total > 0.0 && timed_steps > 0.0)
    report.add_metric("cell_updates_per_s", cells * timed_steps / step_total,
                      "1/s");

  std::string error;
  if (!report.write(path, &error))
    throw std::runtime_error("cannot write perf report: " + error);
}

}  // namespace v6d::driver
