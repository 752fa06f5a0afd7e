// step_bench: the v6d step benchmark.
//
//   step_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds a workload through the public API (driver::make_config ->
// find_scenario(..)->build -> HybridSolver::step, or
// parallel::DistributedHybridSolver under comm::run) and steps a fixed
// a-schedule, so every run and every commit does the same work.
//
// --trace 0 repeats episodes until --seconds have passed.  An episode is
// one set-up (IC generation, solver construction, sharding, warm-up steps
// that prime the force cache) followed by the timed steps of the
// schedule.  It reports the end-to-end metrics: median step time, median
// set-up time, peak RSS and the fraction of timed steps that passed the
// correctness checks.
//
// --trace 1 sets up once, then alternates an untimed solver step with a
// traced replay of the same step (replay.hpp) on a copy of the state,
// checks that the two agree, and reports the per-layer ledger plus the
// host ceilings (host_probe.hpp).
//
// The last line of stdout is the result JSON; README.md documents every
// metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "comm/communicator.hpp"
#include "common/timer.hpp"
#include "driver/scenario.hpp"
#include "host_probe.hpp"
#include "parallel/decomp_plan.hpp"
#include "parallel/distributed_solver.hpp"
#include "replay.hpp"
#include "simd/dispatch.hpp"
#include "vlasov/moments.hpp"

namespace {

using namespace v6d;
using perfbench::ReplayCounts;
using perfbench::Trace;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* scenario;
  int nx, nu, np;
  int ranks;    // in-process thread ranks
  int threads;  // OpenMP threads per rank; ranks * threads <= 2
  double da;    // fixed scale-factor step (checked against the CFL bound)
  int warmup;   // untimed steps inside set-up
  int steps;    // timed steps per episode
};

// Why each workload exists is in README.md; sizes keep one episode at a
// few seconds so a run holds several set-ups and dozens of steps.
constexpr Workload kWorkloads[] = {
    {"vlasov_r1", "vlasov_only", 16, 16, 0, 1, 2, 0.004, 1, 6},
    {"hybrid_r1", "neutrino_box", 12, 10, 24, 1, 2, 0.004, 1, 8},
    {"hybrid_r2", "neutrino_box", 16, 10, 16, 2, 1, 0.004, 1, 8},
};

// Total mass may drift by the scheme's own outflow through the velocity
// cube boundary (~1e-6..1e-5 over an episode here); anything beyond this
// is a defect, not rounding.
constexpr double kMassTol = 1e-4;
// Distributed vs serial of the same config (tests/test_parallel.cpp):
// density to FFT rounding, mass to 1e-12, particle positions to 1e-8.
constexpr double kDensityTol = 2e-5;
constexpr double kMassMatchTol = 1e-12;
constexpr double kPositionTol = 1e-8;

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

driver::SimulationConfig make_workload_config(const Workload& w,
                                              std::uint64_t seed) {
  Options o;
  o.set("scenario", w.scenario);
  o.set("nx", std::to_string(w.nx));
  o.set("nu", std::to_string(w.nu));
  o.set("np", std::to_string(w.np));
  o.set("seed", std::to_string(seed));
  o.set("ranks", std::to_string(w.ranks));
  o.set("checkpoint_dir", "");
  return driver::make_config(o, w.scenario);
}

/// a[0..warmup+steps]: a fixed schedule from a_init.  Built by repeated
/// addition so a[k+1] == a[k] + da exactly, which is what the solver's
/// CFL search returns when the step is within the bound.
std::vector<double> a_schedule(const Workload& w,
                               const driver::SimulationConfig& cfg) {
  std::vector<double> a{cfg.a_init};
  for (int k = 0; k < w.warmup + w.steps; ++k) a.push_back(a.back() + w.da);
  return a;
}

void set_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

double peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Correctness checks (never graded as metrics; they feed ok_frac)
// ---------------------------------------------------------------------------

bool finite_state(const vlasov::PhaseSpace& f, const nbody::Particles& p) {
  const auto& d = f.dims();
  const std::size_t bs = f.block_size();
  for (int i = 0; i < d.nx; ++i)
    for (int j = 0; j < d.ny; ++j)
      for (int k = 0; k < d.nz; ++k) {
        const float* b = f.block(i, j, k);
        for (std::size_t m = 0; m < bs; ++m)
          if (!std::isfinite(b[m])) return false;
      }
  for (const auto* v : {&p.x, &p.y, &p.z, &p.ux, &p.uy, &p.uz})
    for (const double x : *v)
      if (!std::isfinite(x)) return false;
  return true;
}

bool mass_conserved(double mass, double mass0, double& drift) {
  const double rel = std::fabs(mass - mass0) / mass0;
  drift = std::max(drift, rel);
  return std::isfinite(mass) && rel <= kMassTol;
}

double max_abs_diff(const vlasov::PhaseSpace& a, const vlasov::PhaseSpace& b) {
  const auto& d = a.dims();
  const std::size_t bs = a.block_size();
  double diff = 0.0;
  for (int i = 0; i < d.nx; ++i)
    for (int j = 0; j < d.ny; ++j)
      for (int k = 0; k < d.nz; ++k) {
        const float* x = a.block(i, j, k);
        const float* y = b.block(i, j, k);
        for (std::size_t m = 0; m < bs; ++m)
          diff = std::max(diff, static_cast<double>(std::fabs(x[m] - y[m])));
      }
  return diff;
}

double max_abs_diff(const nbody::Particles& a, const nbody::Particles& b) {
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff = std::max({diff, std::fabs(a.x[i] - b.x[i]),
                     std::fabs(a.y[i] - b.y[i]), std::fabs(a.z[i] - b.z[i]),
                     std::fabs(a.ux[i] - b.ux[i]),
                     std::fabs(a.uy[i] - b.uy[i]),
                     std::fabs(a.uz[i] - b.uz[i])});
  return diff;
}

// ---------------------------------------------------------------------------
// Timed episodes (--trace 0)
// ---------------------------------------------------------------------------

struct RunTally {
  std::vector<double> setup_s, step_s;
  long attempted = 0, failed = 0;
  double peak_rss = 0.0;
  double mass_drift = 0.0;  // largest |m - m0| / m0 seen
};

std::unique_ptr<hybrid::HybridSolver> build(
    const driver::SimulationConfig& cfg) {
  return driver::find_scenario(cfg.scenario)->build(cfg, true);
}

std::array<int, 3> workload_decomp(const hybrid::HybridSolver& global,
                                   int ranks) {
  parallel::DecompConstraints c;
  const auto& d = global.neutrinos().dims();
  if (d.total_interior() > 0) {
    c.vlasov = {d.nx, d.ny, d.nz};
    c.vlasov_ghost = d.ghost;
  }
  c.pm_grid = global.options().pm_grid;
  return parallel::resolve_decomp("", ranks, c);
}

/// One serial episode; returns the stepped solver.
std::unique_ptr<hybrid::HybridSolver> serial_episode(
    const Workload& w, const driver::SimulationConfig& cfg,
    const std::vector<double>& a, RunTally& tally) {
  Stopwatch setup;
  auto solver = build(cfg);
  for (int k = 0; k < w.warmup; ++k) solver->step(a[k], a[k + 1]);
  tally.setup_s.push_back(setup.seconds());

  const double mass0 = solver->total_mass();
  for (int k = w.warmup; k < w.warmup + w.steps; ++k) {
    Stopwatch t;
    const double a_next = solver->suggest_next_a(a[k], w.da);
    solver->step(a[k], a[k + 1]);
    tally.step_s.push_back(t.seconds());
    ++tally.attempted;
    const bool ok =
        a_next >= a[k + 1] &&
        finite_state(solver->neutrinos(), solver->cdm()) &&
        mass_conserved(solver->total_mass(), mass0, tally.mass_drift);
    if (!ok) ++tally.failed;
  }
  return solver;
}

/// One distributed episode; returns the global solver with the stepped
/// state gathered into it.
std::unique_ptr<hybrid::HybridSolver> distributed_episode(
    const Workload& w, const driver::SimulationConfig& cfg,
    const std::vector<double>& a, RunTally& tally) {
  Stopwatch setup;
  auto global = build(cfg);
  const auto decomp = workload_decomp(*global, w.ranks);
  std::vector<double> step_s;
  long failed = 0;
  double drift = 0.0;  // rank 0's
  comm::run(w.ranks, [&](comm::Communicator& c) {
    set_threads(w.threads);
    double local_drift = 0.0;
    parallel::DistributedHybridSolver ds(*global, c, decomp, true);
    for (int k = 0; k < w.warmup; ++k) ds.step(a[k], a[k + 1]);
    c.barrier();
    if (c.rank() == 0) tally.setup_s.push_back(setup.seconds());

    const double mass0 = ds.total_mass();
    for (int k = w.warmup; k < w.warmup + w.steps; ++k) {
      c.barrier();
      Stopwatch t;
      const double a_next = ds.suggest_next_a(a[k], w.da);
      ds.step(a[k], a[k + 1]);
      c.barrier();
      const double dt = t.seconds();
      const bool finite = c.allreduce_min(
          finite_state(ds.local_f(), ds.cdm()) ? 1.0 : 0.0) > 0.5;
      const double mass = ds.total_mass();  // collective
      const bool ok = mass_conserved(mass, mass0, local_drift) && finite &&
                      a_next >= a[k + 1];
      if (c.rank() == 0) {
        step_s.push_back(dt);
        if (!ok) ++failed;
      }
    }
    if (c.rank() == 0) drift = local_drift;
    ds.gather_into(*global);
  });
  tally.step_s.insert(tally.step_s.end(), step_s.begin(), step_s.end());
  tally.attempted += w.steps;
  tally.failed += failed;
  tally.mass_drift = std::max(tally.mass_drift, drift);
  return global;
}

/// hybrid_r2's gathered state against a serial solver of the same config
/// stepped over the same schedule (outside every timed region).
bool matches_serial(const Workload& w, const driver::SimulationConfig& cfg,
                    const std::vector<double>& a,
                    const hybrid::HybridSolver& dist) {
  set_threads(w.ranks * w.threads);  // the ranks have finished
  auto serial = build(cfg);
  for (int k = 0; k < w.warmup + w.steps; ++k) serial->step(a[k], a[k + 1]);
  const auto& d = serial->neutrinos().dims();
  mesh::Grid3D<double> rs(d.nx, d.ny, d.nz), rd(d.nx, d.ny, d.nz);
  vlasov::compute_density(serial->neutrinos(), rs);
  vlasov::compute_density(dist.neutrinos(), rd);
  double scale = 0.0, diff = 0.0;
  for (int i = 0; i < d.nx; ++i)
    for (int j = 0; j < d.ny; ++j)
      for (int k = 0; k < d.nz; ++k) {
        scale = std::max(scale, std::fabs(rs.at(i, j, k)));
        diff = std::max(diff, std::fabs(rs.at(i, j, k) - rd.at(i, j, k)));
      }
  const double density_err = scale > 0.0 ? diff / scale : diff;
  const double ms = serial->total_mass(), md = dist.total_mass();
  double pos_err = 0.0;
  const auto& ps = serial->cdm();
  const auto& pd = dist.cdm();
  for (std::size_t i = 0; i < std::min(ps.size(), pd.size()); ++i)
    pos_err = std::max({pos_err, std::fabs(ps.x[i] - pd.x[i]),
                        std::fabs(ps.y[i] - pd.y[i]),
                        std::fabs(ps.z[i] - pd.z[i])});
  const bool ok = ps.size() == pd.size() && density_err < kDensityTol &&
                  std::fabs(md - ms) <= kMassMatchTol * std::fabs(ms) &&
                  pos_err < kPositionTol;
  std::printf("check serial-vs-%d-rank: density %.3g (< %.0e), mass %.3g "
              "(<= %.0e), positions %.3g (< %.0e): %s\n",
              w.ranks, density_err, kDensityTol, std::fabs(md - ms) / ms,
              kMassMatchTol, pos_err, kPositionTol, ok ? "ok" : "FAILED");
  return ok;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool na = false;  // undefined on this workload (the JSON carries value)
};

std::string result_json(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o.precision(12);
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
      << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}}";
  return o.str();
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    if (m.na)
      std::printf("  %-34s %14s  %s\n", m.name.c_str(), "n/a", m.unit.c_str());
    else
      std::printf("  %-34s %14.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }
}

void print_context(const Workload& w, std::uint64_t seed) {
  const auto isa = simd::isa_info();
  std::printf("context {\"workload\": \"%s\", \"seed\": %llu, \"isa\": \"%s\", "
              "\"float_width\": %d, \"fma\": %s, \"ranks\": %d, "
              "\"threads_per_rank\": %d, \"nproc\": %u}\n",
              w.name, static_cast<unsigned long long>(seed), isa.name.c_str(),
              isa.float_width, isa.has_fma ? "true" : "false", w.ranks,
              w.threads, std::thread::hardware_concurrency());
}

int run_timed(const Workload& w, std::uint64_t seed, double seconds) {
  const auto cfg = make_workload_config(w, seed);
  const auto a = a_schedule(w, cfg);
  RunTally tally;
  Stopwatch run;
  std::unique_ptr<hybrid::HybridSolver> last;
  while (tally.setup_s.empty() || run.seconds() < seconds) {
    last.reset();  // one solver alive at a time keeps peak RSS per episode
    last = w.ranks > 1 ? distributed_episode(w, cfg, a, tally)
                       : serial_episode(w, cfg, a, tally);
  }
  tally.peak_rss = peak_rss_bytes();
  if (w.ranks > 1 && !matches_serial(w, cfg, a, *last))
    tally.failed += w.steps;  // the compared episode's steps

  const double ok_frac =
      static_cast<double>(tally.attempted - tally.failed) / tally.attempted;
  const std::vector<Metric> metrics = {
      {"step_s", median(tally.step_s), "s"},
      {"setup_s", median(tally.setup_s), "s"},
      {"peak_rss_mb", tally.peak_rss / (1024.0 * 1024.0), "MB"},
      {"ok_frac", ok_frac, "frac"},
  };
  std::printf("%s: %zu episodes, %zu timed steps (%d per episode after %d "
              "warm-up), a %.6g -> %.6g, max mass drift %.3g (< %.0e)\n",
              w.name, tally.setup_s.size(), tally.step_s.size(), w.steps,
              w.warmup, a.front(), a.back(), tally.mass_drift, kMassTol);
  const auto q = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return std::to_string(v.front()) + " / " + std::to_string(median(v)) +
           " / " + std::to_string(v.back());
  };
  std::printf("  step samples min/median/max %s s; set-up %s s\n",
              q(tally.step_s).c_str(), q(tally.setup_s).c_str());
  print_metrics(metrics);
  std::printf("%s\n", result_json(tally.failed == 0, tally.attempted,
                                   tally.failed, metrics)
                          .c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)
// ---------------------------------------------------------------------------

/// What one rank measured in the traced run.
struct RankLedger {
  Trace trace;
  ReplayCounts counts;
  std::uint64_t bytes = 0, msgs = 0;  // p2p sent during replay steps
  double pop_wait_s = 0.0;            // mailbox blocked time, replay steps
  std::map<std::string, double> solver_buckets;  // timers() deltas
};

struct TracedRun {
  std::vector<RankLedger> ranks;
  std::vector<double> untraced_s, traced_s;
  double ic_s = 0.0, shard_s = 0.0;
  double peak_rss = 0.0;
  double replay_diff = 0.0;  // max |replay - solver| over f and particles
  double mass_drift = 0.0;
  long attempted = 0, failed = 0;
};

const std::vector<std::string> kSolverBuckets = {"vlasov", "vlasov-moments",
                                                 "pm", "tree"};

std::map<std::string, double> bucket_totals(TimerRegistry& t) {
  std::map<std::string, double> m;
  for (const auto& b : kSolverBuckets) m[b] = t.total(b);
  return m;
}

void subtract_into(std::map<std::string, double>& acc,
                   const std::map<std::string, double>& after,
                   const std::map<std::string, double>& before) {
  for (const auto& [k, v] : after) acc[k] += v - before.at(k);
}

/// Traced steps after warm-up: as many as fit in `seconds`, at least 3,
/// at most the schedule.
bool more_traced_steps(int k, const Workload& w, const Stopwatch& run,
                       double seconds) {
  const int done = k - w.warmup;
  return k < w.warmup + w.steps && (done < 3 || run.seconds() < seconds);
}

void traced_serial(const Workload& w, const driver::SimulationConfig& cfg,
                   const std::vector<double>& a, double seconds,
                   TracedRun& out) {
  out.ranks.resize(1);
  auto& led = out.ranks[0];
  Stopwatch ic;
  auto solver = build(cfg);
  out.ic_s = ic.seconds();
  // One rank steps the global solver itself: the sharding span is empty
  // and reads at timer resolution.
  Stopwatch shard;
  out.shard_s = shard.seconds();
  for (int k = 0; k < w.warmup; ++k) solver->step(a[k], a[k + 1]);
  out.peak_rss = peak_rss_bytes();

  perfbench::SerialReplay replay(*solver);
  const double mass0 = solver->total_mass();
  Stopwatch run;
  for (int k = w.warmup; more_traced_steps(k, w, run, seconds); ++k) {
    const auto before = bucket_totals(solver->timers());
    Stopwatch t;
    const double a_next = solver->suggest_next_a(a[k], w.da);
    solver->step(a[k], a[k + 1]);
    out.untraced_s.push_back(t.seconds());
    subtract_into(led.solver_buckets, bucket_totals(solver->timers()),
                  before);
    replay.step(a[k], a[k + 1], led.trace, led.counts);

    ++out.attempted;
    if (!(a_next >= a[k + 1] &&
          finite_state(solver->neutrinos(), solver->cdm()) &&
          mass_conserved(solver->total_mass(), mass0, out.mass_drift)))
      ++out.failed;
    out.replay_diff =
        std::max({out.replay_diff,
                  max_abs_diff(replay.f(), solver->neutrinos()),
                  max_abs_diff(replay.cdm(), solver->cdm())});
  }
  out.traced_s = led.trace.root_durations();
}

void traced_distributed(const Workload& w, const driver::SimulationConfig& cfg,
                        const std::vector<double>& a, double seconds,
                        TracedRun& out) {
  Stopwatch ic;
  auto global = build(cfg);
  out.ic_s = ic.seconds();
  const auto decomp = workload_decomp(*global, w.ranks);
  out.ranks.resize(static_cast<std::size_t>(w.ranks));
  long failed = 0, attempted = 0;
  double replay_diff = 0.0, drift = 0.0;  // rank 0's
  std::vector<double> untraced;
  comm::run(w.ranks, [&](comm::Communicator& c) {
    set_threads(w.threads);
    auto& led = out.ranks[static_cast<std::size_t>(c.rank())];
    double local_drift = 0.0;
    Stopwatch shard;
    parallel::DistributedHybridSolver ds(*global, c, decomp, true);
    c.barrier();
    if (c.rank() == 0) out.shard_s = shard.seconds();
    for (int k = 0; k < w.warmup; ++k) ds.step(a[k], a[k + 1]);
    c.barrier();
    if (c.rank() == 0) out.peak_rss = peak_rss_bytes();

    perfbench::DistributedReplay replay(*global, ds, c, decomp);
    const double mass0 = ds.total_mass();
    Stopwatch run;
    for (int k = w.warmup;; ++k) {
      // Rank 0's clock decides for everyone.
      const bool more = c.allreduce_max(
          c.rank() == 0 && more_traced_steps(k, w, run, seconds) ? 1.0
                                                                 : 0.0) > 0.5;
      if (!more) break;
      const auto before = bucket_totals(ds.timers());
      c.barrier();
      Stopwatch t;
      const double a_next = ds.suggest_next_a(a[k], w.da);
      ds.step(a[k], a[k + 1]);
      c.barrier();
      const double dt = t.seconds();
      subtract_into(led.solver_buckets, bucket_totals(ds.timers()), before);

      const std::uint64_t b0 = c.bytes_sent(), m0 = c.messages_sent();
      const double w0 = c.recv_stats().pop_wait_s;
      replay.step(a[k], a[k + 1], led.trace, led.counts);
      led.bytes += c.bytes_sent() - b0;
      led.msgs += c.messages_sent() - m0;
      led.pop_wait_s += c.recv_stats().pop_wait_s - w0;

      const bool finite = c.allreduce_min(
          finite_state(ds.local_f(), ds.cdm()) ? 1.0 : 0.0) > 0.5;
      const double mass = ds.total_mass();  // collective
      const bool ok = mass_conserved(mass, mass0, local_drift) && finite &&
                      a_next >= a[k + 1];
      const double diff = c.allreduce_max(
          std::max(max_abs_diff(replay.f(), ds.local_f()),
                   max_abs_diff(replay.cdm(), ds.cdm())));
      if (c.rank() == 0) {
        untraced.push_back(dt);
        ++attempted;
        if (!ok) ++failed;
        replay_diff = std::max(replay_diff, diff);
      }
    }
    if (c.rank() == 0) drift = local_drift;
  });
  out.untraced_s = untraced;
  out.traced_s = out.ranks[0].trace.root_durations();
  out.attempted = attempted;
  out.failed = failed;
  out.replay_diff = replay_diff;
  out.mass_drift = drift;
}

/// Computed bytes of the global state: f interior, particles (six doubles
/// and an id each), the eight PM meshes with their ghosts and the three
/// Vlasov-grid acceleration fields.
double state_bytes(const Workload& w) {
  const double nx3 = std::pow(w.nx, 3), nu3 = std::pow(w.nu, 3);
  const double f = nx3 * nu3 * sizeof(float);
  const double particles = std::pow(w.np, 3) * 7 * 8;
  const double meshes = 8 * std::pow(w.nx + 4, 3) * 8 + 3 * nx3 * 8;
  return f + particles + meshes;
}

int run_traced(const Workload& w, std::uint64_t seed, double seconds) {
  const auto cfg = make_workload_config(w, seed);
  const auto a = a_schedule(w, cfg);
  TracedRun tr;
  if (w.ranks > 1)
    traced_distributed(w, cfg, a, seconds, tr);
  else
    traced_serial(w, cfg, a, seconds, tr);

  const int total_threads = w.ranks * w.threads;
  std::size_t llc = 105u << 20;  // the reference host's, if sysfs is silent
  {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string s;
    if (in >> s) {
      const double v = std::strtod(s.c_str(), nullptr);
      if (v > 0) llc = static_cast<std::size_t>(v * 1024);
    }
  }
  const auto triad = perfbench::stream_triad(4 * llc, total_threads);
  const double fma = perfbench::peak_madd_gflops(total_threads);

  const auto& r0 = tr.ranks[0];
  const auto self = r0.trace.self_times();
  const auto at = [&](const char* k) {
    const auto it = self.find(k);
    return it == self.end() ? 0.0 : it->second;
  };
  const double steps = static_cast<double>(tr.traced_s.size());
  const auto per_step = [&](double v) { return v / steps; };
  double traced_total = 0.0;
  for (const double d : tr.traced_s) traced_total += d;

  ReplayCounts sum;
  std::uint64_t bytes = 0, msgs = 0;
  for (const auto& r : tr.ranks) {
    sum.tree_computed += r.counts.tree_computed;
    sum.tree_kept += r.counts.tree_kept;
    bytes += r.bytes;
    msgs += r.msgs;
  }
  const auto& c0 = r0.counts;

  // Vlasov work on this rank's brick: 9 directional sweeps per step (two
  // half kicks of three, one drift of three; the CFL-checked schedule
  // keeps the drift to one sub-cycle), each reading and writing f once,
  // plus one read of f for the density moment.  Bytes are computed from
  // the array sizes, not measured.
  const double cells = std::pow(w.nx, 3) * std::pow(w.nu, 3) / w.ranks;
  const double sweep_s = at("vlasov.kick") + at("vlasov.drift");
  const double vlasov_s = sweep_s + at("vlasov.moments");
  const double updates = 9.0 * cells * steps;
  const double bytes_f = (9.0 * 2.0 + 1.0) * cells * sizeof(float) * steps;
  const double vlasov_gbs = vlasov_s > 0 ? bytes_f / vlasov_s / 1e9 : 0.0;
  const double tree_s = at("gravity.tree");
  const bool has_tree = c0.tree_computed > 0;
  const bool distributed = w.ranks > 1;

  const std::vector<Metric> metrics = {
      {"vlasov.kick_s", per_step(at("vlasov.kick")), "s"},
      {"vlasov.drift_s", per_step(at("vlasov.drift")), "s"},
      {"vlasov.moments_s", per_step(at("vlasov.moments")), "s"},
      {"vlasov.cell_updates_per_s", sweep_s > 0 ? updates / sweep_s : 0.0,
       "1/s"},
      {"vlasov.gb_per_s", vlasov_gbs, "GB/s"},
      {"vlasov.bw_frac", vlasov_gbs / triad.gb_per_s, "frac"},
      {"gravity.tree_s", per_step(tree_s), "s"},
      {"gravity.tree_interactions",
       per_step(static_cast<double>(c0.tree_interactions)), "count"},
      {"gravity.tree_interactions_per_s",
       has_tree ? static_cast<double>(c0.tree_interactions) / tree_s : 0.0,
       "1/s", !has_tree},
      {"gravity.tree_useful_frac",
       has_tree ? static_cast<double>(sum.tree_kept) / sum.tree_computed : 0.0,
       "frac", !has_tree},
      {"gravity.pm_s", per_step(at("gravity.pm") + at("fft")), "s"},
      {"mesh.deposit_s", per_step(at("mesh.deposit")), "s"},
      {"fft.points_per_s", c0.fft_points / r0.trace.inclusive("fft"), "1/s"},
      {"nbody.integrate_s", per_step(at("nbody.integrate")), "s"},
      {"comm.bytes_per_step", per_step(static_cast<double>(bytes)), "B"},
      {"comm.msgs_per_step", per_step(static_cast<double>(msgs)), "count"},
      {"comm.exchange_s", per_step(at("comm.post") + at("comm.wait")), "s"},
      {"comm.wait_s", per_step(at("comm.wait")), "s"},
      {"parallel.halo_exposed_frac",
       c0.halo_window_s > 0 ? c0.halo_wait_s / c0.halo_window_s : 0.0, "frac",
       !distributed},
      {"cosmology.ic_s", tr.ic_s, "s"},
      {"parallel.shard_s", tr.shard_s, "s"},
      {"driver.step_control_s", per_step(at("driver.step_control")), "s"},
      {"driver.rss_over_state", tr.peak_rss / state_bytes(w), "ratio"},
      {"unattributed_s", per_step(at("step")), "s"},
      {"trace.step_s", per_step(traced_total), "s"},
      {"trace_overhead_frac",
       median(tr.traced_s) / median(tr.untraced_s) - 1.0, "frac"},
      {"host.triad_gb_per_s", triad.gb_per_s, "GB/s"},
      {"host.fma_gflops", fma, "GFLOP/s"},
  };

  // Ledger: the layers' self times add up to the traced step.
  const char* layers[] = {"vlasov.kick",   "vlasov.drift",    "vlasov.moments",
                          "mesh.deposit",  "gravity.pm",      "fft",
                          "gravity.tree",  "nbody.integrate", "comm.post",
                          "comm.wait",     "driver.step_control", "step"};
  double ledger = 0.0;
  std::printf("%s traced run: %zu steps, rank 0 ledger (self s/step, share)\n",
              w.name, tr.traced_s.size());
  for (const char* l : layers) {
    ledger += at(l);
    std::printf("  %-22s %10.6f  %5.1f%%\n",
                std::strcmp(l, "step") == 0 ? "unattributed" : l,
                per_step(at(l)), 100.0 * at(l) / traced_total);
  }
  std::printf("  %-22s %10.6f  (traced step %.6f; difference %.3g)\n",
              "sum", per_step(ledger), per_step(traced_total),
              per_step(ledger - traced_total));
  std::printf("  shares: vlasov %.1f%%, tree %.1f%%, comm %.1f%%\n",
              100.0 * vlasov_s / traced_total, 100.0 * tree_s / traced_total,
              100.0 * (at("comm.post") + at("comm.wait")) / traced_total);
  std::printf("  tree: p2p+node interactions %llu over %zu steps; "
              "comm: %llu B, %llu msgs over all ranks; mailbox wait %.6f s, "
              "halo/fold/slab wait %.6f/%.6f/%.6f s (rank 0)\n",
              static_cast<unsigned long long>(c0.tree_interactions),
              tr.traced_s.size(), static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(msgs), r0.pop_wait_s,
              c0.halo_wait_s, c0.fold_wait_s, c0.slab_wait_s);
  // Cross-check against the solver's own timer buckets (untraced steps).
  const double untraced_steps = static_cast<double>(tr.untraced_s.size());
  const std::map<std::string, double> replay_buckets = {
      {"vlasov", r0.trace.inclusive("vlasov.kick") +
                     r0.trace.inclusive("vlasov.drift")},
      {"vlasov-moments", at("vlasov.moments")},
      {"pm", r0.trace.inclusive("gravity.pm") + at("mesh.deposit")},
      {"tree", tree_s},
  };
  std::printf("  solver timers() vs replay spans, s/step:\n");
  for (const auto& b : kSolverBuckets) {
    const double s = r0.solver_buckets.at(b) / untraced_steps;
    const double r = per_step(replay_buckets.at(b));
    std::printf("    %-16s solver %.6f  replay %.6f  (%+.1f%%)\n", b.c_str(),
                s, r, s > 0 ? 100.0 * (r - s) / s : 0.0);
  }
  std::printf("  solver steps: max mass drift %.3g (< %.0e)\n", tr.mass_drift,
              kMassTol);
  std::printf("  replay: %d scheduled steps over the CFL bound\n",
              c0.cfl_violations);
  std::printf("  replay vs solver step: max |diff| %.3g%s\n", tr.replay_diff,
              tr.replay_diff == 0.0
                  ? " (bit-identical)"
                  : "  WARNING: the replay no longer mirrors the solver step");
  std::printf("  triad arrays 3 x %.0f MiB (LLC %.0f MiB), %d threads\n",
              triad.array_bytes / 1048576.0, llc / 1048576.0, total_threads);
  print_metrics(metrics);
  std::printf("%s\n",
              result_json(tr.failed == 0, tr.attempted, tr.failed, metrics)
                  .c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: step_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* k : {"workload", "seed", "seconds", "trace"})
    if (!args.count(k)) return usage();
  const Workload* w = find_workload(args["workload"]);
  if (!w) return usage();
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";

  set_threads(w->threads);
  print_context(*w, seed);
  try {
    return trace ? run_traced(*w, seed, seconds)
                 : run_timed(*w, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "step_bench: %s\n", e.what());
    return 1;
  }
}
