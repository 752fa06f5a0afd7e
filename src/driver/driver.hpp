// The simulation driver: the application-layer run loop every example and
// bench used to hand-roll.
//
// A Driver owns one scenario-built (global) HybridSolver.  run() shards it
// over the configured world — `ranks` thread ranks, or this process as one
// rank of a transport=tcp world; `ranks=1` is the world of one — as a
// parallel::DistributedHybridSolver per rank, advances it with
// CFL-adaptive steps agreed by allreduce until the target epoch, a step
// budget, or a wall-clock budget is hit, and gathers the evolved state
// back into the global solver.  Per-phase wall time accumulates into the
// driver's TimerRegistry ("step", "step-control", "checkpoint-io")
// alongside the solver's own buckets (vlasov / pm / tree / halo ...) — the
// paper's end-to-end timing includes snapshot I/O (§7.2), so checkpoint
// writes are timed like any other phase.
//
// Checkpoints (periodic or on early stop) capture everything the run loop
// needs — one phase-space shard per rank, particles, the force cache, RNG
// state, scale factor, step count, and the full config — so a killed run
// resumed with Driver::resume continues bit-identically with the
// uninterrupted run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "driver/config.hpp"
#include "hybrid/hybrid_solver.hpp"

namespace v6d::driver {

enum class StopReason { kFinished, kMaxSteps, kWallBudget };
const char* to_string(StopReason reason);

struct RunResult {
  StopReason reason = StopReason::kFinished;
  double a = 0.0;           // scale factor reached
  int steps = 0;            // steps taken by this run() call
  std::int64_t total_steps = 0;  // including steps before a resume
  std::string checkpoint;   // last checkpoint dir written ("" if none)
};

class Driver {
 public:
  /// Build a fresh run from `cfg` (use make_config to layer scenario
  /// defaults under file/CLI overrides first).  Throws
  /// std::invalid_argument for an unknown scenario name.
  explicit Driver(const SimulationConfig& cfg);

  /// Rebuild a killed run from a checkpoint directory.  `overrides` may
  /// adjust driver-control keys (a_final, max_steps, wall_budget_s,
  /// checkpoint cadence); physics keys must stay untouched for the
  /// continuation to remain bit-identical.  Throws std::runtime_error on
  /// unreadable/corrupt checkpoints or config/payload shape mismatches.
  static Driver resume(const std::string& dir,
                       const Options& overrides = Options());

  /// Advance until a_final / max_steps / wall budget.  Early stops write
  /// a checkpoint to config().checkpoint_dir (when non-empty) so the run
  /// is resumable by construction.  Rank 0 decides when to stop and
  /// broadcasts it, so every rank leaves the loop on the same step.
  RunResult run();

  /// Write the per-phase timers (driver buckets + the solver's vlasov /
  /// pm / tree buckets) as a v6d-perf/1 JSON report.  run() calls this
  /// automatically when config().perf_report is non-empty.  Throws
  /// std::runtime_error on I/O failure.
  void write_perf_report(const std::string& path) const;

  hybrid::HybridSolver& solver() { return *solver_; }
  const hybrid::HybridSolver& solver() const { return *solver_; }
  const SimulationConfig& config() const { return cfg_; }
  double scale_factor() const { return a_; }
  std::int64_t step_count() const { return steps_; }
  TimerRegistry& timers() { return timers_; }

 private:
  Driver(const SimulationConfig& cfg, bool with_ics);

  SimulationConfig cfg_;
  std::unique_ptr<hybrid::HybridSolver> solver_;
  Xoshiro256 rng_;
  double a_ = 0.0;
  std::int64_t steps_ = 0;
  TimerRegistry timers_;
};

}  // namespace v6d::driver
