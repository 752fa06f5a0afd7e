// Distributed pieces of the driver: rank-topology resolution for a
// configured run, the sharded checkpoint writer, and checkpoint-shard
// assembly for resume.
//
// Driver::run (driver.cpp) shards the scenario-built global solver across
// the world's ranks (parallel::DistributedHybridSolver) and writes one
// phase-space shard per rank on checkpoint, so the big payload is written
// concurrently — the reason the paper times snapshot I/O as a first-class
// phase (§7.2).  A 1-rank run writes a single shard.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "driver/checkpoint.hpp"
#include "driver/config.hpp"
#include "hybrid/hybrid_solver.hpp"
#include "parallel/distributed_solver.hpp"

namespace v6d::driver {

/// Resolve cfg.ranks / cfg.decomp against the (already built) global
/// solver's grids.  Throws std::invalid_argument when the requested
/// topology is infeasible (indivisible extents or bricks thinner than the
/// ghost width).
std::array<int, 3> resolve_run_decomp(const SimulationConfig& cfg,
                                      const hybrid::HybridSolver& solver);

/// Collective checkpoint write: every rank writes its own phase-space
/// shard `phase_space.<step>.r<rank>.bin` (concurrent I/O), then rank 0
/// commits the meta listing all of them plus the particles and the force
/// cache.  Any rank's failure throws on every rank, before the commit.
void write_distributed_checkpoint(const SimulationConfig& cfg,
                                  const Xoshiro256::State& rng,
                                  parallel::DistributedHybridSolver& ds,
                                  comm::Communicator& comm,
                                  const std::string& dir, double a,
                                  std::int64_t step);

/// Read every per-rank shard listed in `meta` and copy its interior into
/// the global phase space (placement from each shard's geometry origin).
/// Used by Driver::resume; the ranks/decomp of the resumed run may even
/// differ from the writing run — the global state is assembled first and
/// re-sharded on the next run() (bit-identical only when they match).
io::SnapshotStatus assemble_phase_space_shards(const std::string& dir,
                                               const Checkpoint& meta,
                                               vlasov::PhaseSpace& global,
                                               std::string* error = nullptr);

/// Flush the recorded trace (all ranks' buffers, merged) as Chrome
/// trace_event JSON at `path`, then disable tracing and drop the events.
/// Must run after the rank threads have joined.  Throws on I/O failure.
void write_trace_file(const std::string& path);

}  // namespace v6d::driver
