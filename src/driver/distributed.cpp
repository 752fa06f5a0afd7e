// Sharded checkpointing and rank-topology resolution (see distributed.hpp
// and the Driver class comment).
#include "driver/distributed.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/trace.hpp"
#include "io/snapshot.hpp"
#include "parallel/decomp_plan.hpp"

namespace v6d::driver {

namespace {

namespace fs = std::filesystem;

std::string shard_name(std::int64_t step, int rank) {
  return "phase_space." + std::to_string(step) + ".r" +
         std::to_string(rank) + ".bin";
}

}  // namespace

// A barrier orders the shards before rank 0 commits the meta referencing
// all of them.  Any rank's failure aborts all ranks with the same error
// (the allreduce makes the decision uniform, so no rank proceeds to a
// half-written commit).
void write_distributed_checkpoint(const SimulationConfig& cfg,
                                  const Xoshiro256::State& rng,
                                  parallel::DistributedHybridSolver& ds,
                                  comm::Communicator& comm,
                                  const std::string& dir, double a,
                                  std::int64_t step) {
  std::error_code ec;
  if (comm.rank() == 0) fs::create_directories(dir, ec);
  comm.barrier();

  std::int64_t failed = 0;
  if (ds.has_neutrinos()) {
    const std::string name = shard_name(step, comm.rank());
    const std::string path = (fs::path(dir) / name).string();
    const std::string tmp = path + ".tmp";
    auto status = io::write_phase_space(tmp, ds.local_f());
    if (status == io::SnapshotStatus::kOk && !fsync_file(tmp))
      status = io::SnapshotStatus::kWriteFailed;
    if (status == io::SnapshotStatus::kOk) {
      fs::rename(tmp, path, ec);
      if (ec) status = io::SnapshotStatus::kWriteFailed;
    }
    failed = status == io::SnapshotStatus::kOk ? 0 : 1;
  }
  failed = comm.allreduce_sum(failed);
  if (failed > 0)
    throw std::runtime_error("cannot write checkpoint: " +
                             std::to_string(failed) +
                             " rank(s) failed to write phase-space shards");

  // Gather the step-boundary force cache (collective) before the commit.
  auto forces = ds.export_step_forces_global();
  comm.barrier();

  if (comm.rank() == 0) {
    Checkpoint meta;
    meta.config = cfg;
    meta.a = a;
    meta.step = step;
    meta.rng = rng;
    meta.has_phase_space = false;
    meta.has_particles = ds.cdm().size() > 0;
    meta.has_forces = forces.fresh;
    if (ds.has_neutrinos())
      for (int r = 0; r < comm.size(); ++r)
        meta.shard_files.push_back(shard_name(step, r));
    std::string detail;
    const auto status = driver::write_checkpoint(
        dir, meta, nullptr, meta.has_particles ? &ds.cdm() : nullptr,
        meta.has_forces ? &forces : nullptr, &detail);
    if (status != io::SnapshotStatus::kOk)
      throw std::runtime_error("cannot write checkpoint (" +
                               std::string(io::to_string(status)) +
                               "): " + detail);
  }
  comm.barrier();
}

std::array<int, 3> resolve_run_decomp(const SimulationConfig& cfg,
                                      const hybrid::HybridSolver& solver) {
  parallel::DecompConstraints constraints;
  const auto& d = solver.neutrinos().dims();
  if (d.total_interior() > 0) {
    constraints.vlasov = {d.nx, d.ny, d.nz};
    constraints.vlasov_ghost = d.ghost;
  }
  constraints.pm_grid = solver.options().pm_grid;
  return parallel::resolve_decomp(cfg.decomp, cfg.ranks, constraints);
}

io::SnapshotStatus assemble_phase_space_shards(const std::string& dir,
                                               const Checkpoint& meta,
                                               vlasov::PhaseSpace& global,
                                               std::string* error) {
  const auto& gd = global.dims();
  const auto& gg = global.geom();
  // The solver was rebuilt with an empty phase space, so a shard set that
  // under-covers (or doubly covers) the grid would silently resume from
  // zeroed or overwritten bricks; track per-cell coverage and reject
  // anything but an exact tiling.
  std::vector<std::uint8_t> covered(gd.spatial_cells(), 0);
  auto cover = [&](int i, int j, int k) -> std::uint8_t& {
    return covered[(static_cast<std::size_t>(i) * gd.ny + j) * gd.nz + k];
  };
  for (const auto& name : meta.shard_files) {
    const std::string path = (fs::path(dir) / name).string();
    vlasov::PhaseSpace shard;
    const auto status = io::read_phase_space(path, shard);
    if (status != io::SnapshotStatus::kOk) {
      if (error) *error = path;
      return status;
    }
    const auto& sd = shard.dims();
    const auto& sg = shard.geom();
    // Placement from the shard's geometry origin (written brick-shifted).
    const int oi = static_cast<int>(std::lround((sg.x0 - gg.x0) / gg.dx));
    const int oj = static_cast<int>(std::lround((sg.y0 - gg.y0) / gg.dy));
    const int ok = static_cast<int>(std::lround((sg.z0 - gg.z0) / gg.dz));
    if (sd.nux != gd.nux || sd.nuy != gd.nuy || sd.nuz != gd.nuz ||
        oi < 0 || oj < 0 || ok < 0 || oi + sd.nx > gd.nx ||
        oj + sd.ny > gd.ny || ok + sd.nz > gd.nz) {
      if (error) *error = path + ": shard does not fit the configured grid";
      return io::SnapshotStatus::kBadHeader;
    }
    const std::size_t bytes = global.block_size() * sizeof(float);
    for (int i = 0; i < sd.nx; ++i)
      for (int j = 0; j < sd.ny; ++j)
        for (int k = 0; k < sd.nz; ++k) {
          if (cover(oi + i, oj + j, ok + k)++) {
            if (error)
              *error = path + ": shard overlaps an already restored brick";
            return io::SnapshotStatus::kBadHeader;
          }
          std::memcpy(global.block(oi + i, oj + j, ok + k),
                      shard.block(i, j, k), bytes);
        }
  }
  for (const auto flag : covered)
    if (!flag) {
      if (error)
        *error = "checkpoint shards do not cover the configured grid";
      return io::SnapshotStatus::kBadHeader;
    }
  return io::SnapshotStatus::kOk;
}

void write_trace_file(const std::string& path) {
  const auto events = trace::collect();
  std::string error;
  const bool ok = trace::write_chrome_trace(path, events, &error);
  trace::disable();
  trace::reset();
  if (!ok) throw std::runtime_error("cannot write trace: " + error);
}

}  // namespace v6d::driver
