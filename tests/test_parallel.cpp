// Distributed execution path: decomposition planning, brick <-> slab
// redistribution, equivalence of 1..8-rank driver runs with the serial
// HybridSolver reference, distributed moments, conservation, and per-rank
// checkpoint shard resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/runner.hpp"
#include "driver/distributed.hpp"
#include "driver/driver.hpp"
#include "driver/scenario.hpp"
#include "gravity/poisson.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/halo.hpp"
#include "mesh/halo_plan.hpp"
#include "parallel/decomp_plan.hpp"
#include "parallel/distributed_solver.hpp"
#include "parallel/field_exchange.hpp"
#include "vlasov/moments.hpp"

namespace {

using namespace v6d;

driver::SimulationConfig make_cfg(
    const std::string& scenario,
    const std::vector<std::pair<std::string, std::string>>& kv) {
  Options options;
  for (const auto& [key, value] : kv) options.set(key, value);
  auto cfg = driver::make_config(options, scenario);
  return cfg;
}

// ---------------------------------------------------------------------------
// Decomposition planning
// ---------------------------------------------------------------------------

TEST(DecompPlan, ParseAcceptsExplicitSpecs) {
  EXPECT_EQ(parallel::parse_decomp("2x2x1"), (std::array<int, 3>{2, 2, 1}));
  EXPECT_EQ(parallel::parse_decomp("8x1x1"), (std::array<int, 3>{8, 1, 1}));
  EXPECT_EQ(parallel::parse_decomp(""), (std::array<int, 3>{0, 0, 0}));
  EXPECT_EQ(parallel::parse_decomp("auto"), (std::array<int, 3>{0, 0, 0}));
  EXPECT_THROW(parallel::parse_decomp("2x2"), std::invalid_argument);
  EXPECT_THROW(parallel::parse_decomp("axbxc"), std::invalid_argument);
  EXPECT_THROW(parallel::parse_decomp("2x2x0"), std::invalid_argument);
  EXPECT_THROW(parallel::parse_decomp("2x2x2junk"), std::invalid_argument);
}

TEST(DecompPlan, ChoosePrefersCubicFeasibleSplits) {
  parallel::DecompConstraints c;
  c.vlasov = {8, 8, 8};
  c.pm_grid = 8;
  EXPECT_EQ(parallel::choose_decomp(8, c), (std::array<int, 3>{2, 2, 2}));
  const auto d2 = parallel::choose_decomp(2, c);
  EXPECT_EQ(d2[0] * d2[1] * d2[2], 2);
}

TEST(DecompPlan, ChooseAvoidsAxesThinnerThanGhost) {
  parallel::DecompConstraints c;
  c.vlasov = {16, 2, 2};  // quasi-1D two_stream shape
  c.pm_grid = 16;
  c.vlasov_ghost = 3;
  // y/z cannot be split (local extent would be 1 < ghost 3).
  EXPECT_EQ(parallel::choose_decomp(4, c), (std::array<int, 3>{4, 1, 1}));
  // 32 ranks cannot fit: x allows at most 16/3 -> 5 -> divisors 2, 4.
  EXPECT_THROW(parallel::choose_decomp(32, c), std::invalid_argument);
}

TEST(DecompPlan, ValidateRejectsIndivisibleAndThinBricks) {
  parallel::DecompConstraints c;
  c.vlasov = {8, 8, 8};
  c.pm_grid = 8;
  EXPECT_NO_THROW(parallel::validate_decomp({2, 2, 2}, 8, c));
  EXPECT_THROW(parallel::validate_decomp({2, 2, 1}, 8, c),
               std::invalid_argument);  // wrong product
  EXPECT_THROW(parallel::validate_decomp({8, 1, 1}, 8, c),
               std::invalid_argument);  // local 1 < ghost 3
  c.vlasov = {9, 9, 9};
  c.pm_grid = 9;
  EXPECT_THROW(parallel::validate_decomp({2, 1, 1}, 2, c),
               std::invalid_argument);  // 9 % 2 != 0
}

// ---------------------------------------------------------------------------
// Brick <-> slab redistribution
// ---------------------------------------------------------------------------

TEST(FieldExchange, BrickSlabRoundTripPreservesValues) {
  const int n = 8;
  for (int p : {1, 2, 4}) {
    comm::run(p, [&](comm::Communicator& comm) {
      comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
      mesh::BrickDecomposition dec({n, n, n}, cart.dims(), cart.coords());
      mesh::Grid3D<double> brick(dec.local_n(0), dec.local_n(1),
                                 dec.local_n(2), 2);
      for (int i = 0; i < brick.nx(); ++i)
        for (int j = 0; j < brick.ny(); ++j)
          for (int k = 0; k < brick.nz(); ++k)
            brick.at(i, j, k) = (dec.offset(0) + i) * 1e4 +
                                (dec.offset(1) + j) * 1e2 +
                                (dec.offset(2) + k);
      fft::ParallelFft3D pfft(comm, n);
      parallel::SlabExchange exchange(dec, pfft, cart, 980);
      exchange.begin_to_slab(brick);
      const auto& slab = exchange.finish_to_slab();
      // The slab must hold the global field rows this rank owns.
      for (int x = 0; x < pfft.local_nx(); ++x)
        for (int y = 0; y < n; ++y)
          for (int z = 0; z < n; ++z) {
            const double expected =
                (pfft.x_offset() + x) * 1e4 + y * 1e2 + z;
            ASSERT_DOUBLE_EQ(
                slab[(static_cast<std::size_t>(x) * n + y) * n + z].real(),
                expected);
          }
      mesh::Grid3D<double> back(dec.local_n(0), dec.local_n(1),
                                dec.local_n(2), 2);
      exchange.begin_to_brick(slab);
      exchange.finish_to_brick(back);
      for (int i = 0; i < brick.nx(); ++i)
        for (int j = 0; j < brick.ny(); ++j)
          for (int k = 0; k < brick.nz(); ++k)
            ASSERT_DOUBLE_EQ(back.at(i, j, k), brick.at(i, j, k));
    });
  }
}

TEST(FieldExchange, AllgatherBricksAssemblesGlobalField) {
  const int n = 6;
  comm::run(4, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, comm::CartTopology::choose_dims(4));
    mesh::BrickDecomposition dec({n, n, n}, cart.dims(), cart.coords());
    mesh::Grid3D<double> brick(dec.local_n(0), dec.local_n(1),
                               dec.local_n(2));
    for (int i = 0; i < brick.nx(); ++i)
      for (int j = 0; j < brick.ny(); ++j)
        for (int k = 0; k < brick.nz(); ++k)
          brick.at(i, j, k) = (dec.offset(0) + i) + 10.0 * (dec.offset(1) + j) +
                              100.0 * (dec.offset(2) + k);
    mesh::Grid3D<double> global(n, n, n);
    parallel::allgather_bricks(brick, dec, comm, global);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        for (int k = 0; k < n; ++k)
          ASSERT_DOUBLE_EQ(global.at(i, j, k), i + 10.0 * j + 100.0 * k);
  });
}

TEST(FieldExchange, GatherBricksAssemblesGlobalFieldOnRankZero) {
  const int n = 7;  // uneven bricks: remainder cells on low coordinates
  comm::run(4, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, comm::CartTopology::choose_dims(4));
    mesh::BrickDecomposition dec({n, n, n}, cart.dims(), cart.coords());
    mesh::Grid3D<double> brick(dec.local_n(0), dec.local_n(1),
                               dec.local_n(2), 2);
    for (int i = 0; i < brick.nx(); ++i)
      for (int j = 0; j < brick.ny(); ++j)
        for (int k = 0; k < brick.nz(); ++k)
          brick.at(i, j, k) = (dec.offset(0) + i) + 10.0 * (dec.offset(1) + j) +
                              100.0 * (dec.offset(2) + k);
    mesh::Grid3D<double> global;
    if (comm.rank() == 0) global = mesh::Grid3D<double>(n, n, n, 2);
    parallel::gather_bricks(brick, dec, cart, 970, global);
    if (comm.rank() != 0) {
      EXPECT_EQ(global.raw_size(), 0u);  // only rank 0 assembles
      return;
    }
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        for (int k = 0; k < n; ++k)
          ASSERT_DOUBLE_EQ(global.at(i, j, k), i + 10.0 * j + 100.0 * k);
  });
}

// ---------------------------------------------------------------------------
// Serial vs N-rank equivalence of full driver runs
// ---------------------------------------------------------------------------

struct RunOutcome {
  mesh::Grid3D<double> density;
  double mass_before = 0.0, mass_after = 0.0;
  nbody::Particles particles;
  mesh::Grid3D<double> rho_cdm, rho_nu;  // PM densities of the last solve
};

RunOutcome outcome_of(const hybrid::HybridSolver& solver, double mass_before) {
  RunOutcome out;
  out.mass_before = mass_before;
  out.mass_after = solver.total_mass();
  const auto& dims = solver.neutrinos().dims();
  out.density = mesh::Grid3D<double>(dims.nx, dims.ny, dims.nz);
  if (dims.total_interior() > 0)
    vlasov::compute_density(solver.neutrinos(), out.density);
  out.particles = solver.cdm();
  out.rho_cdm = solver.cdm_density();
  out.rho_nu = solver.nu_density();
  return out;
}

/// The driver's run: `cfg.ranks` ranks of DistributedHybridSolver (one
/// rank is the world of one).
RunOutcome run_scenario(const driver::SimulationConfig& cfg) {
  driver::Driver d(cfg);
  const double mass_before = d.solver().total_mass();
  d.run();
  return outcome_of(d.solver(), mass_before);
}

/// The serial reference: a scenario-built HybridSolver stepped directly
/// with the driver's CFL step choice and step budget, no Driver involved.
RunOutcome run_serial_reference(const driver::SimulationConfig& cfg) {
  auto solver = driver::find_scenario(cfg.scenario)->build(cfg, true);
  const double mass_before = solver->total_mass();
  double a = cfg.a_init;
  for (int steps = 0; a < cfg.a_final - 1e-12; ++steps) {
    if (cfg.max_steps > 0 && steps >= cfg.max_steps) break;
    const double a1 =
        std::min(solver->suggest_next_a(a, cfg.da_max), cfg.a_final);
    solver->step(a, a1);
    a = a1;
  }
  return outcome_of(*solver, mass_before);
}

double max_rel_density_diff(const mesh::Grid3D<double>& a,
                            const mesh::Grid3D<double>& b) {
  double scale = 0.0;
  for (int i = 0; i < a.nx(); ++i)
    for (int j = 0; j < a.ny(); ++j)
      for (int k = 0; k < a.nz(); ++k)
        scale = std::max(scale, std::fabs(a.at(i, j, k)));
  double diff = 0.0;
  for (int i = 0; i < a.nx(); ++i)
    for (int j = 0; j < a.ny(); ++j)
      for (int k = 0; k < a.nz(); ++k)
        diff = std::max(diff, std::fabs(a.at(i, j, k) - b.at(i, j, k)));
  return scale > 0.0 ? diff / scale : diff;
}

class DistributedRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistributedRanks, VlasovOnlyMatchesSerial) {
  const int p = GetParam();
  const std::vector<std::pair<std::string, std::string>> base = {
      {"nx", "8"},     {"nu", "6"},           {"max_steps", "2"},
      {"seed", "11"},  {"checkpoint_dir", ""}};
  auto serial_cfg = make_cfg("vlasov_only", base);
  auto dist_cfg = serial_cfg;
  dist_cfg.ranks = p;

  const auto serial = run_serial_reference(serial_cfg);
  const auto dist = run_scenario(dist_cfg);

  // Same realization, same steps; the only divergence is FFT / reduction
  // rounding, so the density fields agree far beyond discretization error.
  EXPECT_LT(max_rel_density_diff(serial.density, dist.density), 2e-5);
  // Decomposition adds no conservation error: the distributed mass
  // trajectory tracks the serial one to <= 1e-12 relative.  (The scheme's
  // intrinsic drift — outflow through the zero-padded velocity-cube
  // boundary, ~1e-8 here — is identical in both runs.)
  EXPECT_NEAR(dist.mass_after, serial.mass_after,
              1e-12 * std::fabs(serial.mass_after));
  EXPECT_NEAR(dist.mass_after - dist.mass_before,
              serial.mass_after - serial.mass_before,
              1e-12 * std::fabs(serial.mass_before));
}

TEST_P(DistributedRanks, NeutrinoBoxMatchesSerial) {
  const int p = GetParam();
  const std::vector<std::pair<std::string, std::string>> base = {
      {"nx", "8"},      {"nu", "6"},  {"np", "8"},
      {"max_steps", "2"}, {"seed", "7"}, {"checkpoint_dir", ""}};
  auto serial_cfg = make_cfg("neutrino_box", base);
  auto dist_cfg = serial_cfg;
  dist_cfg.ranks = p;

  const auto serial = run_serial_reference(serial_cfg);
  const auto dist = run_scenario(dist_cfg);

  EXPECT_LT(max_rel_density_diff(serial.density, dist.density), 2e-5);
  // The acceptance bar: an N-rank neutrino_box conserves mass exactly as
  // well as the single-rank run — the decomposition contributes <= 1e-12
  // relative on top of the scheme's intrinsic drift.
  EXPECT_NEAR(dist.mass_after, serial.mass_after,
              1e-12 * std::fabs(serial.mass_after));
  EXPECT_NEAR(dist.mass_after - dist.mass_before,
              serial.mass_after - serial.mass_before,
              1e-12 * std::fabs(serial.mass_before));

  // Replicated particles see the same tree force and a PM force that
  // differs only by FFT rounding.
  ASSERT_EQ(serial.particles.size(), dist.particles.size());
  double max_dx = 0.0;
  for (std::size_t i = 0; i < serial.particles.size(); ++i) {
    max_dx = std::max(max_dx,
                      std::fabs(serial.particles.x[i] - dist.particles.x[i]));
    max_dx = std::max(max_dx,
                      std::fabs(serial.particles.y[i] - dist.particles.y[i]));
    max_dx = std::max(max_dx,
                      std::fabs(serial.particles.z[i] - dist.particles.z[i]));
  }
  EXPECT_LT(max_dx, 1e-8);
}

TEST_P(DistributedRanks, GatheredPmDensitiesMatchSerial) {
  // After Driver::run the global solver's cdm_density() / nu_density()
  // describe the last force solve, as after the serial reference's step.
  auto serial_cfg = make_cfg("neutrino_box", {{"nx", "8"},
                                              {"nu", "6"},
                                              {"np", "8"},
                                              {"max_steps", "2"},
                                              {"seed", "7"},
                                              {"checkpoint_dir", ""}});
  auto dist_cfg = serial_cfg;
  dist_cfg.ranks = GetParam();

  const auto serial = run_serial_reference(serial_cfg);
  const auto dist = run_scenario(dist_cfg);

  ASSERT_EQ(dist.rho_cdm.nx(), serial.rho_cdm.nx());
  ASSERT_EQ(dist.rho_nu.nx(), serial.rho_nu.nx());
  EXPECT_LT(max_rel_density_diff(serial.rho_cdm, dist.rho_cdm), 2e-5);
  EXPECT_LT(max_rel_density_diff(serial.rho_nu, dist.rho_nu), 2e-5);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedRanks,
                         ::testing::Values(1, 2, 4, 8));

TEST(DistributedTwoStream, MatchesSerialAcrossThinAxes) {
  // ny = nz = 2 < ghost 3: exercises the local periodic wrap path of the
  // halo exchange on the undecomposed axes.
  const std::vector<std::pair<std::string, std::string>> base = {
      {"nx", "16"}, {"nu", "8"}, {"max_steps", "3"}, {"checkpoint_dir", ""}};
  auto serial_cfg = make_cfg("two_stream", base);
  auto dist_cfg = serial_cfg;
  dist_cfg.ranks = 4;  // auto decomp must pick 4x1x1

  const auto serial = run_serial_reference(serial_cfg);
  const auto dist = run_scenario(dist_cfg);

  EXPECT_LT(max_rel_density_diff(serial.density, dist.density), 2e-5);
  EXPECT_NEAR(dist.mass_after, serial.mass_after,
              1e-12 * std::fabs(serial.mass_after));
}

TEST(DistributedConservation, PositionSweepsConserveMassAcrossRanks) {
  // Pure drift cycle (no velocity sweeps, so no velocity-boundary
  // outflow): flux-form advection through exchanged halos is structurally
  // conservative — interface fluxes at brick boundaries are computed from
  // identical stencil values on both sides.  Only per-cell float store
  // rounding remains.
  const int n = 8, nu = 6;
  for (int p : {2, 8}) {
    comm::run(p, [&](comm::Communicator& comm) {
      comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
      mesh::BrickDecomposition dec({n, n, n}, cart.dims(), cart.coords());
      vlasov::PhaseSpaceDims dims;
      dims.nx = dec.local_n(0);
      dims.ny = dec.local_n(1);
      dims.nz = dec.local_n(2);
      dims.nux = dims.nuy = dims.nuz = nu;
      vlasov::PhaseSpaceGeometry geom;
      geom.umax = 1.0;
      geom.dux = geom.duy = geom.duz = 2.0 / nu;
      vlasov::PhaseSpace f(dims, geom);
      for (int i = 0; i < dims.nx; ++i)
        for (int j = 0; j < dims.ny; ++j)
          for (int k = 0; k < dims.nz; ++k) {
            float* blk = f.block(i, j, k);
            for (std::size_t v = 0; v < f.block_size(); ++v)
              blk[v] = 0.3f +
                       0.1f * std::sin(0.7f * (dec.offset(0) + i) +
                                       0.4f * (dec.offset(1) + j) +
                                       0.9f * (dec.offset(2) + k) + 0.05f * v);
          }
      const double m0 = comm.allreduce_sum(f.total_mass());
      mesh::HaloPlan plan(cart, dims, 960);
      for (int s = 0; s < 3; ++s)
        for (int axis : {2, 1, 0}) {
          plan.begin_axis(f, axis);
          plan.finish_axis(f, axis);
          vlasov::advect_position_axis(f, axis, 0.37, vlasov::SweepKernel::kAuto);
        }
      const double m1 = comm.allreduce_sum(f.total_mass());
      // Bound: random-walk of per-cell float rounding over ~10^5 cells,
      // a few 1e-10 relative; decomposition must not add to it.
      EXPECT_NEAR(m1, m0, 1e-9 * m0) << p << " ranks";
    });
  }
}

// ---------------------------------------------------------------------------
// Overlapped vs synchronous stepping (exact equality)
// ---------------------------------------------------------------------------

// The overlapped pipeline restructures *when* communication happens, never
// what is computed: every stage performs the same floating-point
// operations in the same order.  So overlap=on must match overlap=off bit
// for bit — EXPECT_EQ on doubles, not a tolerance.
void expect_runs_bit_identical(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.mass_before, b.mass_before);
  EXPECT_EQ(a.mass_after, b.mass_after);
  for (int i = 0; i < a.density.nx(); ++i)
    for (int j = 0; j < a.density.ny(); ++j)
      for (int k = 0; k < a.density.nz(); ++k)
        ASSERT_EQ(a.density.at(i, j, k), b.density.at(i, j, k))
            << "density cell " << i << " " << j << " " << k;
  ASSERT_EQ(a.particles.size(), b.particles.size());
  for (std::size_t i = 0; i < a.particles.size(); ++i) {
    ASSERT_EQ(a.particles.x[i], b.particles.x[i]) << "particle " << i;
    ASSERT_EQ(a.particles.y[i], b.particles.y[i]) << "particle " << i;
    ASSERT_EQ(a.particles.z[i], b.particles.z[i]) << "particle " << i;
    ASSERT_EQ(a.particles.ux[i], b.particles.ux[i]) << "particle " << i;
    ASSERT_EQ(a.particles.uy[i], b.particles.uy[i]) << "particle " << i;
    ASSERT_EQ(a.particles.uz[i], b.particles.uz[i]) << "particle " << i;
  }
}

TEST_P(DistributedRanks, OverlapBitIdenticalVlasovOnly) {
  const int p = GetParam();
  auto sync_cfg = make_cfg("vlasov_only", {{"nx", "8"},
                                           {"nu", "6"},
                                           {"max_steps", "2"},
                                           {"seed", "11"},
                                           {"checkpoint_dir", ""}});
  sync_cfg.ranks = p;
  sync_cfg.overlap = false;
  auto overlap_cfg = sync_cfg;
  overlap_cfg.overlap = true;
  expect_runs_bit_identical(run_scenario(sync_cfg),
                            run_scenario(overlap_cfg));
}

TEST_P(DistributedRanks, OverlapBitIdenticalNeutrinoBox) {
  const int p = GetParam();
  auto sync_cfg = make_cfg("neutrino_box", {{"nx", "8"},
                                            {"nu", "6"},
                                            {"np", "8"},
                                            {"max_steps", "2"},
                                            {"seed", "7"},
                                            {"checkpoint_dir", ""}});
  sync_cfg.ranks = p;
  sync_cfg.overlap = false;
  auto overlap_cfg = sync_cfg;
  overlap_cfg.overlap = true;
  expect_runs_bit_identical(run_scenario(sync_cfg),
                            run_scenario(overlap_cfg));
}

TEST(DistributedOverlap, BitIdenticalAcrossThinTwoStreamAxes) {
  // ny = nz = 2 < 2*ghost: the overlapped drift must fall back to the
  // blocking full-line path on the thin (undecomposed, wrap-filled) axes
  // while still splitting the decomposed x axis — and stay bit-identical.
  auto sync_cfg = make_cfg("two_stream", {{"nx", "16"},
                                          {"nu", "8"},
                                          {"max_steps", "3"},
                                          {"checkpoint_dir", ""}});
  sync_cfg.ranks = 4;
  sync_cfg.overlap = false;
  auto overlap_cfg = sync_cfg;
  overlap_cfg.overlap = true;
  expect_runs_bit_identical(run_scenario(sync_cfg),
                            run_scenario(overlap_cfg));
}

TEST(DistributedOverlap, AbortMidOverlapWakesPeers) {
  // A rank dying between begin and finish of an overlapped exchange must
  // wake peers blocked on its never-coming faces, and the original error
  // must surface (the overlap pipeline's variant of the PR-4 abort fix).
  try {
    comm::run(2, [&](comm::Communicator& comm) {
      comm::CartTopology cart(comm, {2, 1, 1});
      vlasov::PhaseSpaceDims dims;
      dims.nx = 8;
      dims.ny = dims.nz = 8;
      dims.nux = dims.nuy = dims.nuz = 2;
      vlasov::PhaseSpace f(dims, vlasov::PhaseSpaceGeometry{});
      mesh::HaloPlan plan(cart, dims, 960);
      if (comm.rank() == 0) {
        plan.begin_axis(f, 0);
        throw std::runtime_error("rank 0 died mid-overlap");
      }
      // Rank 1's first round completes (rank 0's faces were sent), but the
      // second round blocks on faces rank 0 never posts.
      // v6d-analyze: allow(overlap-window): rank 0's begin above is that rank's own instance (it threw mid-overlap on purpose); this is rank 1's first begin
      plan.begin_axis(f, 0);
      plan.finish_axis(f, 0);
      plan.begin_axis(f, 0);
      plan.finish_axis(f, 0);
      FAIL() << "finish_axis against a dead rank must not return";
    });
    FAIL() << "run() must rethrow the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 died mid-overlap");
  }
}

// ---------------------------------------------------------------------------
// Distributed moments
// ---------------------------------------------------------------------------

TEST(DistributedMoments, LocalDensityBricksAssembleToSerialDensity) {
  auto cfg = make_cfg("vlasov_only", {{"nx", "8"},
                                      {"nu", "6"},
                                      {"checkpoint_dir", ""}});
  cfg.ranks = 4;
  driver::Driver d(cfg);
  const auto& f = d.solver().neutrinos();
  mesh::Grid3D<double> serial(f.dims().nx, f.dims().ny, f.dims().nz);
  vlasov::compute_density(f, serial);

  const auto dims = driver::resolve_run_decomp(cfg, d.solver());
  comm::run(4, [&](comm::Communicator& comm) {
    parallel::DistributedHybridSolver ds(d.solver(), comm, dims);
    const auto& lf = ds.local_f();
    mesh::Grid3D<double> local(lf.dims().nx, lf.dims().ny, lf.dims().nz);
    vlasov::compute_density(lf, local);
    mesh::Grid3D<double> global(f.dims().nx, f.dims().ny, f.dims().nz);
    parallel::allgather_bricks(local, ds.decomposition(), comm, global);
    // Per-cell moments are local reductions over identical float blocks:
    // the assembly must match the serial moment exactly.
    for (int i = 0; i < serial.nx(); ++i)
      for (int j = 0; j < serial.ny(); ++j)
        for (int k = 0; k < serial.nz(); ++k)
          ASSERT_DOUBLE_EQ(global.at(i, j, k), serial.at(i, j, k));
  });
}

TEST(DistributedGather, RejectsPlacementHeaderOutsideGlobalGrid) {
  // gather_into(via_messages) places each peer's brick by the offsets and
  // extents in its message header.  A corrupt frame whose payload size
  // agrees with its header but whose placement does not lie inside the
  // global grid must be refused, not copied out of bounds.
  auto cfg = make_cfg("vlasov_only",
                      {{"nx", "8"}, {"nu", "4"}, {"checkpoint_dir", ""}});
  cfg.ranks = 2;
  driver::Driver d(cfg);
  const auto dims = driver::resolve_run_decomp(cfg, d.solver());
  constexpr int kGatherTag = 0x6a7;  // gather_into's brick message tag
  const std::int32_t forged[][6] = {
      {6, 0, 0, 4, 8, 8},     // overruns x by two cells
      {0, 0, 0, 0, 8, 8},     // empty extent
      {-4, 0, 0, 4, 8, 8},    // negative offset
      {1000, 0, 0, 4, 8, 8},  // far outside the grid
  };
  for (const auto& header : forged) {
    try {
      comm::run(2, [&](comm::Communicator& comm) {
        parallel::DistributedHybridSolver ds(d.solver(), comm, dims);
        comm.barrier();  // every rank has sharded before rank 0 writes
        if (comm.rank() == 0) {
          ds.gather_into(d.solver(), /*via_messages=*/true);
          FAIL() << "gather_into accepted a forged placement header";
        }
        const std::size_t bytes = ds.local_f().block_size() * sizeof(float);
        std::vector<std::uint8_t> frame(
            sizeof(header) + static_cast<std::size_t>(header[3]) * header[4] *
                                 header[5] * bytes);
        std::memcpy(frame.data(), header, sizeof(header));
        comm.send_bytes(0, kGatherTag, frame.data(), frame.size());
        // gather_into's collective tail (no step ran, so no density
        // bricks follow): if rank 0 accepted the frame it returns (and the
        // test fails) instead of waiting here forever.
        ds.export_step_forces_global();
        comm.barrier();
      });
      ADD_FAILURE() << "run() must rethrow rank 0's error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("placement header"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(DistributedGather, WorldOfOneHandsStorageBackOnUnwind) {
  // A world of one takes the global phase space and particles over; if
  // the run unwinds before gather_into, the destructor returns them.
  auto cfg = make_cfg("neutrino_box", {{"nx", "8"},
                                       {"nu", "4"},
                                       {"np", "8"},
                                       {"checkpoint_dir", ""}});
  driver::Driver d(cfg);
  const double mass = d.solver().total_mass();
  const std::size_t particles = d.solver().cdm().size();
  ASSERT_GT(particles, 0u);
  const auto dims = driver::resolve_run_decomp(cfg, d.solver());
  EXPECT_THROW(comm::run(1,
                         [&](comm::Communicator& comm) {
                           parallel::DistributedHybridSolver ds(d.solver(),
                                                                comm, dims);
                           // Taken over, not copied.
                           EXPECT_EQ(d.solver().cdm().size(), 0u);
                           EXPECT_EQ(
                               d.solver().neutrinos().dims().total_interior(),
                               0u);
                           throw std::runtime_error("run unwound");
                         }),
               std::runtime_error);
  EXPECT_EQ(d.solver().cdm().size(), particles);
  EXPECT_EQ(d.solver().total_mass(), mass);
}

// ---------------------------------------------------------------------------
// Per-rank checkpoint shards
// ---------------------------------------------------------------------------

TEST_P(DistributedRanks, ShardedResumeIsBitIdentical) {
  namespace fs = std::filesystem;
  const int p = GetParam();
  const auto base_dir =
      fs::temp_directory_path() / ("v6d_dist_ckpt_" + std::to_string(p));
  fs::remove_all(base_dir);
  const std::string dir_full = (base_dir / "full").string();
  const std::string dir_resumed = (base_dir / "resumed").string();

  const std::vector<std::pair<std::string, std::string>> base = {
      {"nx", "8"}, {"nu", "6"}, {"np", "8"}, {"seed", "5"}};
  auto cfg = make_cfg("neutrino_box", base);
  cfg.ranks = p;

  // Uninterrupted 4-step run.
  auto cfg_full = cfg;
  cfg_full.max_steps = 4;
  cfg_full.checkpoint_dir = dir_full;
  driver::Driver full(cfg_full);
  full.run();

  // Killed-at-2 + resumed-to-4 run.
  auto cfg_half = cfg;
  cfg_half.max_steps = 2;
  cfg_half.checkpoint_dir = dir_resumed;
  driver::Driver half(cfg_half);
  half.run();
  Options overrides;
  overrides.set("max_steps", "4");
  driver::Driver resumed = driver::Driver::resume(dir_resumed, overrides);
  EXPECT_EQ(resumed.step_count(), 2);
  resumed.run();
  EXPECT_EQ(resumed.step_count(), 4);

  // The checkpoints written at step 4 must agree bit for bit: shards,
  // particles, and the step-boundary force cache.
  for (int r = 0; r < p; ++r) {
    const std::string shard = "phase_space.4.r" + std::to_string(r) + ".bin";
    std::ifstream a(fs::path(dir_full) / shard, std::ios::binary);
    std::ifstream b(fs::path(dir_resumed) / shard, std::ios::binary);
    ASSERT_TRUE(a.good() && b.good()) << shard;
    const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b) << shard;
  }
  for (const char* payload : {"particles.4.bin", "forces.4.bin"}) {
    std::ifstream a(fs::path(dir_full) / payload, std::ios::binary);
    std::ifstream b(fs::path(dir_resumed) / payload, std::ios::binary);
    ASSERT_TRUE(a.good() && b.good()) << payload;
    const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b) << payload;
  }
  fs::remove_all(base_dir);
}

TEST(DistributedCheckpoint, GarbageCollectionKeepsLiveShards) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "v6d_dist_gc";
  fs::remove_all(dir);
  auto cfg = make_cfg("vlasov_only", {{"nx", "8"}, {"nu", "6"}});
  cfg.ranks = 2;
  cfg.max_steps = 2;
  cfg.checkpoint_every = 1;  // supersede the step-1 checkpoint with step 2
  cfg.checkpoint_dir = dir.string();
  driver::Driver d(cfg);
  d.run();
  EXPECT_TRUE(fs::exists(dir / "phase_space.2.r0.bin"));
  EXPECT_TRUE(fs::exists(dir / "phase_space.2.r1.bin"));
  EXPECT_FALSE(fs::exists(dir / "phase_space.1.r0.bin"));
  EXPECT_FALSE(fs::exists(dir / "phase_space.1.r1.bin"));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Green-function sharing
// ---------------------------------------------------------------------------

TEST(GreenFunction, FreeFunctionMatchesSolverConventions) {
  gravity::PoissonOptions options;
  options.prefactor = 2.5;
  options.deconvolve_order = 2;
  EXPECT_DOUBLE_EQ(
      gravity::green_times_window(0, 0, 0, 8, 8, 8, 1.0, 1.0, 1.0, options),
      0.0);
  const double g = gravity::green_times_window(1, 2, 3, 8, 8, 8, 1.0, 1.0,
                                               1.0, options);
  EXPECT_LT(g, 0.0);  // attractive potential
  EXPECT_DOUBLE_EQ(gravity::fft_wavenumber(0, 8, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(gravity::fft_wavenumber(7, 8, 1.0), -2.0 * M_PI);
}

}  // namespace
