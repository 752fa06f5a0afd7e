#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "vlasov/moments.hpp"
#include "vlasov/splitting.hpp"
#include "vlasov/sweeps.hpp"

namespace {

using namespace v6d::vlasov;

PhaseSpace make_ps(int nx, int nu, double box = 8.0, double umax = 1.0) {
  PhaseSpaceDims d;
  d.nx = d.ny = d.nz = nx;
  d.nux = d.nuy = d.nuz = nu;
  PhaseSpaceGeometry g;
  g.dx = g.dy = g.dz = box / nx;
  g.umax = umax;
  g.dux = g.duy = g.duz = 2.0 * umax / nu;
  return PhaseSpace(d, g);
}

// Gaussian blob in space x Maxwellian in velocity.
void fill_blob(PhaseSpace& f, double center_frac = 0.5) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  const double cx = center_frac * d.nx * g.dx;
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        float* blk = f.block(ix, iy, iz);
        const double rx = g.x(ix) - cx, ry = g.y(iy) - cx, rz = g.z(iz) - cx;
        const double amp =
            std::exp(-(rx * rx + ry * ry + rz * rz) / (2.0 * 1.5 * 1.5));
        std::size_t v = 0;
        for (int a = 0; a < d.nux; ++a)
          for (int b = 0; b < d.nuy; ++b)
            for (int c = 0; c < d.nuz; ++c, ++v) {
              const double u2 = g.ux(a) * g.ux(a) + g.uy(b) * g.uy(b) +
                                g.uz(c) * g.uz(c);
              blk[v] = static_cast<float>(
                  amp * std::exp(-u2 / (2.0 * 0.3 * 0.3)));
            }
      }
}

class SweepKernels : public ::testing::TestWithParam<SweepKernel> {};

TEST_P(SweepKernels, PositionSweepsConserveMass) {
  auto f = make_ps(8, 8);
  fill_blob(f);
  const double mass0 = f.total_mass();
  for (int axis = 0; axis < 3; ++axis) {
    f.fill_ghosts_periodic();
    advect_position_axis(f, axis, 0.9 * f.geom().dx / f.geom().umax,
                         GetParam());
  }
  EXPECT_NEAR(f.total_mass(), mass0, 2e-5 * mass0);
  EXPECT_GE(f.min_interior(), 0.0f);
}

TEST_P(SweepKernels, VelocitySweepsConserveMassWithinDomain) {
  // Wide velocity cube (edge at ~6.7 sigma) so the Maxwellian tail carries
  // negligible mass through the open boundary during a small kick.
  auto f = make_ps(4, 16, 8.0, 2.0);
  fill_blob(f);
  const double mass0 = f.total_mass();
  v6d::mesh::Grid3D<double> accel(4, 4, 4);
  accel.fill(0.02);
  for (int axis = 0; axis < 3; ++axis)
    advect_velocity_axis(f, axis, accel, 1.0, GetParam());
  EXPECT_NEAR(f.total_mass(), mass0, 1e-4 * mass0);
  EXPECT_GE(f.min_interior(), 0.0f);
}

TEST_P(SweepKernels, MatchesScalarReference) {
  if (GetParam() == SweepKernel::kScalar) GTEST_SKIP();
  auto fa = make_ps(6, 8);
  auto fb = make_ps(6, 8);
  fill_blob(fa);
  fill_blob(fb);
  v6d::mesh::Grid3D<double> accel(6, 6, 6);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j)
      for (int k = 0; k < 6; ++k)
        accel.at(i, j, k) = 0.02 * (i - j + 2 * k);

  for (int axis = 0; axis < 3; ++axis) {
    fa.fill_ghosts_periodic();
    fb.fill_ghosts_periodic();
    advect_position_axis(fa, axis, 0.5 * fa.geom().dx, SweepKernel::kScalar);
    advect_position_axis(fb, axis, 0.5 * fb.geom().dx, GetParam());
    advect_velocity_axis(fa, axis, accel, 0.7, SweepKernel::kScalar);
    advect_velocity_axis(fb, axis, accel, 0.7, GetParam());
  }
  const auto& d = fa.dims();
  float worst = 0.0f;
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const float* a = fa.block(ix, iy, iz);
        const float* b = fb.block(ix, iy, iz);
        for (std::size_t v = 0; v < fa.block_size(); ++v)
          worst = std::max(worst, std::fabs(a[v] - b[v]));
      }
  EXPECT_LT(worst, 5e-6f);
}

TEST_P(SweepKernels, PositionSweepReadsOnlyItsAxisFaceGhosts) {
  // The distributed drift exchanges, per sweep along axis a, only a's
  // ghost layers at interior transverse positions (mesh::HaloPlan).  That
  // is sound only if the sweep reads nothing else: with every other ghost
  // (other axes' faces, edges, corners) poisoned with NaN the result must
  // match the fully filled halo bit for bit.
  PhaseSpaceDims d;
  d.nx = 7;
  d.ny = 6;
  d.nz = 5;
  d.nux = d.nuy = d.nuz = 4;
  PhaseSpaceGeometry geom;
  geom.dx = 1.0;
  geom.dy = 1.25;
  geom.dz = 0.75;
  geom.umax = 1.0;
  geom.dux = geom.duy = geom.duz = 0.5;
  PhaseSpace f(d, geom);
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        float* blk = f.block(ix, iy, iz);
        for (std::size_t v = 0; v < f.block_size(); ++v)
          blk[v] = static_cast<float>(
              0.5 + 0.4 * std::sin(1.3 * ix + 2.1 * iy + 0.7 * iz + 0.37 * v));
        blk[(ix + iy + iz) % f.block_size()] = 2.0f;  // sharp features
      }
  f.fill_ghosts_periodic();

  const int g = d.ghost;
  const int n[3] = {d.nx, d.ny, d.nz};
  const double dxs[3] = {geom.dx, geom.dy, geom.dz};
  for (int axis = 0; axis < 3; ++axis) {
    PhaseSpace full = f;
    PhaseSpace lean = f;
    for (int i = -g; i < d.nx + g; ++i)
      for (int j = -g; j < d.ny + g; ++j)
        for (int k = -g; k < d.nz + g; ++k) {
          // Keep the interior and the axis' own face ghosts; poison every
          // cell outside the interior along a transverse axis.
          const int idx[3] = {i, j, k};
          bool transverse_ghost = false;
          for (int a = 0; a < 3; ++a)
            if (a != axis && (idx[a] < 0 || idx[a] >= n[a]))
              transverse_ghost = true;
          if (transverse_ghost) {
            float* blk = lean.block(i, j, k);
            for (std::size_t v = 0; v < lean.block_size(); ++v)
              blk[v] = std::numeric_limits<float>::quiet_NaN();
          }
        }
    const double drift = 0.9 * dxs[axis] / geom.umax;
    advect_position_axis(full, axis, drift, GetParam());
    advect_position_axis(lean, axis, drift, GetParam());
    for (int ix = 0; ix < d.nx; ++ix)
      for (int iy = 0; iy < d.ny; ++iy)
        for (int iz = 0; iz < d.nz; ++iz)
          ASSERT_EQ(std::memcmp(full.block(ix, iy, iz), lean.block(ix, iy, iz),
                                full.block_size() * sizeof(float)),
                    0)
              << "axis " << axis << " cell " << ix << "," << iy << "," << iz;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, SweepKernels,
                         ::testing::Values(SweepKernel::kScalar,
                                           SweepKernel::kSimd,
                                           SweepKernel::kLat,
                                           SweepKernel::kAuto));

TEST(Sweeps, FreeStreamingTranslatesBlob) {
  // Pure drift: each velocity slice translates by u * drift / dx cells.
  // Use a velocity grid whose cell centers give integer shifts for an
  // exact check.
  const int nx = 8, nu = 4;
  auto f = make_ps(nx, nu, /*box=*/8.0, /*umax=*/2.0);
  // u centers: -1.5, -0.5, 0.5, 1.5; drift = 2 -> shifts -3,-1,1,3 cells
  // along x with dx = 1.
  fill_blob(f);
  auto ref = f;
  f.fill_ghosts_periodic();
  advect_position_axis(f, 0, 2.0, SweepKernel::kAuto);
  const auto& d = f.dims();
  const auto& g = f.geom();
  for (int a = 0; a < nu; ++a) {
    const int shift = static_cast<int>(std::lround(g.ux(a) * 2.0 / g.dx));
    for (int ix = 0; ix < nx; ++ix) {
      const int src = ((ix - shift) % nx + nx) % nx;
      for (int iy = 0; iy < d.ny; ++iy)
        for (int iz = 0; iz < d.nz; ++iz)
          for (int b = 0; b < nu; ++b)
            for (int c = 0; c < nu; ++c)
              ASSERT_NEAR(f.at(ix, iy, iz, a, b, c),
                          ref.at(src, iy, iz, a, b, c), 1e-6)
                  << "a=" << a << " ix=" << ix;
    }
  }
}

TEST(Sweeps, VelocityKickShiftsMeanVelocity) {
  auto f = make_ps(4, 16, 8.0, 2.0);
  fill_blob(f);
  v6d::mesh::Grid3D<double> accel(4, 4, 4);
  accel.fill(0.25);
  MomentFields m0(4, 4, 4), m1(4, 4, 4);
  compute_moments(f, m0);
  advect_velocity_axis(f, 0, accel, 1.0, SweepKernel::kAuto);
  compute_moments(f, m1);
  // du = accel * dt = 0.25.
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(m1.mean_ux.at(i, 2, 2) - m0.mean_ux.at(i, 2, 2), 0.25, 5e-3);
  // Other components untouched.
  EXPECT_NEAR(m1.mean_uy.at(2, 2, 2), m0.mean_uy.at(2, 2, 2), 1e-4);
}

TEST(Sweeps, MaxShiftHelpers) {
  auto f = make_ps(8, 8, 8.0, 2.0);
  // umax_eff = 2 - du/2 = 1.75; dx = 1.
  EXPECT_NEAR(max_position_shift(f, 1.0), 1.75, 1e-12);
  EXPECT_NEAR(max_position_shift(f, 0.5), 0.875, 1e-12);
  v6d::mesh::Grid3D<double> gx(8, 8, 8), gy(8, 8, 8), gz(8, 8, 8);
  gx.fill(0.1);
  gy.fill(-0.3);
  gz.fill(0.2);
  // du = 0.5: max |xi| = 0.3 * dt / 0.5.
  EXPECT_NEAR(max_velocity_shift(f, gx, gy, gz, 2.0), 0.3 * 2.0 / 0.5,
              1e-12);
}

TEST(Splitting, FixedAccelStepRoundTripsWithReversedKicks) {
  // Kick(+dt/2) Drift(dt) Kick(+dt/2) followed by the exact inverse
  // sequence returns the initial state up to scheme diffusion; mass must
  // be identical and the field close.  Velocity cube wide enough (6.7
  // sigma) that boundary outflow is negligible.
  auto f = make_ps(6, 12, 8.0, 2.0);
  fill_blob(f);
  auto ref = f;
  v6d::mesh::Grid3D<double> gx(6, 6, 6), gy(6, 6, 6), gz(6, 6, 6);
  gx.fill(0.05);
  gy.fill(-0.05);
  gz.fill(0.02);
  SplitStepConfig cfg;
  cfg.drift = 0.4;
  cfg.kick_pre = 0.2;
  cfg.kick_post = 0.2;
  split_step_fixed_accel(f, gx, gy, gz, cfg, periodic_halo_filler());
  SplitStepConfig back;
  back.drift = -0.4;
  back.kick_pre = -0.2;
  back.kick_post = -0.2;
  split_step_fixed_accel(f, gx, gy, gz, back, periodic_halo_filler());
  EXPECT_NEAR(f.total_mass(), ref.total_mass(), 1e-5 * ref.total_mass());
  double err = 0.0, norm = 0.0;
  const auto& d = f.dims();
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const float* va = f.block(ix, iy, iz);
        const float* vb = ref.block(ix, iy, iz);
        for (std::size_t v = 0; v < f.block_size(); ++v) {
          err += (va[v] - vb[v]) * (va[v] - vb[v]);
          norm += vb[v] * vb[v];
        }
      }
  EXPECT_LT(std::sqrt(err / norm), 0.05);
}

// ---------------------------------------------------------------------------
// Range-restricted sweeps (overlap pipeline building blocks)
// ---------------------------------------------------------------------------

void expect_bit_identical(const PhaseSpace& a, const PhaseSpace& b) {
  const auto& d = a.dims();
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const float* va = a.block(ix, iy, iz);
        const float* vb = b.block(ix, iy, iz);
        for (std::size_t v = 0; v < a.block_size(); ++v)
          ASSERT_EQ(va[v], vb[v])
              << "cell " << ix << "," << iy << "," << iz << " lane " << v;
      }
}

TEST(RangeSweeps, InteriorPlusBoundaryMatchesFullSweepBitForBit) {
  // The overlapped drift's decomposition of one axis sweep: snapshot the
  // boundary windows, advect the ghost-independent interior in place,
  // load the (already filled) ghosts, sweep the two boundary shells.  The
  // result must equal the full-line sweep bit for bit — this is the
  // property the distributed overlap=on/off equivalence rests on.
  for (int axis = 0; axis < 3; ++axis) {
    for (double drift : {0.37, -0.52}) {
      PhaseSpace full = make_ps(8, 6);
      fill_blob(full);
      PhaseSpace split = full;
      const int g = full.dims().ghost;
      const int n = full.dims().nx;

      full.fill_ghosts_periodic();
      advect_position_axis(full, axis, drift, SweepKernel::kAuto);

      split.fill_ghosts_periodic();
      PositionBoundarySlabs slabs;
      save_position_boundary(split, axis, slabs);
      advect_position_axis_range(split, axis, drift, SweepKernel::kAuto, g,
                                 n - g);
      load_position_boundary_ghosts(split, axis, slabs);
      advect_position_axis_boundary(split, axis, drift, SweepKernel::kAuto,
                                    slabs);

      expect_bit_identical(full, split);
    }
  }
}

TEST(RangeSweeps, FullRangeEqualsFullSweep) {
  PhaseSpace a = make_ps(7, 6);  // odd extent: exercises uneven ranges
  fill_blob(a);
  PhaseSpace b = a;
  a.fill_ghosts_periodic();
  b.fill_ghosts_periodic();
  advect_position_axis(a, 1, 0.43, SweepKernel::kAuto);
  advect_position_axis_range(b, 1, 0.43, SweepKernel::kAuto, 0,
                             a.dims().ny);
  expect_bit_identical(a, b);
}

TEST(RangeSweeps, BoundaryHelpersRejectThinAxes) {
  PhaseSpace f = make_ps(4, 4);  // n = 4 < 2*ghost = 6
  PositionBoundarySlabs slabs;
  EXPECT_THROW(save_position_boundary(f, 0, slabs), std::invalid_argument);
  EXPECT_THROW(advect_position_axis_boundary(f, 0, 0.1, SweepKernel::kAuto,
                                             slabs),
               std::invalid_argument);
}

}  // namespace
