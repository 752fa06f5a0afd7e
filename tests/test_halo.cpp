#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>

#include "comm/runner.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/halo.hpp"
#include "mesh/halo_plan.hpp"

namespace {

using namespace v6d;

// Global analytic value for a (grid, velocity) index.
float cell_value(int gx, int gy, int gz, std::size_t v) {
  return static_cast<float>(gx * 10000 + gy * 100 + gz) +
         static_cast<float>(v) * 1e-4f;
}

// Run the lean per-axis phase-space exchange on every axis (begin and
// finish back to back, the synchronous schedule).
void exchange_all_axes(mesh::HaloPlan& plan, vlasov::PhaseSpace& f) {
  for (int axis = 0; axis < 3; ++axis) {
    plan.begin_axis(f, axis);
    plan.finish_axis(f, axis);
  }
}

// After exchange_all_axes on a zero-initialised brick: every face ghost
// (exactly one coordinate outside the interior) holds the global periodic
// field, and the edge/corner ghosts no sweep reads stay untouched.
void expect_face_ghosts_match_global(const vlasov::PhaseSpace& f,
                                     const std::array<int, 3>& offset,
                                     const std::array<int, 3>& global,
                                     int rank) {
  const auto& dims = f.dims();
  const int g = dims.ghost;
  const int n[3] = {dims.nx, dims.ny, dims.nz};
  for (int i = -g; i < dims.nx + g; ++i)
    for (int j = -g; j < dims.ny + g; ++j)
      for (int k = -g; k < dims.nz + g; ++k) {
        const int idx[3] = {i, j, k};
        int outside = 0;
        for (int a = 0; a < 3; ++a)
          outside += idx[a] < 0 || idx[a] >= n[a] ? 1 : 0;
        if (outside == 0) continue;
        int gidx[3];
        for (int a = 0; a < 3; ++a) {
          const int m = global[static_cast<std::size_t>(a)];
          gidx[a] = ((offset[static_cast<std::size_t>(a)] + idx[a]) % m + m) %
                    m;
        }
        const float* blk = f.block(i, j, k);
        for (std::size_t v = 0; v < f.block_size(); ++v)
          ASSERT_FLOAT_EQ(blk[v], outside == 1
                                      ? cell_value(gidx[0], gidx[1], gidx[2], v)
                                      : 0.0f)
              << "rank " << rank << " cell " << i << "," << j << "," << k;
      }
}

// Independent fold reference: every rank's extended region (interior +
// ghosts) added onto the periodic global grid.  Callers deposit dyadic
// values, which double sums exactly in any order, so the reference is
// exact however the fold orders its additions.
template <class Deposit>
mesh::Grid3D<double> global_periodic_sum(comm::CartTopology& cart,
                                         const std::array<int, 3>& global,
                                         int ghost, Deposit&& deposit) {
  mesh::Grid3D<double> sum(global[0], global[1], global[2]);
  for (int r = 0; r < cart.comm().size(); ++r) {
    const mesh::BrickDecomposition d(global, cart.dims(), cart.coords_of(r));
    const auto wrap = [&](int x, int a) {
      const int m = global[static_cast<std::size_t>(a)];
      return ((d.offset(a) + x) % m + m) % m;
    };
    for (int i = -ghost; i < d.local_n(0) + ghost; ++i)
      for (int j = -ghost; j < d.local_n(1) + ghost; ++j)
        for (int k = -ghost; k < d.local_n(2) + ghost; ++k)
          sum.at(wrap(i, 0), wrap(j, 1), wrap(k, 2)) += deposit(r, i, j, k);
  }
  return sum;
}

// Dyadic per-(rank, cell) deposit: distinct enough to catch misplaced
// contributions, exact under any summation order.
double dyadic_deposit(int rank, int i, int j, int k) {
  return 1.0 + rank / 8.0 + (i + 4) / 64.0 + (j + 4) / 512.0 +
         (k + 4) / 4096.0;
}

class HaloRanks : public ::testing::TestWithParam<int> {};

TEST_P(HaloRanks, PhaseSpaceHaloMatchesGlobalPeriodicField) {
  const int p = GetParam();
  const int n_global = 8;
  const int nu = 2;
  comm::run(p, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
    mesh::BrickDecomposition dec({n_global, n_global, n_global}, cart.dims(),
                                 cart.coords());
    vlasov::PhaseSpaceDims dims;
    dims.nx = dec.local_n(0);
    dims.ny = dec.local_n(1);
    dims.nz = dec.local_n(2);
    dims.nux = dims.nuy = dims.nuz = nu;
    vlasov::PhaseSpaceGeometry geom;
    vlasov::PhaseSpace f(dims, geom);

    for (int i = 0; i < dims.nx; ++i)
      for (int j = 0; j < dims.ny; ++j)
        for (int k = 0; k < dims.nz; ++k) {
          float* blk = f.block(i, j, k);
          for (std::size_t v = 0; v < f.block_size(); ++v)
            blk[v] = cell_value(dec.offset(0) + i, dec.offset(1) + j,
                                dec.offset(2) + k, v);
        }

    mesh::HaloPlan plan(cart, dims, 900);
    exchange_all_axes(plan, f);
    expect_face_ghosts_match_global(
        f, {dec.offset(0), dec.offset(1), dec.offset(2)},
        {n_global, n_global, n_global}, comm.rank());
  });
}

TEST_P(HaloRanks, GridHaloMatchesGlobalField) {
  const int p = GetParam();
  const int n_global = 12;
  comm::run(p, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
    mesh::BrickDecomposition dec({n_global, n_global, n_global}, cart.dims(),
                                 cart.coords());
    mesh::Grid3D<double> grid(dec.local_n(0), dec.local_n(1), dec.local_n(2),
                              2);
    for (int i = 0; i < grid.nx(); ++i)
      for (int j = 0; j < grid.ny(); ++j)
        for (int k = 0; k < grid.nz(); ++k)
          grid.at(i, j, k) = (dec.offset(0) + i) * 1e4 +
                             (dec.offset(1) + j) * 1e2 + (dec.offset(2) + k);
    mesh::exchange_grid_halo(grid, cart);
    auto wrap = [&](int i) { return ((i % n_global) + n_global) % n_global; };
    for (int i = -2; i < grid.nx() + 2; ++i)
      for (int j = -2; j < grid.ny() + 2; ++j)
        for (int k = -2; k < grid.nz() + 2; ++k) {
          const double expected = wrap(dec.offset(0) + i) * 1e4 +
                                  wrap(dec.offset(1) + j) * 1e2 +
                                  wrap(dec.offset(2) + k);
          ASSERT_DOUBLE_EQ(grid.at(i, j, k), expected);
        }
  });
}

TEST_P(HaloRanks, FoldHaloAccumulatesDepositsOnce) {
  const int p = GetParam();
  const int n_global = 8;
  comm::run(p, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
    mesh::BrickDecomposition dec({n_global, n_global, n_global}, cart.dims(),
                                 cart.coords());
    mesh::Grid3D<double> grid(dec.local_n(0), dec.local_n(1), dec.local_n(2),
                              1);
    // Every rank deposits 1.0 into *every* cell of its extended region
    // (interior + ghosts).  After folding, each interior cell must hold
    // exactly the number of extended regions that cover its global index.
    for (int i = -1; i < grid.nx() + 1; ++i)
      for (int j = -1; j < grid.ny() + 1; ++j)
        for (int k = -1; k < grid.nz() + 1; ++k) grid.at(i, j, k) = 1.0;
    mesh::GridFoldPlan fold(cart, 940);
    fold.begin(grid);
    fold.finish(grid);

    // Each global cell collects one contribution per covering *image* of
    // every rank's extended region (interior + 1-cell ghost ring); with
    // few ranks per axis the same rank can cover a cell through multiple
    // periodic images (e.g. single-rank axes fold their own ghosts back).
    auto coverage = [&](int gx, int gy, int gz) {
      int count = 0;
      for (int cx = 0; cx < cart.dims()[0]; ++cx)
        for (int cy = 0; cy < cart.dims()[1]; ++cy)
          for (int cz = 0; cz < cart.dims()[2]; ++cz) {
            mesh::BrickDecomposition d2(
                {n_global, n_global, n_global}, cart.dims(), {cx, cy, cz});
            auto images = [&](int g, int axis) {
              int n_img = 0;
              for (int img = -1; img <= 1; ++img) {
                const int local = g + img * n_global - d2.offset(axis);
                if (local >= -1 && local <= d2.local_n(axis)) ++n_img;
              }
              return n_img;
            };
            count += images(gx, 0) * images(gy, 1) * images(gz, 2);
          }
      return count;
    };
    for (int i = 0; i < grid.nx(); ++i)
      for (int j = 0; j < grid.ny(); ++j)
        for (int k = 0; k < grid.nz(); ++k) {
          const int expected = coverage(dec.offset(0) + i, dec.offset(1) + j,
                                        dec.offset(2) + k);
          ASSERT_DOUBLE_EQ(grid.at(i, j, k), expected)
              << i << " " << j << " " << k;
        }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, HaloRanks, ::testing::Values(1, 2, 4, 8));

TEST(HaloValidation, RejectsDecomposedAxisThinnerThanGhost) {
  // 4 cells split over 4 ranks -> local extent 1 < ghost 3: the pack would
  // read out-of-range interior; the exchange must refuse instead.
  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  mesh::BrickDecomposition dec({4, 4, 4}, cart.dims(),
                                               cart.coords());
                  vlasov::PhaseSpaceDims dims;
                  dims.nx = dec.local_n(0);
                  dims.ny = dec.local_n(1);
                  dims.nz = dec.local_n(2);
                  dims.nux = dims.nuy = dims.nuz = 2;
                  mesh::HaloPlan plan(cart, dims, 900);
                }),
      std::invalid_argument);

  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  mesh::Grid3D<double> grid(1, 8, 8, 2);  // 1 < ghost 2
                  mesh::exchange_grid_halo(grid, cart);
                }),
      std::invalid_argument);

  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  mesh::Grid3D<double> grid(1, 8, 8, 2);
                  mesh::GridFoldPlan fold(cart, 940);
                  fold.begin(grid);
                  fold.finish(grid);
                }),
      std::invalid_argument);
}

TEST(HaloValidation, UndecomposedAxisThinnerThanGhostWrapsPeriodically) {
  // ny = nz = 2 with ghost 3 (the quasi-1D two_stream shape): the halo of
  // the undecomposed axes must be the periodic wrap — a self-send of
  // "interior slabs" would read out-of-range cells.
  const int n_global = 8, thin = 2, nu = 2;
  comm::run(2, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 1, 1});
    mesh::BrickDecomposition dec({n_global, thin, thin}, cart.dims(),
                                 cart.coords());
    vlasov::PhaseSpaceDims dims;
    dims.nx = dec.local_n(0);
    dims.ny = thin;
    dims.nz = thin;
    dims.nux = dims.nuy = dims.nuz = nu;
    vlasov::PhaseSpaceGeometry geom;
    vlasov::PhaseSpace f(dims, geom);
    for (int i = 0; i < dims.nx; ++i)
      for (int j = 0; j < dims.ny; ++j)
        for (int k = 0; k < dims.nz; ++k) {
          float* blk = f.block(i, j, k);
          for (std::size_t v = 0; v < f.block_size(); ++v)
            blk[v] = cell_value(dec.offset(0) + i, j, k, v);
        }

    mesh::HaloPlan plan(cart, dims, 900);
    exchange_all_axes(plan, f);
    expect_face_ghosts_match_global(f, {dec.offset(0), 0, 0},
                                    {n_global, thin, thin}, comm.rank());
  });
}

TEST(HaloValidation, FoldAcrossThinUndecomposedAxesAccumulatesOnce) {
  // Deposit-style fold on an (8, 2, 2) grid split 2 ways along x; the thin
  // y/z axes (extent 2 < ghost 2+... ) wrap multiple times, so the fold
  // must place every ghost contribution on its periodic image exactly
  // once.  With all-ones deposits the result is a pure coverage count, and
  // the fold must conserve the deposited total.
  const int nx = 8, thin = 2, ghost = 2;
  comm::run(2, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 1, 1});
    mesh::BrickDecomposition dec({nx, thin, thin}, cart.dims(),
                                 cart.coords());
    mesh::Grid3D<double> grid(dec.local_n(0), thin, thin, ghost);
    for (int i = -ghost; i < grid.nx() + ghost; ++i)
      for (int j = -ghost; j < thin + ghost; ++j)
        for (int k = -ghost; k < thin + ghost; ++k) grid.at(i, j, k) = 1.0;
    const double deposited =
        static_cast<double>(grid.nx() + 2 * ghost) * (thin + 2 * ghost) *
        (thin + 2 * ghost);
    mesh::GridFoldPlan fold(cart, 940);
    fold.begin(grid);
    fold.finish(grid);

    // Images of global index g covered by an extended region of extent
    // `local` at `off` along an axis of global size `n` (multi-wrap aware).
    auto images = [&](int g, int n, int off, int local) {
      int count = 0;
      for (int img = -2; img <= 2; ++img) {
        const int local_idx = g + img * n - off;
        if (local_idx >= -ghost && local_idx < local + ghost) ++count;
      }
      return count;
    };
    for (int i = 0; i < grid.nx(); ++i)
      for (int j = 0; j < thin; ++j)
        for (int k = 0; k < thin; ++k) {
          int expected = 0;
          for (int cx = 0; cx < 2; ++cx) {
            mesh::BrickDecomposition d2({nx, thin, thin}, cart.dims(),
                                        {cx, 0, 0});
            expected += images(dec.offset(0) + i, nx, d2.offset(0),
                               d2.local_n(0)) *
                        images(j, thin, 0, thin) * images(k, thin, 0, thin);
          }
          ASSERT_DOUBLE_EQ(grid.at(i, j, k), expected)
              << i << " " << j << " " << k;
        }

    // Conservation: nothing deposited is lost or duplicated.
    const double total = comm.allreduce_sum(grid.sum_interior());
    EXPECT_DOUBLE_EQ(total, 2.0 * deposited);
  });
}

// ---------------------------------------------------------------------------
// Split (overlapped) exchange plans
// ---------------------------------------------------------------------------

TEST(HaloPlan, AxisRangesMatchDecomposition) {
  comm::run(4, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 2, 1});
    mesh::BrickDecomposition dec({8, 8, 8}, cart.dims(), cart.coords());
    vlasov::PhaseSpaceDims dims;
    dims.nx = dec.local_n(0);  // 4
    dims.ny = dec.local_n(1);  // 4
    dims.nz = dec.local_n(2);  // 8
    dims.nux = dims.nuy = dims.nuz = 2;
    mesh::HaloPlan plan(cart, dims, 900);

    // x and y are decomposed; local extent 4 < 2*ghost = 6, so the split
    // (interior/boundary) pipeline is not eligible there.
    EXPECT_TRUE(plan.axis(0).decomposed);
    EXPECT_FALSE(plan.axis(0).split);
    EXPECT_TRUE(plan.axis(1).decomposed);
    EXPECT_FALSE(plan.axis(1).split);
    // z lives wholly on this rank.
    EXPECT_FALSE(plan.axis(2).decomposed);
    EXPECT_FALSE(plan.axis(2).split);

    // Interior transverse extents, ascending-axis order.
    EXPECT_EQ(plan.axis(0).n, 4);
    EXPECT_EQ(plan.axis(0).t1n, 4);   // y
    EXPECT_EQ(plan.axis(0).t2n, 8);   // z
    EXPECT_EQ(plan.axis(2).t1n, 4);   // x
    EXPECT_EQ(plan.axis(2).t2n, 4);   // y
    // One face = ghost layers x interior transverse x velocity block.
    EXPECT_EQ(plan.axis(0).face_floats,
              static_cast<std::size_t>(3) * 4 * 8 * 8);
  });
}

TEST(HaloPlan, SplitAxisExchangeFillsAxisGhosts) {
  // begin/finish per axis must deliver exactly the ghost blocks the
  // position sweep of that axis reads: the axis ghosts at interior
  // transverse positions, equal to the global periodic field.
  const int n_global = 12, nu = 2;
  comm::run(4, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 2, 1});
    mesh::BrickDecomposition dec({n_global, n_global, n_global}, cart.dims(),
                                 cart.coords());
    vlasov::PhaseSpaceDims dims;
    dims.nx = dec.local_n(0);
    dims.ny = dec.local_n(1);
    dims.nz = dec.local_n(2);
    dims.nux = dims.nuy = dims.nuz = nu;
    vlasov::PhaseSpace f(dims, vlasov::PhaseSpaceGeometry{});
    for (int i = 0; i < dims.nx; ++i)
      for (int j = 0; j < dims.ny; ++j)
        for (int k = 0; k < dims.nz; ++k) {
          float* blk = f.block(i, j, k);
          for (std::size_t v = 0; v < f.block_size(); ++v)
            blk[v] = cell_value(dec.offset(0) + i, dec.offset(1) + j,
                                dec.offset(2) + k, v);
        }
    mesh::HaloPlan plan(cart, dims, 900);
    const int g = dims.ghost;
    auto wrap = [&](int i) { return ((i % n_global) + n_global) % n_global; };
    const int n_axis[3] = {dims.nx, dims.ny, dims.nz};
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_TRUE(plan.axis(axis).split || axis == 2);
      plan.begin_axis(f, axis);
      plan.finish_axis(f, axis);
      for (int a = -g; a < n_axis[axis] + g; ++a) {
        if (a >= 0 && a < n_axis[axis]) continue;  // interior untouched
        for (int t1 = 0; t1 < plan.axis(axis).t1n; ++t1)
          for (int t2 = 0; t2 < plan.axis(axis).t2n; ++t2) {
            int idx[3];
            idx[axis] = a;
            int tpos = 0;
            for (int t = 0; t < 3; ++t) {
              if (t == axis) continue;
              idx[t] = tpos == 0 ? t1 : t2;
              ++tpos;
            }
            const float* blk = f.block(idx[0], idx[1], idx[2]);
            const int gx = wrap(dec.offset(0) + idx[0]);
            const int gy = wrap(dec.offset(1) + idx[1]);
            const int gz = wrap(dec.offset(2) + idx[2]);
            for (std::size_t v = 0; v < f.block_size(); ++v)
              ASSERT_FLOAT_EQ(blk[v], cell_value(gx, gy, gz, v))
                  << "axis " << axis << " cell " << idx[0] << "," << idx[1]
                  << "," << idx[2];
          }
      }
    }
  });
}

TEST(HaloPlan, RejectsDecomposedAxisThinnerThanGhost) {
  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  vlasov::PhaseSpaceDims dims;
                  dims.nx = 1;  // < ghost 3 on a decomposed axis
                  dims.ny = dims.nz = 4;
                  dims.nux = dims.nuy = dims.nuz = 2;
                  mesh::HaloPlan plan(cart, dims, 900);
                }),
      std::invalid_argument);
}

TEST(GridFoldPlan, SplitFoldMatchesGlobalPeriodicSum) {
  // begin/finish with local work between the halves must put every
  // deposit, ghosts included, onto its periodic owner exactly once: the
  // folded interior equals the independently assembled global sum bit for
  // bit, and the ghosts are drained to zero.
  const int n_global = 8, ghost = 2;
  for (int p : {1, 2, 4, 8}) {
    comm::run(p, [&](comm::Communicator& comm) {
      comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
      mesh::BrickDecomposition dec({n_global, n_global, n_global},
                                   cart.dims(), cart.coords());
      mesh::Grid3D<double> grid(dec.local_n(0), dec.local_n(1),
                                dec.local_n(2), ghost);
      for (int i = -ghost; i < grid.nx() + ghost; ++i)
        for (int j = -ghost; j < grid.ny() + ghost; ++j)
          for (int k = -ghost; k < grid.nz() + ghost; ++k)
            grid.at(i, j, k) = dyadic_deposit(comm.rank(), i, j, k);
      const auto expected = global_periodic_sum(
          cart, {n_global, n_global, n_global}, ghost, dyadic_deposit);

      mesh::GridFoldPlan plan(cart, 940);
      plan.begin(grid);
      double sink = 0.0;  // "interior work" between the halves
      for (int w = 0; w < 100; ++w) sink += std::sqrt(1.0 + w);
      plan.finish(grid);
      ASSERT_GT(sink, 0.0);

      for (int i = -ghost; i < grid.nx() + ghost; ++i)
        for (int j = -ghost; j < grid.ny() + ghost; ++j)
          for (int k = -ghost; k < grid.nz() + ghost; ++k) {
            const bool interior = i >= 0 && i < grid.nx() && j >= 0 &&
                                  j < grid.ny() && k >= 0 && k < grid.nz();
            ASSERT_EQ(grid.at(i, j, k),
                      interior ? expected.at(dec.offset(0) + i,
                                             dec.offset(1) + j,
                                             dec.offset(2) + k)
                               : 0.0)
                << p << " ranks, cell " << i << " " << j << " " << k;
          }
    });
  }
}

TEST(GridFoldPlan, ThinUndecomposedAxesMatchGlobalPeriodicSum) {
  // The quasi-1D two_stream shape: y/z wrap multiple times locally.
  const int nx = 8, thin = 2, ghost = 2;
  comm::run(2, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 1, 1});
    mesh::BrickDecomposition dec({nx, thin, thin}, cart.dims(),
                                 cart.coords());
    mesh::Grid3D<double> grid(dec.local_n(0), thin, thin, ghost);
    for (int i = -ghost; i < grid.nx() + ghost; ++i)
      for (int j = -ghost; j < thin + ghost; ++j)
        for (int k = -ghost; k < thin + ghost; ++k)
          grid.at(i, j, k) = dyadic_deposit(comm.rank(), i, j, k);
    const auto expected =
        global_periodic_sum(cart, {nx, thin, thin}, ghost, dyadic_deposit);
    mesh::GridFoldPlan plan(cart, 940);
    plan.begin(grid);
    plan.finish(grid);
    for (int i = 0; i < grid.nx(); ++i)
      for (int j = 0; j < thin; ++j)
        for (int k = 0; k < thin; ++k)
          ASSERT_EQ(grid.at(i, j, k), expected.at(dec.offset(0) + i, j, k))
              << i << " " << j << " " << k;
  });
}

}  // namespace
