#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.hpp"
#include "gravity/tree.hpp"

namespace {

using namespace v6d::gravity;
using v6d::nbody::Particles;

Particles random_particles(std::size_t n, double box, std::uint64_t seed) {
  Particles p(n);
  v6d::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    p.x[i] = rng.next_double() * box;
    p.y[i] = rng.next_double() * box;
    p.z[i] = rng.next_double() * box;
    p.id[i] = i;
  }
  p.mass = 1.0 / static_cast<double>(n);
  return p;
}

// Gaussian clumps over a uniform background, wrapped into the box: the
// dense, uneven leaves a cosmological CDM set produces.
Particles clumped_particles(std::size_t n, double box, std::uint64_t seed) {
  Particles p(n);
  v6d::Xoshiro256 rng(seed);
  constexpr int kClumps = 6;
  double centre[kClumps][3];
  for (auto& c : centre)
    for (double& v : c) v = rng.next_double() * box;
  const double sigma = 0.04 * box;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 4 == 0) {
      p.x[i] = rng.next_double() * box;
      p.y[i] = rng.next_double() * box;
      p.z[i] = rng.next_double() * box;
    } else {
      const double* c = centre[i % kClumps];
      p.x[i] = c[0] + sigma * rng.next_normal();
      p.y[i] = c[1] + sigma * rng.next_normal();
      p.z[i] = c[2] + sigma * rng.next_normal();
    }
    p.id[i] = i;
  }
  p.wrap_positions(box);
  p.mass = 1.0 / static_cast<double>(n);
  return p;
}

// The TreePM split the production runs use: rs = 1.25 PM cells on a 12^3
// mesh, rcut = 4.5 rs (~0.47 box, so a group's window crosses box/2).
PpKernelParams production_params(double box) {
  PpKernelParams params;
  params.rs = 1.25 * box / 12.0;
  params.rcut = 4.5 * params.rs;
  params.eps = 0.02 * box / 12.0;
  return params;
}

// Direct minimum-image summation at arbitrary targets; a target skips the
// source with the same index when `self` is set.
void direct_forces_at(const Particles& p, const double* tx, const double* ty,
                      const double* tz, std::size_t nt, bool self, double box,
                      const PpKernelParams& params, std::vector<double>& ax,
                      std::vector<double>& ay, std::vector<double>& az) {
  const std::size_t n = p.size();
  ax.assign(nt, 0.0);
  ay.assign(nt, 0.0);
  az.assign(nt, 0.0);
  auto mi = [box](double d) {
    if (d > 0.5 * box) return d - box;
    if (d < -0.5 * box) return d + box;
    return d;
  };
  const double eps2 = params.eps * params.eps;
  for (std::size_t t = 0; t < nt; ++t)
    for (std::size_t s = 0; s < n; ++s) {
      if (self && s == t) continue;
      const double dx = mi(p.x[s] - tx[t]);
      const double dy = mi(p.y[s] - ty[t]);
      const double dz = mi(p.z[s] - tz[t]);
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      const double r = std::sqrt(r2);
      if (params.rcut > 0.0 && r > params.rcut) continue;
      double f = p.mass / (r2 * r);
      if (params.rs > 0.0) f *= shortrange_s(r / (2.0 * params.rs));
      ax[t] += f * dx;
      ay[t] += f * dy;
      az[t] += f * dz;
    }
}

// Direct minimum-image summation reference at every particle.
void direct_forces(const Particles& p, double box,
                   const PpKernelParams& params, std::vector<double>& ax,
                   std::vector<double>& ay, std::vector<double>& az) {
  direct_forces_at(p, p.x.data(), p.y.data(), p.z.data(), p.size(), true, box,
                   params, ax, ay, az);
}

struct ForceError {
  double max_rel = 0.0;  // max over targets of |a - a_ref| / |a_ref|
  double rms = 0.0;      // rms |a - a_ref| over rms |a_ref|
};

ForceError force_error(const std::vector<double>& ax,
                       const std::vector<double>& ay,
                       const std::vector<double>& az,
                       const std::vector<double>& rx,
                       const std::vector<double>& ry,
                       const std::vector<double>& rz) {
  ForceError e;
  double ref2 = 0.0, err2 = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    const double r = rx[i] * rx[i] + ry[i] * ry[i] + rz[i] * rz[i];
    const double d = (ax[i] - rx[i]) * (ax[i] - rx[i]) +
                     (ay[i] - ry[i]) * (ay[i] - ry[i]) +
                     (az[i] - rz[i]) * (az[i] - rz[i]);
    e.max_rel = std::max(e.max_rel, std::sqrt(d / r));
    ref2 += r;
    err2 += d;
  }
  e.rms = std::sqrt(err2 / ref2);
  return e;
}

// Runs `fn` with the OpenMP team size pinned to `threads` (a no-op in a
// serial build).
template <class F>
void with_threads(int threads, F&& fn) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  fn();
  omp_set_num_threads(saved);
#else
  (void)threads;
  fn();
#endif
}

TEST(BarnesHutTree, SmallThetaMatchesDirectSummation) {
  const double box = 1.0;
  const auto p = random_particles(300, box, 99);
  PpKernelParams params;
  params.eps = 0.01;
  std::vector<double> dax, day, daz;
  direct_forces(p, box, params, dax, day, daz);

  BarnesHutTree tree(p, box, 8);
  CutoffPoly poly(3.0, 12);
  std::vector<double> tax, tay, taz;
  tree.accelerations(p, params, poly, /*theta=*/0.1, /*use_simd=*/false, tax,
                     tay, taz);
  double rms_ref = 0.0, rms_err = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    rms_ref += dax[i] * dax[i] + day[i] * day[i] + daz[i] * daz[i];
    const double ex = tax[i] - dax[i], ey = tay[i] - day[i],
                 ez = taz[i] - daz[i];
    rms_err += ex * ex + ey * ey + ez * ez;
  }
  EXPECT_LT(std::sqrt(rms_err / rms_ref), 2e-3);
}

TEST(BarnesHutTree, AccuracyDegradesGracefullyWithTheta) {
  const double box = 1.0;
  const auto p = random_particles(200, box, 7);
  PpKernelParams params;
  params.eps = 0.01;
  std::vector<double> dax, day, daz;
  direct_forces(p, box, params, dax, day, daz);
  BarnesHutTree tree(p, box, 8);
  CutoffPoly poly(3.0, 12);

  // Monopole-only acceptance: expected rms force error grows steeply with
  // the opening angle (a few 1e-4 at 0.2, percent-level at 0.5, tens of
  // percent at the aggressive 0.9).
  const double theta_values[] = {0.2, 0.5, 0.9};
  const double bounds[] = {5e-3, 5e-2, 0.5};
  for (int t = 0; t < 3; ++t) {
    std::vector<double> tax, tay, taz;
    tree.accelerations(p, params, poly, theta_values[t], false, tax, tay,
                       taz);
    double rms_ref = 0.0, rms_err = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      rms_ref += dax[i] * dax[i] + day[i] * day[i] + daz[i] * daz[i];
      const double ex = tax[i] - dax[i], ey = tay[i] - day[i],
                   ez = taz[i] - daz[i];
      rms_err += ex * ex + ey * ey + ez * ez;
    }
    const double err = std::sqrt(rms_err / rms_ref);
    EXPECT_LT(err, bounds[t]) << "theta " << theta_values[t];
  }
}

TEST(BarnesHutTree, CutoffPruningMatchesDirectCutoff) {
  const double box = 1.0;
  const auto p = random_particles(250, box, 3);
  PpKernelParams params;
  params.eps = 0.005;
  params.rs = 0.04;
  params.rcut = 4.5 * params.rs;
  std::vector<double> dax, day, daz;
  direct_forces(p, box, params, dax, day, daz);
  BarnesHutTree tree(p, box, 8);
  CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
  std::vector<double> tax, tay, taz;
  TreeStats stats;
  tree.accelerations(p, params, poly, 0.3, false, tax, tay, taz, &stats);
  double rms_ref = 1e-30, rms_err = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    rms_ref += dax[i] * dax[i] + day[i] * day[i] + daz[i] * daz[i];
    const double ex = tax[i] - dax[i], ey = tay[i] - day[i],
                 ez = taz[i] - daz[i];
    rms_err += ex * ex + ey * ey + ez * ez;
  }
  EXPECT_LT(std::sqrt(rms_err / rms_ref), 0.02);
  // Pruning must make the interaction count far below N^2.
  EXPECT_LT(stats.p2p_interactions, 250ull * 250ull / 2ull);
}

TEST(BarnesHutTree, SimdWalkMatchesScalarWalk) {
  const double box = 1.0;
  const auto p = random_particles(200, box, 21);
  PpKernelParams params;
  params.eps = 0.01;
  params.rs = 0.05;
  params.rcut = 4.5 * params.rs;
  BarnesHutTree tree(p, box, 8);
  CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
  std::vector<double> sax, say, saz, vax, vay, vaz;
  tree.accelerations(p, params, poly, 0.4, false, sax, say, saz);
  tree.accelerations(p, params, poly, 0.4, true, vax, vay, vaz);
  double norm = 1e-30;
  for (std::size_t i = 0; i < p.size(); ++i)
    norm = std::max({norm, std::fabs(sax[i]), std::fabs(say[i]),
                     std::fabs(saz[i])});
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(vax[i], sax[i], 1e-3 * norm);
    EXPECT_NEAR(vay[i], say[i], 1e-3 * norm);
    EXPECT_NEAR(vaz[i], saz[i], 1e-3 * norm);
  }
}

TEST(BarnesHutTree, TotalMassAndNodeBounds) {
  const auto p = random_particles(500, 2.0, 5);
  BarnesHutTree tree(p, 2.0, 16);
  EXPECT_NEAR(tree.total_mass(), p.mass * 500.0, 1e-12);
  EXPECT_GT(tree.node_count(), 8);
  EXPECT_LT(tree.node_count(), 2 * 500);
}

TEST(BarnesHutTree, HandlesCoincidentParticles) {
  // Degenerate input: many particles at one point must not recurse
  // infinitely (depth cap) and must produce finite forces elsewhere.
  Particles p(64);
  for (std::size_t i = 0; i < 32; ++i) {
    p.x[i] = p.y[i] = p.z[i] = 0.5;
  }
  v6d::Xoshiro256 rng(8);
  for (std::size_t i = 32; i < 64; ++i) {
    p.x[i] = rng.next_double();
    p.y[i] = rng.next_double();
    p.z[i] = rng.next_double();
  }
  p.mass = 1.0;
  BarnesHutTree tree(p, 1.0, 2);
  PpKernelParams params;
  params.eps = 0.05;
  CutoffPoly poly(3.0, 10);
  std::vector<double> ax, ay, az;
  tree.accelerations(p, params, poly, 0.5, false, ax, ay, az);
  for (double v : ax) EXPECT_TRUE(std::isfinite(v));
}

TEST(BarnesHutTree, ProductionCutoffMatchesDirectAtSmallTheta) {
  // At the production rcut/box a group's prune window reaches past box/2:
  // every pair within rcut must still be summed once, at its own minimum
  // image.  A prune bound measured from the centre of mass instead of the
  // cell's extent dropped such pairs (max relative error 3.5e-3 here).
  const double box = 1.0;
  const auto p = clumped_particles(1728, box, 2024);
  const PpKernelParams params = production_params(box);
  std::vector<double> dax, day, daz;
  direct_forces(p, box, params, dax, day, daz);
  BarnesHutTree tree(p, box, 8);
  CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
  for (const bool simd : {false, true}) {
    std::vector<double> tax, tay, taz;
    tree.accelerations(p, params, poly, 1e-3, simd, tax, tay, taz);
    EXPECT_LE(force_error(tax, tay, taz, dax, day, daz).max_rel, 1e-4)
        << "simd " << simd;
    // The production opening angle: no less accurate than the per-target
    // walk it replaced (rms 3.33e-3 on this set).
    tree.accelerations(p, params, poly, 0.6, simd, tax, tay, taz);
    EXPECT_LE(force_error(tax, tay, taz, dax, day, daz).rms, 3.33e-3)
        << "simd " << simd;
  }
}

TEST(BarnesHutTree, ExternalTargetsMatchDirectSummation) {
  // accumulate() at points that are not tree particles (the hot species of
  // NBodySolver): one singleton group per target, including targets right
  // at the box faces.
  const double box = 1.0;
  const auto p = clumped_particles(1000, box, 17);
  const PpKernelParams params = production_params(box);
  const auto targets = random_particles(300, box, 5);
  std::vector<double> tx = targets.x, ty = targets.y, tz = targets.z;
  tx[0] = 0.0;
  ty[1] = std::nextafter(box, 0.0);
  tz[2] = 0.5 * box;
  std::vector<double> dax, day, daz;
  direct_forces_at(p, tx.data(), ty.data(), tz.data(), tx.size(), false, box,
                   params, dax, day, daz);
  BarnesHutTree tree(p, box, 8);
  CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
  for (const bool simd : {false, true}) {
    std::vector<double> ax(tx.size(), 0.0), ay(tx.size(), 0.0),
        az(tx.size(), 0.0);
    tree.accumulate(tx.data(), ty.data(), tz.data(), tx.size(), params, poly,
                    1e-3, simd, ax.data(), ay.data(), az.data());
    EXPECT_LE(force_error(ax, ay, az, dax, day, daz).max_rel, 1e-4)
        << "simd " << simd;
  }
}

TEST(BarnesHutTree, StatsCountKernelPairsBySourceKind) {
  const double box = 1.0;
  const auto p = clumped_particles(1728, box, 2024);
  const PpKernelParams params = production_params(box);
  BarnesHutTree tree(p, box, 8);
  CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
  std::vector<double> ax, ay, az;
  TreeStats exact, production;
  tree.accelerations(p, params, poly, 1e-3, true, ax, ay, az, &exact);
  tree.accelerations(p, params, poly, 0.6, true, ax, ay, az, &production);
  // theta -> 0 opens every cell; the production angle accepts monopoles,
  // which replace more particle pairs than they add.
  EXPECT_EQ(exact.node_interactions, 0u);
  EXPECT_GT(production.node_interactions, 0u);
  EXPECT_LT(production.p2p_interactions + production.node_interactions,
            exact.p2p_interactions);

  // Without a cutoff every target sees every particle (itself included,
  // masked by the kernel) exactly once: N^2 pair evaluations.
  const auto q = random_particles(200, box, 4);
  BarnesHutTree open_tree(q, box, 8);
  PpKernelParams newton;
  newton.eps = 0.01;
  TreeStats all_pairs;
  open_tree.accelerations(q, newton, poly, 1e-3, true, ax, ay, az,
                          &all_pairs);
  EXPECT_EQ(all_pairs.p2p_interactions, 200u * 200u);
  EXPECT_EQ(all_pairs.node_interactions, 0u);
}

TEST(BarnesHutTree, ResultsAndStatsIndependentOfThreadCount) {
  const double box = 1.0;
  const auto p = clumped_particles(1728, box, 2024);
  const PpKernelParams params = production_params(box);
  const auto hot = random_particles(200, box, 9);
  BarnesHutTree tree(p, box, 8);
  CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);

  struct Run {
    std::vector<double> ax, ay, az, hx, hy, hz;
    TreeStats stats;
  };
  auto run = [&](int threads, bool simd) {
    Run r;
    with_threads(threads, [&] {
      tree.accelerations(p, params, poly, 0.6, simd, r.ax, r.ay, r.az,
                         &r.stats);
      r.hx.assign(hot.size(), 0.0);
      r.hy.assign(hot.size(), 0.0);
      r.hz.assign(hot.size(), 0.0);
      tree.accumulate(hot.x.data(), hot.y.data(), hot.z.data(), hot.size(),
                      params, poly, 0.6, simd, r.hx.data(), r.hy.data(),
                      r.hz.data(), &r.stats);
    });
    return r;
  };
  for (const bool simd : {false, true}) {
    const Run one = run(1, simd);
    for (const int threads : {2, 4}) {
      const Run many = run(threads, simd);
      // Bitwise: each target's sum is formed by exactly one group.
      EXPECT_EQ(many.ax, one.ax) << threads << " threads, simd " << simd;
      EXPECT_EQ(many.ay, one.ay) << threads << " threads, simd " << simd;
      EXPECT_EQ(many.az, one.az) << threads << " threads, simd " << simd;
      EXPECT_EQ(many.hx, one.hx) << threads << " threads, simd " << simd;
      EXPECT_EQ(many.hy, one.hy) << threads << " threads, simd " << simd;
      EXPECT_EQ(many.hz, one.hz) << threads << " threads, simd " << simd;
      EXPECT_EQ(many.stats.p2p_interactions, one.stats.p2p_interactions);
      EXPECT_EQ(many.stats.node_interactions, one.stats.node_interactions);
    }
  }
}

}  // namespace
