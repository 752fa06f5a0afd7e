// §5.1.2 numbers: the Phantom-GRAPE-style particle-particle kernel.
//
// Paper: 1.2e9 interactions/s with SVE vs 2.4e7 without, per A64FX core
// (a ~50x contrast).  Measured here: interactions/s of the scalar
// double-precision path and the single-precision SIMD path on this host
// (with and without the cutoff polynomial); the expected shape is a large
// SIMD win, recorded as `pp_simd_speedup` in the JSON report.
//
// A tree row puts the kernel in context: a full short-range force
// evaluation (build + group walk + kernel) on a 24^3 set at the production
// rcut/box, at 1 and 2 OpenMP threads, reported as interactions/s and
// seconds per evaluation.
#include <cstdio>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.hpp"
#include "gravity/pp_kernel.hpp"
#include "gravity/tree.hpp"
#include "gravity/treepm.hpp"
#include "harness.hpp"

namespace {

using namespace v6d::gravity;

struct Workload {
  std::vector<double> sx, sy, sz, sm, tx, ty, tz;
  std::vector<float> fsx, fsy, fsz, fsm, ftx, fty, ftz;

  Workload(std::size_t nt, std::size_t ns) {
    v6d::Xoshiro256 rng(7);
    for (std::size_t i = 0; i < ns; ++i) {
      sx.push_back(rng.next_double());
      sy.push_back(rng.next_double());
      sz.push_back(rng.next_double());
      sm.push_back(1.0);
    }
    for (std::size_t i = 0; i < nt; ++i) {
      tx.push_back(rng.next_double());
      ty.push_back(rng.next_double());
      tz.push_back(rng.next_double());
    }
    fsx.assign(sx.begin(), sx.end());
    fsy.assign(sy.begin(), sy.end());
    fsz.assign(sz.begin(), sz.end());
    fsm.assign(sm.begin(), sm.end());
    ftx.assign(tx.begin(), tx.end());
    fty.assign(ty.begin(), ty.end());
    ftz.assign(tz.begin(), tz.end());
  }
};

PpKernelParams split_params() {
  PpKernelParams p;
  p.eps = 0.01;
  p.rs = 0.08;
  p.rcut = 4.5 * p.rs;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using v6d::bench::Harness;
  using v6d::bench::scaled;
  Harness harness("pp_kernel_gflops", argc, argv);
  harness.banner("PP kernel - interactions/s, scalar vs SIMD",
               "paper §5.1.2 (Phantom-GRAPE-style kernel on A64FX)");

  const std::size_t nt = 64;
  const int reps = harness.options().get_int("reps", scaled(400, 50));
  double t_scalar_8k = 0.0, t_simd_8k = 0.0;

  for (const std::size_t ns : {std::size_t{1024}, std::size_t{8192}}) {
    Workload w(nt, ns);
    const PpKernelParams params = split_params();
    const CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
    const double interactions = static_cast<double>(nt * ns);
    const std::string suffix = std::to_string(ns);

    std::vector<double> ax(nt), ay(nt), az(nt);
    const double t_scalar = harness.time_phase(
        "pp_scalar_" + suffix, reps,
        [&] {
          pp_accumulate_scalar(w.tx.data(), w.ty.data(), w.tz.data(), nt,
                               w.sx.data(), w.sy.data(), w.sz.data(),
                               w.sm.data(), ns, params, ax.data(), ay.data(),
                               az.data());
        },
        interactions);

    std::vector<float> fax(nt), fay(nt), faz(nt);
    const double t_simd = harness.time_phase(
        "pp_simd_" + suffix, reps,
        [&] {
          pp_accumulate_simd(w.ftx.data(), w.fty.data(), w.ftz.data(), nt,
                             w.fsx.data(), w.fsy.data(), w.fsz.data(),
                             w.fsm.data(), ns, params, poly, fax.data(),
                             fay.data(), faz.data());
        },
        interactions);

    if (ns == 8192) {
      t_scalar_8k = t_scalar;
      t_simd_8k = t_simd;
    }
  }

  // No-cutoff (pure 1/r^2) variant isolates the cutoff-polynomial cost.
  {
    const std::size_t ns = 8192;
    Workload w(nt, ns);
    PpKernelParams params;
    params.eps = 0.01;
    const CutoffPoly poly(3.0, 14);
    std::vector<float> fax(nt), fay(nt), faz(nt);
    harness.time_phase(
        "pp_simd_nocutoff_8192", reps,
        [&] {
          pp_accumulate_simd(w.ftx.data(), w.fty.data(), w.ftz.data(), nt,
                             w.fsx.data(), w.fsy.data(), w.fsz.data(),
                             w.fsm.data(), ns, params, poly, fax.data(),
                             fay.data(), faz.data());
        },
        static_cast<double>(nt * ns));
  }

  // Tree row: TreePM defaults on a 12^3 PM mesh (rcut = 4.5 rs ~ 0.47 box).
  {
    const double box = 1.0;
    const v6d::gravity::TreePmOptions opt;
    const int per_side = 24;
    v6d::nbody::Particles p(static_cast<std::size_t>(per_side) * per_side *
                            per_side);
    v6d::Xoshiro256 rng(11);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p.x[i] = rng.next_double() * box;
      p.y[i] = rng.next_double() * box;
      p.z[i] = rng.next_double() * box;
    }
    p.mass = 1.0 / static_cast<double>(p.size());
    const double cell = box / 12.0;
    PpKernelParams params;
    params.rs = opt.rs_cells * cell;
    params.rcut = opt.rcut_over_rs * params.rs;
    params.eps = opt.eps_cells * cell;
    const CutoffPoly poly(opt.rcut_over_rs / 2.0, opt.cutoff_poly_degree);
    const int tree_reps = scaled(5, 1);
    std::vector<double> ax, ay, az;
    for (const int threads : {1, 2}) {
#ifdef _OPENMP
      omp_set_num_threads(threads);
#else
      if (threads > 1) continue;
#endif
      BarnesHutTree counted(p, box, opt.leaf_size);
      TreeStats stats;
      counted.accelerations(p, params, poly, opt.theta, opt.use_simd, ax, ay,
                            az, &stats);
      const double interactions = static_cast<double>(
          stats.p2p_interactions + stats.node_interactions);
      const std::string tag = "tree_24cubed_" + std::to_string(threads) + "t";
      const double t_eval = harness.time_phase(
          tag, tree_reps,
          [&] {
            BarnesHutTree tree(p, box, opt.leaf_size);
            tree.accelerations(p, params, poly, opt.theta, opt.use_simd, ax,
                               ay, az);
          },
          interactions);
      const double rate = t_eval > 0.0 ? interactions / t_eval : 0.0;
      harness.metric(tag + "_s_per_eval", t_eval, "s");
      harness.metric(tag + "_interactions_per_s", rate, "1/s");
      std::printf("  tree 24^3, %d thread(s): %.4f s/eval, %.3g "
                  "interactions/s\n",
                  threads, t_eval, rate);
    }
  }

  const double speedup = t_simd_8k > 0.0 ? t_scalar_8k / t_simd_8k : 0.0;
  harness.metric("pp_simd_speedup", speedup, "x");
  std::printf("  SIMD speedup at 8192 sources: %.2fx\n", speedup);
  return 0;
}
