#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/timer.hpp"
#include "gravity/tree.hpp"
#include "mesh/halo.hpp"
#include "mesh/interp.hpp"
#include "nbody/integrator.hpp"
#include "vlasov/moments.hpp"
#include "vlasov/splitting.hpp"

namespace perfbench {

using v6d::Stopwatch;
using v6d::mesh::Assignment;
using v6d::mesh::Grid3D;
namespace gravity = v6d::gravity;
namespace hybrid = v6d::hybrid;
namespace mesh = v6d::mesh;
namespace nbody = v6d::nbody;
namespace vlasov = v6d::vlasov;

namespace {

// Tag bases of the replay's split exchanges: disjoint from the solver's
// (300..391) and the blocking exchanges (100..250).
constexpr int kPsHaloTag = 500;
constexpr int kFoldCdmTag = 540;
constexpr int kFoldNuTag = 560;
constexpr int kSlabCdmTag = 580;
constexpr int kSlabNuTag = 584;
constexpr int kSlabOutTag = 588;

/// Scheduled step checked against the solver's CFL search (the same
/// backoff iteration suggest_next_a runs).
bool within_cfl(double a0, double a1, double cfl,
                const std::function<double(double)>& max_shift) {
  return hybrid::cfl_limited_step(a0, a1 - a0, cfl, max_shift) >= a1;
}

/// The Barnes-Hut short-range block of hybrid::add_tree_accelerations,
/// with the walk's TreeStats collected.
void tree_accelerations(const nbody::Particles& cdm, double box,
                        const hybrid::HybridOptions& options,
                        const hybrid::TreePmDerived& derived, double prefactor,
                        std::vector<double>& ax, std::vector<double>& ay,
                        std::vector<double>& az, ReplayCounts& counts) {
  if (!options.enable_tree || cdm.size() == 0) return;
  const double g_pair = prefactor / (4.0 * M_PI);
  gravity::BarnesHutTree tree(cdm, box, options.treepm.leaf_size);
  gravity::PpKernelParams params;
  params.eps = derived.eps;
  params.rs = derived.rs;
  params.rcut = derived.rcut;
  std::vector<double> tx(cdm.size(), 0.0), ty(cdm.size(), 0.0),
      tz(cdm.size(), 0.0);
  gravity::TreeStats stats;
  tree.accelerations(cdm, params, derived.poly, options.treepm.theta,
                     options.treepm.use_simd, tx, ty, tz, &stats);
  for (std::size_t i = 0; i < cdm.size(); ++i) {
    ax[i] += g_pair * tx[i];
    ay[i] += g_pair * ty[i];
    az[i] += g_pair * tz[i];
  }
  counts.tree_interactions += stats.p2p_interactions + stats.node_interactions;
  counts.tree_computed += cdm.size();
}

/// CIC injection of the Vlasov density moment onto a PM mesh (the
/// solvers' deposit_nu_density / inject_nu_density loop).
void inject_density(const vlasov::PhaseSpace& f, const Grid3D<double>& rho_v,
                    const mesh::MeshPatch& patch, Grid3D<double>& rho) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  rho.fill(0.0);
  const double cell_mass_factor = g.dvol();
  std::vector<double> px(1), py(1), pz(1);
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        px[0] = g.x(ix);
        py[0] = g.y(iy);
        pz[0] = g.z(iz);
        const double mass = rho_v.at(ix, iy, iz) * cell_mass_factor;
        mesh::deposit(rho, patch, px, py, pz, mass, Assignment::kCic);
      }
}

/// CIC sampling of a mesh force set at the Vlasov cell centers.
void sample_on_vlasov_grid(const vlasov::PhaseSpace& f,
                           const mesh::MeshPatch& patch,
                           const Grid3D<double>& gx, const Grid3D<double>& gy,
                           const Grid3D<double>& gz, Grid3D<double>& ax,
                           Grid3D<double>& ay, Grid3D<double>& az) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const double x = g.x(ix), y = g.y(iy), z = g.z(iz);
        ax.at(ix, iy, iz) = mesh::interpolate(gx, patch, x, y, z,
                                              Assignment::kCic);
        ay.at(ix, iy, iz) = mesh::interpolate(gy, patch, x, y, z,
                                              Assignment::kCic);
        az.at(ix, iy, iz) = mesh::interpolate(gz, patch, x, y, z,
                                              Assignment::kCic);
      }
}

struct ForceOptions {
  gravity::PoissonOptions cdm_full, cdm_long, nu;
};

ForceOptions force_options(double a, const hybrid::HybridOptions& options,
                           const hybrid::TreePmDerived& derived) {
  ForceOptions o;
  o.cdm_full.prefactor = hybrid::HybridSolver::poisson_prefactor(a);
  o.cdm_full.deconvolve_order = 2;  // CIC
  o.cdm_full.green = gravity::GreenFunction::kExactK2;
  o.cdm_long = o.cdm_full;
  o.cdm_long.longrange_split_rs = options.enable_tree ? derived.rs : 0.0;
  o.nu.prefactor = o.cdm_full.prefactor;
  o.nu.deconvolve_order = 0;
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// SerialReplay — hybrid::HybridSolver::step
// ---------------------------------------------------------------------------

SerialReplay::SerialReplay(const hybrid::HybridSolver& solver)
    : f_(solver.neutrinos()),
      cdm_(solver.cdm()),
      box_(solver.box()),
      background_(solver.background()),
      options_(solver.options()),
      derived_(hybrid::TreePmDerived::from(solver.options(), solver.box())),
      poisson_(solver.options().pm_grid, solver.box()),
      has_nu_(solver.neutrinos().dims().total_interior() > 0),
      forces_(solver.export_step_forces()) {
  patch_.box = box_;
  patch_.n_global = options_.pm_grid;
  const int n = options_.pm_grid;
  for (auto* g : {&rho_cdm_, &rho_nu_, &gx_cdm_, &gy_cdm_, &gz_cdm_, &gx_nu_,
                  &gy_nu_, &gz_nu_, &tx_, &ty_, &tz_})
    *g = Grid3D<double>(n, n, n, 2);
  const auto& d = f_.dims();
  rho_v_ = Grid3D<double>(d.nx, d.ny, d.nz);
  if (!forces_.fresh) {
    forces_.nu_ax = Grid3D<double>(d.nx, d.ny, d.nz);
    forces_.nu_ay = forces_.nu_ax;
    forces_.nu_az = forces_.nu_ax;
  }
}

void SerialReplay::compute_forces(double a, Trace& trace,
                                  ReplayCounts& counts) {
  const ForceOptions o = force_options(a, options_, derived_);
  const int n = options_.pm_grid;
  {
    Trace::Scope s(trace, "mesh.deposit");
    rho_cdm_.fill(0.0);
    mesh::deposit(rho_cdm_, patch_, cdm_.x, cdm_.y, cdm_.z, cdm_.mass,
                  Assignment::kCic);
  }
  {
    Trace::Scope s(trace, "comm.wait");
    rho_cdm_.fold_ghosts_periodic();
  }
  if (has_nu_) {
    {
      Trace::Scope s(trace, "vlasov.moments");
      vlasov::compute_density(f_, rho_v_);
    }
    {
      Trace::Scope s(trace, "mesh.deposit");
      inject_density(f_, rho_v_, patch_, rho_nu_);
    }
    Trace::Scope s(trace, "comm.wait");
    rho_nu_.fold_ghosts_periodic();
  }
  {
    Trace::Scope s(trace, "gravity.pm");
    const double points = 4.0 * n * n * n;  // 1 forward + 3 inverse
    {
      Trace::Scope f(trace, "fft");
      poisson_.solve_forces(rho_cdm_, gx_cdm_, gy_cdm_, gz_cdm_, o.cdm_long);
      poisson_.solve_forces(rho_cdm_, gx_nu_, gy_nu_, gz_nu_, o.cdm_full);
      counts.fft_points += 2 * points;
    }
    if (has_nu_) {
      {
        Trace::Scope f(trace, "fft");
        poisson_.solve_forces(rho_nu_, tx_, ty_, tz_, o.nu);
        counts.fft_points += points;
      }
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
          for (int k = 0; k < n; ++k) {
            gx_cdm_.at(i, j, k) += tx_.at(i, j, k);
            gy_cdm_.at(i, j, k) += ty_.at(i, j, k);
            gz_cdm_.at(i, j, k) += tz_.at(i, j, k);
            gx_nu_.at(i, j, k) += tx_.at(i, j, k);
            gy_nu_.at(i, j, k) += ty_.at(i, j, k);
            gz_nu_.at(i, j, k) += tz_.at(i, j, k);
          }
    }
  }
  {
    Trace::Scope s(trace, "comm.wait");
    for (auto* g : {&gx_cdm_, &gy_cdm_, &gz_cdm_, &gx_nu_, &gy_nu_, &gz_nu_})
      g->fill_ghosts_periodic();
  }
  {
    Trace::Scope s(trace, "gravity.pm");
    forces_.ax.assign(cdm_.size(), 0.0);
    forces_.ay.assign(cdm_.size(), 0.0);
    forces_.az.assign(cdm_.size(), 0.0);
    mesh::gather_forces(gx_cdm_, gy_cdm_, gz_cdm_, patch_, cdm_.x, cdm_.y,
                        cdm_.z, forces_.ax, forces_.ay, forces_.az,
                        Assignment::kCic);
    if (has_nu_)
      sample_on_vlasov_grid(f_, patch_, gx_nu_, gy_nu_, gz_nu_, forces_.nu_ax,
                            forces_.nu_ay, forces_.nu_az);
  }
  {
    Trace::Scope s(trace, "gravity.tree");
    const std::size_t before = counts.tree_computed;
    tree_accelerations(cdm_, box_, options_, derived_,
                       hybrid::HybridSolver::poisson_prefactor(a), forces_.ax,
                       forces_.ay, forces_.az, counts);
    counts.tree_kept += counts.tree_computed - before;
  }
  forces_.fresh = true;
}

void SerialReplay::step(double a0, double a1, Trace& trace,
                        ReplayCounts& counts) {
  Trace::Scope root(trace, "step");
  {
    Trace::Scope s(trace, "driver.step_control");
    if (has_nu_ &&
        !within_cfl(a0, a1, options_.cfl, [&](double a) {
          return vlasov::max_position_shift(
              f_, background_.drift_factor(a0, a));
        }))
      ++counts.cfl_violations;
  }
  const double a_mid = 0.5 * (a0 + a1);
  if (!forces_.fresh) compute_forces(a0, trace, counts);

  const auto kick = [&](double factor) {
    if (has_nu_) {
      Trace::Scope s(trace, "vlasov.kick");
      vlasov::kick_half(f_, forces_.nu_ax, forces_.nu_ay, forces_.nu_az,
                        factor, options_.kernel);
    }
    Trace::Scope s(trace, "nbody.integrate");
    nbody::kick(cdm_, forces_.ax, forces_.ay, forces_.az, factor);
  };

  kick(background_.kick_factor(a0, a_mid));
  const double drift_f = background_.drift_factor(a0, a1);
  if (has_nu_) {
    Trace::Scope s(trace, "vlasov.drift");
    const auto periodic = vlasov::periodic_halo_filler();
    vlasov::drift_full(f_, drift_f, options_.kernel,
                       [&](vlasov::PhaseSpace& f) {
                         Trace::Scope h(trace, "comm.wait");
                         periodic(f);
                       });
  }
  {
    Trace::Scope s(trace, "nbody.integrate");
    nbody::drift(cdm_, drift_f, box_);
  }
  compute_forces(a1, trace, counts);
  kick(background_.kick_factor(a_mid, a1));
}

// ---------------------------------------------------------------------------
// DistributedReplay — parallel::DistributedHybridSolver::step, overlap on
// ---------------------------------------------------------------------------

DistributedReplay::DistributedReplay(
    const hybrid::HybridSolver& global,
    v6d::parallel::DistributedHybridSolver& ds, v6d::comm::Communicator& comm,
    std::array<int, 3> decomp)
    : comm_(comm),
      cart_(comm, decomp),
      pfft_(comm, global.options().pm_grid),
      f_(ds.local_f()),
      cdm_(ds.cdm()),
      box_(global.box()),
      background_(global.background()),
      options_(global.options()),
      derived_(hybrid::TreePmDerived::from(global.options(), global.box())),
      has_nu_(ds.has_neutrinos()),
      // The solver splits sweeps when rank threads can run concurrently
      // (V6D_OVERLAP_SPLIT unset).
      split_sweeps_(std::thread::hardware_concurrency() > 1) {
  dec_ = ds.decomposition();
  const int n = options_.pm_grid;
  pm_dec_ = mesh::BrickDecomposition({n, n, n}, decomp, cart_.coords());
  patch_.box = box_;
  patch_.n_global = n;
  for (int a = 0; a < 3; ++a) patch_.offset[a] = pm_dec_.offset(a);

  const int lx = pm_dec_.local_n(0), ly = pm_dec_.local_n(1),
            lz = pm_dec_.local_n(2);
  for (auto* g : {&rho_cdm_, &rho_nu_, &gx_cdm_, &gy_cdm_, &gz_cdm_, &gx_nu_,
                  &gy_nu_, &gz_nu_})
    *g = Grid3D<double>(lx, ly, lz, 2);
  nu_ax_ = Grid3D<double>(dec_.local_n(0), dec_.local_n(1), dec_.local_n(2));
  nu_ay_ = nu_ax_;
  nu_az_ = nu_ax_;
  if (has_nu_) {
    rho_v_ = nu_ax_;
    ps_plan_ = mesh::HaloPlan(cart_, f_.dims(), kPsHaloTag);
  }
  fold_cdm_ = mesh::GridFoldPlan(cart_, kFoldCdmTag);
  fold_nu_ = mesh::GridFoldPlan(cart_, kFoldNuTag);
  slab_cdm_x_ = v6d::parallel::SlabExchange(pm_dec_, pfft_, cart_, kSlabCdmTag);
  if (has_nu_)
    slab_nu_x_ = v6d::parallel::SlabExchange(pm_dec_, pfft_, cart_, kSlabNuTag);
  slab_out_ = v6d::parallel::SlabExchange(pm_dec_, pfft_, cart_, kSlabOutTag);

  const StepForces sf = ds.export_step_forces_global();  // collective
  if (sf.fresh) {
    for (int i = 0; i < dec_.local_n(0); ++i)
      for (int j = 0; j < dec_.local_n(1); ++j)
        for (int k = 0; k < dec_.local_n(2); ++k) {
          const int gi = dec_.offset(0) + i, gj = dec_.offset(1) + j,
                    gk = dec_.offset(2) + k;
          nu_ax_.at(i, j, k) = sf.nu_ax.at(gi, gj, gk);
          nu_ay_.at(i, j, k) = sf.nu_ay.at(gi, gj, gk);
          nu_az_.at(i, j, k) = sf.nu_az.at(gi, gj, gk);
        }
    ax_ = sf.ax;
    ay_ = sf.ay;
    az_ = sf.az;
    forces_fresh_ = true;
  }
}

bool DistributedReplay::owns_particle(std::size_t i) const {
  const int n = options_.pm_grid;
  const double inv_h = n / box_;
  const double pos[3] = {cdm_.x[i], cdm_.y[i], cdm_.z[i]};
  for (int axis = 0; axis < 3; ++axis) {
    double c = pos[axis] * inv_h;
    c -= n * std::floor(c / n);
    const int cell = std::min(n - 1, static_cast<int>(std::floor(c)));
    if (cell < pm_dec_.offset(axis) ||
        cell >= pm_dec_.offset(axis) + pm_dec_.local_n(axis))
      return false;
  }
  return true;
}

void DistributedReplay::compute_forces(double a, Trace& trace,
                                       ReplayCounts& counts) {
  const ForceOptions o = force_options(a, options_, derived_);
  const int n = options_.pm_grid;

  owned_.clear();
  for (std::size_t i = 0; i < cdm_.size(); ++i)
    if (owns_particle(i)) owned_.push_back(i);

  // Densities: the CDM fold flies while the Vlasov moment accumulates.
  {
    Trace::Scope s(trace, "mesh.deposit");
    rho_cdm_.fill(0.0);
    std::vector<double> px, py, pz;
    px.reserve(owned_.size());
    py.reserve(owned_.size());
    pz.reserve(owned_.size());
    for (const std::size_t i : owned_) {
      px.push_back(cdm_.x[i]);
      py.push_back(cdm_.y[i]);
      pz.push_back(cdm_.z[i]);
    }
    if (cdm_.size() > 0)
      mesh::deposit(rho_cdm_, patch_, px, py, pz, cdm_.mass,
                    Assignment::kCic);
  }
  {
    Trace::Scope s(trace, "comm.post");
    fold_cdm_.begin(rho_cdm_);
  }
  if (has_nu_) {
    Trace::Scope s(trace, "vlasov.moments");
    vlasov::compute_density(f_, rho_v_);
  }
  {
    Trace::Scope s(trace, "comm.wait");
    fold_cdm_.finish(rho_cdm_);
  }
  if (has_nu_) {
    {
      Trace::Scope s(trace, "mesh.deposit");
      inject_density(f_, rho_v_, patch_, rho_nu_);
    }
    Trace::Scope s(trace, "comm.post");
    fold_nu_.begin(rho_nu_);
  }

  {
    Trace::Scope pm(trace, "gravity.pm");
    const double local_points = static_cast<double>(n) * n * n / comm_.size();
    {
      Trace::Scope s(trace, "comm.post");
      slab_cdm_x_.begin_to_slab(rho_cdm_);
    }
    {
      // Green x window tables (DistributedHybridSolver::prepare_green_tables).
      const int lny = pfft_.local_ny();
      const std::size_t modes = static_cast<std::size_t>(lny) * n * n;
      green_long_.resize(modes);
      green_short_.resize(modes);
      if (has_nu_) green_nu_.resize(modes);
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static)
#endif
      for (int y = 0; y < lny; ++y)
        for (int x = 0; x < n; ++x) {
          const int by = pfft_.y_offset() + y;
          std::size_t m = (static_cast<std::size_t>(y) * n + x) * n;
          for (int z = 0; z < n; ++z, ++m) {
            green_long_[m] = gravity::green_times_window(
                x, by, z, n, n, n, box_, box_, box_, o.cdm_long);
            green_short_[m] = gravity::green_times_window(
                x, by, z, n, n, n, box_, box_, box_, o.cdm_full);
            if (has_nu_)
              green_nu_[m] = gravity::green_times_window(
                  x, by, z, n, n, n, box_, box_, box_, o.nu);
          }
        }
    }
    if (has_nu_) {
      {
        Trace::Scope s(trace, "comm.wait");
        fold_nu_.finish(rho_nu_);
      }
      Trace::Scope s(trace, "comm.post");
      slab_nu_x_.begin_to_slab(rho_nu_);
    }
    std::vector<v6d::fft::cplx>* slab_cdm = nullptr;
    std::vector<v6d::fft::cplx>* slab_nu = nullptr;
    {
      Trace::Scope s(trace, "comm.wait");
      slab_cdm = &slab_cdm_x_.finish_to_slab();
    }
    {
      Trace::Scope s(trace, "fft");
      pfft_.forward(*slab_cdm);
      counts.fft_points += local_points;
    }
    if (has_nu_) {
      {
        Trace::Scope s(trace, "comm.wait");
        slab_nu = &slab_nu_x_.finish_to_slab();
      }
      Trace::Scope s(trace, "fft");
      pfft_.forward(*slab_nu);
      counts.fft_points += local_points;
    }

    auto solve_set = [&](const std::vector<double>& green, Grid3D<double>& gx,
                         Grid3D<double>& gy, Grid3D<double>& gz) {
      phi_.resize(slab_cdm->size());
      std::size_t m = 0;
      pfft_.for_each_mode(*slab_cdm, [&](int, int, int, v6d::fft::cplx& v) {
        v6d::fft::cplx phi_k = v * green[m];
        if (has_nu_) phi_k += (*slab_nu)[m] * green_nu_[m];
        phi_[m] = phi_k;
        ++m;
      });
      Grid3D<double>* outs[3] = {&gx, &gy, &gz};
      const auto complete = [&](Grid3D<double>& out) {
        Trace::Scope s(trace, "comm.wait");
        slab_out_.finish_to_brick(out);
        mesh::exchange_grid_halo(out, cart_);
      };
      for (int d = 0; d < 3; ++d) {
        spec_.resize(phi_.size());
        m = 0;
        pfft_.for_each_mode(spec_, [&](int bx, int by, int bz,
                                       v6d::fft::cplx& s) {
          const int bin = d == 0 ? bx : d == 1 ? by : bz;
          const double k_d = gravity::fft_wavenumber(bin, n, box_);
          s = v6d::fft::cplx(0.0, -1.0) * k_d * phi_[m];
          ++m;
        });
        {
          Trace::Scope s(trace, "fft");
          pfft_.inverse_normalized(spec_);
          counts.fft_points += local_points;
        }
        if (d > 0) complete(*outs[d - 1]);
        Trace::Scope s(trace, "comm.post");
        slab_out_.begin_to_brick(spec_);
      }
      complete(*outs[2]);
    };
    solve_set(green_long_, gx_cdm_, gy_cdm_, gz_cdm_);
    solve_set(green_short_, gx_nu_, gy_nu_, gz_nu_);

    ax_.assign(cdm_.size(), 0.0);
    ay_.assign(cdm_.size(), 0.0);
    az_.assign(cdm_.size(), 0.0);
    if (cdm_.size() > 0) {
      for (const std::size_t i : owned_) {
        ax_[i] = mesh::interpolate(gx_cdm_, patch_, cdm_.x[i], cdm_.y[i],
                                   cdm_.z[i], Assignment::kCic);
        ay_[i] = mesh::interpolate(gy_cdm_, patch_, cdm_.x[i], cdm_.y[i],
                                   cdm_.z[i], Assignment::kCic);
        az_[i] = mesh::interpolate(gz_cdm_, patch_, cdm_.x[i], cdm_.y[i],
                                   cdm_.z[i], Assignment::kCic);
      }
      Trace::Scope s(trace, "comm.wait");
      comm_.allreduce_sum(ax_.data(), ax_.size());
      comm_.allreduce_sum(ay_.data(), ay_.size());
      comm_.allreduce_sum(az_.data(), az_.size());
    }
    if (has_nu_)
      sample_on_vlasov_grid(f_, patch_, gx_nu_, gy_nu_, gz_nu_, nu_ax_, nu_ay_,
                            nu_az_);
  }
  counts.fold_wait_s += fold_cdm_.take_wait() + fold_nu_.take_wait();
  counts.slab_wait_s += slab_cdm_x_.take_wait() + slab_nu_x_.take_wait() +
                        slab_out_.take_wait();

  {
    Trace::Scope s(trace, "gravity.tree");
    const std::size_t before = counts.tree_computed;
    tree_accelerations(cdm_, box_, options_, derived_,
                       hybrid::HybridSolver::poisson_prefactor(a), ax_, ay_,
                       az_, counts);
    // Every rank walks the replicated set; it keeps the forces of the
    // particles its brick owns.
    if (counts.tree_computed > before) counts.tree_kept += owned_.size();
  }
  forces_fresh_ = true;
}

void DistributedReplay::drift(double drift_factor, Trace& trace,
                              ReplayCounts& counts) {
  if (drift_factor == 0.0) return;
  const double max_shift = vlasov::max_position_shift(f_, drift_factor);
  const int cycles =
      std::max(1, static_cast<int>(std::ceil(max_shift / 0.999)));
  const double sub = drift_factor / cycles;
  const int g = f_.dims().ghost;
  for (int axis : {2, 1, 0}) {
    const auto& ap = ps_plan_.axis(axis);
    for (int c = 0; c < cycles; ++c) {
      Stopwatch window;
      if (!ap.split || !split_sweeps_) {
        {
          Trace::Scope s(trace, "comm.wait");
          ps_plan_.begin_axis(f_, axis);
          ps_plan_.finish_axis(f_, axis);
        }
        if (ap.decomposed) counts.halo_window_s += window.seconds();
        vlasov::advect_position_axis(f_, axis, sub, options_.kernel);
        continue;
      }
      {
        Trace::Scope s(trace, "comm.post");
        ps_plan_.begin_axis(f_, axis);
      }
      vlasov::save_position_boundary(f_, axis, boundary_);
      vlasov::advect_position_axis_range(f_, axis, sub, options_.kernel, g,
                                         ap.n - g);
      {
        Trace::Scope s(trace, "comm.wait");
        ps_plan_.finish_axis_into(boundary_.lo.data(),
                                  boundary_.hi.data() + 2 * ap.face_floats,
                                  axis);
      }
      counts.halo_window_s += window.seconds();
      vlasov::advect_position_axis_boundary(f_, axis, sub, options_.kernel,
                                            boundary_);
    }
  }
  counts.halo_wait_s += ps_plan_.take_wait();
}

void DistributedReplay::step(double a0, double a1, Trace& trace,
                             ReplayCounts& counts) {
  Trace::Scope root(trace, "step");
  {
    Trace::Scope s(trace, "driver.step_control");
    if (has_nu_ && !within_cfl(a0, a1, options_.cfl, [&](double a) {
          const double local = vlasov::max_position_shift(
              f_, background_.drift_factor(a0, a));
          Trace::Scope w(trace, "comm.wait");
          return comm_.allreduce_max(local);
        }))
      ++counts.cfl_violations;
  }
  const double a_mid = 0.5 * (a0 + a1);
  if (!forces_fresh_) compute_forces(a0, trace, counts);

  const auto kick = [&](double factor) {
    if (has_nu_) {
      Trace::Scope s(trace, "vlasov.kick");
      vlasov::kick_half(f_, nu_ax_, nu_ay_, nu_az_, factor, options_.kernel);
    }
    Trace::Scope s(trace, "nbody.integrate");
    nbody::kick(cdm_, ax_, ay_, az_, factor);
  };

  kick(background_.kick_factor(a0, a_mid));
  const double drift_f = background_.drift_factor(a0, a1);
  if (has_nu_) {
    Trace::Scope s(trace, "vlasov.drift");
    drift(drift_f, trace, counts);
  }
  {
    Trace::Scope s(trace, "nbody.integrate");
    nbody::drift(cdm_, drift_f, box_);
  }
  compute_forces(a1, trace, counts);
  kick(background_.kick_factor(a_mid, a1));
}

}  // namespace perfbench
