// Traced replays of one KDK step.
//
// Each replay owns a copy of a solver's state (phase space, particles and
// the step-boundary force cache) and advances it with the same sequence
// of public layer calls the solver's step makes, opening a Trace span
// around each call.  Started from the same state as the solver, a replay
// step produces the solver's step bit for bit; the benchmark checks this
// so the ledger is known to describe the step it claims to describe.
//
//   SerialReplay       hybrid::HybridSolver::step
//   DistributedReplay  parallel::DistributedHybridSolver::step with the
//                      overlapped exchanges (HaloPlan, GridFoldPlan,
//                      SlabExchange)
//
// Span names are the ledger's layers: step (root; its self time is the
// unattributed time), driver.step_control, vlasov.kick, vlasov.drift,
// vlasov.moments, mesh.deposit, gravity.pm, fft, gravity.tree,
// nbody.integrate, comm.post (begin halves of split exchanges) and
// comm.wait (every call that completes an exchange or a collective; at
// one rank these are the periodic ghost self-copies).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "comm/cart.hpp"
#include "fft/parallel_fft.hpp"
#include "hybrid/hybrid_solver.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/halo_plan.hpp"
#include "parallel/distributed_solver.hpp"
#include "parallel/field_exchange.hpp"
#include "trace.hpp"

namespace perfbench {

/// Work counted at the layer boundaries while replaying.
struct ReplayCounts {
  std::uint64_t tree_interactions = 0;  // TreeStats p2p + node interactions
  std::uint64_t tree_computed = 0;      // targets the tree walk evaluated
  std::uint64_t tree_kept = 0;          // of those, targets this rank owns
  double fft_points = 0.0;              // 3-D mesh points transformed
  double halo_wait_s = 0.0;    // blocked in HaloPlan finish calls
  double halo_window_s = 0.0;  // HaloPlan begin -> finish end, summed
  double fold_wait_s = 0.0;    // blocked in GridFoldPlan::finish
  double slab_wait_s = 0.0;    // blocked in SlabExchange finish calls
  int cfl_violations = 0;      // scheduled steps over the CFL bound
};

/// Forces of the step boundary, in the serial solver's layout.
using StepForces = v6d::hybrid::HybridSolver::StepForces;

class SerialReplay {
 public:
  /// Copies the solver's state and its force cache.
  explicit SerialReplay(const v6d::hybrid::HybridSolver& solver);

  void step(double a0, double a1, Trace& trace, ReplayCounts& counts);

  const v6d::vlasov::PhaseSpace& f() const { return f_; }
  const v6d::nbody::Particles& cdm() const { return cdm_; }

 private:
  void compute_forces(double a, Trace& trace, ReplayCounts& counts);

  v6d::vlasov::PhaseSpace f_;
  v6d::nbody::Particles cdm_;
  double box_;
  v6d::cosmo::Background background_;
  v6d::hybrid::HybridOptions options_;
  v6d::hybrid::TreePmDerived derived_;
  v6d::gravity::PoissonSolver poisson_;
  v6d::mesh::MeshPatch patch_;
  bool has_nu_;

  v6d::mesh::Grid3D<double> rho_cdm_, rho_nu_, rho_v_;
  v6d::mesh::Grid3D<double> gx_cdm_, gy_cdm_, gz_cdm_;
  v6d::mesh::Grid3D<double> gx_nu_, gy_nu_, gz_nu_;
  v6d::mesh::Grid3D<double> tx_, ty_, tz_;
  StepForces forces_;
};

class DistributedReplay {
 public:
  /// Copies this rank's brick, the replicated particles and the force
  /// cache of `ds` (collective), using the construction parameters of the
  /// global solver `ds` was sharded from.
  DistributedReplay(const v6d::hybrid::HybridSolver& global,
                    v6d::parallel::DistributedHybridSolver& ds,
                    v6d::comm::Communicator& comm,
                    std::array<int, 3> decomp);

  /// Collective.
  void step(double a0, double a1, Trace& trace, ReplayCounts& counts);

  const v6d::vlasov::PhaseSpace& f() const { return f_; }
  const v6d::nbody::Particles& cdm() const { return cdm_; }

 private:
  void compute_forces(double a, Trace& trace, ReplayCounts& counts);
  void drift(double drift_factor, Trace& trace, ReplayCounts& counts);
  bool owns_particle(std::size_t i) const;

  v6d::comm::Communicator& comm_;
  v6d::comm::CartTopology cart_;
  v6d::mesh::BrickDecomposition dec_, pm_dec_;
  v6d::fft::ParallelFft3D pfft_;
  v6d::vlasov::PhaseSpace f_;
  v6d::nbody::Particles cdm_;
  double box_;
  v6d::cosmo::Background background_;
  v6d::hybrid::HybridOptions options_;
  v6d::hybrid::TreePmDerived derived_;
  v6d::mesh::MeshPatch patch_;
  bool has_nu_;
  bool split_sweeps_;

  v6d::mesh::Grid3D<double> rho_cdm_, rho_nu_, rho_v_;
  v6d::mesh::Grid3D<double> gx_cdm_, gy_cdm_, gz_cdm_;
  v6d::mesh::Grid3D<double> gx_nu_, gy_nu_, gz_nu_;
  v6d::mesh::Grid3D<double> nu_ax_, nu_ay_, nu_az_;
  std::vector<double> ax_, ay_, az_;
  std::vector<std::size_t> owned_;
  bool forces_fresh_ = false;

  v6d::mesh::HaloPlan ps_plan_;
  v6d::mesh::GridFoldPlan fold_cdm_, fold_nu_;
  v6d::parallel::SlabExchange slab_cdm_x_, slab_nu_x_, slab_out_;
  v6d::vlasov::PositionBoundarySlabs boundary_;
  std::vector<double> green_long_, green_short_, green_nu_;
  std::vector<v6d::fft::cplx> phi_, spec_;
};

}  // namespace perfbench
