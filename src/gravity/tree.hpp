// Barnes-Hut octree for the short-range (tree) part of TreePM (§5.1.2).
//
// The tree covers the periodic box; pair separations use the minimum-image
// convention, which is exact as long as the short-range cutoff radius is
// below half the box (the TreePM split guarantees that by construction).
//
// Forces are evaluated per target group in the style of Barnes' vectorised
// walk (the Phantom-GRAPE layout of the paper): the tree's own leaves are
// the groups, one walk per group opens or prunes nodes against the group's
// bounding box, and the shared interaction list (monopole pseudo-particles
// plus leaf particles, staged relative to the group centre) feeds the PP
// kernel with ni = group size.  Groups are independent, so the loop over
// them runs on OpenMP threads and the result does not depend on the thread
// count.
#pragma once

#include <cstdint>
#include <vector>

#include "gravity/pp_kernel.hpp"
#include "nbody/particles.hpp"

namespace v6d::gravity {

/// Pair evaluations the PP kernel performed, by source kind; their sum is
/// the kernel's total work.
struct TreeStats {
  std::uint64_t p2p_interactions = 0;   // target-particle pairs
  std::uint64_t node_interactions = 0;  // target-pseudo-particle pairs
};

class BarnesHutTree {
 public:
  /// Builds over all particles; `leaf_size` caps particles per leaf.
  BarnesHutTree(const nbody::Particles& particles, double box,
                int leaf_size = 16);

  /// Accumulate (+=) short-range accelerations at the given targets with
  /// G = 1 (callers scale by G).  `theta`: opening angle.  If params.rcut
  /// > 0, subtrees entirely beyond the cutoff are pruned — this is what
  /// makes TreePM short-range walks O(N) per target.  When the targets are
  /// the tree's own particles and 0 < rcut < box/2 they are walked in leaf
  /// groups; otherwise each target is a group of its own.
  void accumulate(const double* tx, const double* ty, const double* tz,
                  std::size_t nt, const PpKernelParams& params,
                  const CutoffPoly& poly, double theta, bool use_simd,
                  double* ax, double* ay, double* az,
                  TreeStats* stats = nullptr) const;

  /// Convenience: short-range accelerations at every particle position.
  void accelerations(const nbody::Particles& particles,
                     const PpKernelParams& params, const CutoffPoly& poly,
                     double theta, bool use_simd, std::vector<double>& ax,
                     std::vector<double>& ay, std::vector<double>& az,
                     TreeStats* stats = nullptr) const;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  double total_mass() const { return nodes_.empty() ? 0.0 : nodes_[0].mass; }

 private:
  struct Node {
    double lo[3], hi[3];  // bounding box of the node's particles
    double com[3];
    double half;          // half side length of the octree cell
    double mass;
    int children[8];      // index into nodes_, -1 if absent
    int first, count;     // leaf particle range into perm_
    bool leaf;
  };
  struct Group;  // one target group's walk state (tree.cpp)

  int build(int first, int count, double cx, double cy, double cz,
            double half, int depth);
  /// Fills the group's interaction list: walks all 27 images of the root.
  void collect(Group& group) const;
  void walk(int node, const double offset[3], Group& group) const;

  const nbody::Particles* particles_;
  double box_;
  int leaf_size_;
  std::vector<int> perm_;                // tree order -> particle index
  std::vector<double> xs_, ys_, zs_;     // positions in tree order
  std::vector<Node> nodes_;
  std::vector<int> leaves_;  // leaf node indices: the target groups
};

}  // namespace v6d::gravity
