#include "gravity/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace v6d::gravity {

namespace {
constexpr int kMaxDepth = 40;
}

/// One target group's walk state: the group's bounding box, the walk
/// parameters, and the interaction list it collects.  List entries are
/// source positions relative to the group centre at the periodic image
/// the walk met them in.
struct BarnesHutTree::Group {
  double centre[3];
  double extent[3];  // half extents of the targets' bounding box
  double theta2;
  double rcut2;      // 0: no cutoff
  bool window;       // keep only sources within [-box/2, box/2) per axis
  double half_box;
  std::vector<double> sx, sy, sz, sm;
  std::size_t pseudo = 0;  // monopole entries in the list

  /// Squared distance from the point d to the group box.
  double gap2(const double d[3]) const {
    double sum = 0.0;
    for (int a = 0; a < 3; ++a) {
      const double gap = std::max(0.0, std::fabs(d[a]) - extent[a]);
      sum += gap * gap;
    }
    return sum;
  }

  void push(double x, double y, double z, double m) {
    sx.push_back(x);
    sy.push_back(y);
    sz.push_back(z);
    sm.push_back(m);
  }
};

BarnesHutTree::BarnesHutTree(const nbody::Particles& particles, double box,
                             int leaf_size)
    : particles_(&particles), box_(box), leaf_size_(leaf_size) {
  const std::size_t n = particles.size();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = static_cast<int>(i);
  nodes_.reserve(2 * n / std::max(1, leaf_size) + 64);
  if (n > 0)
    build(0, static_cast<int>(n), 0.5 * box, 0.5 * box, 0.5 * box, 0.5 * box,
          0);
  // Positions in tree order, so a leaf's particles are contiguous.
  xs_.resize(n);
  ys_.resize(n);
  zs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto q = static_cast<std::size_t>(perm_[i]);
    xs_[i] = particles.x[q];
    ys_[i] = particles.y[q];
    zs_[i] = particles.z[q];
  }
}

int BarnesHutTree::build(int first, int count, double cx, double cy,
                         double cz, double half, int depth) {
  const int idx = static_cast<int>(nodes_.size());
  nodes_.push_back({});
  Node node{};
  node.half = half;
  node.first = first;
  node.count = count;
  std::fill(std::begin(node.children), std::end(node.children), -1);

  // Center of mass and bounding box over the range.
  const auto& p = *particles_;
  const double inf = std::numeric_limits<double>::infinity();
  double sum[3] = {0.0, 0.0, 0.0};
  std::fill(std::begin(node.lo), std::end(node.lo), inf);
  std::fill(std::begin(node.hi), std::end(node.hi), -inf);
  for (int i = first; i < first + count; ++i) {
    const auto q = static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)]);
    const double r[3] = {p.x[q], p.y[q], p.z[q]};
    for (int a = 0; a < 3; ++a) {
      sum[a] += r[a];
      node.lo[a] = std::min(node.lo[a], r[a]);
      node.hi[a] = std::max(node.hi[a], r[a]);
    }
  }
  node.mass = p.mass * count;
  for (int a = 0; a < 3; ++a) node.com[a] = sum[a] / count;

  if (count <= leaf_size_ || depth >= kMaxDepth) {
    node.leaf = true;
    nodes_[static_cast<std::size_t>(idx)] = node;
    leaves_.push_back(idx);
    return idx;
  }
  node.leaf = false;

  // Counting sort of the range into octants.
  auto octant = [&](int q) {
    const auto s = static_cast<std::size_t>(q);
    return (p.x[s] >= cx ? 4 : 0) | (p.y[s] >= cy ? 2 : 0) |
           (p.z[s] >= cz ? 1 : 0);
  };
  int counts[8] = {0};
  for (int i = first; i < first + count; ++i)
    ++counts[octant(perm_[static_cast<std::size_t>(i)])];
  int starts[8], cursor[8];
  int acc = first;
  for (int o = 0; o < 8; ++o) {
    starts[o] = cursor[o] = acc;
    acc += counts[o];
  }
  std::vector<int> scratch(perm_.begin() + first,
                           perm_.begin() + first + count);
  for (int q : scratch) perm_[static_cast<std::size_t>(cursor[octant(q)]++)] = q;

  const double q_half = 0.5 * half;
  for (int o = 0; o < 8; ++o) {
    if (counts[o] == 0) continue;
    const double ox = cx + ((o & 4) ? q_half : -q_half);
    const double oy = cy + ((o & 2) ? q_half : -q_half);
    const double oz = cz + ((o & 1) ? q_half : -q_half);
    node.children[o] =
        build(starts[o], counts[o], ox, oy, oz, q_half, depth + 1);
  }
  nodes_[static_cast<std::size_t>(idx)] = node;
  return idx;
}

void BarnesHutTree::walk(int node_idx, const double offset[3],
                         Group& g) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_idx)];
  // Node bounds relative to the group centre at this image; the group box
  // is [-extent, extent].
  double gap2 = 0.0;
  bool inside = true;
  for (int a = 0; a < 3; ++a) {
    const double lo = node.lo[a] + offset[a];
    const double hi = node.hi[a] + offset[a];
    if (g.window) {
      if (hi < -g.half_box || lo >= g.half_box) return;
      inside = inside && lo >= -g.half_box && hi < g.half_box;
    }
    const double gap = std::max({0.0, lo - g.extent[a], -g.extent[a] - hi});
    gap2 += gap * gap;
  }
  // Cutoff pruning: the nearest pair between the node's particles and the
  // group box is beyond rcut, so the subtree contributes nothing.
  if (g.rcut2 > 0.0 && gap2 > g.rcut2) return;

  if (node.leaf) {
    for (int i = node.first; i < node.first + node.count; ++i) {
      const auto q = static_cast<std::size_t>(i);
      const double d[3] = {xs_[q] + offset[0], ys_[q] + offset[1],
                           zs_[q] + offset[2]};
      if (g.window &&
          std::any_of(std::begin(d), std::end(d), [&](double v) {
            return v < -g.half_box || v >= g.half_box;
          }))
        continue;
      g.push(d[0], d[1], d[2], particles_->mass);
    }
    return;
  }

  // Accept as a monopole pseudo-particle when the cell is small as seen
  // from the nearest point of the group box.  A windowed walk accepts only
  // cells wholly inside the window, so each source is counted once.
  const double com[3] = {node.com[0] + offset[0], node.com[1] + offset[1],
                         node.com[2] + offset[2]};
  const double com_gap2 = g.gap2(com);
  const double size = 2.0 * node.half;
  if (inside && size * size < g.theta2 * com_gap2) {
    // Beyond rcut of every target the kernel would mask it anyway.
    if (g.rcut2 > 0.0 && com_gap2 > g.rcut2) return;
    g.push(com[0], com[1], com[2], node.mass);
    ++g.pseudo;
    return;
  }
  for (int c : node.children)
    if (c >= 0) walk(c, offset, g);
}

void BarnesHutTree::collect(Group& g) const {
  g.sx.clear();
  g.sy.clear();
  g.sz.clear();
  g.sm.clear();
  g.pseudo = 0;
  for (int kx = -1; kx <= 1; ++kx)
    for (int ky = -1; ky <= 1; ++ky)
      for (int kz = -1; kz <= 1; ++kz) {
        const double offset[3] = {kx * box_ - g.centre[0],
                                  ky * box_ - g.centre[1],
                                  kz * box_ - g.centre[2]};
        walk(0, offset, g);
      }
}

namespace {

/// Per-thread kernel scratch: one group's targets relative to its centre,
/// their accelerations, and the float copies the SIMD kernel reads.
struct GroupKernel {
  std::vector<double> rx, ry, rz, gx, gy, gz;
  std::vector<float> fsx, fsy, fsz, fsm, frx, fry, frz, fgx, fgy, fgz;

  /// Evaluates the list (sx..sm, ns entries) at targets rx..rz into gx..gz.
  void evaluate(const std::vector<double>& sx, const std::vector<double>& sy,
                const std::vector<double>& sz, const std::vector<double>& sm,
                const PpKernelParams& params, const CutoffPoly& poly,
                bool use_simd) {
    const std::size_t ni = rx.size(), ns = sx.size();
    gx.assign(ni, 0.0);
    gy.assign(ni, 0.0);
    gz.assign(ni, 0.0);
    if (!use_simd) {
      pp_accumulate_scalar(rx.data(), ry.data(), rz.data(), ni, sx.data(),
                           sy.data(), sz.data(), sm.data(), ns, params,
                           gx.data(), gy.data(), gz.data());
      return;
    }
    // Float staging is accurate: every coordinate is relative to the group
    // centre, |x| <= rcut + group extent.
    fsx.assign(sx.begin(), sx.end());
    fsy.assign(sy.begin(), sy.end());
    fsz.assign(sz.begin(), sz.end());
    fsm.assign(sm.begin(), sm.end());
    frx.assign(rx.begin(), rx.end());
    fry.assign(ry.begin(), ry.end());
    frz.assign(rz.begin(), rz.end());
    fgx.assign(ni, 0.0f);
    fgy.assign(ni, 0.0f);
    fgz.assign(ni, 0.0f);
    pp_accumulate_simd(frx.data(), fry.data(), frz.data(), ni, fsx.data(),
                       fsy.data(), fsz.data(), fsm.data(), ns, params, poly,
                       fgx.data(), fgy.data(), fgz.data());
    gx.assign(fgx.begin(), fgx.end());
    gy.assign(fgy.begin(), fgy.end());
    gz.assign(fgz.begin(), fgz.end());
  }
};

}  // namespace

void BarnesHutTree::accumulate(const double* tx, const double* ty,
                               const double* tz, std::size_t nt,
                               const PpKernelParams& params,
                               const CutoffPoly& poly, double theta,
                               bool use_simd, double* ax, double* ay,
                               double* az, TreeStats* stats) const {
  if (nodes_.empty() || nt == 0) return;
  // Leaf groups need 0 < rcut < box/2: the walk then lists every source
  // image within rcut of the group box, and since images are a box
  // (> 2 rcut) apart the kernel's r < rcut mask keeps, for each target,
  // exactly the minimum image.  Without such a cutoff the minimum image is
  // a window around one target, so each target is its own group.
  const auto& p = *particles_;
  const bool own = tx == p.x.data() && ty == p.y.data() &&
                   tz == p.z.data() && nt == p.size();
  const bool grouped = own && params.rcut > 0.0 && params.rcut < 0.5 * box_;
  const auto ngroups =
      static_cast<std::ptrdiff_t>(grouped ? leaves_.size() : nt);

  TreeStats total;
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    // Scratch lists persist per thread across calls, so once grown the
    // group loop allocates nothing: per-call buffers, allocated in an order
    // set by the dynamic schedule, fragment the caller's heap (peak RSS up
    // ~20 MB on some hybrid runs).
    thread_local Group g;
    g.theta2 = theta * theta;
    g.rcut2 = params.rcut > 0.0 ? params.rcut * params.rcut : 0.0;
    g.window = !grouped;
    g.half_box = 0.5 * box_;
    thread_local GroupKernel k;
    TreeStats local;

#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
    for (std::ptrdiff_t gi = 0; gi < ngroups; ++gi) {
      int single = static_cast<int>(gi);
      const int* idx = &single;
      std::size_t ni = 1;
      if (grouped) {
        const auto leaf = static_cast<std::size_t>(
            leaves_[static_cast<std::size_t>(gi)]);
        idx = perm_.data() + nodes_[leaf].first;
        ni = static_cast<std::size_t>(nodes_[leaf].count);
      }

      // Group box, then the targets relative to its centre.
      for (int a = 0; a < 3; ++a) {
        const double* t = a == 0 ? tx : a == 1 ? ty : tz;
        double lo = t[idx[0]], hi = t[idx[0]];
        for (std::size_t i = 1; i < ni; ++i) {
          lo = std::min(lo, t[idx[i]]);
          hi = std::max(hi, t[idx[i]]);
        }
        g.centre[a] = 0.5 * (lo + hi);
        g.extent[a] = 0.5 * (hi - lo);
      }
      k.rx.resize(ni);
      k.ry.resize(ni);
      k.rz.resize(ni);
      for (std::size_t i = 0; i < ni; ++i) {
        k.rx[i] = tx[idx[i]] - g.centre[0];
        k.ry[i] = ty[idx[i]] - g.centre[1];
        k.rz[i] = tz[idx[i]] - g.centre[2];
      }

      collect(g);
      local.node_interactions += ni * g.pseudo;
      local.p2p_interactions += ni * (g.sx.size() - g.pseudo);
      k.evaluate(g.sx, g.sy, g.sz, g.sm, params, poly, use_simd);
      for (std::size_t i = 0; i < ni; ++i) {
        ax[idx[i]] += k.gx[i];
        ay[idx[i]] += k.gy[i];
        az[idx[i]] += k.gz[i];
      }
    }

#ifdef _OPENMP
#pragma omp critical
#endif
    {
      total.p2p_interactions += local.p2p_interactions;
      total.node_interactions += local.node_interactions;
    }
  }
  if (stats) {
    stats->p2p_interactions += total.p2p_interactions;
    stats->node_interactions += total.node_interactions;
  }
}

void BarnesHutTree::accelerations(const nbody::Particles& particles,
                                  const PpKernelParams& params,
                                  const CutoffPoly& poly, double theta,
                                  bool use_simd, std::vector<double>& ax,
                                  std::vector<double>& ay,
                                  std::vector<double>& az,
                                  TreeStats* stats) const {
  const std::size_t n = particles.size();
  ax.assign(n, 0.0);
  ay.assign(n, 0.0);
  az.assign(n, 0.0);
  accumulate(particles.x.data(), particles.y.data(), particles.z.data(), n,
             params, poly, theta, use_simd, ax.data(), ay.data(), az.data(),
             stats);
}

}  // namespace v6d::gravity
