// Ghost-layer exchange across the brick decomposition.
//
// Every exchange here and in mesh/halo_plan.hpp runs axis by axis over
// one shared per-axis face footprint (AxisFace, after DASH's HaloSpec):
// the exchanged axis, the layer ranges along it, and the two transverse
// ranges.  Phase-space halos and deposit folds are the split plans of
// halo_plan.hpp; this header keeps the one blocking exchange that needs
// corner ghosts.
//
// exchange_grid_halo fills a scalar mesh field's complete ghost shell for
// CIC interpolation: axes run x, then y, then z over slabs spanning the
// already-extended transverse range, so edge and corner ghosts are filled
// transitively.  Buffered sends keep periodic rings deadlock-free.
#pragma once

#include <array>
#include <cstddef>

#include "comm/cart.hpp"
#include "mesh/grid.hpp"

namespace v6d::mesh {

/// Half-open range of cell indices along one axis.
struct CellRange {
  int lo = 0, hi = 0;
  int count() const { return hi - lo; }
};

/// Footprint of one per-axis face exchange on a brick with interior
/// extent `n` along `axis` and `ghost` layers per face.  cell(a, b, c)
/// maps (layer along the axis, first transverse, second transverse) to
/// the brick's (i, j, k); the transverse axes are taken in ascending
/// order.  Walkers visit layers, then t1, then t2 — the packed-buffer
/// layout of every exchange built on this footprint.
struct AxisFace {
  int axis = 0;
  int n = 0;      // interior extent along the axis
  int ghost = 0;  // layers per face
  int t1 = 1, t2 = 2;
  CellRange across1, across2;  // ranges of t1 and t2

  /// Face of `axis` for a brick of interior extents `extents`.  With
  /// `transitive`, transverse axes below `axis` span their ghosts too (an
  /// axis-ordered exchange that fills corners, or the fold that drains
  /// them); otherwise both transverse ranges are interior only.
  static AxisFace of(int axis, const std::array<int, 3>& extents, int ghost,
                     bool transitive);

  CellRange low_interior() const { return {0, ghost}; }
  CellRange high_interior() const { return {n - ghost, n}; }
  CellRange low_ghosts() const { return {-ghost, 0}; }
  CellRange high_ghosts() const { return {n, n + ghost}; }

  /// Cells in one layer (transverse footprint).
  std::size_t layer_cells() const {
    return static_cast<std::size_t>(across1.count()) * across2.count();
  }
  std::size_t cells(CellRange layers) const {
    return static_cast<std::size_t>(layers.count()) * layer_cells();
  }

  std::array<int, 3> cell(int a, int b, int c) const {
    std::array<int, 3> idx{};
    idx[static_cast<std::size_t>(axis)] = a;
    idx[static_cast<std::size_t>(t1)] = b;
    idx[static_cast<std::size_t>(t2)] = c;
    return idx;
  }

  /// Visit every cell of `layers` in packed order.
  template <class Fn>
  void for_each(CellRange layers, Fn&& fn) const {
    for (int a = layers.lo; a < layers.hi; ++a)
      for (int b = across1.lo; b < across1.hi; ++b)
        for (int c = across2.lo; c < across2.hi; ++c) fn(cell(a, b, c));
  }

  /// Visit every ghost cell (low face, then high face) with its periodic
  /// image along the axis — the local halo of an undecomposed axis.  The
  /// modulo handles extents below the ghost width (quasi-1D grids), which
  /// a self-send of interior layers cannot.
  template <class Fn>
  void for_each_ghost_image(Fn&& fn) const {
    const auto visit = [&](const std::array<int, 3>& g) {
      std::array<int, 3> image = g;
      auto& a = image[static_cast<std::size_t>(axis)];
      a = ((a % n) + n) % n;
      fn(g, image);
    };
    for_each(low_ghosts(), visit);
    for_each(high_ghosts(), visit);
  }

  /// A decomposed axis sends `ghost` interior layers to each neighbor; a
  /// thinner brick would pack ghost cells and corrupt the neighbor's
  /// halo.  Throws std::invalid_argument naming `who`.
  void require_fits(const char* who) const;
};

/// Exchange the complete ghost shell (faces, edges, corners) of a scalar
/// mesh field; single-rank topologies fall back to the periodic
/// self-copy.
void exchange_grid_halo(Grid3D<double>& g, comm::CartTopology& cart);
void exchange_grid_halo(Grid3D<float>& g, comm::CartTopology& cart);

}  // namespace v6d::mesh
