#include "mesh/halo.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace v6d::mesh {

namespace {

// Tags of the grid ghost exchange: base + axis * 4 + direction.
constexpr int kGridHaloTagBase = 150;

template <class T>
void exchange_grid_halo_impl(Grid3D<T>& grid, comm::CartTopology& cart) {
  if (cart.comm().size() == 1) {
    grid.fill_ghosts_periodic();
    return;
  }
  auto& comm = cart.comm();
  const int g = grid.ghost();
  if (g == 0) return;
  const std::array<int, 3> n = {grid.nx(), grid.ny(), grid.nz()};

  for (int axis = 0; axis < 3; ++axis) {
    const auto face = AxisFace::of(axis, n, g, /*transitive=*/true);
    const auto at = [&](const std::array<int, 3>& c) -> T& {
      return grid.at(c[0], c[1], c[2]);
    };
    if (cart.dims()[static_cast<std::size_t>(axis)] == 1) {
      face.for_each_ghost_image(
          [&](const std::array<int, 3>& ghost, const std::array<int, 3>& img) {
            at(ghost) = at(img);
          });
      continue;
    }
    face.require_fits("exchange_grid_halo");
    const auto nbr = cart.neighbors(axis);
    thread_local std::vector<T> send_hi, send_lo, recv_buf;
    const auto pack = [&](CellRange layers, std::vector<T>& buf) {
      buf.clear();
      buf.reserve(face.cells(layers));
      face.for_each(layers, [&](const auto& c) { buf.push_back(at(c)); });
    };
    const auto unpack = [&](CellRange layers, const std::vector<T>& buf) {
      std::size_t o = 0;
      face.for_each(layers, [&](const auto& c) { at(c) = buf[o++]; });
    };
    const int tag_fwd = kGridHaloTagBase + axis * 4;      // travelling +axis
    const int tag_bwd = kGridHaloTagBase + axis * 4 + 1;  // travelling -axis
    // High interior -> forward neighbor's low ghosts, and vice versa.
    pack(face.high_interior(), send_hi);
    comm.send(nbr[1], tag_fwd, send_hi.data(), send_hi.size());
    pack(face.low_interior(), send_lo);
    comm.send(nbr[0], tag_bwd, send_lo.data(), send_lo.size());
    recv_buf.resize(send_hi.size());
    comm.recv(nbr[0], tag_fwd, recv_buf.data(), recv_buf.size());
    unpack(face.low_ghosts(), recv_buf);
    recv_buf.resize(send_lo.size());
    comm.recv(nbr[1], tag_bwd, recv_buf.data(), recv_buf.size());
    unpack(face.high_ghosts(), recv_buf);
  }
}

}  // namespace

AxisFace AxisFace::of(int axis, const std::array<int, 3>& extents, int ghost,
                      bool transitive) {
  AxisFace f;
  f.axis = axis;
  f.n = extents[static_cast<std::size_t>(axis)];
  f.ghost = ghost;
  f.t1 = axis == 0 ? 1 : 0;
  f.t2 = axis == 2 ? 1 : 2;
  const auto range = [&](int t) {
    const int nt = extents[static_cast<std::size_t>(t)];
    return transitive && t < axis ? CellRange{-ghost, nt + ghost}
                                  : CellRange{0, nt};
  };
  f.across1 = range(f.t1);
  f.across2 = range(f.t2);
  return f;
}

void AxisFace::require_fits(const char* who) const {
  if (n >= ghost) return;
  throw std::invalid_argument(
      std::string(who) + ": local extent " + std::to_string(n) +
      " along axis " + std::to_string(axis) +
      " is smaller than the ghost width " + std::to_string(ghost) +
      "; use fewer ranks along this axis");
}

void exchange_grid_halo(Grid3D<double>& g, comm::CartTopology& cart) {
  exchange_grid_halo_impl(g, cart);
}
void exchange_grid_halo(Grid3D<float>& g, comm::CartTopology& cart) {
  exchange_grid_halo_impl(g, cart);
}

}  // namespace v6d::mesh
