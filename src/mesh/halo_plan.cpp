#include "mesh/halo_plan.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/timer.hpp"
#include "common/trace.hpp"

namespace v6d::mesh {

// ---------------------------------------------------------------------------
// HaloPlan — split single-axis phase-space face exchange
// ---------------------------------------------------------------------------

HaloPlan::HaloPlan(comm::CartTopology& cart,
                   const vlasov::PhaseSpaceDims& dims, int tag_base)
    : cart_(&cart), tag_base_(tag_base), block_(dims.velocity_cells()) {
  std::size_t max_face = 0;
  for (int axis = 0; axis < 3; ++axis) {
    const auto ax = static_cast<std::size_t>(axis);
    const auto& face = faces_[ax] = AxisFace::of(
        axis, {dims.nx, dims.ny, dims.nz}, dims.ghost, /*transitive=*/false);
    auto& ap = axes_[ax];
    ap.n = face.n;
    ap.t1n = face.across1.count();
    ap.t2n = face.across2.count();
    ap.decomposed = cart.dims()[ax] > 1;
    ap.split = ap.decomposed && ap.n >= 2 * dims.ghost;
    ap.face_floats = face.cells(face.low_ghosts()) * block_;
    if (!ap.decomposed) continue;
    face.require_fits("HaloPlan");
    send_lo_[ax].resize(ap.face_floats);
    send_hi_[ax].resize(ap.face_floats);
    max_face = std::max(max_face, ap.face_floats);
  }
  recv_buf_.resize(max_face);
}

void HaloPlan::pack_face(const vlasov::PhaseSpace& f, int axis,
                         CellRange layers, float* buf) const {
  const auto& face = faces_[static_cast<std::size_t>(axis)];
  const std::size_t row = static_cast<std::size_t>(face.across2.count()) *
                          block_;
  const std::size_t bytes = block_ * sizeof(float);
  const int t1n = face.across1.count();
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static)
#endif
  for (int a = 0; a < layers.count(); ++a)
    for (int b = 0; b < t1n; ++b) {
      std::size_t o = (static_cast<std::size_t>(a) * t1n + b) * row;
      for (int c = 0; c < face.across2.count(); ++c, o += block_) {
        const auto idx = face.cell(layers.lo + a, face.across1.lo + b,
                                   face.across2.lo + c);
        std::memcpy(buf + o, f.block(idx[0], idx[1], idx[2]), bytes);
      }
    }
}

void HaloPlan::unpack_face(vlasov::PhaseSpace& f, int axis, CellRange layers,
                           const float* buf) const {
  const auto& face = faces_[static_cast<std::size_t>(axis)];
  const std::size_t row = static_cast<std::size_t>(face.across2.count()) *
                          block_;
  const std::size_t bytes = block_ * sizeof(float);
  const int t1n = face.across1.count();
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static)
#endif
  for (int a = 0; a < layers.count(); ++a)
    for (int b = 0; b < t1n; ++b) {
      std::size_t o = (static_cast<std::size_t>(a) * t1n + b) * row;
      for (int c = 0; c < face.across2.count(); ++c, o += block_) {
        const auto idx = face.cell(layers.lo + a, face.across1.lo + b,
                                   face.across2.lo + c);
        std::memcpy(f.block(idx[0], idx[1], idx[2]), buf + o, bytes);
      }
    }
}

void HaloPlan::wrap_axis(vlasov::PhaseSpace& f, int axis) const {
  // Whole axis on this rank: the ghosts are the local periodic image.
  const std::size_t bytes = block_ * sizeof(float);
  faces_[static_cast<std::size_t>(axis)].for_each_ghost_image(
      [&](const std::array<int, 3>& g, const std::array<int, 3>& img) {
        std::memcpy(f.block(g[0], g[1], g[2]),
                    f.block(img[0], img[1], img[2]), bytes);
      });
}

void HaloPlan::begin_axis(vlasov::PhaseSpace& f, int axis) {
  trace::Span span("halo-begin");
  const auto& ap = axes_[static_cast<std::size_t>(axis)];
  if (!ap.decomposed) {
    wrap_axis(f, axis);
    return;
  }
  auto& comm = cart_->comm();
  const auto nbr = cart_->neighbors(axis);
  const auto ax = static_cast<std::size_t>(axis);
  const int tag_fwd = tag_base_ + axis * 4 + 0;  // travelling +axis
  const int tag_bwd = tag_base_ + axis * 4 + 1;  // travelling -axis
  // High interior -> forward neighbor's low ghosts, and vice versa
  // (buffered sends: posting both before any receive cannot deadlock).
  pack_face(f, axis, faces_[ax].high_interior(), send_hi_[ax].data());
  comm.send(nbr[1], tag_fwd, send_hi_[ax].data(), ap.face_floats);
  pack_face(f, axis, faces_[ax].low_interior(), send_lo_[ax].data());
  comm.send(nbr[0], tag_bwd, send_lo_[ax].data(), ap.face_floats);
  pending_lo_[ax] = comm.irecv(nbr[0], tag_fwd);
  pending_hi_[ax] = comm.irecv(nbr[1], tag_bwd);
}

void HaloPlan::finish_axis(vlasov::PhaseSpace& f, int axis) {
  trace::Span span("halo-finish");
  const auto& ap = axes_[static_cast<std::size_t>(axis)];
  if (!ap.decomposed) return;
  const auto ax = static_cast<std::size_t>(axis);
  {
    trace::Span wait_span("halo-wait");
    Stopwatch w;
    pending_lo_[ax].wait_into(recv_buf_.data(), ap.face_floats);
    wait_s_ += w.seconds();
  }
  unpack_face(f, axis, faces_[ax].low_ghosts(), recv_buf_.data());
  {
    trace::Span wait_span("halo-wait");
    Stopwatch w;
    pending_hi_[ax].wait_into(recv_buf_.data(), ap.face_floats);
    wait_s_ += w.seconds();
  }
  unpack_face(f, axis, faces_[ax].high_ghosts(), recv_buf_.data());
}

void HaloPlan::finish_axis_into(float* lo_face, float* hi_face, int axis) {
  trace::Span span("halo-finish");
  const auto& ap = axes_[static_cast<std::size_t>(axis)];
  const auto ax = static_cast<std::size_t>(axis);
  {
    trace::Span wait_span("halo-wait");
    Stopwatch w;
    pending_lo_[ax].wait_into(lo_face, ap.face_floats);
    wait_s_ += w.seconds();
  }
  {
    trace::Span wait_span("halo-wait");
    Stopwatch w;
    pending_hi_[ax].wait_into(hi_face, ap.face_floats);
    wait_s_ += w.seconds();
  }
}

// ---------------------------------------------------------------------------
// GridFoldPlan — split ghost-deposit fold
// ---------------------------------------------------------------------------

namespace {

// Fold footprint of `axis`: the fold runs z, then y, then x, so axes
// *below* the current one still carry live ghost contributions and their
// ghosts are included (transitive); higher axes are already folded.
AxisFace fold_face(const Grid3D<double>& grid, int axis) {
  return AxisFace::of(axis, {grid.nx(), grid.ny(), grid.nz()}, grid.ghost(),
                      /*transitive=*/true);
}

double& at(Grid3D<double>& grid, const std::array<int, 3>& c) {
  return grid.at(c[0], c[1], c[2]);
}

}  // namespace

void GridFoldPlan::fold_axis_wrap(Grid3D<double>& grid, const AxisFace& face) {
  // Undecomposed axis: fold every ghost onto its periodic interior image.
  face.for_each_ghost_image(
      [&](const std::array<int, 3>& g, const std::array<int, 3>& img) {
        at(grid, img) += at(grid, g);
        at(grid, g) = 0.0;
      });
}

void GridFoldPlan::post_axis(Grid3D<double>& grid, const AxisFace& face) {
  face.require_fits("GridFoldPlan");
  const auto pack = [&](CellRange layers, std::vector<double>& buf) {
    buf.resize(face.cells(layers));
    std::size_t o = 0;
    face.for_each(layers, [&](const std::array<int, 3>& c) {
      buf[o++] = at(grid, c);
      at(grid, c) = 0.0;
    });
  };
  auto& comm = cart_->comm();
  const int axis = face.axis;
  const auto nbr = cart_->neighbors(axis);
  const int tag_fwd = tag_base_ + axis * 4;
  const int tag_bwd = tag_base_ + axis * 4 + 1;
  // Our high ghosts belong to the forward neighbor's low interior.
  pack(face.high_ghosts(), send_hi_);
  comm.send(nbr[1], tag_fwd, send_hi_.data(), send_hi_.size());
  pack(face.low_ghosts(), send_lo_);
  comm.send(nbr[0], tag_bwd, send_lo_.data(), send_lo_.size());
  h_lo_ = comm.irecv(nbr[0], tag_fwd);
  h_hi_ = comm.irecv(nbr[1], tag_bwd);
}

void GridFoldPlan::complete_axis(Grid3D<double>& grid, const AxisFace& face) {
  const auto add = [&](CellRange layers) {
    std::size_t o = 0;
    face.for_each(layers, [&](const std::array<int, 3>& c) {
      at(grid, c) += recv_buf_[o++];
    });
  };
  const std::size_t count = face.cells(face.low_interior());
  recv_buf_.resize(count);
  {
    trace::Span wait_span("fold-wait");
    Stopwatch w;
    h_lo_.wait_into(recv_buf_.data(), count);
    wait_s_ += w.seconds();
  }
  add(face.low_interior());
  {
    trace::Span wait_span("fold-wait");
    Stopwatch w;
    h_hi_.wait_into(recv_buf_.data(), count);
    wait_s_ += w.seconds();
  }
  add(face.high_interior());
}

void GridFoldPlan::begin(Grid3D<double>& grid) {
  trace::Span span("fold-begin");
  pending_axis_ = -1;
  if (cart_->comm().size() == 1) {
    // The single-rank fold is the direct periodic scan, not the
    // axis-by-axis chain.
    grid.fold_ghosts_periodic();
    return;
  }
  if (grid.ghost() == 0) return;
  for (int axis = 2; axis >= 0; --axis) {
    const auto face = fold_face(grid, axis);
    if (cart_->dims()[static_cast<std::size_t>(axis)] == 1) {
      fold_axis_wrap(grid, face);
      continue;
    }
    post_axis(grid, face);
    pending_axis_ = axis;
    return;
  }
}

void GridFoldPlan::finish(Grid3D<double>& grid) {
  trace::Span span("fold-finish");
  if (pending_axis_ < 0) return;
  complete_axis(grid, fold_face(grid, pending_axis_));
  for (int axis = pending_axis_ - 1; axis >= 0; --axis) {
    const auto face = fold_face(grid, axis);
    if (cart_->dims()[static_cast<std::size_t>(axis)] == 1) {
      fold_axis_wrap(grid, face);
      continue;
    }
    post_axis(grid, face);
    complete_axis(grid, face);
  }
  pending_axis_ = -1;
}

}  // namespace v6d::mesh
