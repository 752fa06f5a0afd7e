#include "parallel/field_exchange.hpp"

#include <algorithm>
#include <cstring>

#include "common/timer.hpp"
#include "common/trace.hpp"

namespace v6d::parallel {

namespace {

/// Brick geometry of an arbitrary rank, reconstructed from the cart
/// topology (every rank can compute every other rank's extents).
struct BrickOf {
  int lo[3], n[3];  // global offset and extent per axis
};

BrickOf brick_of(int rank, const mesh::BrickDecomposition& dec,
                 comm::CartTopology& cart) {
  const auto coords = cart.coords_of(rank);
  const auto global = dec.global();
  const auto dims = dec.dims();
  BrickOf b{};
  for (int a = 0; a < 3; ++a) {
    const auto i = static_cast<std::size_t>(a);
    b.lo[a] = mesh::BrickDecomposition::share_offset(global[i], dims[i],
                                                     coords[i]);
    b.n[a] = mesh::BrickDecomposition::share(global[i], dims[i], coords[i]);
  }
  return b;
}

/// Slab rows of the parallel FFT owned by `rank` (same splitting rule as
/// ParallelFft3D).
void slab_of(int rank, int n, int nranks, int& offset, int& count) {
  count = mesh::BrickDecomposition::share(n, nranks, rank);
  offset = mesh::BrickDecomposition::share_offset(n, nranks, rank);
}

}  // namespace

// ---------------------------------------------------------------------------
// SlabExchange — split p2p redistribution with precomputed footprints
// ---------------------------------------------------------------------------

SlabExchange::SlabExchange(const mesh::BrickDecomposition& dec,
                           const fft::ParallelFft3D& pfft,
                           comm::CartTopology& cart, int tag_base)
    : cart_(&cart), pfft_(&pfft), tag_base_(tag_base) {
  auto& comm = cart.comm();
  const int p = comm.size();
  const int n = pfft.n();
  const BrickOf mine = brick_of(comm.rank(), dec, cart);
  for (int a = 0; a < 3; ++a) my_lo_[a] = mine.lo[a];
  slab_of(comm.rank(), n, p, my_so_, my_sn_);

  std::size_t max_msg = 0;
  for (int r = 0; r < p; ++r) {
    // My brick rows landing in rank r's slab ...
    int so = 0, sn = 0;
    slab_of(r, n, p, so, sn);
    int x0 = std::max(mine.lo[0], so);
    int x1 = std::min(mine.lo[0] + mine.n[0], so + sn);
    if (x0 < x1)
      brick_rows_.push_back({r, x0, x1, mine.n[1], mine.n[2], 0, 0});
    // ... and rank r's brick rows landing in my slab.  The slab -> brick
    // direction moves exactly these intersections the other way, so the
    // two lists serve both directions.
    const BrickOf src = brick_of(r, dec, cart);
    x0 = std::max(src.lo[0], my_so_);
    x1 = std::min(src.lo[0] + src.n[0], my_so_ + my_sn_);
    if (x0 < x1)
      slab_rows_.push_back({r, x0, x1, src.n[1], src.n[2], src.lo[1],
                            src.lo[2]});
  }
  for (const auto& f : brick_rows_)
    max_msg = std::max(
        max_msg, static_cast<std::size_t>(f.x1 - f.x0) * f.ny * f.nz);
  for (const auto& f : slab_rows_)
    max_msg = std::max(
        max_msg, static_cast<std::size_t>(f.x1 - f.x0) * f.ny * f.nz);
  send_buf_.resize(std::max(brick_rows_.size(), slab_rows_.size()));
  recv_buf_.reserve(max_msg);
  slab_.resize(static_cast<std::size_t>(my_sn_) * n * n, fft::cplx(0.0, 0.0));
}

void SlabExchange::begin_to_slab(const mesh::Grid3D<double>& brick) {
  trace::Span span("slab-begin");
  auto& comm = cart_->comm();
  for (std::size_t s = 0; s < brick_rows_.size(); ++s) {
    const auto& fp = brick_rows_[s];
    auto& buf = send_buf_[s];
    buf.resize(static_cast<std::size_t>(fp.x1 - fp.x0) * fp.ny * fp.nz);
    const std::size_t row = sizeof(double) * static_cast<std::size_t>(fp.nz);
    std::size_t o = 0;
    // Brick z-rows are contiguous and the buffer is [x][y][z]: one memcpy
    // per (x, y) row instead of per-cell index churn.
    for (int gx = fp.x0; gx < fp.x1; ++gx)
      for (int ly = 0; ly < fp.ny; ++ly, o += fp.nz)
        std::memcpy(buf.data() + o, &brick.at(gx - my_lo_[0], ly, 0), row);
    comm.send(fp.rank, tag_base_, buf.data(), buf.size());
  }
  pending_.clear();
  for (const auto& fp : slab_rows_)
    pending_.push_back(comm.irecv(fp.rank, tag_base_));
}

std::vector<fft::cplx>& SlabExchange::finish_to_slab() {
  trace::Span span("slab-finish");
  const int n = pfft_->n();
  for (std::size_t s = 0; s < slab_rows_.size(); ++s) {
    const auto& fp = slab_rows_[s];
    const std::size_t count =
        static_cast<std::size_t>(fp.x1 - fp.x0) * fp.ny * fp.nz;
    recv_buf_.resize(count);
    {
      trace::Span wait_span("slab-wait");
      Stopwatch w;
      pending_[s].wait_into(recv_buf_.data(), count);
      wait_s_ += w.seconds();
    }
    std::size_t o = 0;
    for (int gx = fp.x0; gx < fp.x1; ++gx)
      for (int ly = 0; ly < fp.ny; ++ly)
        for (int lz = 0; lz < fp.nz; ++lz)
          slab_[(static_cast<std::size_t>(gx - my_so_) * n + (fp.lo1 + ly)) *
                    n +
                (fp.lo2 + lz)] = fft::cplx(recv_buf_[o++], 0.0);
  }
  return slab_;
}

void SlabExchange::begin_to_brick(const std::vector<fft::cplx>& slab) {
  trace::Span span("slab-begin");
  auto& comm = cart_->comm();
  const int n = pfft_->n();
  for (std::size_t s = 0; s < slab_rows_.size(); ++s) {
    const auto& fp = slab_rows_[s];
    auto& buf = send_buf_[s];
    buf.resize(static_cast<std::size_t>(fp.x1 - fp.x0) * fp.ny * fp.nz);
    std::size_t o = 0;
    for (int gx = fp.x0; gx < fp.x1; ++gx)
      for (int ly = 0; ly < fp.ny; ++ly)
        for (int lz = 0; lz < fp.nz; ++lz)
          buf[o++] = slab[(static_cast<std::size_t>(gx - my_so_) * n +
                           (fp.lo1 + ly)) *
                              n +
                          (fp.lo2 + lz)]
                         .real();
    comm.send(fp.rank, tag_base_ + 1, buf.data(), buf.size());
  }
  pending_.clear();
  for (const auto& fp : brick_rows_)
    pending_.push_back(comm.irecv(fp.rank, tag_base_ + 1));
}

void SlabExchange::finish_to_brick(mesh::Grid3D<double>& brick) {
  trace::Span span("slab-finish");
  for (std::size_t s = 0; s < brick_rows_.size(); ++s) {
    const auto& fp = brick_rows_[s];
    const std::size_t count =
        static_cast<std::size_t>(fp.x1 - fp.x0) * fp.ny * fp.nz;
    recv_buf_.resize(count);
    {
      trace::Span wait_span("slab-wait");
      Stopwatch w;
      pending_[s].wait_into(recv_buf_.data(), count);
      wait_s_ += w.seconds();
    }
    const std::size_t row = sizeof(double) * static_cast<std::size_t>(fp.nz);
    std::size_t o = 0;
    for (int gx = fp.x0; gx < fp.x1; ++gx)
      for (int ly = 0; ly < fp.ny; ++ly, o += fp.nz)
        std::memcpy(&brick.at(gx - my_lo_[0], ly, 0), recv_buf_.data() + o,
                    row);
  }
}

void allgather_bricks(const mesh::Grid3D<double>& brick,
                      const mesh::BrickDecomposition& dec,
                      comm::Communicator& comm,
                      mesh::Grid3D<double>& global) {
  global.fill(0.0);
  for (int i = 0; i < dec.local_n(0); ++i)
    for (int j = 0; j < dec.local_n(1); ++j)
      for (int k = 0; k < dec.local_n(2); ++k)
        global.at(dec.offset(0) + i, dec.offset(1) + j, dec.offset(2) + k) =
            brick.at(i, j, k);
  // Bricks are disjoint, so the sum assembles values exactly (x + 0 == x).
  comm.allreduce_sum(global.raw(), global.raw_size());
}

void gather_bricks(const mesh::Grid3D<double>& brick,
                   const mesh::BrickDecomposition& dec,
                   comm::CartTopology& cart, int tag_base,
                   mesh::Grid3D<double>& global) {
  comm::Communicator& comm = cart.comm();
  std::vector<double> buf;
  for (int i = 0; i < dec.local_n(0); ++i)
    for (int j = 0; j < dec.local_n(1); ++j)
      for (int k = 0; k < dec.local_n(2); ++k) buf.push_back(brick.at(i, j, k));
  comm.send(0, tag_base, buf.data(), buf.size());  // rank 0 too: buffered
  if (comm.rank() != 0) return;
  global.fill(0.0);
  for (int r = 0; r < comm.size(); ++r) {
    const mesh::BrickDecomposition d(dec.global(), dec.dims(),
                                     cart.coords_of(r));
    buf.resize(static_cast<std::size_t>(d.local_n(0)) * d.local_n(1) *
               d.local_n(2));
    comm.recv(r, tag_base, buf.data(), buf.size());
    std::size_t o = 0;
    for (int i = 0; i < d.local_n(0); ++i)
      for (int j = 0; j < d.local_n(1); ++j)
        for (int k = 0; k < d.local_n(2); ++k)
          global.at(d.offset(0) + i, d.offset(1) + j, d.offset(2) + k) =
              buf[o++];
  }
}

}  // namespace v6d::parallel
