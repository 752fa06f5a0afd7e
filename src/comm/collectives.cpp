// Collectives over the transport seam.  Each one is built on the
// Transport's staged-gather / bcast / alltoallv primitives; reductions
// read the per-rank contributions in rank order, so the floating-point
// results are bit-identical across backends (and identical to the
// pre-seam in-process runtime).
#include <algorithm>
#include <cstring>

#include "comm/communicator.hpp"

namespace v6d::comm {

namespace {

template <class T>
void allreduce_sum_impl(Transport* transport, int nranks, T* data,
                        std::size_t n) {
  std::vector<T> local(data, data + n);
  transport->gather_all(local.data(), n * sizeof(T), [&](const StageView& v) {
    std::fill(data, data + n, T(0));
    for (int r = 0; r < nranks; ++r) {
      const T* src = static_cast<const T*>(v.data(r));
      for (std::size_t i = 0; i < n; ++i) data[i] += src[i];
    }
  });
}

}  // namespace

void Communicator::allreduce_sum(double* data, std::size_t n) {
  allreduce_sum_impl(transport_, size(), data, n);
  count_collective(n * sizeof(double));
}

void Communicator::allreduce_sum(float* data, std::size_t n) {
  allreduce_sum_impl(transport_, size(), data, n);
  count_collective(n * sizeof(float));
}

std::int64_t Communicator::allreduce_sum(std::int64_t x) {
  std::int64_t v = x;
  transport_->gather_all(&v, sizeof(v), [&](const StageView& view) {
    x = 0;
    for (int r = 0; r < size(); ++r)
      x += *static_cast<const std::int64_t*>(view.data(r));
  });
  count_collective(sizeof(std::int64_t));
  return x;
}

double Communicator::allreduce_max(double x) {
  double v = x;
  transport_->gather_all(&v, sizeof(v), [&](const StageView& view) {
    for (int r = 0; r < size(); ++r)
      x = std::max(x, *static_cast<const double*>(view.data(r)));
  });
  count_collective(sizeof(double));
  return x;
}

double Communicator::allreduce_min(double x) {
  double v = x;
  transport_->gather_all(&v, sizeof(v), [&](const StageView& view) {
    for (int r = 0; r < size(); ++r)
      x = std::min(x, *static_cast<const double*>(view.data(r)));
  });
  count_collective(sizeof(double));
  return x;
}

void Communicator::bcast_bytes(void* data, std::size_t bytes, int root) {
  transport_->bcast(data, bytes, root);
  if (rank_ == root) count_collective(bytes);
}

void Communicator::allgather_bytes(const void* data, std::size_t bytes,
                                   void* out) {
  transport_->gather_all(data, bytes, [&](const StageView& view) {
    auto* dst = static_cast<std::uint8_t*>(out);
    for (int r = 0; r < size(); ++r)
      std::memcpy(dst + static_cast<std::size_t>(r) * bytes, view.data(r),
                  bytes);
  });
  count_collective(bytes);
}

void Communicator::alltoall_bytes(const void* send, void* recv,
                                  std::size_t bytes_each) {
  const int n = size();
  transport_->gather_all(
      send, bytes_each * static_cast<std::size_t>(n),
      [&](const StageView& view) {
        auto* dst = static_cast<std::uint8_t*>(recv);
        for (int r = 0; r < n; ++r) {
          const auto* src = static_cast<const std::uint8_t*>(view.data(r));
          std::memcpy(dst + static_cast<std::size_t>(r) * bytes_each,
                      src + static_cast<std::size_t>(rank_) * bytes_each,
                      bytes_each);
        }
      });
  bytes_sent_ += bytes_each * static_cast<std::size_t>(n - 1);
}

std::vector<std::vector<std::uint8_t>> Communicator::alltoallv(
    const std::vector<std::vector<std::uint8_t>>& send) {
  auto recv = transport_->alltoallv(send);
  if (size() == 1) return recv;  // a world of one sends nothing
  for (const auto& buf : send) {
    bytes_sent_ += buf.size();
    if (!buf.empty()) ++messages_sent_;
  }
  return recv;
}

}  // namespace v6d::comm
