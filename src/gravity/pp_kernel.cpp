#include "gravity/pp_kernel.hpp"

#include <cmath>

#include "simd/pack.hpp"

namespace v6d::gravity {

double shortrange_s(double u) {
  return std::erfc(u) + 2.0 / std::sqrt(M_PI) * u * std::exp(-u * u);
}

CutoffPoly::CutoffPoly(double u_cut, int degree) : u_cut_(u_cut) {
  // Chebyshev coefficients from function values at Chebyshev nodes
  // (discrete cosine transform).  S(u) is analytic in u, so the series
  // converges spectrally: degree ~14 reaches ~1e-7 on u_cut ~ 2-3.
  const int n = degree + 1;
  std::vector<double> fk(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const double xk = std::cos(M_PI * (k + 0.5) / n);   // node in (-1, 1)
    const double u = 0.5 * u_cut * (xk + 1.0);
    fk[static_cast<std::size_t>(k)] = shortrange_s(u);
  }
  coeffs_.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    double acc = 0.0;
    for (int k = 0; k < n; ++k)
      acc += fk[static_cast<std::size_t>(k)] *
             std::cos(M_PI * j * (k + 0.5) / n);
    coeffs_[static_cast<std::size_t>(j)] =
        static_cast<float>((j == 0 ? 1.0 : 2.0) * acc / n);
  }
}

float CutoffPoly::eval(float u) const {
  if (u >= static_cast<float>(u_cut_)) return 0.0f;
  // Clenshaw recurrence on x = 2u/u_cut - 1.
  const float x = 2.0f * u / static_cast<float>(u_cut_) - 1.0f;
  const float two_x = 2.0f * x;
  float b1 = 0.0f, b2 = 0.0f;
  for (std::size_t k = coeffs_.size(); k-- > 1;) {
    const float b0 = coeffs_[k] + two_x * b1 - b2;
    b2 = b1;
    b1 = b0;
  }
  return coeffs_[0] + x * b1 - b2;
}

double CutoffPoly::max_fit_error() const {
  double worst = 0.0;
  const int samples = 2000;
  for (int i = 0; i < samples; ++i) {
    const double u = u_cut_ * i / samples;
    const double err =
        std::fabs(eval(static_cast<float>(u)) - shortrange_s(u));
    worst = std::max(worst, err);
  }
  return worst;
}

void pp_accumulate_scalar(const double* tx, const double* ty,
                          const double* tz, std::size_t nt, const double* sx,
                          const double* sy, const double* sz,
                          const double* sm, std::size_t ns,
                          const PpKernelParams& params, double* ax,
                          double* ay, double* az) {
  const double eps2 = params.eps * params.eps;
  const double rcut2 = params.rcut > 0.0 ? params.rcut * params.rcut : 0.0;
  const double inv_2rs = params.rs > 0.0 ? 1.0 / (2.0 * params.rs) : 0.0;
  for (std::size_t t = 0; t < nt; ++t) {
    double gx = 0.0, gy = 0.0, gz = 0.0;
    for (std::size_t s = 0; s < ns; ++s) {
      const double dx = sx[s] - tx[t];
      const double dy = sy[s] - ty[t];
      const double dz = sz[s] - tz[t];
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      if (r2 == 0.0) continue;
      if (rcut2 > 0.0 && r2 > rcut2) continue;
      const double r = std::sqrt(r2);
      double f = sm[s] / (r2 * r);
      if (params.rs > 0.0) f *= shortrange_s(r * inv_2rs);
      gx += f * dx;
      gy += f * dy;
      gz += f * dz;
    }
    ax[t] += gx;
    ay[t] += gy;
    az[t] += gz;
  }
}

void pp_accumulate_simd(const float* tx, const float* ty, const float* tz,
                        std::size_t nt, const float* sx, const float* sy,
                        const float* sz, const float* sm, std::size_t ns,
                        const PpKernelParams& params, const CutoffPoly& poly,
                        float* ax, float* ay, float* az) {
  using P = simd::PackF;
  constexpr int L = P::width;
  const float eps2 = static_cast<float>(params.eps * params.eps);
  const float inv_2rs =
      params.rs > 0.0 ? static_cast<float>(1.0 / (2.0 * params.rs)) : 0.0f;
  const float rcut2 =
      params.rcut > 0.0 ? static_cast<float>(params.rcut * params.rcut)
                        : 0.0f;
  const bool split = params.rs > 0.0;
  const auto& c = poly.coeffs();

  // Loop invariants, broadcast once: the pair body below runs per source
  // pack, and GCC does not hoist broadcasts out of its branches.
  const P veps2 = P::broadcast(eps2);
  const P one = P::broadcast(1.0f);
  const P vinv_2rs = P::broadcast(inv_2rs);
  const P vx_scale = P::broadcast(2.0f / static_cast<float>(poly.u_cut()));
  const P vrcut2 = P::broadcast(rcut2);
  std::vector<P> cb(c.size());
  for (std::size_t k = 0; k < c.size(); ++k) cb[k] = P::broadcast(c[k]);

  // One pack of sources against one target, accumulated into g*.
  const auto interact = [&](P dx, P dy, P dz, P m, P& gx, P& gy, P& gz) {
    const P r2 = simd::fma(dz, dz, simd::fma(dy, dy, dx * dx)) + veps2;
    const P r = simd::sqrt(r2);
    const P inv_r3 = one / (r2 * r);
    P f = m * inv_r3;
    if (split) {
      // Clenshaw evaluation of the Chebyshev series at x = 2u/ucut - 1.
      const P u = r * vinv_2rs;
      const P x = u * vx_scale - one;
      const P two_x = x + x;
      P b1 = P::zero(), b2 = P::zero();
      for (std::size_t k = cb.size(); k-- > 1;) {
        const P b0 = simd::fma(two_x, b1, cb[k] - b2);
        b2 = b1;
        b1 = b0;
      }
      const P spoly = simd::fma(x, b1, cb[0] - b2);
      f = f * spoly;
    }
    if (rcut2 > 0.0f) f = simd::select<float, L>(r2 < vrcut2, f, P::zero());
    // Suppress self-interaction (r2 == 0 with zero softening).
    f = simd::select<float, L>(r2 > P::zero(), f, P::zero());
    gx = simd::fma(f, dx, gx);
    gy = simd::fma(f, dy, gy);
    gz = simd::fma(f, dz, gz);
  };

  // Vectorize over sources; the tail is padded with zero-mass phantom
  // sources placed on the target (dx = 0), which contribute exactly zero.
  const std::size_t ns_full = ns / L * L;
  const std::size_t tail = ns - ns_full;
  float pad_x[L], pad_y[L], pad_z[L], pad_m[L] = {};
  for (std::size_t k = 0; k < tail; ++k) pad_m[k] = sm[ns_full + k];
  for (std::size_t t = 0; t < nt; ++t) {
    const P px = P::broadcast(tx[t]);
    const P py = P::broadcast(ty[t]);
    const P pz = P::broadcast(tz[t]);
    P gx = P::zero(), gy = P::zero(), gz = P::zero();
    for (std::size_t s = 0; s < ns_full; s += L)
      interact(P::load(sx + s) - px, P::load(sy + s) - py,
               P::load(sz + s) - pz, P::load(sm + s), gx, gy, gz);
    if (tail > 0) {
      for (std::size_t k = 0; k < static_cast<std::size_t>(L); ++k) {
        pad_x[k] = k < tail ? sx[ns_full + k] : tx[t];
        pad_y[k] = k < tail ? sy[ns_full + k] : ty[t];
        pad_z[k] = k < tail ? sz[ns_full + k] : tz[t];
      }
      interact(P::load(pad_x) - px, P::load(pad_y) - py, P::load(pad_z) - pz,
               P::load(pad_m), gx, gy, gz);
    }
    ax[t] += simd::horizontal_sum(gx);
    ay[t] += simd::horizontal_sum(gy);
    az[t] += simd::horizontal_sum(gz);
  }
}

}  // namespace v6d::gravity
