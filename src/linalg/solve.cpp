#include "linalg/solve.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hgp::la {

CVec lu_solve(const CMat& a_in, const CVec& b_in) {
  HGP_REQUIRE(a_in.rows() == a_in.cols(), "lu_solve: not square");
  HGP_REQUIRE(a_in.rows() == b_in.size(), "lu_solve: rhs size mismatch");
  const std::size_t n = a_in.rows();
  CMat a = a_in;
  CVec b = b_in;

  std::vector<std::size_t> piv(n);
  for (std::size_t i = 0; i < n; ++i) piv[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    HGP_REQUIRE(best > 1e-300, "lu_solve: singular matrix");
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
      std::swap(b[k], b[p]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const cxd f = a(i, k) / a(k, k);
      a(i, k) = f;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= f * a(k, j);
      b[i] -= f * b[k];
    }
  }
  CVec x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    cxd s = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= a(ii, j) * x[j];
    x[ii] = s / a(ii, ii);
  }
  return x;
}

namespace {
double dnrm2(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}
double ddot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}
}  // namespace

GmresResult gmres(const std::function<std::vector<double>(const std::vector<double>&)>& matvec,
                  const std::vector<double>& b, int max_iter, double tol, int restart) {
  const std::size_t n = b.size();
  GmresResult out;
  out.x.assign(n, 0.0);
  const double bnorm = std::max(dnrm2(b), 1e-300);

  int total_iters = 0;
  while (total_iters < max_iter) {
    // r = b - A x
    std::vector<double> r = matvec(out.x);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    double beta = dnrm2(r);
    out.residual = beta / bnorm;
    if (out.residual < tol) {
      out.converged = true;
      return out;
    }

    const int m = std::min<int>(restart, max_iter - total_iters);
    std::vector<std::vector<double>> v;  // Krylov basis
    v.reserve(m + 1);
    for (double& x : r) x /= beta;
    v.push_back(r);

    // Hessenberg (m+1) x m, Givens rotations, residual vector g.
    std::vector<std::vector<double>> h(m + 1, std::vector<double>(m, 0.0));
    std::vector<double> cs(m, 0.0), sn(m, 0.0), g(m + 1, 0.0);
    g[0] = beta;

    int k = 0;
    for (; k < m; ++k) {
      std::vector<double> w = matvec(v[k]);
      for (int j = 0; j <= k; ++j) {
        h[j][k] = ddot(w, v[j]);
        for (std::size_t i = 0; i < n; ++i) w[i] -= h[j][k] * v[j][i];
      }
      // The Arnoldi subdiagonal, kept for the breakdown test: the Givens
      // step below zeroes h[k + 1][k] itself.
      const double subdiag = dnrm2(w);
      h[k + 1][k] = subdiag;
      if (subdiag > 1e-14) {
        for (double& x : w) x /= subdiag;
        v.push_back(w);
      }
      // Apply previous Givens rotations to the new column.
      for (int j = 0; j < k; ++j) {
        const double t = cs[j] * h[j][k] + sn[j] * h[j + 1][k];
        h[j + 1][k] = -sn[j] * h[j][k] + cs[j] * h[j + 1][k];
        h[j][k] = t;
      }
      const double denom = std::hypot(h[k][k], h[k + 1][k]);
      if (denom < 1e-300) {
        ++k;
        break;
      }
      cs[k] = h[k][k] / denom;
      sn[k] = h[k + 1][k] / denom;
      h[k][k] = denom;
      h[k + 1][k] = 0.0;
      g[k + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];
      ++total_iters;
      out.residual = std::abs(g[k + 1]) / bnorm;
      if (out.residual < tol || subdiag == 0.0) {
        ++k;
        break;
      }
      if (static_cast<std::size_t>(k + 1) >= v.size()) {  // lucky breakdown
        ++k;
        break;
      }
    }

    // Back-substitute y from H y = g, update x.
    std::vector<double> y(k, 0.0);
    for (int i = k - 1; i >= 0; --i) {
      double s = g[i];
      for (int j = i + 1; j < k; ++j) s -= h[i][j] * y[j];
      y[i] = s / h[i][i];
    }
    for (int j = 0; j < k; ++j)
      for (std::size_t i = 0; i < n; ++i) out.x[i] += y[j] * v[j][i];

    out.iterations = total_iters;
    if (out.residual < tol) {
      out.converged = true;
      return out;
    }
    if (k == 0) break;  // no progress possible
  }
  // Final residual check.
  std::vector<double> r = matvec(out.x);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  out.residual = dnrm2(r) / bnorm;
  out.converged = out.residual < tol;
  return out;
}

}  // namespace hgp::la
