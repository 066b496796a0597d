#include "suite/suite.hpp"

#include <cmath>
#include <stdexcept>

namespace hpf90d::suite {

namespace {

front::Bindings bind_n(long long n) {
  front::Bindings b;
  b.set_int("n", n);
  return b;
}

long long identity_elements(long long n) { return n; }

// ---------------------------------------------------------------------------
// Livermore Fortran Kernels
// ---------------------------------------------------------------------------

const char* const kLfk1 = R"f90(
program lfk1
  parameter (n = 1024, niter = 10)
  real x(n), y(n), z(n)
  real q, r, t
!hpf$ template d(n)
!hpf$ align x(i) with d(i)
!hpf$ align y(i) with d(i)
!hpf$ align z(i) with d(i)
!hpf$ distribute d(block)
  q = 0.5
  r = 0.2
  t = 0.1
  do it = 1, niter
    forall (k = 1:n-11) x(k) = q + y(k)*(r*z(k+10) + t*z(k+11))
  end do
end program lfk1
)f90";

const char* const kLfk2 = R"f90(
program lfk2
  parameter (n = 1024, nlev = 10, m = 2*n)
  real x(m), v(m)
!hpf$ template d(m)
!hpf$ align x(i) with d(i)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  integer ii, ipnt, ipntp
  ii = n
  ipntp = 0
  do lev = 1, nlev
    ipnt = ipntp
    ipntp = ipntp + ii
    ii = ii/2
    forall (k = 1:ii) x(ipntp + k) = x(ipnt + 2*k) - v(ipnt + 2*k)*x(ipnt + 2*k - 1)
  end do
end program lfk2
)f90";

const char* const kLfk3 = R"f90(
program lfk3
  parameter (n = 1024, niter = 10)
  real x(n), z(n)
  real q
!hpf$ template d(n)
!hpf$ align x(i) with d(i)
!hpf$ align z(i) with d(i)
!hpf$ distribute d(block)
  do it = 1, niter
    q = sum(z*x)
  end do
  print *, q
end program lfk3
)f90";

const char* const kLfk9 = R"f90(
program lfk9
  parameter (n = 1024, niter = 10)
  real px(n,13)
  real dm22, dm23, dm24, dm25, dm26, dm27, dm28, c0
!hpf$ template d(n)
!hpf$ align px(i,j) with d(i)
!hpf$ distribute d(block)
  dm22 = 0.141
  dm23 = 0.232
  dm24 = 0.323
  dm25 = 0.414
  dm26 = 0.505
  dm27 = 0.696
  dm28 = 0.787
  c0 = 0.375
  do it = 1, niter
    forall (i = 1:n) px(i,1) = dm28*px(i,13) + dm27*px(i,12) + dm26*px(i,11) + &
        dm25*px(i,10) + dm24*px(i,9) + dm23*px(i,8) + dm22*px(i,7) + &
        c0*(px(i,5) + px(i,6)) + px(i,3)
  end do
end program lfk9
)f90";

const char* const kLfk14 = R"f90(
program lfk14
  parameter (n = 1024, niter = 5)
  real vx(n), xx(n), ex(n), rh(n)
  real flx
  integer ix(n), ir(n)
!hpf$ template d(n)
!hpf$ align vx(i) with d(i)
!hpf$ align xx(i) with d(i)
!hpf$ align ex(i) with d(i)
!hpf$ align rh(i) with d(i)
!hpf$ align ix(i) with d(i)
!hpf$ align ir(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) ix(i) = mod(i*7, n) + 1
  forall (i = 1:n) ir(i) = mod(i*13, n) + 1
  flx = 0.001
  do it = 1, niter
    forall (i = 1:n) vx(i) = vx(i) + ex(ix(i))
    forall (i = 1:n) xx(i) = xx(i) + vx(i)*flx
    forall (i = 1:n) rh(ir(i)) = rh(ir(i)) + vx(i)
  end do
end program lfk14
)f90";

const char* const kLfk22 = R"f90(
program lfk22
  parameter (n = 1024, niter = 10)
  real u(n), v(n), w(n), x(n), y(n)
!hpf$ template d(n)
!hpf$ align u(i) with d(i)
!hpf$ align v(i) with d(i)
!hpf$ align w(i) with d(i)
!hpf$ align x(i) with d(i)
!hpf$ align y(i) with d(i)
!hpf$ distribute d(block)
  do it = 1, niter
    forall (k = 1:n) y(k) = u(k)/v(k)
    forall (k = 1:n) w(k) = x(k)/(exp(y(k)) - 1.0)
  end do
end program lfk22
)f90";

// ---------------------------------------------------------------------------
// Purdue Benchmarking Set
// ---------------------------------------------------------------------------

const char* const kPbs1 = R"f90(
program pbs1
  parameter (n = 1024)
  real y(n)
  real a, b, h, t1, area
!hpf$ template d(n)
!hpf$ align y(i) with d(i)
!hpf$ distribute d(block)
  a = 0.0
  b = 1.0
  h = (b - a)/real(n - 1)
  forall (i = 1:n) y(i) = 1.0/(1.0 + (a + real(i - 1)*h)*(a + real(i - 1)*h))
  t1 = sum(y)
  area = h*(t1 - 0.5*y(1) - 0.5*y(n))
  print *, area
end program pbs1
)f90";

const char* const kPbs2 = R"f90(
program pbs2
  parameter (n = 256, m = 16)
  real a(n,m), p(n)
  real e
!hpf$ template d(n)
!hpf$ align a(i,j) with d(i)
!hpf$ align p(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n, j = 1:m) a(i,j) = 1.0/(0.5*abs(real(i - j)) + 1.001)
  p = product(a, 2)
  e = sum(p)
  print *, e
end program pbs2
)f90";

const char* const kPbs3 = R"f90(
program pbs3
  parameter (n = 256, m = 16)
  real a(n,m), p(n)
  real s
!hpf$ template d(n)
!hpf$ align a(i,j) with d(i)
!hpf$ align p(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n, j = 1:m) a(i,j) = 1.0 + 1.0/real(i + j)
  p = product(a, 2)
  s = sum(p)
  print *, s
end program pbs3
)f90";

const char* const kPbs4 = R"f90(
program pbs4
  parameter (n = 1024)
  real x(n), y(n)
  real r
!hpf$ template d(n)
!hpf$ align x(i) with d(i)
!hpf$ align y(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) x(i) = 1.0 + real(i)/real(n)
  forall (i = 1:n) y(i) = 1.0/x(i)
  r = sum(y)
  print *, r
end program pbs4
)f90";

// ---------------------------------------------------------------------------
// Applications
// ---------------------------------------------------------------------------

const char* const kPi = R"f90(
program pi
  parameter (n = 1024)
  real f(n)
  real h, pival
!hpf$ template d(n)
!hpf$ align f(i) with d(i)
!hpf$ distribute d(block)
  h = 1.0/real(n)
  forall (i = 1:n) f(i) = 4.0/(1.0 + ((real(i) - 0.5)*h)*((real(i) - 0.5)*h))
  pival = h*sum(f)
  print *, pival
end program pi
)f90";

const char* const kNbody = R"f90(
program nbody
  parameter (n = 256)
  real x(n), m(n), f(n), qx(n), qm(n)
  real g, eps
!hpf$ template d(n)
!hpf$ align x(i) with d(i)
!hpf$ align m(i) with d(i)
!hpf$ align f(i) with d(i)
!hpf$ align qx(i) with d(i)
!hpf$ align qm(i) with d(i)
!hpf$ distribute d(block)
  g = 0.001
  eps = 0.01
  forall (i = 1:n) x(i) = real(i)
  forall (i = 1:n) m(i) = 1.0
  forall (i = 1:n) f(i) = 0.0
  qx = x
  qm = m
  do ks = 1, n - 1
    qx = cshift(qx, 1)
    qm = cshift(qm, 1)
    forall (i = 1:n) f(i) = f(i) + g*m(i)*qm(i)/((x(i) - qx(i))*(x(i) - qx(i)) + eps)
  end do
  print *, f(1)
end program nbody
)f90";

const char* const kFinance = R"f90(
program finance
  parameter (n = 256, nstep = 16)
  real s(n), c(n), w(n)
  real s0, u, k0, disc
!hpf$ template d(n)
!hpf$ align s(i) with d(i)
!hpf$ align c(i) with d(i)
!hpf$ align w(i) with d(i)
!hpf$ distribute d(block)
  s0 = 50.0
  u = 1.01
  k0 = 50.0
  disc = 0.95
  forall (i = 1:n) s(i) = s0
  do j = 1, nstep
    s = cshift(s, 1)
    forall (i = 1:n) s(i) = s(i)*u
  end do
  forall (i = 1:n) c(i) = max(s(i) - k0, 0.0)
  forall (i = 1:n) w(i) = c(i)*disc
  print *, w(1)
end program finance
)f90";

const char* const kLaplace = R"f90(
program laplace
  parameter (n = 64, niter = 10)
  real u(n,n), unew(n,n)
!hpf$ processors p(2,2)
!hpf$ template d(n,n)
!hpf$ align u(i,j) with d(i,j)
!hpf$ align unew(i,j) with d(i,j)
!hpf$ distribute d(block,block)
  forall (i = 1:n, j = 1:n) u(i,j) = 0.0
  forall (i = 1:n) u(i,1) = 1.0
  forall (i = 1:n) u(i,n) = 1.0
  do it = 1, niter
    forall (i = 2:n-1, j = 2:n-1) unew(i,j) = 0.25*(u(i-1,j) + u(i+1,j) + &
        u(i,j-1) + u(i,j+1))
    forall (i = 2:n-1, j = 2:n-1) u(i,j) = unew(i,j)
  end do
  print *, u(n/2, n/2)
end program laplace
)f90";

std::vector<BenchmarkApp> build_suite() {
  std::vector<BenchmarkApp> apps;

  auto add = [&](std::string id, std::string name, std::string description,
                 const char* source, std::vector<long long> sizes,
                 std::function<front::Bindings(long long)> bindings = bind_n,
                 std::function<long long(long long)> elements = identity_elements,
                 std::vector<std::string> overrides = {},
                 std::optional<int> grid_rank = std::nullopt) {
    BenchmarkApp app;
    app.id = std::move(id);
    app.name = std::move(name);
    app.description = std::move(description);
    app.source = source;
    app.problem_sizes = std::move(sizes);
    app.bindings = std::move(bindings);
    app.data_elements = std::move(elements);
    app.directive_overrides = std::move(overrides);
    app.grid_rank = grid_rank;
    apps.push_back(std::move(app));
  };

  const std::vector<long long> kernel_sizes{128, 256, 512, 1024, 2048, 4096};

  add("lfk1", "LFK 1", "Hydro Fragment", kLfk1, kernel_sizes);
  add("lfk2", "LFK 2", "ICCG Excerpt (Incomplete Cholesky; Conj. Grad.)", kLfk2,
      kernel_sizes, [](long long n) {
        front::Bindings b;
        b.set_int("n", n);
        b.set_int("m", 2 * n);
        b.set_int("nlev", static_cast<long long>(std::log2(static_cast<double>(n))));
        return b;
      });
  add("lfk3", "LFK 3", "Inner Product", kLfk3, kernel_sizes);
  add("lfk9", "LFK 9", "Integrate Predictors", kLfk9, kernel_sizes);
  add("lfk14", "LFK 14", "1-D PIC (Particle In Cell)", kLfk14, kernel_sizes);
  add("lfk22", "LFK 22", "Planckian Distribution", kLfk22, kernel_sizes);

  add("pbs1", "PBS 1", "Trapezoidal rule estimate of an integral of f(x)", kPbs1,
      kernel_sizes);
  // PBS 2/3 sweep data elements 256 - 65536 with m = 16 columns
  const std::vector<long long> pbs_rows{16, 64, 256, 1024, 4096};
  auto pbs_bind = [](long long n) {
    front::Bindings b;
    b.set_int("n", n);
    b.set_int("m", 16);
    return b;
  };
  auto pbs_elems = [](long long n) { return n * 16; };
  add("pbs2", "PBS 2", "Compute e = sum_i prod_j 1/(1 + 0.5|i-j| + 0.001)", kPbs2,
      pbs_rows, pbs_bind, pbs_elems);
  add("pbs3", "PBS 3", "Compute S = sum_i prod_j a(i,j)", kPbs3, pbs_rows, pbs_bind,
      pbs_elems);
  add("pbs4", "PBS 4", "Compute R = sum_i 1/x(i)", kPbs4, kernel_sizes);

  add("pi", "PI", "Approximation of pi by n-point quadrature", kPi, kernel_sizes);
  add("nbody", "N-Body", "Newtonian gravitational n-body simulation", kNbody,
      {16, 64, 256, 1024});
  add("finance", "Financial", "Parallel stock option pricing model", kFinance,
      {32, 64, 128, 256, 512});

  const std::vector<long long> laplace_sizes{16, 32, 64, 128, 256};
  add("laplace_bb", "Laplace (Blk-Blk)", "Laplace solver, (BLOCK,BLOCK) distribution",
      kLaplace, laplace_sizes, bind_n, [](long long n) { return n * n; },
      {"processors p(2,2)", "distribute d(block,block)"}, 2);
  add("laplace_bx", "Laplace (Blk-X)", "Laplace solver, (BLOCK,*) distribution",
      kLaplace, laplace_sizes, bind_n, [](long long n) { return n * n; },
      {"processors p(4)", "distribute d(block,*)"});
  add("laplace_xb", "Laplace (X-Blk)", "Laplace solver, (*,BLOCK) distribution",
      kLaplace, laplace_sizes, bind_n, [](long long n) { return n * n; },
      {"processors p(4)", "distribute d(*,block)"});

  return apps;
}

}  // namespace

const std::vector<BenchmarkApp>& validation_suite() {
  static const std::vector<BenchmarkApp> suite = build_suite();
  return suite;
}

const BenchmarkApp& app(std::string_view id) {
  for (const auto& a : validation_suite()) {
    if (a.id == id) return a;
  }
  throw std::out_of_range("unknown benchmark app: " + std::string(id));
}

}  // namespace hpf90d::suite
