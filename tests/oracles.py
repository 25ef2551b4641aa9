"""Independent reference computations used by the test modules.

Everything in here deliberately avoids the code paths of the package under
test: the gamma CDF is the closed-form series instead of scipy.special,
eigenvalues come from the characteristic polynomial instead of numpy's SVD,
the normal tail is numerically integrated, transforms are direct O(n^2)
sums, and the least-squares slope is the textbook ratio of sums.
"""

import math

import numpy as np
from scipy.integrate import quad


def gamma_cdf_series(l, x):
    """P(Gamma(l, 1) <= x) for integer shape l via the closed-form series
    1 - exp(-x) * sum_{k<l} x^k / k!."""
    if l != int(l) or l < 1:
        raise ValueError("integer shape only")
    partial = sum(x**k / math.factorial(k) for k in range(int(l)))
    return 1.0 - math.exp(-x) * partial


def charpoly_eigs(m):
    """Eigenvalues of the Hermitian matrix m @ m^H via the characteristic
    polynomial (Faddeev-LeVerrier coefficients, then np.roots)."""
    a = np.asarray(m) @ np.asarray(m).conj().T
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        mk = a @ mk
        ck = -np.trace(mk) / k
        coeffs[k] = ck
        mk = mk + ck * np.eye(n, dtype=complex)
    roots = np.roots(coeffs)
    vals = np.sort(roots.real)[::-1]
    return np.clip(vals, 0.0, None)


def normal_tail_quad(x):
    """Q(x) by numerical integration of the standard normal density."""
    density = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    value, _ = quad(density, x, np.inf)
    return value


def dft_direct(samples, sign):
    """Direct unitary transform sum_k z_k exp(sign * 2j pi i k / n) / sqrt(n).

    sign=-1 reproduces the frequency-to-time map used by the package,
    sign=+1 its inverse.
    """
    z = np.asarray(samples)
    n = len(z)
    i = np.arange(n)
    kernel = np.exp(sign * 2j * np.pi * np.outer(i, i) / n)
    return kernel @ z / math.sqrt(n)


def min_distance_exhaustive(points):
    best = np.inf
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = min(best, abs(pts[i] - pts[j]))
    return best


def ls_slope(x, y):
    """Plain least-squares slope sum((x-xbar)(y-ybar)) / sum((x-xbar)^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def wilson_direct(successes, trials, z):
    """Wilson score interval written out from the quadratic formula."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = p + z * z / (2.0 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return (centre - half) / denom, (centre + half) / denom


def rate_outage_l2_quad(snr, multiplex):
    """Rate outage of two unit-mean exponential fades x, y at multiplex ratio
    r: P[log2(1 + x*snr) + log2(1 + y*snr) < 2*r*log2(snr)], i.e.
    P[(1 + x*snr)(1 + y*snr) < T] with T = snr^(2r), by integrating the
    exponential tail of y over x in [0, (T - 1)/snr)."""
    target = snr ** (2.0 * multiplex)
    if target <= 1.0:
        return 0.0

    def integrand(x):
        y_max = (target / (1.0 + x * snr) - 1.0) / snr
        return math.exp(-x) * -math.expm1(-y_max)

    value, _ = quad(integrand, 0.0, (target - 1.0) / snr, epsabs=0.0, epsrel=1e-12)
    return value


def inverse_fade_mean_quad(a):
    """E[1/(1 + a*x)] for a unit-mean exponential x, by quadrature of
    exp(-x)/(1 + a*x) over [0, inf)."""
    value, _ = quad(lambda x: math.exp(-x) / (1.0 + a * x), 0.0, np.inf,
                    epsabs=0.0, epsrel=1e-12, limit=200)
    return value
