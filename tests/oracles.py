"""Independent reference computations used by the test modules.

Everything in here deliberately avoids the code paths of the package under
test: the gamma CDF is the closed-form series instead of scipy.special,
eigenvalues come from the characteristic polynomial instead of numpy's SVD,
the rate outages are integrated or convolved numerically, and the
least-squares slope is the textbook ratio of sums.
"""

import decimal
import math

import numpy as np
from scipy.integrate import quad


def gamma_cdf_series(l, x):
    """P(Gamma(l, 1) <= x) for integer shape l via the closed-form series
    1 - exp(-x) * sum_{k<l} x^k / k!, in decimal at 400 digits from the exact
    value of the double x, with a correctly rounded exp: the difference from
    1 keeps about 100 digits even at P = 1e-300, so the lower tail does not
    cancel."""
    if l != int(l) or l < 1:
        raise ValueError("integer shape only")
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        x = decimal.Decimal(x)
        term = partial = decimal.Decimal(1)
        for k in range(1, int(l)):
            term = term * x / k
            partial += term
        return float(1 - (-x).exp() * partial)


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


def rate_outage_convolution(l, snr, multiplex, step=2e-4):
    """Rate outage of l unit-mean exponential fades at multiplex ratio r:
    P[sum_i log2(1 + x_i*snr) < l*r*log2(snr)].  Each term has the exact law
    P[log2(1 + x*snr) <= y] = 1 - exp(-(2**y - 1)/snr); its probabilities on
    bins of width ``step`` (up to x = 60) are convolved l times by one FFT,
    each bin standing at its midpoint.  Accurate to about 1e-5 at the
    default step, for l up to about 64."""
    target = l * multiplex * math.log2(snr)
    edges = np.arange(0.0, math.log2(1.0 + 60.0 * snr) + step, step)
    pmf = np.diff(-np.expm1(-(np.exp2(edges) - 1.0) / snr))
    size = l * pmf.size
    n = 1 << (size - 1).bit_length()
    sums = np.fft.irfft(np.fft.rfft(pmf, n) ** l, n)[:size]
    at = (np.arange(size) + l / 2.0) * step
    return float(np.sum(sums[at < target]))
