"""Entire special functions and the free-space fundamental-solution family.

The free-space kernel in dimension n splits into an entire log coefficient and
an entire remainder profile::

    S_n(x, k) = k**(n-2) * Jn(k|x|) * log|x| + Nn(k|x|) / |x|**(n-2)

with Jn and Nn even entire functions (returned by :func:`fs_coefficients`).
Near the origin both profiles are power series in w = z**2 (DLMF 10.8), each
point summed by Horner's rule to the degree of its own rung of |z|, whatever the
other points of the call; past the series radius they come from standard Bessel
identities after an even reflection that keeps arguments off Y_nu's branch cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy import special as sp

from .errors import SeriesTruncationError

__all__ = [
    "EntireSeries",
    "FundamentalSolutionValue",
    "ProfilePoints",
    "entire_bessel_J",
    "entire_neumann",
    "entire_neumann_dz_over_z",
    "fs_coefficients",
    "fs_coefficients_dz_over_z",
    "fundamental_solution",
    "analytic_correction",
    "jtilde_series",
    "ntilde_series",
    "RUNGS",
    "SERIES_RADIUS",
]

EULER_GAMMA = float(np.euler_gamma)

# Largest |z| routed to the power series.  Its terms peak near I_0(|z|): up to
# 8 (I_0(8) = 427) the sums keep within about 1e-15 of mpmath; towards 12 N~_0
# and J~_0 drift by a few 1e-13, where SciPy's Bessel functions do not.
SERIES_RADIUS = 8.0

_MAX_DEGREE = 220
_TAIL_SAFETY = 0.1
RUNGS = 2.0 ** np.arange(-10, 5)  # upper edges of the rungs of |z|


def _harmonic(m: int) -> float:
    """Partial harmonic sum h_m = sum_{j=1..m} 1/j (h_0 = 0)."""
    return float(np.sum(1.0 / np.arange(1, m + 1))) if m > 0 else 0.0


@dataclass(frozen=True)
class EntireSeries:
    """Even entire function stored as coefficients of z**(2m).

    A point is summed by Horner's rule in w = z**2 to its rung's degree (see
    :class:`ProfilePoints`).  A call raises :class:`SeriesTruncationError` when
    the terms |c_m| max|z|**(2m) at ``truncation_degree`` exceed a tenth of
    ``target_tolerance``.
    """

    order: float
    coefficients: np.ndarray
    truncation_degree: int
    target_tolerance: float = 1e-14
    kind: str = "generic"

    @cached_property
    def rung_degrees(self) -> np.ndarray:
        """Degree summed on each rung of :data:`RUNGS`, then past the last one."""
        return np.maximum.accumulate([_trim_degree(self.coefficients, rho) for rho in RUNGS]
                                     + [self.truncation_degree])

    @cached_property
    def dz_over_z(self) -> EntireSeries:
        """f'(z)/z, itself an even entire function."""
        m = np.arange(1, self.truncation_degree + 1)
        return EntireSeries(self.order, 2.0 * m * self.coefficients[m], self.truncation_degree - 1,
                            self.target_tolerance, f"d/dz over z of {self.kind}")

    def __call__(self, z):
        return _SeriesPoints(z).profile(self)


def _trim_degree(coeffs: np.ndarray, radius: float = 20.0) -> int:
    """Smallest degree whose trailing three terms stay below 1e-17 at |z| = radius."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logmags = np.log(np.abs(coeffs)) + 2.0 * np.arange(len(coeffs)) * np.log(radius)
    logtol = np.log(1e-17)
    for d in range(4, len(coeffs)):
        if np.all(logmags[d - 2 : d + 1] < logtol):
            return d
    return len(coeffs) - 1


def jtilde_series(nu: float, degree: int | None = None) -> EntireSeries:
    """Series for z**(-nu) J_nu(z): coefficients (-1)^m / (m! Gamma(m+nu+1) 2^(2m+nu)).

    Valid for any real order; reciprocal-Gamma zeros make negative integer
    orders come out right automatically.
    """
    cap = _MAX_DEGREE if degree is None else degree
    c = np.zeros(cap + 1)
    # Direct formula while leading coefficients may vanish (negative integer
    # orders) or the recurrence divisor crosses zero; recurrence afterwards to
    # dodge factorial overflow.
    direct_span = int(np.ceil(abs(nu))) + 1
    for m in range(cap + 1):
        if m <= direct_span or abs(m + nu) < 1e-12 or (c[m - 1] == 0.0 and m <= 30):
            c[m] = (-1.0) ** m * sp.rgamma(m + nu + 1.0) / (sp.factorial(m) * 2.0 ** (2 * m + nu))
        elif c[m - 1] == 0.0:
            c[m] = 0.0  # underflowed tail: keep at zero
        else:
            c[m] = -c[m - 1] / (4.0 * m * (m + nu))
    d = _trim_degree(c) if degree is None else degree
    return EntireSeries(order=float(nu), coefficients=c[: d + 1], truncation_degree=d,
                        kind="jtilde")


def ntilde_series(p: int, degree: int | None = None) -> EntireSeries:
    """Series for the log-free part of the integer Neumann function.

    For p in {0, 1} this is z**p Y_p(z) - (2/pi)(log(z/2) + gamma) z**p J_p(z),
    an even entire function of z.
    """
    if p not in (0, 1):
        raise ValueError(f"integer Neumann profile only provided for p in {{0, 1}}, got {p}")
    cap = _MAX_DEGREE if degree is None else degree
    c = np.zeros(cap + 1)
    if p == 0:
        # coefficient of z^(2m): (2/pi) (-1)^(m+1) h_m / (4^m (m!)^2), m >= 1,
        # built by the harmonic-weighted ratio recurrence to avoid overflow
        c[1] = 1.0 / (2.0 * np.pi)
        for m in range(2, cap + 1):
            c[m] = -c[m - 1] * (_harmonic(m) / _harmonic(m - 1)) / (4.0 * m * m)
    else:
        # -2/pi - (1/pi) sum_{m>=0} (-1)^m (h_m + h_{m+1}) z^(2m+2) / (m!(m+1)! 2^(2m+1))
        c[0] = -2.0 / np.pi
        c[1] = -1.0 / (2.0 * np.pi)
        for m in range(2, cap + 1):
            num = _harmonic(m - 1) + _harmonic(m)
            den = _harmonic(m - 2) + _harmonic(m - 1)
            c[m] = -c[m - 1] * (num / den) / (4.0 * m * (m - 1))
    d = _trim_degree(c) if degree is None else degree
    return EntireSeries(order=float(p), coefficients=c[: d + 1], truncation_degree=d,
                        kind="ntilde")


_get_jtilde = cache(jtilde_series)
_get_ntilde = cache(ntilde_series)


class ProfilePoints:
    """Arguments z of the entire profiles, prepared once for all profiles taken at them.

    Every profile function accepts one in place of z.  It holds the split at
    ``radius``, the far points reflected into Re z >= 0, and the series points'
    w = z**2 sorted by rung: rung i holds RUNGS[i]/2 < |z| <= RUNGS[i] (the
    first, all below; one more, all above).  A point is summed to the degree
    that meets the series' truncation criterion at its rung's upper edge, the
    last rung to ``truncation_degree``.  ``np.asarray`` gives z.
    """

    radius = SERIES_RADIUS

    def __init__(self, z):
        self.z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
        flat = self.z.reshape(-1)
        absz = np.abs(flat)
        self.far, self.reflected = absz > self.radius, None
        if self.far.any():
            self.reflected = np.where(flat.real >= 0.0, flat, -flat)[self.far]
            flat, absz = flat[~self.far], absz[~self.far]
        self.max_abs = float(absz.max(initial=0.0))
        # one ulp below |z|, frexp's exponent e gives RUNGS[e]/2 < |z| <= RUNGS[e]
        _, e = np.frexp(np.maximum(np.nextafter(absz, 0.0) / RUNGS[0], 0.5))
        rung = np.minimum(e, len(RUNGS)).astype(np.uint8)
        self.order = np.argsort(rung, kind="stable")
        flat, rung = flat[self.order], rung[self.order]
        self.w = flat * flat
        self.below = np.searchsorted(rung, np.arange(len(RUNGS) + 1))  # points under rung i
        self.top = int(rung[-1]) if rung.size else 0

    def __array__(self, *args, **kwargs):
        return self.z.__array__(*args, **kwargs)

    def profile(self, series: EntireSeries, far_fn=None):
        """``series`` inside the radius, ``far_fn`` of the reflected z outside."""
        c, d = series.coefficients, series.truncation_degree
        allowed = _TAIL_SAFETY * series.target_tolerance
        with np.errstate(over="ignore", invalid="ignore"):
            last = max(abs(c[m]) * np.float64(self.max_abs) ** (2 * m) for m in (d - 1, d))
        if last > allowed:
            raise SeriesTruncationError(f"series (kind={series.kind}, order={series.order}) not "
                                        f"converged at max|z|={self.max_abs:.3g}: last term "
                                        f"{last:.3g} exceeds {allowed:.3g}")
        degrees, w = series.rung_degrees, self.w
        acc, tmp = np.zeros_like(w), np.empty_like(w)
        top = degrees[self.top]
        # the first point whose rung sums degree m, for every m at once
        starts = self.below[np.searchsorted(degrees, np.arange(top + 1))]
        for m in range(top, -1, -1):
            q = starts[m]
            # out of place: numpy's in-place complex multiply rounds an array
            # of one point differently from a longer one
            np.multiply(acc[q:], w[q:], out=tmp[q:])
            np.add(tmp[q:], c[m], out=acc[q:])
        acc[self.order] = acc.copy()
        if self.reflected is not None:
            near, acc = acc, np.empty(self.z.size, dtype=self.z.dtype)
            acc[~self.far] = near
            acc[self.far] = far_fn(self.reflected)
        return acc.reshape(self.z.shape)[()]


class _SeriesPoints(ProfilePoints):
    radius = np.inf  # the series at every point, as EntireSeries is called


def _points(z) -> ProfilePoints:
    return z if isinstance(z, ProfilePoints) else ProfilePoints(z)


def entire_bessel_J(nu: float, z):
    """z**(-nu) J_nu(z), entire in z and even; series near 0, reflected jv beyond."""
    if abs(nu) > 10.0:
        raise ValueError(f"order out of supported range |nu| <= 10: {nu}")
    return _points(z).profile(_get_jtilde(nu), lambda w: np.power(w, -nu) * sp.jv(nu, w))


def entire_neumann(n: int, z):
    """Log-free entire part of the Neumann profile in dimension n (n in {2, 4})."""
    if n not in (2, 4):
        raise ValueError(f"entire Neumann profile provided for n in {{2, 4}}, got {n}")
    p = (n - 2) // 2

    def far(w):
        lg = np.log(w / 2.0) + EULER_GAMMA
        return w ** p * (sp.yv(p, w) - (2.0 / np.pi) * lg * sp.jv(p, w))

    return _points(z).profile(_get_ntilde(p), far)


def entire_neumann_dz_over_z(n: int, z):
    """d/dz of the entire Neumann profile, divided by z (even entire)."""
    if n not in (2, 4):
        raise ValueError(f"entire Neumann profile provided for n in {{2, 4}}, got {n}")
    p = (n - 2) // 2

    def far(w):
        lg = np.log(w / 2.0) + EULER_GAMMA
        if p == 0:
            d = -sp.yv(1, w) - (2.0 / np.pi) * sp.jv(0, w) / w + (2.0 / np.pi) * lg * sp.jv(1, w)
        else:
            d = w * (sp.yv(0, w) - (2.0 / np.pi) * lg * sp.jv(0, w)) - (2.0 / np.pi) * sp.jv(1, w)
        return d / w

    return _points(z).profile(_get_ntilde(p).dz_over_z, far)


# Prefactor tying the half-integer Bessel series to the 3-d kernel profile:
# N_3(z) = -cos(z)/(4 pi) = -2**(-5/2) pi**(-1/2) * z**(1/2) J_{-1/2}(z).
_N3_FACTOR = -(2.0 ** -2.5) * np.pi ** -0.5
# N_3'(z)/z = sin(z)/(4 pi z) = sqrt(pi/2)/(4 pi) * z**(-1/2) J_{1/2}(z).
_N3_DERIV_FACTOR = np.sqrt(np.pi / 2.0) / (4.0 * np.pi)


def fs_coefficients(n: int, z):
    """Entire profiles (Jn, Nn) of the kernel split in dimension n (n in {2, 3})."""
    z = _points(z)
    if n == 2:
        return entire_bessel_J(0.0, z) / (2.0 * np.pi), entire_neumann(2, z) / 4.0
    if n == 3:
        return np.zeros(z.z.shape), _N3_FACTOR * entire_bessel_J(-0.5, z)
    raise ValueError(f"kernel profiles provided for n in {{2, 3}}, got {n}")


def fs_coefficients_dz_over_z(n: int, z):
    """(Jn'(z)/z, Nn'(z)/z): even entire derivative profiles for gradient assembly."""
    z = _points(z)
    if n == 2:
        return -entire_bessel_J(1.0, z) / (2.0 * np.pi), entire_neumann_dz_over_z(2, z) / 4.0
    if n == 3:
        return np.zeros(z.z.shape), _N3_DERIV_FACTOR * entire_bessel_J(0.5, z)
    raise ValueError(f"kernel profiles provided for n in {{2, 3}}, got {n}")


@dataclass(frozen=True)
class FundamentalSolutionValue:
    """Value and spatial gradient of a kernel evaluation."""

    value: np.ndarray
    gradient: np.ndarray


def _radii(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float) if not np.iscomplexobj(x) else np.asarray(x)
    if x.shape[-1] != n:
        raise ValueError(f"points must have trailing dimension {n}, got shape {x.shape}")
    return np.sqrt(np.sum(x * x, axis=-1))


def fundamental_solution(n: int, x, k) -> FundamentalSolutionValue:
    """Free-space kernel S_n and its gradient at points x != 0.

    Parameters
    ----------
    n : 2 or 3
    x : array_like, shape (..., n)
    k : complex wavenumber
    """
    x = np.asarray(x, dtype=float)
    r = _radii(x, n)
    if np.any(r == 0.0):
        raise ValueError("fundamental solution is singular at the origin")
    z = ProfilePoints(k * r)
    J, N = fs_coefficients(n, z)
    gJ, gN = fs_coefficients_dz_over_z(n, z)
    kfac = k ** (n - 2)
    logr = np.log(r)
    value = kfac * J * logr + N / r ** (n - 2)
    radial = (
        kfac * (k * k * gJ * logr + J / r ** 2)
        + k * k * gN / r ** (n - 2)
        - (n - 2) * N / r ** n
    )
    gradient = x * radial[..., None]
    return FundamentalSolutionValue(value=value, gradient=gradient)


def analytic_correction(n: int, x, k) -> FundamentalSolutionValue:
    """Coefficient of log|x| in the kernel split: k**(n-2) Jn(k|x|), defined at x = 0 too.

    This is the entire profile that carries the log-of-scale slack in the
    kernel rescaling identity.
    """
    x = np.asarray(x, dtype=float)
    r = _radii(x, n)
    z = ProfilePoints(k * r)
    J, _ = fs_coefficients(n, z)
    gJ, _ = fs_coefficients_dz_over_z(n, z)
    kfac = k ** (n - 2)
    value = kfac * J
    gradient = kfac * (k * k) * x * gJ[..., None]
    return FundamentalSolutionValue(value=value, gradient=gradient)
