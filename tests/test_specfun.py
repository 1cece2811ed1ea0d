"""Entire-profile special functions: frozen oracle values and invariants.

Frozen constants come from tests/oracle_specfun.py (mpmath at 40 digits,
series cross-checked there against mpmath's own bessely/besselj to ~1e-38).
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
import oracle_specfun as oracle
import pytest
from hypothesis import given, settings, strategies as st

from qphelm import specfun as sf
from qphelm.errors import SeriesTruncationError

# ---- frozen oracle values (mpmath, 30 digits) --------------------------------
ORACLE = [
    # (function, args, expected)
    ("jtilde", (0.0, 2.3), 0.0555397844456019631442043731395),
    ("jtilde", (1.0, 2.3), 0.234727188088832028398851457097),
    ("jtilde", (0.5, 1.7), 0.465431789265602731192203454256),
    ("jtilde", (-0.5, 1.7), -0.102803032742852003298149078282),
    ("jtilde", (-2.0, 0.9), 0.0766149064625889446739088977081),
    ("jtilde", (0.0, 15.0), -0.0142244728267807732338642706118),
    ("ntilde", (2, 2.3), 0.4927246991877719676922297089),
    ("ntilde", (2, 9.5), 0.434839804899964824321619576805),
    ("ntilde", (4, 2.3), -0.446529470587146788529869277593),
    ("ntilde", (2, 15.0), 0.228937435857191100731959684316),
]


@pytest.mark.parametrize("kind,args,expected", ORACLE)
def test_frozen_oracle_values(kind, args, expected):
    if kind == "jtilde":
        got = sf.entire_bessel_J(*args)
    else:
        got = sf.entire_neumann(*args)
    assert got == pytest.approx(expected, abs=5e-13)


def test_fundamental_solution_oracle_values():
    v2 = sf.fundamental_solution(2, [0.3, -0.4], 1.3)
    assert v2.value == pytest.approx(-0.0828152312301618851850816530014, abs=1e-14)
    v3 = sf.fundamental_solution(3, [0.3, -0.4, 0.2], 1.3)
    assert v3.value == pytest.approx(-0.113015196017127286702030401937, abs=1e-14)


def test_limit_constants():
    # small-argument limits of the kernel profiles
    J2, N2 = sf.fs_coefficients(2, 0.0)
    assert J2 == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-15)
    assert N2 == pytest.approx(0.0, abs=1e-15)
    _, N3 = sf.fs_coefficients(3, 0.0)
    assert N3 == pytest.approx(-1.0 / (4.0 * np.pi), abs=1e-15)
    assert sf.entire_neumann(4, 0.0) == pytest.approx(-2.0 / np.pi, abs=1e-15)
    # quadratic limit of the n=2 Neumann profile: Ntilde0(t)/t^2 -> 1/(2 pi)
    t = 1e-6
    assert sf.entire_neumann(2, t) / t**2 == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-9)


def test_series_truncation_agreement():
    # degrees D and D+8 agree below the target tolerance on |z| <= 20
    z = np.linspace(-20.0, 20.0, 161)
    for build, args in [
        (sf.jtilde_series, (0.0,)),
        (sf.jtilde_series, (1.0,)),
        (sf.jtilde_series, (-0.5,)),
        (sf.ntilde_series, (0,)),
        (sf.ntilde_series, (1,)),
    ]:
        base = build(*args)
        longer = build(*args, degree=base.truncation_degree + 8)
        assert np.max(np.abs(base(z) - longer(z))) < base.target_tolerance


SERIES = [
    (sf.jtilde_series, (0.0,)),
    (sf.jtilde_series, (1.0,)),
    (sf.jtilde_series, (-0.5,)),
    (sf.ntilde_series, (0,)),
    (sf.ntilde_series, (1,)),
]


def _mpmath_series(build, arg, z):
    if build is sf.jtilde_series:
        return float(oracle.jtilde(arg, mp.mpf(z)))
    return float(oracle.ntilde0(z) if arg == 0 else oracle.ntilde1(z))


@pytest.mark.parametrize("build,args", SERIES)
def test_each_rung_degree_is_safe(build, args):
    # the degree a rung sums to agrees with the full truncation degree (Horner
    # by np.polyval) over the whole rung, real and complex, and with mpmath at
    # the rung's upper edge within the rounding bound of Horner's rule and of
    # the coefficients, 3 d eps sum |c_m| |z|^(2m)
    ser = build(*args)
    c = ser.coefficients
    edges = np.r_[0.0, sf.RUNGS]
    for lo, hi, d in zip(edges[:-1], edges[1:], ser.rung_degrees):
        r = np.r_[np.linspace(lo, hi, 24)[1:], np.nextafter(hi, 0.0)]
        for z in (r, -r, r * np.exp(0.7j), r * 1j):
            full = np.polyval(c[::-1], z * z)
            assert np.max(np.abs(ser(z) - full)) < ser.target_tolerance, (lo, hi)
        terms = np.sum(np.abs(c[: d + 1]) * hi ** (2.0 * np.arange(d + 1)))
        bound = 3 * d * np.finfo(float).eps * terms
        assert abs(ser(hi) - _mpmath_series(build, *args, hi)) <= bound, hi


def test_rung_degree_follows_the_point():
    # a return to one fixed degree for every point would sum 43 terms here
    j0 = sf.jtilde_series(0.0)
    assert j0.rung_degrees[np.searchsorted(sf.RUNGS, 1.0)] <= 12
    assert j0.rung_degrees[-1] == j0.truncation_degree


@pytest.mark.parametrize("complex_z", [False, True])
def test_profiles_are_evaluated_alike_in_any_batch(complex_z):
    # every point's bits come from its own rung: slices, single points,
    # scalars, 2-D arrays and shared ProfilePoints all reproduce the whole call
    rng = np.random.default_rng(5)
    mags = np.r_[0.0, sf.RUNGS, sf.SERIES_RADIUS, 2.0 ** rng.uniform(-12, np.log2(14.0), 400)]
    phase = np.exp(2j * np.pi * rng.uniform(size=mags.size)) if complex_z \
        else rng.choice([-1.0, 1.0], size=mags.size)
    z = mags * phase
    cuts = np.unique(rng.choice(z.size, size=40))
    for fn in (sf.fs_coefficients, sf.fs_coefficients_dz_over_z):
        whole = fn(2, z)
        for part, ref in zip(fn(2, sf.ProfilePoints(z)), whole):
            assert np.array_equal(part, ref)
        for idx in np.split(np.arange(z.size), np.unique(np.r_[cuts, cuts + 1])):
            for part, ref in zip(fn(2, z[idx]), whole):
                assert np.array_equal(part, ref[idx])
        for i in range(z.size):
            for part, ref in zip(fn(2, z[i]), whole):
                assert np.array_equal(part, ref[i])
        grid = z[:408].reshape(24, 17)
        for part, ref in zip(fn(2, grid), whole):
            assert np.array_equal(part, ref[:408].reshape(24, 17))


def recurrence_residual(series: sf.EntireSeries) -> float:
    """Max relative mismatch between the stored table and a recurrence recomputation."""
    c = series.coefficients
    nu = series.order
    worst = 0.0
    if series.kind == "jtilde":
        for m in range(1, series.truncation_degree + 1):
            if abs(m + nu) < 1e-12:
                continue
            pred = -c[m - 1] / (4.0 * m * (m + nu))
            scale = max(abs(c[m]), abs(pred), 1e-300)
            worst = max(worst, abs(c[m] - pred) / scale)
    elif series.kind == "ntilde":
        p = int(nu)
        for m in range(2, series.truncation_degree + 1):
            if p == 0:
                num, den = sf._harmonic(m), sf._harmonic(m - 1)
                fac = 4.0 * m * m
            else:
                num = sf._harmonic(m - 1) + sf._harmonic(m)
                den = sf._harmonic(m - 2) + sf._harmonic(m - 1)
                fac = 4.0 * m * (m - 1)
            if den == 0.0:
                continue
            pred = -c[m - 1] * (num / den) / fac
            scale = max(abs(c[m]), abs(pred), 1e-300)
            worst = max(worst, abs(c[m] - pred) / scale)
    else:
        raise ValueError(f"no recurrence known for kind={series.kind!r}")
    return worst


def test_series_recurrence_recomputation():
    for nu in (0.0, 1.0, 2.0, 0.5, -0.5, -2.0, 7.0):
        assert recurrence_residual(sf.jtilde_series(nu)) < 1e-14
    for p in (0, 1):
        assert recurrence_residual(sf.ntilde_series(p)) < 1e-14


def test_series_truncation_signal():
    short = sf.jtilde_series(0.0, degree=10)
    with pytest.raises(SeriesTruncationError):
        short(np.array([9.0]))


def test_series_scipy_seam():
    # series and reflected-formula paths agree in an overlap band around the seam
    ztest = np.linspace(10.0, 12.0, 7)
    for nu in (0.0, 1.0, 0.5, -0.5, 3.0):
        ser = sf.jtilde_series(nu)
        far = np.power(ztest, -nu) * __import__("scipy.special", fromlist=["jv"]).jv(nu, ztest)
        assert np.max(np.abs(ser(ztest) - far)) < 2e-11


def test_even_reflection_negative_and_complex_arguments():
    z = 14.2  # beyond the series radius: exercised through the reflected path
    assert sf.entire_bessel_J(1.0, -z) == pytest.approx(sf.entire_bessel_J(1.0, z), rel=1e-14)
    assert sf.entire_neumann(2, -z) == pytest.approx(sf.entire_neumann(2, z), rel=1e-14)
    zc = 13.0 + 0.4j
    assert sf.entire_bessel_J(0.0, -zc) == pytest.approx(sf.entire_bessel_J(0.0, zc), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    k=st.floats(min_value=0.3, max_value=3.0),
    eps=st.floats(min_value=0.02, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_rescaling_identity_property(n, k, eps, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, size=n)
    if np.linalg.norm(x) < 0.05:
        x = x + 0.1
    lhs = sf.fundamental_solution(n, eps * x, k)
    base = sf.fundamental_solution(n, x, eps * k)
    corr = sf.analytic_correction(n, eps * x, k)
    rhs_v = eps ** (2 - n) * base.value + np.log(eps) * corr.value
    rhs_g = eps ** (1 - n) * base.gradient + np.log(eps) * corr.gradient
    scale_v = max(1.0, abs(lhs.value))
    scale_g = max(1.0, float(np.max(np.abs(lhs.gradient))))
    assert abs(lhs.value - rhs_v) / scale_v < 1e-12
    assert np.max(np.abs(lhs.gradient - rhs_g)) / scale_g < 1e-12


def test_gradient_against_central_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for n in (2, 3):
        for _ in range(10):
            x = rng.uniform(0.1, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            k = rng.uniform(0.3, 3.0)
            g = sf.fundamental_solution(n, x, k).gradient
            fd = np.zeros(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (
                    sf.fundamental_solution(n, x + e, k).value
                    - sf.fundamental_solution(n, x - e, k).value
                ) / (2 * h)
            assert np.max(np.abs(g - fd)) < 1e-6


def test_reality_in_conjugate_wavenumber():
    x = np.array([0.4, 0.7])
    k = 1.2 + 0.7j
    a = sf.fundamental_solution(2, x, k)
    b = sf.fundamental_solution(2, x, np.conj(k))
    assert np.conj(a.value) == pytest.approx(b.value, rel=1e-15)
    assert np.max(np.abs(np.conj(a.gradient) - b.gradient)) < 1e-15


def test_analytic_correction_at_origin():
    c = sf.analytic_correction(2, np.zeros(2), 1.3)
    assert c.value == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-15)
    assert np.max(np.abs(c.gradient)) == 0.0
    c3 = sf.analytic_correction(3, np.zeros(3), 1.3)
    assert c3.value == 0.0


def test_singular_origin_rejected():
    with pytest.raises(ValueError):
        sf.fundamental_solution(2, np.zeros(2), 1.0)


def test_profiles_and_kernel_past_the_series_radius_match_mpmath():
    # 8 < |z| < 12: the power series cancel there to a few 1e-13 (N~_0 and
    # J~_0) and S_2 at k = 20 drifted by ~1e-12 of its size; past
    # SERIES_RADIUS the profiles are SciPy's
    assert sf.SERIES_RADIUS == 8.0
    z = np.linspace(8.05, 11.95, 40)
    with mp.workdps(30):
        refs = [
            (sf.entire_bessel_J(0.0, z), [mp.besselj(0, mp.mpf(v)) for v in z]),
            (sf.entire_bessel_J(1.0, z), [mp.besselj(1, mp.mpf(v)) / v for v in z]),
            (sf.entire_neumann(2, z), [oracle.ntilde0_check(v) for v in z]),
            (sf.entire_neumann_dz_over_z(2, z),
             [mp.diff(oracle.ntilde0_check, mp.mpf(v)) / v for v in z]),
        ]
        for got, ref in refs:
            assert np.max(np.abs(got - np.array(ref, dtype=float))) <= 5e-15
        k = 20.0
        rng = np.random.default_rng(3)
        r, a = z / k, rng.uniform(0.0, 2.0 * np.pi, z.size)
        x = np.stack([r * np.cos(a), r * np.sin(a)], axis=1)
        fs = sf.fundamental_solution(2, x, k)
        kk, c = mp.mpf(k), (mp.log(mp.mpf(k) / 2) + mp.euler) / (2 * mp.pi)
        value = np.array([float(oracle.fs2(p[0], p[1], k)) for p in x])
        # dS_2/dr = -k Y_1(kr)/4 + (log(k/2) + gamma) k J_1(kr) / (2 pi)
        radial = np.array([float(-kk * mp.bessely(1, kk * v) / 4 + c * kk * mp.besselj(1, kk * v))
                           for v in r])
    gradient = x * (radial / r)[:, None]
    assert np.max(np.abs(fs.value - value)) <= 1e-14 * np.max(np.abs(value))
    assert np.max(np.abs(fs.gradient - gradient)) <= 1e-14 * np.max(np.abs(gradient))
