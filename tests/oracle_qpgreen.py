"""Independent reference values for the quasi-periodic Green function tests.

Run directly to regenerate the frozen constants used in test_qpgreen.py:

    python3 tests/oracle_qpgreen.py

Three oracles, all avoiding the Fourier-Bessel expansion under test:

1. R(0), the regular part at the origin, from the small-argument limit of
   G(x) - S(x) with G from the Ewald sum (ewald_oracle): the difference is
   analytic, so polynomial (Richardson) extrapolation in |x| over a geometric
   ladder converges fast.  Only the *value* of the Ewald sum at moderate
   arguments enters; the expansion is never fitted.
2. A spot value of the Green function at strongly absorbing wavenumber from
   the plain absolutely-convergent image sum over direct-lattice translates.
3. R's expansion coefficients fitted to Ewald values of G - S_2 on two
   circles (sampled_coefficients), the expansion's own coefficients come
   from lattice sums instead, and the Taylor jet of R near the origin summed
   from them with SciPy's Bessel functions (series_jet), where Ewald's
   grad G - grad S_2 cancels.
"""

import numpy as np
from scipy import special as sp

from qphelm import qpgreen, specfun
from qphelm.errors import NearLatticePointError, QphelmError
from qphelm.lattice import Lattice, make_wave_context


class InsufficientDecayError(QphelmError):
    """Image-sum oracle called with too little exponential decay (Im k too small)."""


def image_sum_oracle(lattice: Lattice, k: complex, x, truncation: int = 12):
    """Absolutely convergent image sum -(i/4) sum_m H0(k|x-qm|) e^{i eta . qm}.

    Requires Im k >= 0.3 so the Hankel tail decays exponentially; returns
    (value, tail_bound) with a crude but safe geometric tail estimate.
    Points should lie in the centered cell (|x_j| <= q_j / 2).
    """
    k = complex(k)
    if k.imag < 0.3:
        raise InsufficientDecayError(
            f"image sum requires Im k >= 0.3 for certified decay, got {k.imag}"
        )
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x.reshape(-1, 2))
    qmin = float(np.min(lattice.q))
    if np.any(np.abs(pts) > 0.5 * np.asarray(lattice.q) + 1e-12):
        raise ValueError("image-sum oracle expects points inside the centered cell")
    rng = np.arange(-truncation, truncation + 1)
    ms = np.stack(np.meshgrid(rng, rng, indexing="ij"), axis=-1).reshape(-1, 2)
    shifts = ms * lattice.q[None, :]
    phases = np.exp(1j * shifts @ lattice.eta_vec)
    d = pts[:, None, :] - shifts[None, :, :]
    r = np.sqrt(np.sum(d * d, axis=2))
    if np.any(r < qpgreen._EXCLUSION_FACTOR * qmin):
        raise NearLatticePointError("image-sum point too close to a source lattice point")
    vals = -0.25j * np.sum(sp.hankel1(0, k * r) * phases[None, :], axis=1)
    # tail: shells s > truncation have >= (s - 1/2) qmin separation and 8s terms
    tail = 0.0
    for s in range(truncation + 1, truncation + 160):
        rs = (s - 0.5) * qmin
        tail += 8 * s * 0.25 * 1.5 * np.sqrt(2.0 / (np.pi * abs(k) * rs)) * np.exp(-k.imag * rs)
        if 8 * s * np.exp(-k.imag * rs) < 1e-300:
            break
    vals = vals.reshape(x.shape[:-1]) if not scalar else vals[0]
    return vals, float(tail)


def regular_part_at_origin(lattice, k, direction=(0.6, 0.8), hs=None):
    ev = qpgreen.make_green_evaluator(lattice, k)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    if hs is None:
        hs = 0.05 * 0.5 ** np.arange(8)
    vals = []
    for h in hs:
        g, _, _ = qpgreen.ewald_oracle(ev, (h * d)[None, :])
        s = specfun.fundamental_solution(2, (h * d)[None, :], k).value
        vals.append((g - s)[0])
    # Neville tableau toward h = 0 (difference is analytic in x)
    v = list(vals)
    h = list(hs)
    for m in range(1, len(v)):
        for i in range(len(v) - m):
            v[i] = v[i + 1] + (v[i + 1] - v[i]) * h[i + m] / (h[i] - h[i + m])
    return v[0]


def regular_part_by_ewald(ev, x):
    """R = G - S_2 and its gradient from the Ewald sum, at points x off the lattice."""
    g, dg, _ = qpgreen.ewald_oracle(ev, x)
    s = specfun.fundamental_solution(2, x, ev.k)
    return g - s.value, dg - s.gradient


# The fit's circles in units of min(q), the outer one normalising the basis
# as the expansion's does, and its samples per circle
FIT_RADII = (0.62, 0.74)
FIT_SAMPLES = 256


def _normaliser(n, k, rho):
    """n! (2/(k rho))^n, the factor from F_n = J_n(k|x|) e^{i n theta} to the
    expansion's basis (z/rho)^n phi_n(k|x|) (k != 0)."""
    k = complex(k) if complex(k).imag else float(np.real(k))
    return np.exp(sp.gammaln(n + 1.0) + n * np.log(2.0 / (k * rho)))


def sampled_coefficients(ev):
    """R's coefficients c_n (index n + cap, n = -cap..cap) fitted to Ewald's G - S_2.

    Ewald values of G - S_2 at FIT_SAMPLES points on each of two circles
    (radii FIT_RADII min(q)), an FFT per circle, and a least-squares fit of
    each order over both circles, so no near-zero phi_n(k r) divides.  The
    basis is the expansion's, (z/rho)^n phi_n(k|x|) with rho the outer
    radius, from SciPy's Bessel functions.
    """
    k = ev.k
    cap = qpgreen._EXPANSION_CAP
    radii = float(np.min(ev.lattice.q)) * np.asarray(FIT_RADII)
    n = np.arange(cap + 1)
    theta = 2.0 * np.pi * np.arange(FIT_SAMPLES) / FIT_SAMPLES
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    basis = _normaliser(n, k, radii[-1]) * sp.jv(n, k * radii[:, None])
    num = np.zeros((2, len(n)), dtype=complex)
    for rj, b in zip(radii, basis):
        pts = rj * circle
        samples = qpgreen.ewald_oracle(ev, pts)[0] - specfun.fundamental_solution(2, pts, k).value
        a = np.fft.fft(samples) / FIT_SAMPLES
        num += np.conj(b) * np.stack([a[n], a[-n]])
    c = num / np.sum(np.abs(basis) ** 2, axis=0)
    return np.concatenate([c[1, :0:-1], c[0]])


def series_jet(ev, coefficients, x, orders=30):
    """R and its gradient at points x near 0 from the coefficients' Taylor jet.

    R = sum_n sigma_n F_n with F_n = J_n(k|x|) e^{i n theta} and sigma_n the
    coefficient of the normalised basis times n! (2/(k rho))^n, signed by
    (-1)^n for n < 0 (J_-n = (-1)^n J_n); d/dz F_n = (k/2) F_{n-1} and
    d/dzbar F_n = -(k/2) F_{n+1} give the gradient.  |n| <= ``orders``: at
    |x| <= 0.01 min(q) the terms beyond fall like 0.014^n.
    """
    k = complex(ev.k)
    cap = qpgreen._EXPANSION_CAP
    rho = FIT_RADII[-1] * float(np.min(ev.lattice.q))
    n = np.arange(orders + 1)
    scale = _normaliser(n, k, rho)
    sigma = np.zeros(2 * orders + 3, dtype=complex)  # orders -orders-1..orders+1
    sigma[orders + 1:-1] = coefficients[cap:cap + orders + 1] * scale
    sigma[1:orders + 1] = (coefficients[cap - orders:cap] * scale[:0:-1]
                           * (-1.0) ** n[:0:-1])
    x = np.asarray(x, dtype=float)
    r, th = np.hypot(x[:, 0], x[:, 1]), np.arctan2(x[:, 1], x[:, 0])
    m = np.arange(-orders - 2, orders + 3)
    F = sp.jv(m[:, None], k * r[None, :]) * np.exp(1j * m[:, None] * th[None, :])
    value = sigma @ F[1:-1]
    rz = (k / 2.0) * (sigma @ F[:-2])
    rzbar = -(k / 2.0) * (sigma @ F[2:])
    return value, np.stack([rz + rzbar, 1j * (rz - rzbar)], axis=1)


def assert_tables_agree(tables, pointwise, ewald=None, off=None):
    """Values and gradients within 1e-13 of ``pointwise`` and 1e-12 of ``ewald``.

    Both are relative to the table's maximum.  ``ewald`` holds
    regular_part_by_ewald at the entries ``off`` (S_2 is singular at a zero
    difference), or only its values.
    """
    for a, b in zip(tables, pointwise):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
    for a, c in zip(tables, () if ewald is None else ewald):
        assert np.max(np.abs(a[off] - c)) <= 1e-12 * np.max(np.abs(a))


def main():
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    wave = make_wave_context(lat, 1.3)
    r0 = regular_part_at_origin(lat, wave.k)
    print(f"R(0) at k=1.3, q=(1,1), eta=(0.4,0.7): {r0!r}")

    k_abs = 2.0 + 1.2j
    x = np.array([[0.31, 0.47]])
    ref = image_sum_oracle(lat, k_abs, x, truncation=40)
    print(f"image sum at k={k_abs}, x={x[0]}: {ref[0]!r}")


if __name__ == "__main__":
    main()
