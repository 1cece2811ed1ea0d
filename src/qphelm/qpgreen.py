"""Quasi-periodic Helmholtz Green function from its regular part in the cell.

G is served from the free-space kernel plus a fitted regular part.  The
regular part R = G - S_2(., k) solves the Helmholtz equation in the disk
|x| < min(q), so there it is a Fourier-Bessel (lattice-sum) series

    R(x) = sum_n s_n J_n(k|x|) e^{i n theta}

(Linton, SIAM Review 52 (2010) 630-674).  A point is first reduced into the
centred cell, x' = x - q m*, and

    G(x) = e^{i eta . q m*} (S_2(x') + R(x')),

with values, gradients and Hessians from the same tables: the expansion's
derivative rows are coefficient shifts, and the S_2 Hessian follows from its
value and gradient by the Helmholtz equation.  regular_part returns
R(x) = G(x) - S_2(x), which for unmoved points (m* = 0) is R(x') itself, so
there is no cancellation at the origin.

The coefficients are fitted once per evaluator from Ewald values of G - S_2
on two circles inside the disk, and stored on the normalised basis
(z/rho)^|n| phi_|n|(k|x|), z = x_1 +- i x_2, phi_n(z) = n! (2/z)^n J_n(z);
the raw s_n overflow.  Only a regular_part call fits the expansion; green_eval
and green_hessian use it once it is fitted and sum Ewald before, so a few
probe values never pay the fit's tens of milliseconds.  A point's order count
comes from a fixed ladder of radii, not from the other points of its call, so
every point gets the same bits in any batch (a grid split over threads
included).

The Ewald sum is the oracle, ewald_oracle.  It splits the spectral definition
G(x) = (1/A) sum_z exp(i beta_z . x) / (k^2 - |beta_z|^2) by a Gaussian at
parameter E: cutting the heat-kernel t-integral at 1/(4 E^2) gives

    G = G_spec + G_spat,
    G_spec(x) = (1/A) sum_z e^{i beta_z . x} exp((k^2-|beta_z|^2)/(4E^2)) / (k^2-|beta_z|^2),
    G_spat(x) = -(1/4 pi) sum_m e^{i eta . qm} sum_j (k/2E)^{2j}/j! E_{j+1}(E^2 |x-qm|^2),

with E_n the generalized exponential integral (dimension 2 throughout).  Both
tails decay like Gaussians, so small index boxes give full precision; the split
is algebraically exact for every E > 0, which the tests exercise by comparing
evaluators with different split parameters.  Besides checking the expansion,
it samples the fit and serves the reduced points beyond the expansion's radius
(anisotropic cells only) and the Green calls on an unfitted evaluator.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

from .errors import (
    InsufficientDecayError,
    NearLatticePointError,
    ResonanceError,
    SeriesTruncationError,
)
from .lattice import Lattice, WaveContext, dual_vector, make_wave_context
from . import specfun

__all__ = [
    "GreenEvaluator",
    "make_green_evaluator",
    "green_eval",
    "green_hessian",
    "regular_part",
    "FourierBesselExpansion",
    "ewald_oracle",
    "image_sum_oracle",
]

_CHUNK = 2048
_EXCLUSION_FACTOR = 1e-8
# Target accuracy of the Ewald sums and of the regular-part expansion fit.
_TOLERANCE = 1e-12
# Fourier-Bessel expansion of R, lengths in units of min(q): the two sampling
# circles (no cancellation in G - S_2 there), the radius it serves (it covers
# a square cell's half-diagonal 0.7071; closer to the outer circle the fitted
# orders stop bounding the tail), the samples per circle and the largest order.
_FIT_RADII = (0.62, 0.74)
_EXPANSION_RADIUS = 0.72
_FIT_SAMPLES = 256
_EXPANSION_CAP = 120
# The radius ladder that sets a point's order count, from the expansion's
# radius down by _LADDER_RATIO per step, and the step the counts are rounded
# up to: a call evaluates the points of each count as one batch.
_LADDER_RATIO = 0.9
_LADDER_STEPS = 48
_TERM_STEP = 8


def _shell_indices(s: int, dim: int) -> np.ndarray:
    """Integer multi-indices with sup-norm exactly s."""
    if s == 0:
        return np.zeros((1, dim), dtype=int)
    rng = np.arange(-s, s + 1)
    grid = np.stack(np.meshgrid(*([rng] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    keep = np.max(np.abs(grid), axis=1) == s
    return grid[keep]


def _expn_table(u: np.ndarray, jmax: int, lowest: int) -> list[np.ndarray]:
    """E_n(u) for n = lowest..jmax via exp1 plus the stable upward recurrence.

    lowest is -1 or 0; u must be positive.
    """
    e = np.exp(-u)
    table: dict[int, np.ndarray] = {}
    if lowest <= -1:
        table[-1] = e * (u + 1.0) / (u * u)
    table[0] = e / u
    table[1] = sp.exp1(u)
    for n in range(2, jmax + 1):
        table[n] = (e - u * table[n - 1]) / (n - 1.0)
    return [table[n] for n in range(lowest, jmax + 1)]


class GreenEvaluator:
    """Precomputed tables for one (lattice, k, split) combination.

    The evaluator is the problem context: every operator, family and solve
    reads its lattice, wave context and k from here.  A resonant wave is
    refused; the index boxes are chosen adaptively to ``tolerance``.
    """

    def __init__(self, lattice: Lattice, wave: WaveContext, *, ewald_split: float):
        if lattice.dim != 2:
            raise NotImplementedError("Green evaluator implemented for dimension 2")
        if wave.is_resonant:
            raise ResonanceError(
                f"k={wave.k} is resonant for q={lattice.q_diag}, eta={lattice.eta}: "
                f"indices {list(wave.resonance_set)}")
        self.lattice = lattice
        self.wave = wave
        self.ewald_split = float(ewald_split)
        self.tolerance = tolerance = _TOLERANCE
        k = complex(wave.k)
        E = self.ewald_split
        A = lattice.cell_measure
        qmin = float(np.min(lattice.q))

        # ---- spatial j-series coefficients a_j = (k/2E)^{2j} / j! -------------
        b = (k / (2.0 * E)) ** 2
        J = 4
        while abs(b) ** J / sp.factorial(J) > tolerance * 1e-2 and J < 120:
            J += 1
        self.jmax = J
        self.aj = np.array([b ** j / sp.factorial(j) for j in range(J + 1)], dtype=complex)

        # ---- spectral table ----------------------------------------------------
        k2 = k * k

        def spectral_shell_bound(s: int) -> float:
            ring = _shell_indices(s, 2)
            bs = dual_vector(lattice, ring)
            b2 = np.sum(bs * bs, axis=1)
            cz = np.exp((k2.real - b2) / (4.0 * E * E)) / (A * np.abs(k2 - b2))
            return float(np.max(cz * np.maximum(1.0, np.sqrt(b2)))) * len(ring)

        s, quiet = 1, 0
        while s <= 60:
            if spectral_shell_bound(s) < tolerance * 1e-2:
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
            s += 1
        else:
            raise SeriesTruncationError("spectral Ewald sum did not converge")
        self.spectral_truncation = max(s - 2, 1)  # the two quiet shells are dropped
        rings = [_shell_indices(s, 2) for s in range(self.spectral_truncation + 1)]
        zs = np.concatenate(rings, axis=0)
        self.betas = dual_vector(lattice, zs)
        b2 = np.sum(self.betas * self.betas, axis=1)
        self.cz = np.exp((k2 - b2) / (4.0 * E * E)) / (A * (k2 - b2))

        # ---- spatial shift table ----------------------------------------------
        # Distance lower bound (s-1) qmin accommodates arguments up to one cell
        # away from the centered cell, which kernel assembly needs.
        suma = float(np.sum(np.abs(self.aj)))

        def spatial_shell_bound(s: int) -> float:
            rho = (s - 1.0) * qmin
            u = E * E * rho * rho
            return 8 * s * suma * max(sp.exp1(u), np.exp(-u) / max(u, 1.0)) / (4 * np.pi)

        s, quiet = 3, 0
        while s <= 40:
            if spatial_shell_bound(s) < tolerance * 1e-2:
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
            s += 1
        else:
            raise SeriesTruncationError("spatial Ewald sum did not converge")
        self.spatial_truncation = max(s - 2, 2)
        rings = [_shell_indices(s, 2) for s in range(self.spatial_truncation + 1)]
        ms = np.concatenate(rings, axis=0)
        self.shifts = ms * lattice.q[None, :]
        self.shift_phases = np.exp(1j * self.shifts @ lattice.eta_vec)

        self._expansion = None

    # -------------------------------------------------------------------- utils
    @property
    def k(self) -> complex:
        return complex(self.wave.k)

    @property
    def expansion(self) -> FourierBesselExpansion:
        """The Fourier-Bessel expansion of R, fitted on first use."""
        if self._expansion is None:
            self._expansion = FourierBesselExpansion(self)
        return self._expansion

    def parameters(self) -> dict:
        """Numerical parameters chosen for this evaluator (for run manifests).

        The expansion entries are None until a call has fitted it.
        """
        fb = self._expansion
        return {
            "ewald_split": self.ewald_split,
            "jmax": self.jmax,
            "spectral_truncation": self.spectral_truncation,
            "spatial_truncation": self.spatial_truncation,
            "expansion_terms": None if fb is None else fb.max_terms,
            "expansion_radius": None if fb is None else fb.radius,
        }

    def _reduce(self, x: np.ndarray):
        """Translate points into the centered cell; return (reduced, Bloch phase, m*)."""
        q = self.lattice.q
        mstar = np.round(x / q)
        shift = mstar * q
        xr = x - shift
        # elementwise: a matrix-vector product rounds a single row differently
        eta = self.lattice.eta_vec
        phase = np.exp(1j * (shift[:, 0] * eta[0] + shift[:, 1] * eta[1]))
        return xr, phase, mstar

    def _exclusion(self) -> float:
        return _EXCLUSION_FACTOR * float(np.min(self.lattice.q))

    def _guard(self, xr: np.ndarray):
        d = xr[:, None, :] - self.shifts[None, :, :]
        rho2 = np.sum(d * d, axis=2)
        excl = self._exclusion()
        if np.any(np.min(rho2, axis=1) < excl * excl):
            raise NearLatticePointError(
                f"evaluation point within {excl:.1e} of a source lattice point"
            )
        return d, rho2

    def _spectral(self, xr: np.ndarray, hessians: bool):
        ph = np.exp(1j * xr @ self.betas.T) * self.cz[None, :]
        val = np.sum(ph, axis=1)
        grad = 1j * (ph @ self.betas)
        hess = None
        if hessians:
            hess = -np.einsum("ps,si,sj->pij", ph, self.betas, self.betas)
        return val, grad, hess

    def _spatial(self, d: np.ndarray, rho2: np.ndarray, hessians: bool):
        E = self.ewald_split
        u = E * E * rho2
        lowest = -1 if hessians else 0
        tab = _expn_table(u, self.jmax + 1, lowest)

        def series(offset):
            # sum_j a_j E_{j+offset}(u); offset in {-1, 0, 1}
            acc = np.zeros_like(u, dtype=complex)
            for j in range(self.jmax + 1):
                acc += self.aj[j] * tab[j + offset - lowest]
            return acc

        w = self.shift_phases[None, :]
        s1 = series(1)
        val = -(1.0 / (4 * np.pi)) * np.sum(w * s1, axis=1)
        s0 = series(0)
        pref = E * E / (2 * np.pi)
        grad = pref * np.einsum("pm,pmi->pi", w * s0, d)
        hess = None
        if hessians:
            sm1 = series(-1)
            eye = np.eye(2)
            hess = pref * (
                np.einsum("pm,ij->pij", w * s0, eye)
                - 2.0 * E * E * np.einsum("pm,pmi,pmj->pij", w * sm1, d, d)
            )
        return val, grad, hess


def make_green_evaluator(lattice: Lattice, k: complex, *, ewald_split: float | None = None,
                         resonance_tolerance: float | None = None) -> GreenEvaluator:
    """Build an evaluator, refusing wavenumbers on the lattice spectrum."""
    kwargs = {}
    if resonance_tolerance is not None:
        kwargs["resonance_tolerance"] = resonance_tolerance
    wave = make_wave_context(lattice, k, require_nonresonant=True, **kwargs)
    if ewald_split is None:
        # sqrt(pi/A) balances the two Gaussian tails on any cell; both halves
        # carry terms of size e^{|k|^2/4E^2} that cancel, which |k|/4 caps at e^4
        ewald_split = float(max(np.sqrt(np.pi / lattice.cell_measure), abs(k) / 4.0))
    return GreenEvaluator(lattice, wave, ewald_split=ewald_split)


def _batched(x, hessians: bool, kernel):
    """Apply kernel(points) -> (values, gradients, Hessians) in _CHUNK batches.

    x has shape (..., 2); the Hessians are collected only when ``hessians``.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x).reshape(-1, 2)
    vals = np.zeros(len(pts), dtype=complex)
    grads = np.zeros((len(pts), 2), dtype=complex)
    hesss = np.zeros((len(pts), 2, 2), dtype=complex) if hessians else None
    for lo in range(0, len(pts), _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, len(pts)))
        v, g, h = kernel(pts[sl])
        vals[sl] = v
        grads[sl] = g
        if hesss is not None:
            hesss[sl] = h
    shape = x.shape[:-1]
    vals = vals.reshape(shape) if not scalar else vals[0]
    grads = grads.reshape(shape + (2,)) if not scalar else grads[0]
    if hesss is not None:
        hesss = hesss.reshape(shape + (2, 2)) if not scalar else hesss[0]
    return vals, grads, hesss


def _ewald_kernel(ev: GreenEvaluator, hessians: bool):
    def kernel(chunk):
        if len(chunk) == 1:
            # BLAS takes a vector path for one row, with other rounding
            return tuple(None if a is None else a[:1]
                         for a in kernel(np.repeat(chunk, 2, axis=0)))
        xr, phase, _ = ev._reduce(chunk)
        d, rho2 = ev._guard(xr)
        v1, g1, h1 = ev._spectral(xr, hessians)
        v2, g2, h2 = ev._spatial(d, rho2, hessians)
        h = phase[:, None, None] * (h1 + h2) if hessians else None
        return phase * (v1 + v2), phase[:, None] * (g1 + g2), h
    return kernel


def ewald_oracle(ev: GreenEvaluator, x):
    """G by the Ewald sum: values, gradients and Hessians at points x.

    Independent of the Fourier-Bessel expansion, it is the reference the
    expansion is fitted to and checked against; outside qpgreen only checks
    (the tests, the CLI's reference values) call it.  green_eval and
    green_hessian sum Ewald for reduced points beyond the expansion's radius
    and for every point before regular_part has fitted the expansion.
    """
    return _batched(x, True, _ewald_kernel(ev, True))


def _free_jet(x: np.ndarray, k: complex, hessians: bool) -> list:
    """[S_2, grad S_2] and, when asked, the Hessian at points x != 0.

    With grad S_2 = g x, the Helmholtz equation S'' + S'/r + k^2 S = 0 gives
    H = g I - (k^2 S_2 + 2 g) x x^T / |x|^2.
    """
    s = specfun.fundamental_solution(2, x, k)
    jet = [s.value, s.gradient]
    if hessians:
        r2 = np.sum(x * x, axis=1)
        g = np.sum(s.gradient * x, axis=1) / r2
        radial = (k * k * s.value + 2.0 * g) / r2
        jet.append(g[:, None, None] * np.eye(2)
                   - radial[:, None, None] * x[:, :, None] * x[:, None, :])
    return jet


def _fold(r_jet: list, xr: np.ndarray, phase: np.ndarray, k: complex,
          hessians: bool) -> list:
    """G(x) = e^{i eta . q m*} (S_2(x') + R(x')) from R's jet at reduced points x'."""
    return [(r + s) * phase.reshape((-1,) + (1,) * (s.ndim - 1))
            for r, s in zip(r_jet, _free_jet(xr, k, hessians))]


def _cell_kernel(ev: GreenEvaluator, fb: FourierBesselExpansion, hessians: bool):
    """G from S_2 + R in the reduced cell, and from Ewald beyond the radius."""
    k = ev.k
    excl = ev._exclusion()

    def kernel(chunk):
        xr, phase, _ = ev._reduce(chunk)
        r2 = np.sum(xr * xr, axis=1)
        if np.any(r2 < excl * excl):
            raise NearLatticePointError(
                f"evaluation point within {excl:.1e} of a source lattice point"
            )
        n = len(chunk)
        jet = [np.zeros(n, dtype=complex), np.zeros((n, 2), dtype=complex)]
        if hessians:
            jet.append(np.zeros((n, 2, 2), dtype=complex))
        near = r2 <= fb.radius ** 2
        far = ~near
        if np.any(near):
            for a, b in zip(jet, _fold(fb(xr[near], hessians), xr[near], phase[near],
                                       k, hessians)):
                a[near] = b
        if np.any(far):
            for a, b in zip(jet, _ewald_kernel(ev, hessians)(chunk[far])):
                a[far] = b
        return jet[0], jet[1], jet[2] if hessians else None
    return kernel


def _regular_kernel(ev: GreenEvaluator, fb: FourierBesselExpansion):
    """R = G - S_2: R(x') itself at unmoved points, so nothing cancels at 0.

    One expansion call serves every point within the radius, moved or not:
    the expansion batches points by order count, and two calls would pay
    each count's fixed cost twice.
    """
    k = ev.k
    excl = ev._exclusion()

    def kernel(chunk):
        xr, phase, mstar = ev._reduce(chunk)
        moved = np.any(mstar != 0, axis=1)
        r2 = np.sum(xr * xr, axis=1)
        # R is singular at the lattice points other than the origin
        if np.any((r2 < excl * excl) & moved):
            raise NearLatticePointError(
                f"evaluation point within {excl:.1e} of a source lattice point"
            )
        v = np.empty(len(chunk), dtype=complex)
        g = np.empty((len(chunk), 2), dtype=complex)
        near = r2 <= fb.radius ** 2
        far = ~near
        if np.any(near):
            v[near], g[near] = fb(xr[near], False)
        fold = near & moved
        if np.any(fold):
            v[fold], g[fold] = _fold([v[fold], g[fold]], xr[fold], phase[fold], k, False)
        if np.any(far):
            v[far], g[far], _ = _ewald_kernel(ev, False)(chunk[far])
        free = fold | far
        if np.any(free):
            sv, sg = _free_jet(chunk[free], k, False)
            v[free] -= sv
            g[free] -= sg
        return v, g, None
    return kernel


def _green(ev: GreenEvaluator, x, hessians: bool):
    fb = ev._expansion
    kernel = _ewald_kernel(ev, hessians) if fb is None else _cell_kernel(ev, fb, hessians)
    return _batched(x, hessians, kernel)


def green_eval(ev: GreenEvaluator, x):
    """Green-function value and gradient at points x (shape (..., 2))."""
    v, g, _ = _green(ev, x, False)
    return v, g


def green_hessian(ev: GreenEvaluator, x):
    """Green-function value, gradient and Hessian (shape (..., 2, 2)) at points x."""
    return _green(ev, x, True)


def _phi_table(u, nmax: int, umax: float) -> np.ndarray:
    """phi_n(z) = n! (2/z)^n J_n(z) = 0F1(; n+1; -u) at u = z^2/4, rows n = 0..nmax.

    The two top rows are hypergeometric series at an order >= 2 umax, where
    |phi_n - 1| < 0.65 and no term can cancel; the rest come from the backward
    recurrence phi_{n-1} = phi_n - u phi_{n+1} / (n (n+1)), stable for the
    minimal solution J_n.  phi_n(0) = 1, so the table is finite at x = 0.
    The start order and the series length follow from the bound umax >= |u|
    alone, so each point's rows do not depend on the other points.
    """
    u = np.asarray(u, dtype=complex)
    top = max(nmax, int(np.ceil(2.0 * umax)))
    phi = np.empty((top + 2,) + u.shape, dtype=complex)
    for n in (top, top + 1):
        term = acc = np.ones_like(u)
        m, bound = 0, 1.0
        while bound > 1e-17:
            m += 1
            bound *= umax / (m * (n + m))
            term = term * (-u) / (m * (n + m))
            acc = acc + term
        phi[n] = acc
    for n in range(top, 0, -1):
        phi[n - 1] = phi[n] - u * phi[n + 1] / (n * (n + 1))
    return phi[: nmax + 1]


class FourierBesselExpansion:
    """R(x) = sum_n c_n e_n(x) about the origin, fitted from Ewald's G - S_2.

    e_n = w^n phi_n(k|x|) for n >= 0 and conj(w)^|n| phi_|n|(k|x|) for n < 0,
    with w = (x_1 + i x_2) / rho and rho the outer sampling radius.  Row 0 of
    ``coefficients`` holds c_0, c_1, ...; row 1 holds 0, c_-1, c_-2, ...
    The expansion serves |x| <= ``radius``, where ``max_terms`` orders reach
    its tolerance for values and gradients; see ``terms`` for the Hessian.
    """

    def __init__(self, ev: GreenEvaluator):
        k = self.k = ev.k
        qmin = float(np.min(ev.lattice.q))
        self.radius = _EXPANSION_RADIUS * qmin
        radii = qmin * np.asarray(_FIT_RADII)
        rho = self.rho = float(radii[-1])
        n = np.arange(_EXPANSION_CAP + 1)
        theta = 2.0 * np.pi * np.arange(_FIT_SAMPLES) / _FIT_SAMPLES
        circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        # order n of the samples on circle j is c_n b_nj; fit c_n by least
        # squares over both circles, so no near-zero phi_n(k rho_j) divides
        u = (k * radii / 2) ** 2
        basis = (radii[:, None] / rho) ** n * _phi_table(u, _EXPANSION_CAP,
                                                       float(np.max(np.abs(u)))).T
        num = np.zeros((2, len(n)), dtype=complex)
        scale = 0.0
        for rj, b in zip(radii, basis):
            pts = rj * circle
            ewald = _batched(pts, False, _ewald_kernel(ev, False))[0]
            samples = ewald - specfun.fundamental_solution(2, pts, k).value
            scale = max(scale, float(np.max(np.abs(samples))))
            a = np.fft.fft(samples) / _FIT_SAMPLES
            num += np.conj(b) * np.stack([a[n], a[-n]])
        c = num / np.sum(np.abs(basis) ** 2, axis=0)
        c[1, 0] = 0.0
        self.coefficients = c
        self._cmax = np.max(np.abs(c), axis=0)
        # The top orders hold what the fit cannot resolve: the Ewald samples'
        # own error, or a true tail the cap cut off.  Refuse a fit that misses
        # the evaluator's tolerance; otherwise truncate above that floor.
        self.floor = float(np.max(self._cmax[-8:]))
        if self.floor > ev.tolerance * scale:
            raise SeriesTruncationError(
                f"Fourier-Bessel fit of R resolves only {self.floor:.1e} within "
                f"{_EXPANSION_CAP} orders, above the evaluator tolerance "
                f"{ev.tolerance:.1e} x {scale:.3g}"
            )
        self.tolerance = max(1e-3 * ev.tolerance * scale, 16.0 * self.floor)

        # Coefficients over n = -L..L (index n + L) of R and of its
        # derivatives: d/dz e_n = D_n e_{n-1} and d/dzbar e_n = Dbar_n e_{n+1},
        # D_n = n/rho (n >= 1), Dbar_n = |n|/rho (n <= -1), and both are
        # -(k^2 rho/4)/(|n|+1) otherwise.  Rows: R, R_z, R_zbar, R_zz, R_zbarzbar.
        L = _EXPANSION_CAP + 2
        full = np.zeros(2 * L + 1, dtype=complex)
        full[L: L + len(n)] = c[0]
        full[L - _EXPANSION_CAP: L] = c[1, :0:-1]
        idx = np.arange(-L, L + 1)
        low = -(k * k * rho / 4.0) / (np.abs(idx) + 1)
        D = np.where(idx >= 1, idx / rho, low)
        Dbar = np.where(idx <= -1, -idx / rho, low)

        def dz(C):
            return np.r_[D[1:] * C[1:], 0.0]

        def dzbar(C):
            return np.r_[0.0, Dbar[:-1] * C[:-1]]

        rows = np.stack([full, dz(full), dzbar(full), dz(dz(full)), dzbar(dzbar(full))])
        # transposed for products with the batch as the leading dimension,
        # whose rows BLAS computes alike however many there are
        self._pos = np.ascontiguousarray(rows[:, L:].T)
        self._neg = np.ascontiguousarray(rows[:, L - 1::-1].T)
        self.max_terms = self.terms(self.radius, 1)
        # A point's order count comes from the first ladder radius at or above
        # |x|, rounded up to a multiple of _TERM_STEP, never from the other
        # points of its call: a grid gives the same bits however it is batched
        # or split over threads.
        self._ladder = self.radius * _LADDER_RATIO ** np.arange(_LADDER_STEPS)[::-1]
        tops = np.array([[self.terms(r, d) for r in self._ladder] for d in (1, 2)])
        # the Hessian's looser bound may stop earlier: never below the
        # gradient's count, so green_hessian's values and gradients keep it
        tops[1] = np.maximum(tops[0], tops[1])
        self._tops = np.minimum(_EXPANSION_CAP, -(-tops // _TERM_STEP) * _TERM_STEP)
        # |u| = |k x|^2/4 in the phi table of a count is bounded at the
        # largest ladder radius with that count
        self._umax = [{t: abs(k) ** 2 * self._ladder[row == t][-1] ** 2 / 4.0
                       for t in np.unique(row)} for row in self._tops]

    def terms(self, rmax: float, derivatives: int) -> int:
        """Highest order kept at |x| <= rmax for up to ``derivatives`` (1 or 2).

        Beyond it every (n+1) |c_n| (rmax/rho)^n max|phi_n|, a bound on the
        order-n term of R and of its gradient, stays under the tolerance;
        |phi_n(z)| <= min(e^{|Im z|}, e^{|z|^2/(4(n+1))}).  The Hessian
        multiplies the bound by n+2 and the tolerance by N+2 = 122, N the
        cap, where the fitted coefficients sit at their floor; at low orders
        that is a looser tolerance than the gradient's, so the Hessian rows
        are evaluated to the larger of the two counts.
        """
        n = np.arange(len(self._cmax))
        phi_max = np.exp(np.minimum(abs(self.k.imag) * rmax,
                                    abs(self.k) ** 2 * rmax ** 2 / (4.0 * (n + 1))))
        bound = (n + 1) * self._cmax * (rmax / self.rho) ** n * phi_max
        limit = self.tolerance
        if derivatives == 2:
            bound = bound * (n + 2)
            limit = limit * (n[-1] + 2)
        over = np.nonzero(bound >= limit)[0]
        if over.size and over[-1] >= len(n) - 3:
            raise SeriesTruncationError(
                f"Fourier-Bessel tail of R not below {limit:.1e} at "
                f"|x| = {rmax:.3g} within {len(n) - 1} orders"
            )
        return int(over[-1]) if over.size else 0

    def __call__(self, x: np.ndarray, hessians: bool) -> list:
        """[R, grad R] and, when asked, the Hessian at points x (P, 2), |x| <= radius."""
        r2 = np.sum(x * x, axis=1)
        derivatives = 2 if hessians else 1
        level = np.searchsorted(self._ladder, np.sqrt(r2))
        tops = self._tops[derivatives - 1][np.minimum(level, _LADDER_STEPS - 1)]
        jet = [np.empty(len(x), dtype=complex), np.empty((len(x), 2), dtype=complex)]
        if hessians:
            jet.append(np.empty((len(x), 2, 2), dtype=complex))
        for top in np.unique(tops):
            sel = tops == top
            umax = self._umax[derivatives - 1][top]
            # each derivative shifts the orders by one
            for a, b in zip(jet, self._jet(x[sel], r2[sel], int(top) + derivatives,
                                           umax, hessians)):
                a[sel] = b
        return jet

    def _jet(self, x, r2, top: int, umax: float, hessians: bool) -> list:
        if len(x) == 1:
            # BLAS takes a vector path for one row, with other rounding
            jet = self._jet(np.repeat(x, 2, axis=0), np.repeat(r2, 2), top, umax,
                            hessians)
            return [a[:1] for a in jet]
        w = (x[:, 0] + 1j * x[:, 1]) / self.rho
        phi = _phi_table((self.k * self.k / 4.0) * r2, top, umax)
        powers = np.ones_like(phi)
        for n in range(1, top + 1):
            np.multiply(powers[n - 1], w, out=powers[n])
        # conj(w)^n phi_n, in place: numpy may swap the operands of a product
        # with a large temporary, and complex products round by operand order
        neg = np.conj(powers[1:])
        neg *= phi[1:]
        nrows = 5 if hessians else 3
        out = (phi * powers).T @ self._pos[: top + 1, :nrows] \
            + neg.T @ self._neg[:top, :nrows]
        val, dz, dzbar = out[:, 0], out[:, 1], out[:, 2]
        jet = [val, np.stack([dz + dzbar, 1j * (dz - dzbar)], axis=1)]
        if hessians:
            dzz, dzbarzbar = out[:, 3], out[:, 4]
            mixed = -(self.k * self.k / 2.0) * val  # 2 R_zzbar = Delta R / 2
            hxx = dzz + dzbarzbar + mixed
            hyy = mixed - dzz - dzbarzbar
            hxy = 1j * (dzz - dzbarzbar)
            jet.append(np.stack([np.stack([hxx, hxy], axis=1),
                                 np.stack([hxy, hyy], axis=1)], axis=1))
        return jet


def regular_part(ev: GreenEvaluator, x):
    """R = G - S_2(., k) and its gradient; analytic through the origin.

    R is singular at the lattice points other than the origin: a point too
    close to one raises NearLatticePointError.  The first call fits the
    evaluator's Fourier-Bessel expansion.
    """
    v, g, _ = _batched(x, False, _regular_kernel(ev, ev.expansion))
    return v, g


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
    if np.any(r < _EXCLUSION_FACTOR * qmin):
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
