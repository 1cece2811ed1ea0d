"""Quasi-periodic Helmholtz Green function via an exponentially convergent split.

The spectral definition G(x) = (1/A) sum_z exp(i beta_z . x) / (k^2 - |beta_z|^2)
is summed through a Gaussian split at parameter E: writing the heat-kernel
identity for the lattice sum and cutting the t-integral at 1/(4 E^2) turns the
slowly convergent series into

    G = G_spec + G_spat,
    G_spec(x) = (1/A) sum_z e^{i beta_z . x} exp((k^2-|beta_z|^2)/(4E^2)) / (k^2-|beta_z|^2),
    G_spat(x) = -(1/4 pi) sum_m e^{i eta . qm} sum_j (k/2E)^{2j}/j! E_{j+1}(E^2 |x-qm|^2),

with E_n the generalized exponential integral (dimension 2 throughout).  Both
tails decay like Gaussians, so small index boxes give full precision; the split
is algebraically exact for every E > 0, which the tests exercise by comparing
evaluators with different split parameters.

The regular part R = G - S_2(., k) solves the Helmholtz equation in the disk
|x| < min(q), so there it is a Fourier-Bessel (lattice-sum) series

    R(x) = sum_n s_n J_n(k|x|) e^{i n theta}

(Linton, SIAM Review 52 (2010) 630-674).  The coefficients are fitted once
per evaluator, on its first regular_part call, from green_eval - S_2 sampled
on two circles inside that disk, and stored on the normalised basis
(z/rho)^|n| phi_|n|(k|x|), z = x_1 +- i x_2, phi_n(z) = n! (2/z)^n J_n(z);
the raw s_n overflow.  A point is first reduced into the centred cell,
x' = x - q m*, and R(x) = e^{i eta . q m*} (S_2(x') + R(x')) - S_2(x); the
few reduced points beyond the expansion's radius (anisotropic cells only)
take green_eval - S_2 directly.
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

    lowest may be -1; u must be positive.
    """
    e = np.exp(-u)
    table: dict[int, np.ndarray] = {}
    if lowest <= -1:
        table[-1] = e * (u + 1.0) / (u * u)
    if lowest <= 0:
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

        The expansion entries are None until a regular_part call has fitted it.
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
        xr = x - mstar * q
        phase = np.exp(1j * (mstar * q) @ self.lattice.eta_vec)
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

    def _spectral(self, xr: np.ndarray, need: str):
        ph = np.exp(1j * xr @ self.betas.T) * self.cz[None, :]
        val = np.sum(ph, axis=1)
        grad = hess = None
        if "g" in need:
            grad = 1j * (ph @ self.betas)
        if "h" in need:
            hess = -np.einsum("ps,si,sj->pij", ph, self.betas, self.betas)
        return val, grad, hess

    def _spatial(self, d: np.ndarray, rho2: np.ndarray, need: str):
        E = self.ewald_split
        u = E * E * rho2
        lowest = -1 if "h" in need else (0 if "g" in need else 1)
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
        grad = hess = None
        if "g" in need or "h" in need:
            s0 = series(0)
            pref = E * E / (2 * np.pi)
            if "g" in need:
                grad = pref * np.einsum("pm,pmi->pi", w * s0, d)
            if "h" in need:
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


def _batched(x, need: str, kernel):
    """Apply kernel(points) -> (values, gradients, Hessians) in _CHUNK batches.

    x has shape (..., 2); need names the outputs ("v", "g", "h") to collect.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x).reshape(-1, 2)
    vals = np.zeros(len(pts), dtype=complex)
    grads = np.zeros((len(pts), 2), dtype=complex) if "g" in need else None
    hesss = np.zeros((len(pts), 2, 2), dtype=complex) if "h" in need else None
    for lo in range(0, len(pts), _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, len(pts)))
        v, g, h = kernel(pts[sl])
        vals[sl] = v
        if grads is not None:
            grads[sl] = g
        if hesss is not None:
            hesss[sl] = h
    shape = x.shape[:-1]
    vals = vals.reshape(shape) if not scalar else vals[0]
    if grads is not None:
        grads = grads.reshape(shape + (2,)) if not scalar else grads[0]
    if hesss is not None:
        hesss = hesss.reshape(shape + (2, 2)) if not scalar else hesss[0]
    return vals, grads, hesss


def _green_kernel(ev: GreenEvaluator, need: str):
    def kernel(chunk):
        xr, phase, _ = ev._reduce(chunk)
        d, rho2 = ev._guard(xr)
        v1, g1, h1 = ev._spectral(xr, need)
        v2, g2, h2 = ev._spatial(d, rho2, need)
        g = phase[:, None] * (g1 + g2) if "g" in need else None
        h = phase[:, None, None] * (h1 + h2) if "h" in need else None
        return phase * (v1 + v2), g, h
    return kernel


def green_eval(ev: GreenEvaluator, x):
    """Green-function value and gradient at points x (shape (..., 2))."""
    v, g, _ = _batched(x, "vg", _green_kernel(ev, "vg"))
    return v, g


def green_hessian(ev: GreenEvaluator, x):
    """Hessian of the Green function (shape (..., 2, 2))."""
    _, _, h = _batched(x, "vh", _green_kernel(ev, "vh"))
    return h


def _phi_table(u, nmax: int) -> np.ndarray:
    """phi_n(z) = n! (2/z)^n J_n(z) = 0F1(; n+1; -u) at u = z^2/4, rows n = 0..nmax.

    The two top rows are hypergeometric series at an order >= 2|u|, where
    |phi_n - 1| < 0.65 and no term can cancel; the rest come from the backward
    recurrence phi_{n-1} = phi_n - u phi_{n+1} / (n (n+1)), stable for the
    minimal solution J_n.  phi_n(0) = 1, so the table is finite at x = 0.
    """
    u = np.asarray(u, dtype=complex)
    top = max(nmax, int(np.ceil(2.0 * np.max(np.abs(u)))))
    phi = np.empty((top + 2,) + u.shape, dtype=complex)
    for n in (top, top + 1):
        term = acc = np.ones_like(u)
        m = 0
        while np.max(np.abs(term)) > 1e-17:
            m += 1
            term = term * (-u) / (m * (n + m))
            acc = acc + term
        phi[n] = acc
    for n in range(top, 0, -1):
        phi[n - 1] = phi[n] - u * phi[n + 1] / (n * (n + 1))
    return phi[: nmax + 1]


class FourierBesselExpansion:
    """R(x) = sum_n c_n e_n(x) about the origin, fitted from green_eval - S_2.

    e_n = w^n phi_n(k|x|) for n >= 0 and conj(w)^|n| phi_|n|(k|x|) for n < 0,
    with w = (x_1 + i x_2) / rho and rho the outer sampling radius.  Row 0 of
    ``coefficients`` holds c_0, c_1, ...; row 1 holds 0, c_-1, c_-2, ...
    The expansion serves |x| <= ``radius``, where ``max_terms`` orders reach
    its tolerance.
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
        basis = (radii[:, None] / rho) ** n * _phi_table((k * radii / 2) ** 2,
                                                       _EXPANSION_CAP).T
        num = np.zeros((2, len(n)), dtype=complex)
        scale = 0.0
        for rj, b in zip(radii, basis):
            pts = rj * circle
            samples = green_eval(ev, pts)[0] - specfun.fundamental_solution(2, pts, k).value
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

        # Rows (value, d/dz, d/dzbar) on the same basis, orders 0..cap+1:
        # d/dz e_n = (n/rho) e_{n-1} for n >= 1 and -(k^2 rho/4) e_{n-1}/(|n|+1)
        # for n <= 0; d/dzbar mirrors it.
        ext = np.zeros((2, len(n) + 2), dtype=complex)
        ext[:, : len(n)] = c
        ext[1, 0] = c[0, 0]  # c_0 read from the negative side
        m = np.arange(len(n) + 1)
        up = (m + 1) * ext[:, 1:] / rho
        down = np.zeros_like(up)
        down[:, 1:] = -(k * k * rho / 4.0) * ext[:, : len(n)] / m[1:]
        self._pos = np.stack([ext[0, :-1], up[0], down[0]])
        self._neg = np.stack([np.r_[0.0, ext[1, 1:-1]], down[1], up[1]])
        self.max_terms = self.terms(self.radius)

    def terms(self, rmax: float) -> int:
        """Highest order kept at |x| <= rmax.

        Beyond it every (n+1)|c_n| (rmax/rho)^n max|phi_n|, a bound on the
        order-n term of R and of its gradient, stays under the tolerance;
        |phi_n(z)| <= min(e^{|Im z|}, e^{|z|^2/(4(n+1))}).
        """
        n = np.arange(len(self._cmax))
        phi_max = np.exp(np.minimum(abs(self.k.imag) * rmax,
                                    abs(self.k) ** 2 * rmax ** 2 / (4.0 * (n + 1))))
        bound = (n + 1) * self._cmax * (rmax / self.rho) ** n * phi_max
        over = np.nonzero(bound >= self.tolerance)[0]
        if over.size and over[-1] >= len(n) - 3:
            raise SeriesTruncationError(
                f"Fourier-Bessel tail of R not below {self.tolerance:.1e} at "
                f"|x| = {rmax:.3g} within {len(n) - 1} orders"
            )
        return int(over[-1]) if over.size else 0

    def __call__(self, x: np.ndarray):
        """R and its gradient at points x of shape (P, 2) with |x| <= radius."""
        r2 = np.sum(x * x, axis=1)
        top = self.terms(float(np.sqrt(np.max(r2)))) + 1  # gradients need one more
        w = (x[:, 0] + 1j * x[:, 1]) / self.rho
        phi = _phi_table((self.k * self.k / 4.0) * r2, top)
        powers = np.ones_like(phi)
        for n in range(1, top + 1):
            np.multiply(powers[n - 1], w, out=powers[n])
        val, dz, dzbar = self._pos[:, : top + 1] @ (phi * powers) \
            + self._neg[:, : top + 1] @ (phi * np.conj(powers))
        return val, np.stack([dz + dzbar, 1j * (dz - dzbar)], axis=1)


def _regular_kernel(ev: GreenEvaluator):
    fb = ev.expansion
    k = ev.k
    excl = ev._exclusion()

    def kernel(chunk):
        xr, phase, mstar = ev._reduce(chunk)
        moved = np.any(mstar != 0, axis=1)
        r2 = np.sum(xr * xr, axis=1)
        if np.any(moved & (r2 < excl * excl)):
            raise NearLatticePointError(
                f"evaluation point within {excl:.1e} of a source lattice point"
            )
        val = np.zeros(len(chunk), dtype=complex)
        grad = np.zeros((len(chunk), 2), dtype=complex)
        near = r2 <= fb.radius ** 2
        if np.any(near):
            val[near], grad[near] = fb(xr[near])
        fold = near & moved
        if np.any(fold):
            # R(x) = e^{i eta . q m*} (S_2(x') + R(x')) - S_2(x)
            sr = specfun.fundamental_solution(2, xr[fold], k)
            sx = specfun.fundamental_solution(2, chunk[fold], k)
            ph = phase[fold]
            val[fold] = ph * (sr.value + val[fold]) - sx.value
            grad[fold] = ph[:, None] * (sr.gradient + grad[fold]) - sx.gradient
        if not np.all(near):
            far = ~near
            gv, gg = green_eval(ev, chunk[far])
            s = specfun.fundamental_solution(2, chunk[far], k)
            val[far] = gv - s.value
            grad[far] = gg - s.gradient
        return val, grad, None
    return kernel


def regular_part(ev: GreenEvaluator, x, *, enforce_ball: bool = True):
    """R = G - S_2(., k) and its gradient; analytic through the origin.

    The public contract keeps |x| < min(q)/2 so the nearest source point is the
    origin; assembly code sets enforce_ball=False after checking its own
    separation from the nonzero lattice points.  The first call fits the
    evaluator's Fourier-Bessel expansion.
    """
    x = np.asarray(x, dtype=float)
    if enforce_ball:
        r = np.sqrt(np.sum(np.atleast_2d(x.reshape(-1, 2)) ** 2, axis=1))
        if np.any(r >= 0.5 * float(np.min(ev.lattice.q))):
            raise ValueError("regular part requested outside the half-cell ball")
    v, g, _ = _batched(x, "vg", _regular_kernel(ev))
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
