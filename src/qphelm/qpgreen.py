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

The regular part R = G - S_2(., k) is evaluated without cancellation by
replacing the central image's difference against the free-space kernel with an
explicit even power series (the log |x| terms cancel exactly in that bracket).
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

from .errors import (
    InsufficientDecayError,
    NearLatticePointError,
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
    "image_sum_oracle",
]

_CHUNK = 2048
_DEFICIT_CUTOVER = 1.4  # switch radius (in units of 1/E) for the central bracket
_EXCLUSION_FACTOR = 1e-8


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

    Attributes mirror the construction arguments; index boxes are chosen
    adaptively unless pinned by the caller.
    """

    def __init__(self, lattice: Lattice, wave: WaveContext, *, ewald_split: float,
                 tolerance: float, spectral_truncation: int | None,
                 spatial_truncation: int | None):
        if lattice.dim != 2:
            raise NotImplementedError("Green evaluator implemented for dimension 2")
        self.lattice = lattice
        self.wave = wave
        self.ewald_split = float(ewald_split)
        self.tolerance = float(tolerance)
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

        if spectral_truncation is None:
            s, quiet = 1, 0
            smax = 60
            while s <= 60:
                if spectral_shell_bound(s) < tolerance * 1e-2:
                    quiet += 1
                    if quiet >= 2:
                        smax = s - 2  # the two quiet shells are dropped
                        break
                else:
                    quiet = 0
                s += 1
            else:
                raise SeriesTruncationError("spectral Ewald sum did not converge")
            self.spectral_truncation = max(smax, 1)
        else:
            self.spectral_truncation = int(spectral_truncation)
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

        if spatial_truncation is None:
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
        else:
            self.spatial_truncation = int(spatial_truncation)
        rings = [_shell_indices(s, 2) for s in range(self.spatial_truncation + 1)]
        ms = np.concatenate(rings, axis=0)
        self.shifts = ms * lattice.q[None, :]
        self.shift_phases = np.exp(1j * self.shifts @ lattice.eta_vec)
        self.central_index = int(np.nonzero(np.all(ms == 0, axis=1))[0][0])

        # ---- central-bracket series (regular part) ----------------------------
        # cd(rho) = J2(k rho) log E + P(rho^2) - N2(k rho), where P collects the
        # psi terms and the regular l != j part of E_{j+1}'s expansion.
        L = 48
        psi = -np.euler_gamma + np.array([0.0] + [1.0 / i for i in range(1, L + 1)]).cumsum()
        p = np.zeros(L + 1, dtype=complex)
        jj = np.arange(J + 1)
        bj_over_fact = self.aj  # b^j / j!
        for ell in range(L + 1):
            term_psi = -(1.0 / (4 * np.pi)) * (-1.0) ** ell * psi[ell] * (k2 / 4.0) ** ell \
                / sp.factorial(ell) ** 2
            mask = jj != ell
            denom = (ell - jj[mask]).astype(float)
            reg = np.sum(bj_over_fact[mask] / denom)
            term_reg = (1.0 / (4 * np.pi)) * (-1.0) ** ell * E ** (2 * ell) / sp.factorial(ell) * reg
            p[ell] = term_psi + term_reg
        self.deficit_poly = p

    # -------------------------------------------------------------------- utils
    @property
    def k(self) -> complex:
        return complex(self.wave.k)

    def _reduce(self, x: np.ndarray):
        """Translate points into the centered cell; return (reduced, Bloch phase)."""
        q = self.lattice.q
        mstar = np.round(x / q)
        xr = x - mstar * q
        phase = np.exp(1j * (mstar * q) @ self.lattice.eta_vec)
        return xr, phase

    def _guard(self, xr: np.ndarray, exclude_origin: bool = False):
        d = xr[:, None, :] - self.shifts[None, :, :]
        rho2 = np.sum(d * d, axis=2)
        if exclude_origin:
            r = rho2.copy()
            r[:, self.central_index] = np.inf
            rho2min = np.min(r, axis=1)
        else:
            rho2min = np.min(rho2, axis=1)
        excl = _EXCLUSION_FACTOR * float(np.min(self.lattice.q))
        if np.any(rho2min < excl * excl):
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

    def _spatial(self, d: np.ndarray, rho2: np.ndarray, need: str,
                 skip_central: bool = False):
        E = self.ewald_split
        u = E * E * rho2
        lowest = -1 if "h" in need else (0 if "g" in need else 1)
        if skip_central:
            # keep the table well defined at the excluded origin column
            u = u.copy()
            u[:, self.central_index] = 1.0
        tab = _expn_table(u, self.jmax + 1, lowest)

        def series(offset):
            # sum_j a_j E_{j+offset}(u); offset in {-1, 0, 1}
            acc = np.zeros_like(u, dtype=complex)
            for j in range(self.jmax + 1):
                acc += self.aj[j] * tab[j + offset - lowest]
            return acc

        w = self.shift_phases[None, :]
        if skip_central:
            w = w.copy() * np.ones((u.shape[0], 1))
            w[:, self.central_index] = 0.0
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

    def _deficit(self, rho2: np.ndarray, need: str):
        """Central bracket cd(|x|) = [m=0 spatial term] - S_2(x, k), analytic at 0.

        Returns (value, derivative with respect to rho^2).
        """
        k, E = self.k, self.ewald_split
        rho = np.sqrt(rho2)
        out_v = np.zeros(rho.shape, dtype=complex)
        out_d = np.zeros(rho.shape, dtype=complex) if "g" in need or "h" in need else None
        near = E * rho <= _DEFICIT_CUTOVER
        if np.any(near):
            w = rho2[near]
            z = k * rho[near]
            J2, N2 = specfun.fs_coefficients(2, z)
            pv = np.zeros_like(w, dtype=complex)
            wp = np.ones_like(w)
            for ell in range(len(self.deficit_poly)):
                pv += self.deficit_poly[ell] * wp
                wp = wp * w
            out_v[near] = J2 * np.log(E) + pv - N2
            if out_d is not None:
                gJ, gN = specfun.fs_coefficients_dz_over_z(2, z)
                pd = np.zeros_like(w, dtype=complex)
                wp = np.ones_like(w)
                for ell in range(1, len(self.deficit_poly)):
                    pd += ell * self.deficit_poly[ell] * wp
                    wp = wp * w
                out_d[near] = 0.5 * k * k * (gJ * np.log(E) - gN) + pd
        far = ~near
        if np.any(far):
            u = E * E * rho2[far]
            tab = _expn_table(u, self.jmax + 1, 0)
            s1 = np.zeros_like(u, dtype=complex)
            s0 = np.zeros_like(u, dtype=complex)
            for j in range(self.jmax + 1):
                s1 += self.aj[j] * tab[j + 1]
                s0 += self.aj[j] * tab[j]
            z = k * rho[far]
            J2, N2 = specfun.fs_coefficients(2, z)
            logr = np.log(rho[far])
            out_v[far] = -(1.0 / (4 * np.pi)) * s1 - (J2 * logr + N2)
            if out_d is not None:
                gJ, gN = specfun.fs_coefficients_dz_over_z(2, z)
                # d/d(rho^2) of m0 term: (E^2/4pi) * s0' ... chain rule gives
                # (E^2 / 4 pi) s0; of S_2: (k^2/2)(gJ log r + gN) + J2/(2 rho^2)
                out_d[far] = (E * E / (4 * np.pi)) * s0 - (
                    0.5 * k * k * (gJ * logr + gN) + 0.5 * J2 / rho2[far]
                )
        return out_v, out_d


def make_green_evaluator(lattice: Lattice, k: complex, *, ewald_split: float | None = None,
                         tolerance: float = 1e-12, spectral_truncation: int | None = None,
                         spatial_truncation: int | None = None,
                         resonance_tolerance: float | None = None) -> GreenEvaluator:
    """Build an evaluator, refusing wavenumbers on the lattice spectrum."""
    kwargs = {}
    if resonance_tolerance is not None:
        kwargs["resonance_tolerance"] = resonance_tolerance
    wave = make_wave_context(lattice, k, require_nonresonant=True, **kwargs)
    if ewald_split is None:
        ewald_split = float(np.sqrt(np.pi) / np.max(lattice.q))
    return GreenEvaluator(lattice, wave, ewald_split=ewald_split, tolerance=tolerance,
                          spectral_truncation=spectral_truncation,
                          spatial_truncation=spatial_truncation)


def _batched(ev: GreenEvaluator, x, need: str, reduce_cell: bool, exclude_central: bool,
             add_deficit: bool):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x).reshape(-1, 2)
    vals = np.zeros(len(pts), dtype=complex)
    grads = np.zeros((len(pts), 2), dtype=complex) if "g" in need else None
    hesss = np.zeros((len(pts), 2, 2), dtype=complex) if "h" in need else None
    for lo in range(0, len(pts), _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, len(pts)))
        chunk = pts[sl]
        if reduce_cell:
            xr, phase = ev._reduce(chunk)
        else:
            xr, phase = chunk, np.ones(len(chunk), dtype=complex)
        d, rho2 = ev._guard(xr, exclude_origin=exclude_central)
        v1, g1, h1 = ev._spectral(xr, need)
        v2, g2, h2 = ev._spatial(d, rho2, need, skip_central=exclude_central)
        v = v1 + v2
        if add_deficit:
            rho2c = np.sum(xr * xr, axis=1)
            dv, dd = ev._deficit(rho2c, need)
            v = v + dv
        vals[sl] = phase * v
        if grads is not None:
            g = g1 + g2
            if add_deficit:
                g = g + 2.0 * xr * dd[:, None]
            grads[sl] = phase[:, None] * g
        if hesss is not None:
            hesss[sl] = phase[:, None, None] * (h1 + h2)
    shape = x.shape[:-1]
    vals = vals.reshape(shape) if not scalar else vals[0]
    if grads is not None:
        grads = grads.reshape(shape + (2,)) if not scalar else grads[0]
    if hesss is not None:
        hesss = hesss.reshape(shape + (2, 2)) if not scalar else hesss[0]
    return vals, grads, hesss


def green_eval(ev: GreenEvaluator, x):
    """Green-function value and gradient at points x (shape (..., 2))."""
    v, g, _ = _batched(ev, x, "vg", reduce_cell=True, exclude_central=False,
                       add_deficit=False)
    return v, g


def green_hessian(ev: GreenEvaluator, x):
    """Hessian of the Green function (shape (..., 2, 2))."""
    _, _, h = _batched(ev, x, "vh", reduce_cell=True, exclude_central=False,
                       add_deficit=False)
    return h


def regular_part(ev: GreenEvaluator, x, *, enforce_ball: bool = True):
    """R = G - S_2(., k) and its gradient; analytic through the origin.

    The public contract keeps |x| < min(q)/2 so the nearest source point is the
    origin; assembly code sets enforce_ball=False after checking its own
    separation from the nonzero lattice points.
    """
    x = np.asarray(x, dtype=float)
    if enforce_ball:
        r = np.sqrt(np.sum(np.atleast_2d(x.reshape(-1, 2)) ** 2, axis=1))
        if np.any(r >= 0.5 * float(np.min(ev.lattice.q))):
            raise ValueError("regular part requested outside the half-cell ball")
    v, g, _ = _batched(ev, x, "vg", reduce_cell=False, exclude_central=True,
                       add_deficit=True)
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
