"""Quasi-periodic Helmholtz Green function from its regular part in the cell.

G is served from the free-space kernel plus a fitted regular part.  The
regular part R = G - S_2(., k) solves the Helmholtz equation in the disk
|x| < min(q), so there it is a Fourier-Bessel (lattice-sum) series

    R(x) = sum_n s_n J_n(k|x|) e^{i n theta}

(Linton, SIAM Review 52 (2010) 630-674).  A point is first reduced into the
centred cell, x' = x - q m* (Lattice.reduce), and

    G(x) = e^{i eta . q m*} (S_2(x') + R(x')),

with values and gradients from the same tables: the expansion's gradient
rows are coefficient shifts.  regular_part returns R(x) = G(x) - S_2(x),
which for unmoved points (m* = 0) is R(x') itself, so there is no
cancellation at the origin.  Nothing in the library needs a second
derivative of G (a double layer's gradient comes from G and grad G by parts,
see potentials.field_eval), so green_hessian is the Ewald oracle.

The coefficients are fitted once per evaluator from Ewald values of G - S_2
on two circles inside the disk, and stored on the normalised basis
(z/rho)^|n| phi_|n|(k|x|), z = x_1 +- i x_2, phi_n(z) = n! (2/z)^n J_n(z);
the raw s_n overflow.  The samples are Ewald values alone, no derivatives.
Only the paths of R (regular_part, pair_tables, separable_order) fit the
expansion; green_eval sums Ewald before, so a few probe values never pay
the fit.  A point's order count comes from a fixed ladder of radii, not from
the other points of its call, so every point gets the same bits in any batch
(a grid split over threads included).

green_eval and regular_part serve a point through one driver, _cell, in
one order: reduce it into the cell, take the expansion within its radius
with S_2 folded in and the Bloch phase applied (for R only at moved
points), and sum Ewald beyond the radius; an unfitted evaluator is the case
with no point within it.  A call reduces all its points first.  The
expansion then takes those within its radius rung by rung (the points of
one order count) across the whole call, in blocks written straight into the
call's outputs, a table's antipode rows included.  One block computes all
that a point needs: its powers (-u)^m, u = (k|x|/2)^2, times a fixed
per-rung matrix give the phi rows from order n0 = max(1, ceil(2 umax)) up
and two free-space profiles of S_2, the backward recurrence the rows below
n0, and the powers of w times the phi rows the basis, which one product per
sign contracts with the coefficients.  S_2 takes J_0 = phi_0,
J_1(z)/z = phi_1/2 and the two profile columns; a rung whose |k x| passes
specfun.SERIES_RADIUS takes S_2 from specfun.  A block is sized by memory, not
by point count: its table holds at most _PHI_ENTRIES entries, about 512
points at the cap and a few thousand at the lowest rungs, so each block's
fixed cost is shared among many points at every rung.  The basis tables
are bounded by the block; the reduced
points, shifts, squared radii and index arrays of the call grow with it, a
few tens of bytes per point.  R's subtraction of S_2(x), where the pass
or Ewald gave G, goes in _S2_RUN runs and the Ewald sum, whose points carry
every spatial shift, in _CHUNK runs.  The arithmetic follows k alone: for a
real k (Im k = 0; GreenEvaluator.k is then a float) the phi table is real
and the basis at order -n is the conjugate of the basis at n, so one
product with the order -n coefficients conjugated serves both signs of the
order; the free-space profiles are real too.  A complex k keeps both basis
tables.  The rule never looks at the data, which would flip at x = 0.

Tables at the differences y_i - y_j of points inside a disk about c of
radius r0 with 2 r0 within the expansion's radius are separable.  Graf's
addition theorem, J_n(k|u-v|) e^{i n theta_{u-v}} = sum_m F_{n-m}(u) F_m(-v)
with F_p(u) = J_p(k|u|) e^{i p theta_u}, gives

    R(u_i - u_j) = sum_{p,m} F_p(u_i) s_{p+m} F_m(-u_j),    u = y - c,

a product of two basis tables and a Hankel matrix (the multipole method for
cylinder arrays: Nicorovici, McPhedran & Botten, Phys. Rev. E 52 (1995)
1135).  pair_tables takes that path, within rounding of regular_part, where
separable_order accepts the disk.  Elsewhere regular_part evaluates a
node-pair table x[i, j] = y_i - y_j, antisymmetric bit for bit, on its upper
triangle: e_n(-x) = (-1)^n e_n(x), so the basis at x' contracted with the
coefficient rows signed by (-1)^n gives the jet at -x', and S_2(-x) = S_2(x)
with its gradient negated.  Negation is exact and rounding is symmetric, so
the table has the bits of the pointwise path.

The Ewald sum is the oracle, ewald_oracle.  It splits the spectral definition
G(x) = (1/A) sum_z exp(i beta_z . x) / (k^2 - |beta_z|^2) by a Gaussian at
parameter E: cutting the heat-kernel t-integral at 1/(4 E^2) gives

    G = G_spec + G_spat,
    G_spec(x) = (1/A) sum_z e^{i beta_z . x} exp((k^2-|beta_z|^2)/(4E^2)) / (k^2-|beta_z|^2),
    G_spat(x) = -(1/4 pi) sum_m e^{i eta . qm} sum_j (k/2E)^{2j}/j! E_{j+1}(E^2 |x-qm|^2),

with E_n the generalized exponential integral (dimension 2 throughout).  Both
tails decay like Gaussians, so small index boxes give full precision: every
point is first reduced into the centred cell, so shell s of the spatial sum
lies at least (s - 1/2) min(q) away, and the shells stop where that bound
makes one negligible.  The split is algebraically exact for every E > 0,
which the tests exercise by comparing evaluators with different split
parameters.  Besides checking the expansion, it samples the fit (values
only) and serves the reduced points beyond the expansion's radius
(anisotropic cells only) and the Green calls on an unfitted evaluator.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

from .errors import (
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
    "separable_order",
    "pair_tables",
    "FourierBesselExpansion",
    "ewald_oracle",
]

# Points per Ewald run: each carries about 49 shifts x jmax series terms
_CHUNK = 2048
# Points per S_2(x) run of R's subtraction (moved points and Ewald's): a
# few profile sums per point, so a longer run pays the interpreter's fixed
# cost less often
_S2_RUN = 8192
# Rows per product in pair_tables (at least two, so BLAS never takes its
# one-row vector path); trace rows come 16 at a time (solvers._N_CHECK).
_ROW_BLOCK = 16
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
# Table entries per block of the expansion's rung pass (_phi_rows): 512 points
# at the cap with _EXPANSION_CAP + 3 rows each.  A rung's block is this budget
# over its own row count (the phi rows to the gradient's extra order or the
# series' start, and S_2's two profile columns), so low rungs take a few
# thousand points per block and no basis table outgrows the cap block's.
_PHI_ENTRIES = 512 * (_EXPANSION_CAP + 3)


def _shell_indices(s: int) -> np.ndarray:
    """Integer index pairs with sup-norm exactly s."""
    if s == 0:
        return np.zeros((1, 2), dtype=int)
    rng = np.arange(-s, s + 1)
    grid = np.stack(np.meshgrid(rng, rng, indexing="ij"), axis=-1).reshape(-1, 2)
    keep = np.max(np.abs(grid), axis=1) == s
    return grid[keep]


def _expn_table(u: np.ndarray, jmax: int, lowest: int) -> list[np.ndarray]:
    """E_n(u) for n = lowest..jmax via exp1 plus the stable upward recurrence.

    lowest is -1, 0 or 1; u must be positive.
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


def _last_loud_shell(bound, first: int, last: int, what: str) -> int:
    """The shell before the first two consecutive shells in first..last whose
    ``bound`` falls below a hundredth of the tolerance; the quiet pair is dropped."""
    quiet = 0
    for s in range(first, last + 1):
        quiet = quiet + 1 if bound(s) < _TOLERANCE * 1e-2 else 0
        if quiet == 2:
            return s - 2
    raise SeriesTruncationError(f"{what} Ewald sum did not converge")


def _wavenumber(k) -> complex | float:
    """k as a float when Im k = 0, else complex.

    Every profile and basis table takes its type from k alone, so a real wave
    runs in real arithmetic and a point's bits never depend on its batch.
    """
    k = complex(k)
    return k.real if k.imag == 0.0 else k


class GreenEvaluator:
    """Precomputed tables for one (lattice, k, split) combination.

    The evaluator is the problem context: every operator, family and solve
    reads its lattice, wave context and k from here.  A resonant wave is
    refused; the index boxes are chosen adaptively to ``tolerance``, and the
    Ewald split defaults to max(sqrt(pi/A), |k|/4).
    """

    def __init__(self, lattice: Lattice, wave: WaveContext, *,
                 ewald_split: float | None = None):
        if wave.is_resonant:
            raise ResonanceError(
                f"k={wave.k} is resonant for q={lattice.q_diag}, eta={lattice.eta}: "
                f"indices {list(wave.resonance_set)}, spectral distance "
                f"{wave.spectral_distance:.3e}")
        self.lattice = lattice
        self.wave = wave
        k = complex(wave.k)
        if ewald_split is None:
            # sqrt(pi/A) balances the two Gaussian tails on any cell; both halves
            # carry terms of size e^{|k|^2/4E^2} that cancel, which |k|/4 caps at e^4
            ewald_split = max(np.sqrt(np.pi / lattice.cell_measure), abs(k) / 4.0)
        self.ewald_split = float(ewald_split)
        self.tolerance = tolerance = _TOLERANCE
        E = self.ewald_split
        A = lattice.cell_measure
        qmin = float(np.min(lattice.q))
        # the distance to a source lattice point under which G is refused
        self._exclusion = _EXCLUSION_FACTOR * qmin

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
            ring = _shell_indices(s)
            bs = dual_vector(lattice, ring)
            b2 = np.sum(bs * bs, axis=1)
            cz = np.exp((k2.real - b2) / (4.0 * E * E)) / (A * np.abs(k2 - b2))
            return float(np.max(cz * np.maximum(1.0, np.sqrt(b2)))) * len(ring)

        self.spectral_truncation = max(
            _last_loud_shell(spectral_shell_bound, 1, 60, "spectral"), 1)
        rings = [_shell_indices(s) for s in range(self.spectral_truncation + 1)]
        zs = np.concatenate(rings, axis=0)
        self.betas = dual_vector(lattice, zs)
        b2 = np.sum(self.betas * self.betas, axis=1)
        self.cz = np.exp((k2 - b2) / (4.0 * E * E)) / (A * (k2 - b2))

        # ---- spatial shift table ----------------------------------------------
        # The kernel reduces every point into the centred cell, |x'_i| <= q_i/2,
        # so a lattice point of sup-index s lies at least (s - 1/2) qmin away.
        suma = float(np.sum(np.abs(self.aj)))

        def spatial_shell_bound(s: int) -> float:
            rho = (s - 0.5) * qmin
            u = E * E * rho * rho
            return 8 * s * suma * max(sp.exp1(u), np.exp(-u) / max(u, 1.0)) / (4 * np.pi)

        self.spatial_truncation = max(
            _last_loud_shell(spatial_shell_bound, 3, 40, "spatial"), 2)
        rings = [_shell_indices(s) for s in range(self.spatial_truncation + 1)]
        ms = np.concatenate(rings, axis=0)
        self.shifts = ms * lattice.q[None, :]
        self.shift_phases = np.exp(1j * self.shifts @ lattice.eta_vec)

        self._expansion = None

    # -------------------------------------------------------------------- utils
    @property
    def k(self) -> complex | float:
        """The wavenumber, a float when Im k = 0: see _wavenumber."""
        return _wavenumber(self.wave.k)

    @property
    def expansion(self) -> FourierBesselExpansion:
        """The Fourier-Bessel expansion of R, fitted on first use."""
        if self._expansion is None:
            self._expansion = FourierBesselExpansion(self)
        return self._expansion

    def parameters(self) -> dict:
        """Numerical parameters chosen for this evaluator (for run manifests).

        The expansion entries are None until a call has fitted it.
        ``spectral_distance`` is the wave context's min_z |k^2 - |beta_z|^2|.
        """
        fb = self._expansion
        return {
            "spectral_distance": self.wave.spectral_distance,
            "ewald_split": self.ewald_split,
            "jmax": self.jmax,
            "spectral_truncation": self.spectral_truncation,
            "spatial_truncation": self.spatial_truncation,
            "expansion_terms": None if fb is None else fb.max_terms,
            "expansion_radius": None if fb is None else fb.radius,
        }

    def _phase(self, shift: np.ndarray) -> np.ndarray:
        """The Bloch phase e^{i eta . q m*} of each shift."""
        # elementwise: a matrix-vector product rounds a single row differently
        eta = self.lattice.eta_vec
        return np.exp(1j * (shift[:, 0] * eta[0] + shift[:, 1] * eta[1]))

    def _require_clear(self, rho2: np.ndarray) -> None:
        """Refuse squared distances to a source lattice point inside the exclusion."""
        excl = self._exclusion
        if np.any(rho2 < excl * excl):
            raise NearLatticePointError(
                f"evaluation point within {excl:.1e} of a source lattice point"
            )

    def _spectral(self, xr: np.ndarray, derivatives: int) -> list:
        # the phases as a real matrix product: straight after a complex one,
        # libm's complex exp runs many times slower until a numpy ufunc runs
        ph = np.exp(1j * (xr @ self.betas.T)) * self.cz[None, :]
        jet = [np.sum(ph, axis=1)]
        if derivatives >= 1:
            jet.append(1j * (ph @ self.betas))
        if derivatives == 2:
            jet.append(-np.einsum("ps,si,sj->pij", ph, self.betas, self.betas))
        return jet

    def _spatial(self, d: np.ndarray, rho2: np.ndarray, derivatives: int) -> list:
        E = self.ewald_split
        u = E * E * rho2
        lowest = 1 - derivatives
        tab = _expn_table(u, self.jmax + 1, lowest)

        def series(offset):
            # sum_j a_j E_{j+offset}(u); offset in {-1, 0, 1}
            acc = np.zeros_like(u, dtype=complex)
            for j in range(self.jmax + 1):
                acc += self.aj[j] * tab[j + offset - lowest]
            return acc

        w = self.shift_phases[None, :]
        jet = [-(1.0 / (4 * np.pi)) * np.sum(w * series(1), axis=1)]
        if derivatives >= 1:
            s0 = series(0)
            pref = E * E / (2 * np.pi)
            jet.append(pref * np.einsum("pm,pmi->pi", w * s0, d))
        if derivatives == 2:
            sm1 = series(-1)
            eye = np.eye(2)
            jet.append(pref * (
                np.einsum("pm,ij->pij", w * s0, eye)
                - 2.0 * E * E * np.einsum("pm,pmi,pmj->pij", w * sm1, d, d)
            ))
        return jet


def make_green_evaluator(lattice: Lattice, k: complex, *,
                         ewald_split: float | None = None) -> GreenEvaluator:
    """Build an evaluator, refusing wavenumbers on the lattice spectrum."""
    return GreenEvaluator(lattice, make_wave_context(lattice, k), ewald_split=ewald_split)


def _shaped(x: np.ndarray, out: list) -> tuple:
    """Outputs with one row per point of x (shape (..., 2)) in the shape of x."""
    return tuple(a.reshape(x.shape[:-1] + a.shape[1:])[()] for a in out)


def _chunks(idx: np.ndarray, run: int):
    """The indices idx in runs of at most ``run``."""
    return (idx[lo:lo + run] for lo in range(0, len(idx), run))


# trailing shapes of a value, a gradient and a Hessian
_JET = ((), (2,), (2, 2))


def _ewald(ev: GreenEvaluator, xr: np.ndarray, shift: np.ndarray, derivatives: int) -> list:
    """Ewald's G and its first ``derivatives`` (0, 1 or 2) derivatives at x = xr + shift.

    xr and shift are Lattice.reduce's: x reduced into the centred cell and
    the lattice vector q m* it moved by.  The caller checks the exclusion on
    |xr|, the distance to the nearest source lattice point.
    """
    if len(xr) == 1:
        # BLAS takes a vector path for one row, with other rounding
        two = [np.repeat(a, 2, axis=0) for a in (xr, shift)]
        return [a[:1] for a in _ewald(ev, *two, derivatives)]
    d = xr[:, None, :] - ev.shifts[None, :, :]
    rho2 = np.sum(d * d, axis=2)
    phase = ev._phase(shift)
    return [phase.reshape((-1,) + (1,) * (a.ndim - 1)) * (a + b)
            for a, b in zip(ev._spectral(xr, derivatives), ev._spatial(d, rho2, derivatives))]


def ewald_oracle(ev: GreenEvaluator, x):
    """G by the Ewald sum: values, gradients and Hessians at points x.

    Independent of the Fourier-Bessel expansion, it is the reference the
    expansion is fitted to and checked against; outside qpgreen only checks
    (the tests, the CLI's reference values) call it.  green_eval sums Ewald
    for reduced points beyond the expansion's radius and for every point
    before a path of R has fitted the expansion.  green_hessian is this
    oracle.  The points are reduced and checked once and summed in _CHUNK runs.
    """
    x = np.asarray(x, dtype=float)
    xr, shift = ev.lattice.reduce(x.reshape(-1, 2))
    ev._require_clear(np.sum(xr * xr, axis=1))
    out = [np.empty((len(xr),) + t, dtype=complex) for t in _JET]
    for idx in _chunks(np.arange(len(xr)), _CHUNK):
        for a, b in zip(out, _ewald(ev, xr[idx], shift[idx], 2)):
            a[idx] = b
    return _shaped(x, out)


def _cell(ev: GreenEvaluator, pts: np.ndarray, regular: bool,
          rows: list, size: int) -> list:
    """G, or with ``regular`` R = G - S_2, and its gradient at pts.

    Returns the value and the gradient, each with ``size`` rows.  rows holds
    one index array per sign: point i goes to row rows[0][i] and, for a
    table's antipodes, its jet at -x to row rows[1][i].  A point is reduced
    into the cell, x' = x - q m*.  Within the expansion's radius one rung
    pass (FourierBesselExpansion.fill) writes R(x') with S_2(x') folded in
    and the Bloch phase applied: at every point for G, at moved points only
    for R, which at unmoved ones is R(x') itself, so nothing cancels at 0.
    -x reduces to -x' with the shift negated, exactly: the expansion serves
    it from the basis at x', and S_2(-x) = S_2(x) with the gradient negated.
    Ewald serves the points beyond the radius, at +-x, and every point for G
    before a path of R has fitted the expansion.  R then subtracts S_2(x)
    where the pass folded or Ewald summed G, in _S2_RUN runs; the Ewald sum
    goes in _CHUNK runs.
    """
    # only R fits the expansion: a few values of G never pay for the fit
    fb = ev.expansion if regular else ev._expansion
    signs = (1.0, -1.0)[:len(rows)]
    xr, shift = ev.lattice.reduce(pts)
    moved = np.any(shift != 0, axis=1)
    r2 = np.sum(xr * xr, axis=1)
    # R is singular at the lattice points other than the origin
    ev._require_clear(r2[moved] if regular else r2)
    # allocated after the call's reduced points, which the heap reuses better
    out = [np.empty((size,) + t, dtype=complex) for t in _JET[:2]]
    near = np.zeros(len(pts), dtype=bool)
    if fb is not None:
        near = r2 <= fb.radius ** 2
        fb.fill(xr, r2, np.flatnonzero(near), moved if regular else None,
                lambda sel, s: ev._phase(s * shift[sel]),
                [(a, at) for at in rows for a in out])
    for idx in _chunks(np.flatnonzero(~near), _CHUNK):
        for s, at in zip(signs, rows):
            for a, b in zip(out, _ewald(ev, s * xr[idx], s * shift[idx], 1)):
                a[at[idx]] = b
    if regular:
        v, g = out
        for idx in _chunks(np.flatnonzero(moved | ~near), _S2_RUN):
            free = specfun.fundamental_solution(2, pts[idx], ev.k)
            for s, at in zip(signs, rows):
                v[at[idx]] -= free.value
                g[at[idx]] -= s * free.gradient
    return out


def _pointwise(ev: GreenEvaluator, x, regular: bool) -> tuple:
    """_cell's outputs at points x (shape (..., 2)), in the shape of x."""
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 2)
    return _shaped(x, _cell(ev, pts, regular, [np.arange(len(pts))], len(pts)))


def green_eval(ev: GreenEvaluator, x):
    """Green-function value and gradient at points x (shape (..., 2))."""
    return _pointwise(ev, x, False)


def green_hessian(ev: GreenEvaluator, x):
    """Green-function value, gradient and Hessian (shape (..., 2, 2)) at points x.

    The Ewald jet, ewald_oracle: no library path needs a second derivative.
    """
    return ewald_oracle(ev, x)


def _series_table(top: int, umax: float, ntilde=None) -> tuple[int, np.ndarray]:
    """n0 and the matrix whose product with the powers (-u)^m gives _phi_rows's table.

    Column n, n = 0..max(top, n0 + 1), holds 1/(m! (n+1)_m), phi_n's series,
    from n0 = max(1, ceil(2 umax)) up, where no term can cancel at
    |u| <= umax (the columns below are replaced by the recurrence).  With
    ``ntilde`` (specfun's series of N~_0) two more columns give N~_0(z) and
    N~_0'(z)/z at z^2 = 4u.  The degree is where phi_n0's terms fall under
    1e-17, or the degree specfun sums N~_0 to on its rung of |z| = 2 sqrt(umax)
    if that is higher.
    """
    n0 = max(1, int(np.ceil(2.0 * umax)))
    degree, bound = 0, 1.0
    while bound > 1e-17:
        degree += 1
        bound *= umax / (degree * (n0 + degree))
    profiles = () if ntilde is None else (ntilde, ntilde.dz_over_z)
    rung = np.searchsorted(specfun.RUNGS, 2.0 * np.sqrt(umax))
    degree = max([degree] + [int(f.rung_degrees[rung]) for f in profiles])
    n = np.arange(max(top, n0 + 1) + 1)
    m = np.arange(1, degree + 1)[:, None]
    table = np.zeros((degree + 1, len(n) + len(profiles)))
    table[:, :len(n)] = np.cumprod(np.r_[np.ones((1, len(n))), 1.0 / (m * (n + m))], axis=0)
    for j, f in enumerate(profiles, len(n)):
        # the coefficient of z^(2m) = (-4)^m (-u)^m
        c = f.coefficients[:degree + 1]
        table[:len(c), j] = c * (-4.0) ** np.arange(len(c))
    return n0, table


def _powers(a: np.ndarray, top: int) -> np.ndarray:
    """a^n, n = 0..top, one row per order: log2(top) array products by doubling."""
    pw = np.empty((top + 1, len(a)), dtype=a.dtype)
    pw[0] = 1.0
    pw[1:2] = a
    m = 1
    while m < top:
        hi = min(2 * m, top)
        np.multiply(pw[1:hi - m + 1], pw[m], out=pw[m + 1:hi + 1])
        m = hi
    return pw


def _phi_rows(u: np.ndarray, n0: int, series: np.ndarray) -> np.ndarray:
    """The table of ``series`` (see _series_table) at the points u, one row per column.

    phi_n(z) = n! (2/z)^n J_n(z) = 0F1(; n+1; -u) at u = z^2/4.  The rows
    from n0 up are one product of the powers (-u)^m with the series matrix,
    the points leading, whose rows BLAS computes alike however many there
    are; at an order >= 2 umax |phi_n - 1| < 0.65 and no term can cancel.
    The rows below come from the backward recurrence
    phi_{n-1} = phi_n - u phi_{n+1} / (n (n+1)), stable for the minimal
    solution J_n.  phi_n(0) = 1, so the table is finite at x = 0.  The start
    order and the series length follow from the bound umax >= |u| alone, so
    each point's rows do not depend on the other points.  The table is real
    for real u, which a real k gives (see _wavenumber).
    """
    tab = np.ascontiguousarray((_powers(-u, len(series) - 1).T @ series).T)
    for n in range(n0, 0, -1):
        tab[n - 1] = tab[n] - u * tab[n + 1] / (n * (n + 1))
    return tab


def _phi_table(u, nmax: int, umax: float) -> np.ndarray:
    """phi_n at u, rows n = 0..nmax (see _phi_rows)."""
    u = np.asarray(u, dtype=complex if np.iscomplexobj(u) else float)
    return _phi_rows(u, *_series_table(nmax, umax))[:nmax + 1]


def _basis(w, phi: np.ndarray, negative: bool):
    """Basis rows w^n phi_n (n = 0..top) and conj(w)^n phi_n (n = 1..top), one per order.

    phi holds phi_n in rows n = 0..top.  At a real phi the second is the
    conjugate of the first; without ``negative`` it is None.
    """
    pos = _powers(w, len(phi) - 1)
    neg = None
    if negative:
        # in place: numpy may swap the operands of a product with a large
        # temporary, and complex products round by operand order
        neg = np.conj(pos[1:])
        neg *= phi[1:]
    pos *= phi
    return pos, neg


def _shift(n: np.ndarray, k: complex | float, scale: float) -> np.ndarray:
    """D_n with d/dz e_n = D_n e_{n-1} and d/dzbar e_n = D_-n e_{n+1}.

    e_n is the normalised basis (z/scale)^|n| phi_|n|(k|x|), conjugated at
    n < 0, with z = x_1 + i x_2: D_n = n/scale for n >= 1 and
    -(k^2 scale/4)/(|n|+1) otherwise.
    """
    return np.where(n >= 1, n / scale, -(k * k * scale / 4.0) / (np.abs(n) + 1))


class FourierBesselExpansion:
    """R(x) = sum_n c_n e_n(x) about the origin, fitted from Ewald's G - S_2.

    e_n = w^n phi_n(k|x|) for n >= 0 and conj(w)^|n| phi_|n|(k|x|) for n < 0,
    with w = (x_1 + i x_2) / rho and rho the outer sampling radius.
    ``coefficients`` holds c_n at index n + N, n = -N..N, N the cap.  The
    expansion serves |x| <= ``radius``, where ``max_terms`` orders reach its
    tolerance for values and gradients.
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
            ewald = _ewald(ev, *ev.lattice.reduce(pts), 0)[0]
            samples = ewald - specfun.fundamental_solution(2, pts, k).value
            scale = max(scale, float(np.max(np.abs(samples))))
            a = np.fft.fft(samples) / _FIT_SAMPLES
            num += np.conj(b) * np.stack([a[n], a[-n]])
        c = num / np.sum(np.abs(basis) ** 2, axis=0)
        c = self.coefficients = np.concatenate([c[1, :0:-1], c[0]])
        self._cmax = np.maximum(np.abs(c[_EXPANSION_CAP:]), np.abs(c[_EXPANSION_CAP::-1]))
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
        # gradient from R_z and R_zbar, d/dz e_n = D_n e_{n-1} and
        # d/dzbar e_n = D_-n e_{n+1} (_shift).  Rows: R, d_1 R = R_z + R_zbar,
        # d_2 R = i (R_z - R_zbar).
        L = _EXPANSION_CAP + 1
        full = np.zeros(2 * L + 1, dtype=complex)
        full[1:-1] = c
        idx = np.arange(-L, L + 1)
        D, Dbar = _shift(idx, k, rho), _shift(-idx, k, rho)
        dz, dzbar = np.r_[D[1:] * full[1:], 0.0], np.r_[0.0, Dbar[:-1] * full[:-1]]
        rows = np.stack([full, dz + dzbar, 1j * (dz - dzbar)])
        # transposed for products with the batch as the leading dimension,
        # whose rows BLAS computes alike however many there are; per sign, the
        # orders 0..L and -1..-L.  e_n(-x) = (-1)^n e_n(x): the rows with
        # order n signed by (-1)^n contract the basis at x into the jet at -x,
        # bit for bit.
        sign = (-1.0) ** np.arange(L + 1)[:, None]
        pos = [rows[:, L:].T, rows[:, L:].T * sign]
        neg = [rows[:, L - 1::-1].T, rows[:, L - 1::-1].T * -sign[:-1]]
        if isinstance(k, float):
            # e_-n = conj(e_n) at a real k: order -n's rows, conjugated and
            # moved to row n, contract the basis of the orders n >= 0 too, and
            # the jet is the first half of the product plus the conjugate of
            # the second.  One product per sign: BLAS rounds a column by the
            # product's width.
            self._coef = [np.ascontiguousarray(np.hstack([a, np.r_[np.zeros((1, 3)), np.conj(b)]]))
                          for a, b in zip(pos, neg)]
        else:
            self._coef = [tuple(map(np.ascontiguousarray, c)) for c in zip(pos, neg)]
        self.max_terms = self.terms(self.radius)
        # A point's order count comes from the first ladder radius at or above
        # |x|, rounded up to a multiple of _TERM_STEP, never from the other
        # points of its call: a grid gives the same bits however it is batched
        # or split over threads.
        self._ladder = self.radius * _LADDER_RATIO ** np.arange(_LADDER_STEPS)[::-1]
        tops = np.minimum(_EXPANSION_CAP,
                          -(-self._terms(self._ladder) // _TERM_STEP) * _TERM_STEP)
        self._tops = tops.astype(np.uint8)  # counts <= _EXPANSION_CAP, for bincount
        # Per count, the table of its blocks (_phi_rows): phi to order t + 1
        # for the gradient at |u| = |k x|^2/4 up to its bound at the largest
        # ladder radius with that count, and, where |k x| stays within
        # specfun.SERIES_RADIUS, N~_0 for S_2 (there its series' terms stay within
        # I_0(8) = 427 of the sum); beyond it S_2 comes from specfun, whose
        # profiles there are SciPy's.
        # A block of a count holds at most _PHI_ENTRIES table entries.
        self._series, self._block = {}, {}
        for t in np.unique(tops):
            zmax = abs(k) * self._ladder[tops == t][-1]
            near = zmax <= specfun.SERIES_RADIUS
            n0, table = _series_table(t + 1, zmax ** 2 / 4.0,
                                      specfun._get_ntilde(0) if near else None)
            self._series[int(t)] = n0, table.astype(np.result_type(k, 1.0)), near
            self._block[int(t)] = _PHI_ENTRIES // table.shape[1]

    def terms(self, rmax: float) -> int:
        """Highest order kept at |x| <= rmax.

        Beyond it every (n+1) |c_n| (rmax/rho)^n max|phi_n|, a bound on the
        order-n term of R and of its gradient, stays under the tolerance;
        |phi_n(z)| <= min(e^{|Im z|}, e^{|z|^2/(4(n+1))}).
        """
        return int(self._terms(np.array([rmax]))[0])

    def _terms(self, rmax: np.ndarray) -> np.ndarray:
        """terms at each radius of ``rmax``, in one array pass."""
        n = np.arange(len(self._cmax))
        r = rmax[:, None]
        phi_max = np.exp(np.minimum(abs(self.k.imag) * r,
                                    abs(self.k) ** 2 * r ** 2 / (4.0 * (n + 1))))
        bound = (n + 1) * self._cmax * (r / self.rho) ** n * phi_max
        over = bound >= self.tolerance
        last = np.where(over.any(axis=1), len(n) - 1 - np.argmax(over[:, ::-1], axis=1), 0)
        if np.any(last >= len(n) - 3):
            rbad = float(rmax[np.argmax(last >= len(n) - 3)])
            raise SeriesTruncationError(
                f"Fourier-Bessel tail of R not below {self.tolerance:.1e} at "
                f"|x| = {rbad:.3g} within {len(n) - 1} orders"
            )
        return last

    def fill(self, x: np.ndarray, r2: np.ndarray, idx: np.ndarray, fold, phase,
             dests: list) -> None:
        """Write the jet at the points x[idx] (|x| <= radius, r2 = |x|^2) into ``dests``.

        The jet is [R, grad R] at x' = x[i], with S_2(x') added and times the
        Bloch phase at the points of ``fold`` (a mask over x; None: every
        point), that is G(x) = e^{i eta . q m*} (S_2(x') + R(x')).
        phase(sel, s) gives the phase at the points sel of the sign s.  Each
        dest pairs an output array with row indices: point i goes to row
        rows[i].  With two dests per sign the jet at -x follows, from the
        same basis and S_2, with the phase of sign -1.  The points are
        grouped by their ladder rung across the whole call and each rung goes
        in blocks whose table (_phi_rows) holds at most _PHI_ENTRIES entries:
        about 512 points at the cap, a few thousand at the lowest rungs.  So
        no basis table grows with the call, and a low rung, with few rows,
        shares each block's fixed cost among many points.  The dests are
        written last to first: where two rows coincide (a table's diagonal)
        the first wins.
        """
        signs = (1.0, -1.0)[:len(dests) // 2]
        level = np.searchsorted(self._ladder, np.sqrt(r2[idx]))
        tops = self._tops[np.minimum(level, _LADDER_STEPS - 1)]
        for top in np.flatnonzero(np.bincount(tops)):
            rung = idx[tops == top]
            block = self._block[top]
            for lo in range(0, len(rung), block):
                sel = rung[lo:lo + block]
                if len(sel) == 1:
                    # BLAS takes a vector path for one row, with other
                    # rounding; both copies write the same bits
                    sel = np.repeat(sel, 2)
                f = slice(None) if fold is None else fold[sel]
                at = sel[f]
                jet = self._jet(x[sel], r2[sel], int(top), signs, f,
                                [phase(at, s) for s in signs] if len(at) else [])
                for (a, rows), b in zip(dests[::-1], jet[::-1]):
                    a[rows[sel]] = b

    def _jet(self, x, r2, count: int, signs: tuple, fold, phases: list) -> list:
        """[G or R, its gradient] per sign at the points x of one order count (see fill).

        S_2 is folded in at the points ``fold`` indexes when ``phases``
        holds their Bloch phase per sign.  Its profiles come from
        the block's own table: J_0 = phi_0, J_1(z)/z = phi_1/2, and N~_0 and
        N~_0'/z from its last two columns; a count whose |k x| passes
        specfun.SERIES_RADIUS takes S_2 from specfun.
        """
        top = count + 1  # the gradient shifts the orders by one
        n0, series, near = self._series[count]
        k = self.k
        tab = _phi_rows((k * k / 4.0) * r2, n0, series)
        pos, neg = _basis((x[:, 0] + 1j * x[:, 1]) / self.rho, tab[:top + 1],
                          not isinstance(k, float))
        if phases and near:
            sv, sg = self._free(x[fold], r2[fold], tab[[0, 1, -2, -1]][:, fold])
        elif phases:
            free = specfun.fundamental_solution(2, x[fold], k)
            sv, sg = free.value, free.gradient
        jet = []
        for i, coef in enumerate(self._coef[:len(signs)]):
            if neg is None:
                y = pos.T @ coef[:top + 1]
                y = y[:, :3] + np.conj(y[:, 3:])
            else:
                y = pos.T @ coef[0][:top + 1] + neg.T @ coef[1][:top]
            val, grad = y[:, 0], y[:, 1:]
            if phases:
                val[fold] = (val[fold] + sv) * phases[i]
                grad[fold] = (grad[fold] + signs[i] * sg) * phases[i][:, None]
            jet += [val, grad]
        return jet

    def _free(self, x, r2, profiles) -> tuple:
        """S_2 and its gradient at x (r2 = |x|^2 > 0), specfun.fundamental_solution's sum.

        profiles holds phi_0 = J_0(z), phi_1 = 2 J_1(z)/z, N~_0(z) and
        N~_0'(z)/z at z = k|x|, the first two and last two rows of a block's
        table.
        """
        k2 = self.k * self.k
        logr = np.log(np.sqrt(r2))
        j0, j1, n, dn = profiles
        J = j0 / (2.0 * np.pi)
        radial = k2 * (j1 / (-4.0 * np.pi)) * logr + J / r2 + k2 * (dn / 4.0)
        return J * logr + n / 4.0, x * radial[:, None]


def regular_part(ev: GreenEvaluator, x):
    """R = G - S_2(., k) and its gradient; analytic through the origin.

    R is singular at the lattice points other than the origin: a point too
    close to one raises NearLatticePointError.  The first call fits the
    evaluator's Fourier-Bessel expansion.  A node-pair table, x of shape
    (N, N, 2) with x[j, i] = -x[i, j] (pairwise differences, scaled or not),
    is evaluated on its upper triangle and each entry [j, i] comes from its
    antipode: the same bits as the points taken one by one, for half the work.
    """
    x = np.asarray(x, dtype=float)
    if not (x.ndim == 3 and x.shape[0] == x.shape[1]
            and np.array_equal(x, -x.swapaxes(0, 1))):
        return _pointwise(ev, x, True)
    n = len(x)
    i, j = np.triu_indices(n)
    # entry [i, j] and its antipode [j, i]; the diagonal keeps its own point
    rv, rg = _cell(ev, x[i, j], True, [i * n + j, j * n + i], n * n)
    return rv.reshape(n, n), rg.reshape(x.shape)


def separable_order(ev: GreenEvaluator, radius: float) -> int | None:
    """Basis order P of the separable tables of points within ``radius`` of a centre.

    Fits the expansion on first use.  None when 2 radius exceeds its radius:
    differences of such points may leave the disk the series is fitted on,
    and pair_tables takes regular_part.  Otherwise P is the highest order the
    expansion keeps at |x| = 2 radius, plus one for the gradient's order
    shift: summed over p + m = n, the terms |F_p(u) s_{p+m} F_m(-v)| are
    bounded by the order-n term of R at |x| = 2 radius.
    """
    fb = ev.expansion
    if 2.0 * radius > fb.radius:
        return None
    return fb.terms(2.0 * radius) + 1


def _disk_basis(k: complex | float, u: np.ndarray, scale: float, P: int) -> np.ndarray:
    """(u/scale)^|p| phi_|p|(k|u|), conjugated for p < 0: one row per point, p = -P..P."""
    if len(u) == 1:
        # BLAS takes a vector path for one row, with other rounding
        return _disk_basis(k, np.repeat(u, 2, axis=0), scale, P)[:1]
    pos, neg = _basis((u[:, 0] + 1j * u[:, 1]) / scale,
                      _phi_table((k * k / 4.0) * np.sum(u * u, axis=1), P,
                                 abs(k) ** 2 * scale ** 2 / 4.0), True)
    return np.concatenate([neg[::-1], pos]).T


def _graf_weights(fb: FourierBesselExpansion, scale: float, P: int) -> np.ndarray:
    """Entries [p, m] of R's product on the normalised disk basis, p = -P-1..P+1, m = -P..P.

    F_p = J_p(k|u|) e^{i p theta} is sigma_p a_|p| times the basis, with
    a_p = (k scale/2)^p / p! and sigma_p = (-1)^p for p < 0, and the
    expansion's s_n is sigma_n c_n / b_|n| with b_n = (k rho/2)^n / n!.  So
    entry [p, m] is sigma_p sigma_m sigma_n c_n a_|p| a_|m| / b_|n| at
    n = p + m, times (-1)^|m| for the basis taken at u_j instead of -u_j.
    The ratio a_|p| a_|m| / b_|n| (for same-sign p, m it is
    C(n, p) (scale/rho)^n) is summed in logs, so none of its factors
    overflows; k enters only through (k scale/2)^e, e = |p| + |m| - |n| >= 0.
    """
    coeff = fb.coefficients.copy()
    cap = len(coeff) // 2
    rows, cols = np.arange(-P - 1, P + 2), np.arange(-P, P + 1)
    coeff[cap - 1::-2] *= -1.0  # sigma_n c_n
    n = rows[:, None] + cols[None, :]
    an, ap, am = np.abs(n), np.abs(rows)[:, None], np.abs(cols)[None, :]
    keep = an <= cap
    ks = fb.k * scale / 2.0
    lg = sp.gammaln(np.arange(2 * P + 3) + 1.0)
    e = ap + am - an
    with np.errstate(divide="ignore"):
        log_ks = np.log(abs(ks))
    # at k = 0 only the e = 0 terms stay
    log_size = (np.multiply(e, log_ks, out=np.zeros(e.shape), where=e > 0)
                + an * np.log(scale / fb.rho) + lg[an] - lg[ap] - lg[am])
    phase = np.exp(1j * np.angle(ks) * np.arange(2 * P + 3))
    w = np.exp(np.where(keep, log_size, -np.inf)) * phase[e] \
        * coeff[np.where(keep, n + cap, 0)]
    # sigma_p sigma_m (-1)^|m|: -1 for odd negative p and for odd positive m
    w[(rows < 0) & (rows % 2 == 1)] *= -1.0
    w[:, (cols > 0) & (cols % 2 == 1)] *= -1.0
    return w


def pair_tables(ev: GreenEvaluator, sources, center, radius: float, targets=None):
    """R and its gradient at targets[i] - sources[j] (targets None: the sources).

    Both point sets lie in the disk of ``radius`` about ``center``.  A disk
    that separable_order refuses takes regular_part at the differences, a
    node table on its antisymmetric triangle.  Otherwise, with u = y - center,
    Graf's addition theorem gives R(u_i - u_j) = sum_{p,m} F_p(u_i) s_{p+m}
    F_m(-u_j), so the table is Phi(u_t) S Phi(-u_s)^T on basis tables of
    N (2P + 1) entries, S[p, m] = s_{p+m} a Hankel matrix.  d/dz F_p =
    (k/2) F_{p-1} and d/dzbar F_p = -(k/2) F_{p+1}, so the gradient takes
    the rows of S shifted by one and scaled.  The basis is the expansion's,
    normalised by the radius, so the raw s_n are never formed.  This path
    agrees with regular_part to rounding, not bit for bit.  A row's bits
    depend on the row's own target, the sources and the disk, never on the
    other targets of the call.  Gradients are taken at the target.
    """
    sources = np.asarray(sources, dtype=float)
    targets = sources if targets is None else np.asarray(targets, dtype=float)
    P = separable_order(ev, radius)
    if P is None:
        return regular_part(ev, targets[:, None, :] - sources[None, :, :])
    fb = ev.expansion
    c = np.asarray(center, dtype=float)
    # any basis scale serves the point disk of radius 0
    scale = radius if radius > 0.0 else fb.rho
    bt = _disk_basis(ev.k, targets - c, scale, P)
    bs = bt if targets is sources else _disk_basis(ev.k, sources - c, scale, P)
    q = _graf_weights(fb, scale, P) @ bs.T
    # on the normalised basis, row p of R_z is row p + 1 of R times D_{p+1}
    # (_shift); R_zbar mirrors it
    up = _shift(np.arange(-P, P + 1) + 1, ev.k, scale)
    # BLAS picks its kernel and threading by the product's shape, and other
    # shapes round otherwise, so the targets go through in _ROW_BLOCK-row
    # blocks of one shape, the last padded with zero rows
    n = len(bt)
    rows = np.zeros((n + (-n) % _ROW_BLOCK, bt.shape[1]), dtype=complex)
    rows[:n] = bt
    v, dz, dzbar = (np.empty((len(rows), q.shape[1]), dtype=complex) for _ in range(3))
    for m, out in zip((q[1:-1], up[:, None] * q[2:], up[::-1, None] * q[:-2]), (v, dz, dzbar)):
        for lo in range(0, len(rows), _ROW_BLOCK):
            np.matmul(rows[lo:lo + _ROW_BLOCK], m, out=out[lo:lo + _ROW_BLOCK])
    v, dz, dzbar = v[:n], dz[:n], dzbar[:n]
    grad = np.empty(v.shape + (2,), dtype=complex)
    np.add(dz, dzbar, out=grad[..., 0])
    np.multiply(dz - dzbar, 1j, out=grad[..., 1])
    return v, grad
