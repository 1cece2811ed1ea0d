"""Independent reference values for the quasi-periodic Green function tests.

Run directly to regenerate the frozen constants used in test_qpgreen.py:

    python3 tests/oracle_qpgreen.py

Two oracles, both avoiding the Fourier-Bessel expansion under test:

1. R(0), the regular part at the origin, from the small-argument limit of
   G(x) - S(x) with G from the Ewald sum (ewald_oracle): the difference is
   analytic, so polynomial (Richardson) extrapolation in |x| over a geometric
   ladder converges fast.  Only the *value* of the Ewald sum at moderate
   arguments enters; the expansion is never fitted.
2. A spot value of the Green function at strongly absorbing wavenumber from
   the plain absolutely-convergent image sum over direct-lattice translates.
"""

import numpy as np

from qphelm import qpgreen, specfun
from qphelm.lattice import Lattice, make_wave_context


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
    ref = qpgreen.image_sum_oracle(lat, k_abs, x, truncation=40)
    print(f"image sum at k={k_abs}, x={x[0]}: {ref[0]!r}")


if __name__ == "__main__":
    main()
