"""Acceptance gate: every release criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
criterion is also a hard assertion, so a plain pytest run enforces them all.
Budget: every criterion below stays under a minute of single-threaded work
(the nonlinear sweep has a five-minute allowance and uses a fraction of it).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from jump_oracle import one_sided_limits
from qphelm import cli, geometry, nonlinear, perturbation, potentials, qpgreen
from qphelm import solvers, specfun
from qphelm.lattice import Lattice, make_wave_context

CENTER = (0.5, 0.5)


def _report(num, label, ok, detail):
    print(f"\nACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_kernel_profile_constants():
    j2, n2 = specfun.fs_coefficients(2, 0.0)
    _, n3 = specfun.fs_coefficients(3, 0.0)
    n4 = specfun.entire_neumann(4, 0.0)
    errs = (abs(j2 - 1.0 / (2 * np.pi)), abs(n2), abs(n3 + 1.0 / (4 * np.pi)),
            abs(n4 + 2.0 / np.pi))
    worst = max(errs)
    _report(1, "kernel profile constants", worst <= 1e-14, f"worst={worst:.2e}")


def test_criterion_2_kernel_rescaling_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-1.5, 1.5, size=2)
        if np.linalg.norm(x) < 0.05:
            x = x + 0.1
        eps = rng.uniform(0.02, 0.9)
        k = rng.uniform(0.3, 3.0)
        lhs = specfun.fundamental_solution(2, eps * x, k)
        base = specfun.fundamental_solution(2, x, eps * k)
        corr = specfun.analytic_correction(2, eps * x, k)
        rhs_v = base.value + np.log(eps) * corr.value
        rhs_g = base.gradient / eps + np.log(eps) * corr.gradient
        worst = max(worst,
                    abs(lhs.value - rhs_v) / max(1.0, abs(lhs.value)),
                    float(np.max(np.abs(lhs.gradient - rhs_g))
                          / max(1.0, np.max(np.abs(lhs.gradient)))))
    _report(2, "kernel rescaling identity", worst <= 1e-12,
            f"200 draws, worst rel={worst:.2e}")


def test_criterion_3_green_function(lat, green):
    rng = np.random.default_rng(5)
    # (a) quasi-periodicity
    pts = rng.uniform(0.15, 0.85, size=(50, 2))
    base, _ = qpgreen.green_eval(green, pts)
    worst_qp = 0.0
    for j in range(2):
        shift = np.zeros(2)
        shift[j] = lat.q_diag[j]
        moved, _ = qpgreen.green_eval(green, pts + shift)
        phase = np.exp(1j * lat.eta_vec[j] * lat.q_diag[j])
        worst_qp = max(worst_qp, float(np.max(np.abs(moved - phase * base)
                                              / np.abs(base))))
    # (b) split-parameter invariance
    worst_split = 0.0
    for factor in (0.8, 1.25):
        alt = qpgreen.make_green_evaluator(lat, green.k,
                                           ewald_split=factor * green.ewald_split)
        vals, _ = qpgreen.green_eval(alt, pts)
        worst_split = max(worst_split, float(np.max(np.abs(vals - base))))
    # (c) Helmholtz residual, 4th-order stencil: observed order >= 3.5
    x0 = np.array([0.37, 0.41])
    res = {}
    for h in (1e-2, 5e-3):
        st = np.array([[0, 0], [h, 0], [-h, 0], [0, h], [0, -h],
                       [2 * h, 0], [-2 * h, 0], [0, 2 * h], [0, -2 * h]])
        v, _ = qpgreen.green_eval(green, x0 + st)
        lap = (-60 * v[0] + 16 * np.sum(v[1:5]) - np.sum(v[5:9])) / (12 * h * h)
        res[h] = abs(lap + green.k ** 2 * v[0])
    order = np.log2(res[1e-2] / res[5e-3])
    # (d) complex-k image-sum oracle (conventions already agree pointwise)
    kc = 1.0 + 0.8j
    gc = qpgreen.make_green_evaluator(lat, kc)
    xs = np.array([[0.4, 0.3]])
    ref, tail = qpgreen.image_sum_oracle(lat, kc, xs, truncation=40)
    got, _ = qpgreen.green_eval(gc, xs)
    img_err = float(np.max(np.abs(got - ref)))
    ok = (worst_qp <= 1e-10 and worst_split <= 1e-10 and order >= 3.5
          and tail < 1e-12 and img_err <= 1e-9)
    _report(3, "quasi-periodic Green function", ok,
            f"qp={worst_qp:.2e} split={worst_split:.2e} "
            f"order={order:.2f} image={img_err:.2e}")


def test_criterion_4_jump_relations(lat, green):
    worst = 0.0
    for shape, ladder, nup in (
        (geometry.make_curve("circle", radius=0.35, center=CENTER),
         0.08 * 0.78 ** np.arange(12), 2048),
        (geometry.make_curve("kite", scale=0.3, center=CENTER),
         0.05 * 0.78 ** np.arange(12), 8192),
    ):
        dc = geometry.discretize(shape, 256)
        mu = np.exp(1j * dc.t) + 0.3 * np.cos(3 * dc.t)
        taus = np.array([0.41, 2.13])
        mu_tau = geometry.trig_interpolate(mu, taus)
        vr = potentials.boundary_trace_rows("single_trace", dc, taus, green=green)
        kr = potentials.boundary_trace_rows("double_boundary", dc, taus,
                                            green=green)
        ksr = potentials.boundary_trace_rows("adjoint_double", dc, taus,
                                             green=green)
        sv_o, sd_o = one_sided_limits("single", shape, mu, green, taus, +1.0,
                                      nup, ladder)
        sv_i, sd_i = one_sided_limits("single", shape, mu, green, taus, -1.0,
                                      nup, ladder)
        dv_o, _ = one_sided_limits("double", shape, mu, green, taus, +1.0,
                                   nup, ladder)
        dv_i, _ = one_sided_limits("double", shape, mu, green, taus, -1.0,
                                   nup, ladder)
        worst = max(worst,
                    np.max(np.abs(sv_o - vr @ mu)),
                    np.max(np.abs(sv_i - vr @ mu)),
                    np.max(np.abs(sd_o - (0.5 * mu_tau + ksr @ mu))),
                    np.max(np.abs(sd_i - (-0.5 * mu_tau + ksr @ mu))),
                    np.max(np.abs(dv_o - (-0.5 * mu_tau + kr @ mu))),
                    np.max(np.abs(dv_i - (0.5 * mu_tau + kr @ mu))))
    _report(4, "jump relations", worst <= 1e-8,
            f"circle+kite N=256, sup={worst:.2e}")


def test_criterion_5_cell_flux_identity(circle128, green, rng):
    worst = 0.0
    for kind in ("single", "double"):
        mu = rng.normal(size=circle128.N) + 1j * rng.normal(size=circle128.N)
        dens = potentials.Density(curve=circle128, values=mu)
        flux, norm2 = potentials.cell_flux_integral(kind, dens, green=green)
        worst = max(worst, abs(flux) / norm2)
    _report(5, "cell flux identity", worst <= 1e-8, f"worst rel={worst:.2e}")


def test_criterion_6_manufactured_bvps(lat):
    k = 6.0
    wave = make_wave_context(lat, k)
    green = qpgreen.make_green_evaluator(lat, k)
    kite = geometry.make_curve("kite", scale=0.3, center=CENTER)
    x0 = np.array(CENTER)
    rng = np.random.default_rng(11)
    probes = np.stack([rng.uniform(0.86, 0.95, 20), rng.uniform(0.35, 0.65, 20)],
                      axis=-1)
    exact, _ = qpgreen.green_eval(green, probes - x0)
    errs = {}
    for N in (128, 256):
        dc = geometry.discretize(kite, N)
        gv, gg = qpgreen.green_eval(green, dc.points - x0)
        sd = solvers.solve_dirichlet(dc, lat, wave, gv, green=green)
        errs["dirichlet", N] = np.max(np.abs(sd.field(probes).values - exact))
        hv = np.einsum("ij,ij->i", dc.normals, gg)
        sn = solvers.solve_neumann(dc, lat, wave, hv, green=green)
        errs["neumann", N] = np.max(np.abs(sn.field(probes).values - exact))
        if N == 256:
            sa = solvers.solve_dirichlet(dc, lat, wave, gv, a_flag=1,
                                         green=green)
            err_gauge = np.max(np.abs(sa.field(probes).values - exact))
    factors = {p: errs[p, 128] / errs[p, 256] for p in ("dirichlet", "neumann")}
    ok = (errs["dirichlet", 256] <= 1e-8 and errs["neumann", 256] <= 1e-8
          and min(factors.values()) >= 1e3 and err_gauge <= 1e-7)
    _report(6, "manufactured BVPs", ok,
            f"sup256 D={errs['dirichlet', 256]:.2e} N={errs['neumann', 256]:.2e} "
            f"factors D={factors['dirichlet']:.1e} N={factors['neumann']:.1e} "
            f"gauge={err_gauge:.2e}")


def test_criterion_7_rescaled_operator_identities(lat, green):
    prng = np.random.default_rng(3)
    probes = np.stack([0.95 + 0.05 * (prng.random(12) - 0.5),
                       0.95 + 0.05 * (prng.random(12) - 0.5)], axis=-1)
    worst = 0.0
    for ref in (geometry.make_curve("circle", radius=1.0),
                geometry.make_curve("kite")):
        dc = geometry.discretize(ref, 256)
        theta = potentials.Density(curve=dc, values=np.exp(1j * dc.t) + 0.4)
        for eps in (0.2, 0.1, 0.05, 0.02):
            if eps >= geometry.containment_bound(ref, CENTER, lat):
                continue
            res = perturbation.rescaling_identity_suite(
                eps, theta, probes, center=CENTER, green=green)
            worst = max(worst, max(res.values()))
    # log-term necessity: the truncated identity must grow like eps|log eps|
    dc64 = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    tv = np.ones(64)
    ratios = []
    for eps in (0.05, 0.02, 0.01):
        phys = geometry.discretize(geometry.rescale(
            geometry.HoleConfig(reference=dc64.curve, center=CENTER,
                                epsilon=eps, lattice=lat)), 64)
        lhs = potentials.assemble("single_trace", phys, green=green).matrix @ tv
        parts = [perturbation.rescaled_operator(
            "M", i, eps, dc64, CENTER, green=green).matrix @ tv
            for i in (1, 2)]
        resid = np.max(np.abs(lhs - eps * parts[0] - eps * parts[1]))
        ratios.append(resid / (eps * abs(np.log(eps))))
    log_ok = all(0.9 < r < 1.1 for r in ratios)
    _report(7, "rescaled operator identities", worst <= 1e-8 and log_ok,
            f"worst={worst:.2e}, truncated/(eps|log eps|) in "
            f"[{min(ratios):.3f}, {max(ratios):.3f}]")


def test_criterion_8_nonlinear_robin(green):
    t0 = time.time()
    disk = geometry.discretize(geometry.make_curve("circle", radius=1.0), 128)
    # (a) limit density for G == 1
    Bconst = nonlinear.make_nonlinearity("constant", value=1.0)
    err_a = np.max(np.abs(nonlinear.limit_density(disk, Bconst).values - 1.0))
    # (b) quadratic Newton contraction for G = 0.5 u^2 from perturbed starts
    Bquad = nonlinear.make_nonlinearity("quadratic", gamma=0.5)
    pert = 0.5 * (1.0 + 0.3 * np.cos(disk.t)) + 0.1j * np.sin(2 * disk.t)
    ratio_worst, ratio_seen = 0.0, False
    for eps in (0.1, 0.05, 0.02, 0.01):
        st = nonlinear.solve_theta(eps, Bquad, disk, CENTER, green=green,
                                   start=pert, tol=1e-13)
        steps = st.step_norms
        ratios = [steps[i + 1] / steps[i] ** 2 for i in range(len(steps) - 1)
                  if steps[i] > 1e-10]
        if ratios:
            ratio_seen = True
            ratio_worst = max(ratio_worst, max(ratios))
    # (c,d,e) full sweep with G = 1 + 0.5 u^2
    Bp = nonlinear.make_nonlinearity("poly2", offset=1.0, gamma=0.5)
    sweep = nonlinear.continuation_sweep(Bp, disk, CENTER, green=green)
    bc_worst = max(nonlinear.boundary_condition_residual(
        s, Bp, center=CENTER, green=green)
        for s in sweep)
    ang = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    probes = np.stack([1.65 + 0.08 * np.cos(ang), 1.35 + 0.08 * np.sin(ang)],
                      axis=1)
    fit = nonlinear.far_field_scaling(sweep, probes, center=CENTER, green=green,
                                      fit_max_epsilon=0.07)
    exp_dev = float(np.max(np.abs(fit.exponents - 1.0)))
    tt = np.asarray(nonlinear.limit_density(disk, Bp).values)
    charge = np.sum(tt * disk.weights)
    gref, _ = qpgreen.green_eval(green, probes - np.asarray(CENTER))
    c0_rel = float(np.max(np.abs(fit.c0 - gref * charge) / np.abs(gref * charge)))
    elapsed = time.time() - t0
    ok = (err_a <= 1e-10 and ratio_seen and ratio_worst <= 10.0
          and bc_worst <= 1e-6 and exp_dev <= 0.05 and c0_rel <= 0.02
          and elapsed <= 300.0)
    _report(8, "nonlinear Robin continuation", ok,
            f"limit={err_a:.2e} newton_ratio={ratio_worst:.2f} "
            f"bc={bc_worst:.2e} |exponent-1|={exp_dev:.3f} "
            f"c0_rel={c0_rel:.4f} sweep={elapsed:.0f}s")


def test_criterion_9_cli_determinism(tmp_path):
    green_cfg = cli.parse_config(json.dumps({
        "lattice": {"q_diag": [1.0, 1.0], "eta": [0.4, 0.7]},
        "wave": {"k_re": 1.3},
        "grid": {"n": 16, "exclusion_radius": 0.1},
    }))
    solve_cfg = cli.parse_config(json.dumps({
        "lattice": {"q_diag": [1.0, 1.0], "eta": [0.4, 0.7]},
        "wave": {"k_re": 1.3},
        "geometry": {"shape": "circle",
                     "params": {"radius": 0.35, "center": [0.5, 0.5]},
                     "N": 96},
        "problem": {"kind": "dirichlet"},
        "data": {"source": [0.5, 0.5]},
        "probes": [[0.08, 0.1], [0.9, 0.85], [0.5, 0.02]],
    }))
    blobs, manifests_ok = {}, True
    for tag, threads in (("one", 1), ("two", 1), ("par", 4)):
        g_out = tmp_path / f"green-{tag}"
        s_out = tmp_path / f"solve-{tag}"
        assert cli.run("green-eval", green_cfg, g_out, threads=threads) == 0
        assert cli.run("solve-dirichlet", solve_cfg, s_out, threads=threads) == 0
        for out in (g_out, s_out):
            man = json.loads((out / "run_manifest.json").read_text())
            manifests_ok &= man["status"] == "complete"
        blobs[tag] = ((g_out / "grid.csv").read_bytes(),
                      (s_out / "density.csv").read_bytes(),
                      (s_out / "probes.csv").read_bytes())
    ok = manifests_ok and blobs["one"] == blobs["two"] == blobs["par"]
    _report(9, "CLI determinism", ok,
            "grid/density/probes CSVs bit-identical across rerun and --threads 4")
