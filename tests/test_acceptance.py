"""End-to-end acceptance suite.

Each test covers one advertised guarantee, prints a single PASS/FAIL
line (visible with ``pytest -s`` or on failure), and enforces both the
stated tolerance and a wall-clock budget.  Run the whole file with

    pytest tests/test_acceptance.py -s
"""

import json
import time
from pathlib import Path

import numpy as np

from weyltriplets import cli
from weyltriplets import herglotz as hg
from weyltriplets import jcdot as jd
from weyltriplets import oracle as orc
from weyltriplets import spectral as sp
from weyltriplets import tensor as tn
from weyltriplets import triplets as tr
from weyltriplets import models1d as m1
from weyltriplets._linalg import hermitian_funcm


class _Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.monotonic()

    @property
    def elapsed(self):
        return time.monotonic() - self.t0


def _report(num, ok, detail, budget):
    status = "PASS" if ok else "FAIL"
    print("[criterion %02d] %s  %s  (%.2fs)" % (num, status, detail,
                                                budget.elapsed))
    assert ok, "[criterion %02d] %s" % (num, detail)
    assert budget.elapsed < budget.limit, (
        "[criterion %02d] runtime %.2fs exceeds %.0fs budget"
        % (num, budget.elapsed, budget.limit)
    )


def test_01_herglotz_grid_symmetry_and_positivity():
    budget = _Budget(5.0)
    res = np.linspace(-5.0, 5.0, 20)
    ims = np.linspace(0.1, 5.0, 20)
    worst_sym, min_im = 0.0, np.inf
    for fn in hg.catalogue():
        for re in res:
            for im in ims:
                z = complex(re, im)
                val = fn(z)
                worst_sym = max(worst_sym,
                                abs(val - np.conj(fn(np.conj(z)))))
                min_im = min(min_im, val.imag)
    ok = worst_sym < 1e-12 and min_im > 0
    _report(1, ok, "symmetry %.2e < 1e-12, min Im %.2e > 0"
            % (worst_sym, min_im), budget)


def test_02_normalization_anchor_and_idempotence():
    budget = _Budget(10.0)
    worst_anchor, worst_idem = 0.0, 0.0
    specs = [
        m1.schrodinger_right(v=0.3), m1.schrodinger_left(v=0.3),
        m1.schrodinger_interval(v=0.2, a=0.0, b=1.0),
        m1.dirac_right(c=1.2), m1.dirac_interval(c=1.2, a=-1.0, b=1.0),
        m1.full_line_contact(1.0, 0.5),
    ]
    probes = (-2 + 0.5j, 1.5 + 2j)
    normalized = []
    for spec in specs:
        t = tr.normalize(m1.build_triplet(spec))
        normalized.append(t)
    measure = sp.SpectralMeasurePP.from_levels(range(11))
    for spec in (m1.full_line_contact(1.0, 0.5), m1.schrodinger_right()):
        normalized.append(tn.tensor_normalized(m1.build_triplet(spec),
                                               measure).assembled)
    for t in normalized:
        n = t.dim
        worst_anchor = max(worst_anchor,
                           np.abs(t.weyl(1j) - 1j * np.eye(n)).max())
        again = tr.normalize(t)
        for z in probes:
            worst_idem = max(worst_idem,
                             np.abs(again.weyl(z) - t.weyl(z)).max())
    ok = worst_anchor < 1e-10 and worst_idem < 1e-10
    _report(2, ok, "anchor %.2e, idempotence %.2e < 1e-10"
            % (worst_anchor, worst_idem), budget)


def test_03_krein_vs_dense_oracle():
    budget = _Budget(5.0)
    rng = np.random.default_rng(20250814)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, 3))
        toy = orc.make_dense_toy(n, d, seed=1000 + k)
        B = toy.Q0 + np.eye(d)
        t = toy.as_triplet()
        for _ in range(5):
            z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
            direct = toy.direct_resolvent_difference(B, z)
            corr = tr.krein_correction(
                t, tr.BoundaryCondition.operator(B), z
            ).dense()
            worst = max(worst, np.abs(corr - direct).max())
    ok = worst < 1e-10
    _report(3, ok, "20 toys x 5 z: worst deviation %.2e < 1e-10" % worst,
            budget)


def test_04_krein_vs_fd_oracle_continuum():
    budget = _Budget(60.0)
    grid = orc.FDGrid(1e-3, 50.0)
    t = m1.build_triplet(m1.schrodinger_right())
    theta = 1.0
    xs = np.array([0.25, 0.5, 1.0, 2.0])
    worst_rel = 0.0
    for z in (-1.0 + 0j, 1j, 2 + 1j):
        grid.assert_adequate(z)
        fd = orc.fd_resolvent_difference(grid, theta, z, xs, xs)
        K = tr.krein_correction(
            t, tr.BoundaryCondition.operator(np.array([[theta]])), z
        ).kernel(xs, xs)
        worst_rel = max(worst_rel,
                        np.abs(fd - K).max() / np.abs(K).max())
    m_err = abs(orc.fd_m_function(grid, -1.0 + 0j) + 1.0)
    e_h = abs(orc.fd_m_function(orc.FDGrid(2e-3, 50.0), -1.0 + 0j) + 1.0)
    ratio = e_h / m_err
    ok = worst_rel < 1e-2 and m_err < 1e-4 and 3.5 <= ratio <= 4.5
    _report(4, ok, "kernel rel %.2e < 1e-2, m(-1) err %.2e < 1e-4, "
            "h-halving ratio %.2f in [3.5, 4.5]" % (worst_rel, m_err, ratio),
            budget)


def test_05_mlambda_identity_random_pairs():
    budget = _Budget(30.0)
    rng = np.random.default_rng(20250814)
    t_half = m1.build_triplet(m1.schrodinger_right(v=0.5))
    toy = orc.make_dense_toy(6, 2, seed=20250814).as_triplet()
    worst_quad, worst_dense = 0.0, 0.0
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        zeta = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        gram = t_half.gamma(zeta).gram(t_half.gamma(z))
        lhs = t_half.weyl(z) - np.conj(t_half.weyl(zeta)).T
        worst_quad = max(
            worst_quad,
            np.abs(lhs - (z - np.conj(zeta)) * gram).max(),
        )
        worst_dense = max(worst_dense,
                          tr.herglotz_identity_residual(toy, z, zeta))
    ok = worst_quad < 1e-8 and worst_dense < 1e-12
    _report(5, ok, "quadrature %.2e < 1e-8, dense %.2e < 1e-12 "
            "(100 pairs)" % (worst_quad, worst_dense), budget)


def test_06_spectral_integral_suite():
    budget = _Budget(5.0)
    measure = sp.SpectralMeasurePP.from_levels([0.5, 1.0, 2.5, 4.0], dims=2)

    def scalar(fn, **kw):
        return sp.OperatorFunctionOnR(1, lambda x: np.array([[fn(x)]]), **kw)

    H = sp.integral_pp(scalar(lambda x: x), measure)
    worst_fc = 0.0
    for phi in (lambda x: x ** 2, np.sqrt, lambda x: 1.0 / np.sqrt(x)):
        worst_fc = max(
            worst_fc,
            np.abs(sp.integral_pp(scalar(phi), measure)
                   - hermitian_funcm(H, phi)).max(),
        )
    f = sp.integral_pp(scalar(np.sqrt), measure)
    g = sp.integral_pp(scalar(lambda x: 1.0 / np.sqrt(x)), measure)
    one = sp.integral_pp(scalar(lambda x: 1.0), measure)
    worst_mult = np.abs(f @ g - one).max()

    om = scalar(lambda x: 1.0 + abs(x), C0=1.0, alpha=1.0)
    tol = 1e-8
    plan = sp.truncation_plan(om, range(2000), lambda k: 2.0 ** (-k), tol)
    lams = np.arange(2000.0)
    direct_tail = ((1.0 + lams) ** 2 * 2.0 ** (-lams))[
        lams > plan["window"][1]
    ].sum()
    plan_ok = (plan["certified"]
               and direct_tail <= plan["tail_bound"] * (1 + 1e-12)
               and plan["tail_bound"] < tol * tol)
    ok = worst_fc < 1e-10 and worst_mult < 1e-12 and plan_ok
    _report(6, ok, "calculus %.2e < 1e-10, multiplicativity %.2e < 1e-12, "
            "tail %.2e certified" % (worst_fc, worst_mult,
                                     plan["tail_bound"]), budget)


def test_07_tensor_growth_certificates():
    budget = _Budget(5.0)
    wg = tn.weight_growth_certificates(lambda z: hg.m_schrodinger_halfline(z))
    e_plus = wg["im_sqrt"]["fitted_exponent"]
    e_minus = wg["im_inv_sqrt"]["fitted_exponent"]
    e_l = wg["l_kernel"]["fitted_exponent"]
    dominated = all(wg[k]["dominates"]
                    for k in ("im_sqrt", "im_inv_sqrt", "l_kernel"))
    ok = (abs(e_plus - 1.0) <= 0.1 and abs(e_minus - 1.0) <= 0.1
          and abs(e_l) <= 0.1 and dominated)
    _report(7, ok, "weight exponents %.3f, %.3f (want 1+-0.1), "
            "kernel %.1e (want 0+-0.1)" % (e_plus, e_minus, e_l), budget)


def test_08_friedrichs_krein_lsb_probes():
    budget = _Budget(5.0)
    base = m1.build_triplet(m1.schrodinger_right())  # m(z) = i sqrt(z)
    measure = sp.SpectralMeasurePP.from_levels([0, 1, 2])
    rep = tn.friedrichs_krein_tensor_check(base, measure)
    lsb_ok = all(
        entry["found"] and entry["x_N"] <= -entry["N"] ** 2 + 1e-9
        for entry in rep["lsb"]
    )
    ok = (rep["friedrichs"] is True
          and all(rep["friedrichs_per_direction"])
          and len(rep["friedrichs_per_direction"]) == 20
          and rep["krein"] is False
          and lsb_ok)
    _report(8, ok, "Friedrichs 20/20 true, Krein false, LSB x_N <= -N^2",
            budget)


def test_09_jc_model_checks():
    budget = _Budget(10.0)
    dots = {
        "(0,0)": jd.TwoLevelDot(-0.5, 0.7, 0.25 - 0.1j),
        "(0,2)": jd.TwoLevelDot(0.0, 1.0, 0.3),
        "(1,3)": jd.TwoLevelDot(0.2, 1.4, 0.1j),
    }
    taus = {"(0,0)": 0.8, "(0,2)": 0.5, "(1,3)": 1.2}
    pairs = {"(0,0)": (0.0, 0.0), "(0,2)": (0.0, 2.0), "(1,3)": (1.0, 3.0)}
    worst_rq, worst_herm, worst_floor = 0.0, 0.0, -np.inf
    worst_rank, worst_band = 0.0, 0.0
    chain_exact = True
    for tag, (vl, vr) in pairs.items():
        m = jd.JCModel(vl, vr, dots[tag], taus[tag], jd.FockTruncation(20))
        worst_rq = max(worst_rq, jd.rq_consistency(m))
        Ct = jd.build_tilde_CJC(m)
        worst_herm = max(worst_herm, np.abs(Ct - Ct.conj().T).max())
        floor = np.linalg.eigvalsh(
            (jd.tilde_T_part(m) + jd.tilde_T_part(m).conj().T) / 2
        ).min()
        worst_floor = max(worst_floor, 1.0 - floor)
        ke = jd.kernel_equivalence(m)
        worst_rank = max(worst_rank, ke["max_principal_angle"],
                         ke["transform_residual"])
        rep = jd.jacobi_reorder(jd.build_CJC(m), m)
        chain_exact = chain_exact and rep["off_chain_max"] == 0.0
        rep_f = jd.jacobi_reorder(Ct, m)
        worst_band = max(worst_band, rep_f["fock_beyond_band_max"])
    m_res = jd.JCModel(0.0, 0.0, jd.TwoLevelDot(0.0, 1.0), 1.0,
                       jd.FockTruncation(1))
    spec_dev = np.abs(
        jd.spectrum_report(jd.build_CJC(m_res))["eigenvalues"]
        - [0.0, 0.0, 2.0, 2.0]
    ).max()
    ok = (worst_rq < 1e-12 and worst_herm < 1e-12
          and worst_floor <= 1e-12 and worst_rank < 1e-10
          and chain_exact and worst_band < 1e-14 and spec_dev < 1e-12)
    _report(9, ok, "R,Q %.1e; herm %.1e; floor defect %.1e; kernel %.1e; "
            "chain exact %s; band %.1e; resonant %.1e"
            % (worst_rq, worst_herm, max(worst_floor, 0.0), worst_rank,
               chain_exact, worst_band, spec_dev), budget)


def test_10_truncation_convergence():
    budget = _Budget(60.0)
    dot = jd.TwoLevelDot(0.1, 0.9, 0.2)
    z = -1.0 + 0.5j

    def model(N):
        return jd.JCModel(0.5, 0.0, dot, 0.7, jd.FockTruncation(N))

    d10 = np.diag(jd.weyl_S(model(10), z))
    d20 = np.diag(jd.weyl_S(model(20), z))
    shared = 0.0
    for s in range(2):
        shared = max(shared, np.abs(d10[s * 11:(s + 1) * 11]
                                    - d20[s * 21:s * 21 + 11]).max())
    xs = np.array([0.3])
    K = {N: jd.dot_resolvent_correction(model(N), z, xs)[0, 0, :6, :6]
         for N in (5, 10, 20, 40)}
    devs = [np.abs(K[10] - K[5]).max(), np.abs(K[20] - K[10]).max(),
            np.abs(K[40] - K[20]).max()]
    monotone = devs[0] >= devs[1] >= devs[2] and devs[0] > devs[2]
    ok = shared == 0.0 and monotone and devs[-1] < 1e-12
    _report(10, ok, "shared blocks exact (%.1e); correction deviations "
            "%.2e >= %.2e >= %.2e -> converged" % (shared, *devs), budget)


def test_11_cli_determinism(tmp_path):
    budget = _Budget(120.0)
    vcfg = tmp_path / "v.cfg"
    vcfg.write_text("\n")
    jcfg = tmp_path / "jc.cfg"
    jcfg.write_text(
        "jc.alpha = 0.1\njc.beta = 0.9\njc.tau = 0.7\njc.N = 4\n"
        "jc.v_l = 0.5\njc.v_r = 0\njc.z = -1+0.5j\n"
        "grid.x_min = -1\ngrid.x_max = 1\ngrid.x_n = 3\n"
    )
    blobs = {}
    codes = []
    for tag, argv in (
        ("v1", ["validate", "--config", str(vcfg),
                "--out", str(tmp_path / "v1.txt")]),
        ("v2", ["validate", "--config", str(vcfg),
                "--out", str(tmp_path / "v2.txt")]),
        ("j1", ["jc-run", "--config", str(jcfg),
                "--out", str(tmp_path / "j1.json")]),
        ("j2", ["jc-run", "--config", str(jcfg),
                "--out", str(tmp_path / "j2.json")]),
    ):
        codes.append(cli.main(argv))
        blobs[tag] = Path(argv[-1]).read_bytes()
    identical = blobs["v1"] == blobs["v2"] and blobs["j1"] == blobs["j2"]
    doc = json.loads(blobs["j1"])
    ok = identical and codes == [0, 0, 0, 0] and "correction" in doc
    _report(11, ok, "validate x2 and jc-run x2 byte-identical, "
            "validate exit 0", budget)
