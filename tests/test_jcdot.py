"""Two-lead quantum-dot model with a truncated photon ladder."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import subspace_angles

from weyltriplets import herglotz as hg
from weyltriplets import jcdot as jd
from weyltriplets.spectral import SpectralMeasurePP
from weyltriplets.tensor import tensor_normalized
from weyltriplets.models1d import (
    build_triplet,
    eval_gamma_on_grid,
    full_line_contact,
)
from weyltriplets._linalg import solve_guarded
from weyltriplets.triplets import (
    BoundaryCondition,
    LKernel,
    herglotz_identity_residual,
    krein_correction,
)


def _normalized_lead_triplet(model):
    """The independent route to the lead triplet: the generic normalized
    tensor construction over the Fock levels, with its own anchors."""
    base = build_triplet(full_line_contact(model.v_l, model.v_r))
    return tensor_normalized(base, SpectralMeasurePP.from_levels(range(model.fock.dim)))


def _dense_values(image, x):
    """The dense samples of a tensor image gamma^S, shape (nx, total,
    d*total): entry (s, (j, s)) is base column j of the atom owning slot
    s, zero off slot s.  Built from the per-atom base images."""
    d, total = image.boundary_dim, image.measure.total_dim
    out = np.zeros((len(x), total, d, total), dtype=complex)
    for img, sl in zip(image.images, image.measure.slots()):
        out[:, sl, :, sl] = img.values(x)[:, 0, :]
    return out.reshape(len(x), total, d * total)


@pytest.fixture(scope="module")
def models():
    return {
        "(0,0)": jd.JCModel(0.0, 0.0, jd.TwoLevelDot(-0.5, 0.7, 0.25 - 0.1j),
                            0.8, jd.FockTruncation(20)),
        "(0,2)": jd.JCModel(0.0, 2.0, jd.TwoLevelDot(0.0, 1.0, 0.3),
                            0.5, jd.FockTruncation(20)),
        "(1,3)": jd.JCModel(1.0, 3.0, jd.TwoLevelDot(0.2, 1.4, 0.1j),
                            1.2, jd.FockTruncation(20)),
    }


def test_fock_primitives():
    f = jd.FockTruncation(4)
    assert abs(f.b[2, 3] - np.sqrt(3)) == 0.0
    defect = f.truncation_defect()
    expect = np.zeros((5, 5))
    expect[4, 4] = -5.0
    assert np.abs(defect - expect).max() < 1e-14
    assert np.abs(f.bdag @ f.b - f.T).max() < 1e-14


def test_z_value():
    assert abs(jd.z_value(1, 3) - 2.850106248127894) < 1e-15
    assert jd.z_value(0, 0) == 1.0


def test_z_value_past_the_square_overflow():
    # (k+v)^2 overflows past about 1.3e154: Z is then sqrt(2 (k+v)), with no
    # warning (tier-1 turns RuntimeWarning into an error)
    for v in (2e154, 1e200, 1e308):
        Z = jd.z_value(v, np.arange(3))
        assert np.abs(Z / (np.sqrt(2.0) * np.sqrt(v)) - 1.0).max() <= 4e-16
    # below the cutoff the operation order is the closed form's
    t = 1e153 + np.arange(3.0)
    assert np.array_equal(jd.z_value(1e153, np.arange(3)), np.sqrt(np.sqrt(1.0 + t * t) + t))


def test_dot_eigenbasis():
    dot = jd.TwoLevelDot(0.0, 1.0, 0.3 + 0.2j)
    l0, l1, U = dot.eigen()
    assert l0 <= l1
    recon = U @ np.diag([l0, l1]) @ U.conj().T
    assert np.abs(recon - dot.B).max() < 1e-15
    assert dot.ladder_reconstruction_defect() < 1e-15
    # phase fix: the leading component of each eigenvector is real positive
    for c in range(2):
        lead = U[np.argmax(np.abs(U[:, c]) > 1e-12), c]
        assert abs(lead.imag) < 1e-16 and lead.real > 0
    # a degenerate dot keeps the identity basis
    ddot = jd.TwoLevelDot(1.0, 1.0)
    assert np.abs(ddot.eigen()[2] - np.eye(2)).max() == 0.0


def test_resonant_pair_spectrum():
    m = jd.JCModel(0.0, 0.0, jd.TwoLevelDot(0.0, 1.0), 1.0,
                   jd.FockTruncation(1))
    spec = jd.spectrum_report(jd.build_CJC(m))
    assert np.abs(spec["eigenvalues"] - [0.0, 0.0, 2.0, 2.0]).max() < 1e-14
    assert spec["multiplicities"] == [2, 2]


@pytest.mark.parametrize("model", [
    jd.JCModel(0.5, 0.0, jd.TwoLevelDot(-0.3, 1.1), 0.9, jd.FockTruncation(40)),
    jd.JCModel(1.0, 3.0, jd.TwoLevelDot(0.2, 1.4, 0.3 - 0.25j), 1.2, jd.FockTruncation(300)),
    jd.JCModel(0.0, 0.0, jd.TwoLevelDot(0.7, 0.7), 2.5, jd.FockTruncation(50)),
], ids=["N40", "N300-complex-gamma", "N50-degenerate"])
def test_cjc_spectrum_closed_form(model):
    # Jaynes-Cummings conserves the excitation number: C_JC splits into
    # |0,0> (lam0), the truncation edge |1,N> (lam1 + N) and the 2x2
    # blocks on {|0,k>, |1,k-1>} with the dressed-state eigenvalues
    lam0, lam1, _ = model.dot.eigen()
    N, k = model.fock.N, np.arange(1, model.fock.N + 1)
    mid = k + (lam0 + lam1 - 1) / 2
    split = np.sqrt(((lam0 - lam1 + 1) / 2) ** 2 + model.tau ** 2 * k)
    closed = np.sort(np.concatenate([[lam0, lam1 + N], mid - split, mid + split]))
    numeric = np.linalg.eigvalsh(model.CJC)
    assert np.abs(closed - numeric).max() <= 1e-13 * np.abs(numeric).max()
    assert jd.jacobi_reorder(model.CJC, model)["chain_block_diagonal"]


def test_rq_closed_form_matches_generic(models):
    for m in models.values():
        assert jd.rq_consistency(m) < 1e-12
        R, Q = jd.build_R_Q(m)
        assert np.abs(R - np.diag(np.diag(R))).max() == 0.0
        assert np.abs(Q - np.diag(np.diag(Q))).max() == 0.0


def test_boundary_matrices_cached_read_only(models):
    m = models["(1,3)"]
    for build in (jd.build_CJC, lambda m: m.site_CJC, jd.build_tilde_CJC):
        A = build(m)
        assert build(m) is A
        with pytest.raises(ValueError):
            A[0, 0] = 0.0
    assert m.lead_weyl is m.lead_weyl


def test_rq_deviation_raises_on_every_call(monkeypatch):
    m_true = hg.m_schrodinger_halfline
    monkeypatch.setattr(hg, "m_schrodinger_halfline",
                        lambda z, v=0.0: m_true(z, v) + 1e-6)
    m = jd.JCModel(1.0, 3.0, jd.TwoLevelDot(0.2, 1.4, 0.1j), 1.2,
                   jd.FockTruncation(4))
    assert jd.rq_consistency(m) > 1e-10
    for build in (jd.build_R_Q, jd.build_tilde_CJC):
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="branch inconsistency"):
                build(m)


def test_rq_matches_scalar_loop(models):
    # reference: the per-(side, level) scalar derivation, compared exactly
    for m in models.values():
        r, q, worst = m.rq
        n, ref = m.fock.dim, 0.0
        for s, v in enumerate((m.v_l, m.v_r)):
            for k in range(n):
                Z = jd.z_value(v, k)
                assert r[s * n + k] == 2.0 ** (-0.25) / np.sqrt(Z)
                assert q[s * n + k] == -(2.0 ** (-0.5)) * Z
                mk = hg.m_schrodinger_halfline(1j - k, v)
                ref = max(ref, abs(np.sqrt(mk.imag) - r[s * n + k]))
                ref = max(ref, abs(mk.real - q[s * n + k]))
        assert worst == ref


def test_tilde_matrix_hermitian_and_floored(models):
    for m in models.values():
        site = m.site_CJC
        assert np.abs(site - site.conj().T).max() < 1e-13
        Ct = jd.build_tilde_CJC(m)
        scale = np.abs(Ct).max()
        assert np.abs(Ct - Ct.conj().T).max() / scale < 1e-15
        BoundaryCondition.operator(Ct)  # accepted without hermitization
        floor = np.min(np.real(np.diag(jd.tilde_T_part(m))))
        vmin = min(m.v_l, m.v_r)
        assert abs(floor - jd.z_value(vmin, 0) ** 2) < 1e-13
        assert floor >= 1.0 - 1e-14
    floor13 = np.min(np.real(np.diag(jd.tilde_T_part(models["(1,3)"]))))
    assert abs(floor13 - 2.4142135623730945) < 1e-14


def test_jacobi_reorder(models):
    for m in models.values():
        rep_c = jd.jacobi_reorder(jd.build_CJC(m), m)
        assert rep_c["off_chain_max"] == 0.0
        assert rep_c["chain_block_diagonal"]
        Ct = jd.build_tilde_CJC(m)
        rep_f = jd.jacobi_reorder(Ct, m)
        assert rep_f["fock_beyond_band_max"] == 0.0
        assert rep_f["fock_block_tridiagonal"]
        e0 = np.linalg.eigvalsh(Ct)
        for key in ("chain_matrix", "fock_matrix"):
            assert np.abs(np.linalg.eigvalsh(rep_f[key]) - e0).max() < 1e-12


def test_off_block_diagonal_max_matches_mask_loop():
    # reference: a mask cleared block by block along the diagonal
    rng = np.random.default_rng(6)
    blocks = [1, 2, 2, 3, 1]
    A = rng.random((9, 9)) + 1j * rng.random((9, 9))
    mask = np.ones(A.shape, dtype=bool)
    for lo, size in zip(np.cumsum([0] + blocks[:-1]), blocks):
        mask[lo : lo + size, lo : lo + size] = False
    assert jd._beyond_band_max(A, blocks, width=0) == np.abs(A[mask]).max()


def test_permutation_layouts():
    cp, cb = jd._chain_permutation(3)
    assert list(cp) == [0, 1, 4, 2, 5, 3, 6, 7]
    assert cb == [1, 2, 2, 2, 1]
    fp, fb = jd._fock_permutation(3)
    assert list(fp) == [0, 4, 1, 5, 2, 6, 3, 7]
    assert fb == [2, 2, 2, 2]


def test_beyond_band_max_matches_blockwise_loop():
    # reference: the largest entry over every pair of blocks that are
    # more than one block apart, with blocks of unequal size; entries
    # decay away from the diagonal, so the maximum sits two blocks out
    rng = np.random.default_rng(5)
    blocks = [1, 2, 3, 2, 1, 2]
    n = sum(blocks)
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    A = np.exp(-dist + 2j * np.pi * rng.random((n, n)))
    edges = np.cumsum([0] + blocks)
    worst = 0.0
    for bi in range(len(blocks)):
        for bj in range(len(blocks)):
            if abs(bi - bj) > 1:
                sub = A[edges[bi]:edges[bi + 1], edges[bj]:edges[bj + 1]]
                worst = max(worst, float(np.abs(sub).max()))
    assert worst > 0.0
    assert jd._beyond_band_max(A, blocks) == worst
    assert jd._beyond_band_max(A, [4, n - 4]) == 0.0


def test_weyl_S_values(models):
    m13 = models["(1,3)"]
    assert np.abs(jd.weyl_S(m13, 1j) - 1j * np.eye(42)).max() == 0.0
    W = jd.weyl_S(models["(0,0)"], -1.0)
    assert abs(W[0, 0] - (1 - np.sqrt(2))) < 1e-15


def test_weyl_S_matches_tensor_assembly(models):
    m13 = models["(1,3)"]
    m6 = jd.JCModel(1.0, 3.0, m13.dot, m13.tau, jd.FockTruncation(6))
    tt = _normalized_lead_triplet(m6)
    for z in (-1.0 + 0.0j, 0.5 + 2.0j, -3.0 - 1.0j):
        Mt = tt.assembled.weyl(z)
        assert np.abs(Mt - jd.weyl_S(m6, z)).max() < 1e-13


def test_lead_weyl_scalar_normalization():
    # entry (side, k) is (m(z - k; v) - Re a) / Im a with a = m(i - k; v),
    # exactly, on a diagonal that is exactly iI at z = i
    m = jd.JCModel(1.0, 0.0, jd.TwoLevelDot(0.2, 1.4, 0.1j), 1.2,
                   jd.FockTruncation(3))
    n = m.boundary_dim
    assert np.abs(m.lead_weyl(1j) - 1j * np.eye(n)).max() == 0.0
    z = -2 + 0.5j
    M = m.lead_weyl(z)
    assert np.abs(M - np.diag(np.diag(M))).max() == 0.0
    for (v, k), entry in (((1.0, 0), M[0, 0]), ((0.0, 2), M[6, 6])):
        a = hg.m_schrodinger_halfline(1j - k, v)
        want = (hg.m_schrodinger_halfline(z - k, v) - a.real) / a.imag
        assert abs(entry - want) == 0.0


@pytest.mark.parametrize("N", [3, 20, 60])
def test_krein_weight_is_decoupling_solve(N):
    # the correction and the decoupling report invert one C~ - M^S(z)
    m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                   jd.FockTruncation(N))
    bc = BoundaryCondition.operator(m.tilde_CJC)
    for z in (-1.0 + 0.5j, 2.5 - 0.75j):
        weight = krein_correction(m.lead_triplet, bc, z).weight
        want = solve_guarded(m.tilde_CJC - jd.weyl_S(m, z), np.eye(m.boundary_dim))
        assert np.array_equal(weight, want)


def test_lead_triplet_herglotz_identity():
    m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                   jd.FockTruncation(3))
    for z, zeta in ((-1.0 + 0.5j, 0.3 + 2.0j), (2.0 - 1.0j, -0.5 + 0.25j)):
        assert herglotz_identity_residual(m.lead_triplet, z, zeta) < 1e-10


def test_weyl_S_truncation_shared_blocks_exact(models):
    m13 = models["(1,3)"]
    m5 = jd.JCModel(1.0, 3.0, m13.dot, m13.tau, jd.FockTruncation(5))
    m10 = jd.JCModel(1.0, 3.0, m13.dot, m13.tau, jd.FockTruncation(10))
    z = 0.3 + 0.9j
    d5 = np.diag(jd.weyl_S(m5, z))
    d10 = np.diag(jd.weyl_S(m10, z))
    for s in range(2):
        shared5 = d5[s * 6:(s + 1) * 6]
        shared10 = d10[s * 11:s * 11 + 6]
        assert np.abs(shared5 - shared10).max() == 0.0


def test_kernel_equivalence(models):
    for m in models.values():
        ke = jd.kernel_equivalence(m)
        assert ke["max_principal_angle"] < 1e-12
        assert ke["transform_residual"] < 1e-12
        assert ke["null_dim"] == m.boundary_dim


def _unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@pytest.mark.parametrize("m", [6, 60])
@pytest.mark.parametrize("theta", [0.0, 1e-12, 1e-6, 1e-2, 0.7, np.pi / 2 - 1e-3])
def test_largest_angle_to_kernel_planted(m, theta):
    # m-dimensional A, B in C^{2m} with principal angles in [0, theta], the
    # largest exactly theta; each given in a random unitary frame, B as the
    # kernel of a matrix whose rows span its complement
    rng = np.random.default_rng(int(1e3 * m + 1e6 * theta))
    U = _unitary(rng, 2 * m)
    angles = rng.uniform(0.0, theta, m)
    angles[rng.integers(m)] = theta
    c, s = np.cos(angles), np.sin(angles)
    A = U[:, :m] @ _unitary(rng, m)
    B = (U[:, :m] * c + U[:, m:] * s) @ _unitary(rng, m)
    M = _unitary(rng, m) @ (U[:, m:] * c - U[:, :m] * s).conj().T
    assert np.abs(M @ B).max() < 1e-14
    reference = subspace_angles(A, B).max()
    got = jd._largest_angle_to_kernel(A, M)
    assert abs(got - reference) < 1e-12
    assert abs(got - theta) < 1e-12
    assert abs(reference - theta) < 1e-12


def test_kernel_equivalence_detects_shifted_Q(models, monkeypatch):
    # with Q + 1e-6 I in M2 only, M2 != R^{-1} M1 and the kernels differ
    for m in models.values():
        assert jd.kernel_equivalence(m)["max_principal_angle"] < 1e-12
    build = jd.build_R_Q

    def shifted(model):
        R, Q = build(model)
        return R, Q + 1e-6 * np.eye(model.boundary_dim)

    monkeypatch.setattr(jd, "build_R_Q", shifted)
    for m in models.values():
        assert jd.kernel_equivalence(m)["max_principal_angle"] > 1e-10


def test_kernel_equivalence_makes_at_most_two_svds(models, monkeypatch):
    # every binding of svd that kernel_equivalence can reach: the public
    # names, the ones scipy's null_space/orth/svdvals and numpy's norm call,
    # and jcdot's own import
    calls = []
    for mod in dict.fromkeys((scipy.linalg, scipy.linalg._decomp_svd, np.linalg,
                              getattr(np.linalg, "_linalg", np.linalg), jd)):
        if hasattr(mod, "svd"):
            def counted(*args, _svd=getattr(mod, "svd"), **kwargs):
                calls.append(1)
                return _svd(*args, **kwargs)
            monkeypatch.setattr(mod, "svd", counted)
    for m in models.values():
        calls.clear()
        jd.kernel_equivalence(m)
        assert 1 <= len(calls) <= 2


def test_correction_shape_and_adjoint_symmetry():
    xs = np.array([-0.7, -0.2, 0.3, 1.1])
    m = jd.JCModel(0.5, 0.0, jd.TwoLevelDot(0.1, 0.9, 0.2), 0.7,
                   jd.FockTruncation(4))
    z = -1.0 + 0.5j
    K = jd.dot_resolvent_correction(m, z, xs)
    assert K.shape == (4, 4, 5, 5)
    Kc = jd.dot_resolvent_correction(m, np.conj(z), xs)
    sym = np.abs(K - np.conj(np.transpose(Kc, (1, 0, 3, 2)))).max()
    assert sym < 1e-12


def test_fockless_limit_reduces_to_scalar_krein_formula():
    # N = 0: one photon slot, so the correction collapses to the plain
    # two-lead contact with boundary operator sqrt(2) B_site + I
    xs = np.array([-0.7, -0.2, 0.3, 1.1])
    z = -1.0 + 0.5j
    m0 = jd.JCModel(0.0, 0.0, jd.TwoLevelDot(0.1, 0.9, 0.2), 0.7,
                    jd.FockTruncation(0))
    Ct0 = np.sqrt(2) * m0.site_CJC + np.eye(2)
    assert np.abs(jd.build_tilde_CJC(m0) - Ct0).max() < 1e-14
    K0 = jd.dot_resolvent_correction(m0, z, xs)[:, :, 0, 0]
    base = build_triplet(full_line_contact(0.0, 0.0))
    Mi = base.weyl(1j)
    Wn = np.diag(1.0 / np.sqrt(np.diag(Mi).imag))
    Qn = np.diag(np.diag(Mi).real)
    Mt = Wn @ (base.weyl(z) - Qn) @ Wn
    A = np.linalg.solve(Ct0 - Mt, np.eye(2))
    cols_z = np.stack(
        [eval_gamma_on_grid(base, z, np.eye(2)[:, j], xs) for j in range(2)],
        axis=1,
    )
    cols_zb = np.stack(
        [eval_gamma_on_grid(base, np.conj(z), np.eye(2)[:, j], xs)
         for j in range(2)],
        axis=1,
    )
    K_hand = np.einsum("xj,jk,yk->xy", cols_z @ Wn, A, np.conj(cols_zb @ Wn))
    assert np.abs(K0 - K_hand).max() < 1e-12
    tt0 = _normalized_lead_triplet(m0)
    K0b = krein_correction(
        tt0.assembled, BoundaryCondition.operator(Ct0), z
    ).kernel(xs, xs)
    assert np.abs(K0 - np.asarray(K0b).reshape(K0.shape)).max() < 1e-14


def test_correction_matches_per_pair_products():
    # independent oracle: one small matrix product U(x) W V(y)* per
    # (x, y) pair, on both leads and with different x- and y-grids; the
    # complex dot coupling makes the weight non-symmetric
    m = jd.JCModel(0.5, 0.2, jd.TwoLevelDot(0.1, 0.9, 0.2 + 0.3j), 0.7,
                   jd.FockTruncation(8))
    z = -1.0 + 0.5j
    xs = np.array([-1.3, -0.4, 0.2, 0.9])
    ys = np.array([-0.8, 0.5, 1.7])
    K = jd.dot_resolvent_correction(m, z, xs, ys)
    corr = krein_correction(
        _normalized_lead_triplet(m).assembled,
        BoundaryCondition.operator(jd.build_tilde_CJC(m)),
        z,
    )
    U, V = _dense_values(corr.left, xs), _dense_values(corr.right, ys)
    oracle = np.array([[U[i] @ corr.weight @ V[j].conj().T
                        for j in range(len(ys))] for i in range(len(xs))])
    assert K.shape == oracle.shape == (4, 3, 9, 9)
    assert np.abs(K - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_correction_truncation_cauchy_decay():
    z = -1.0 + 0.5j
    vals = {}
    for N in (2, 4, 6, 12):
        m = jd.JCModel(0.5, 0.0, jd.TwoLevelDot(0.1, 0.9, 0.2), 2.0,
                       jd.FockTruncation(N))
        vals[N] = jd.dot_resolvent_correction(m, z, np.array([0.3]))[0, 0, :3, :3]
    d1 = np.abs(vals[4] - vals[2]).max()
    d2 = np.abs(vals[6] - vals[4]).max()
    d3 = np.abs(vals[12] - vals[6]).max()
    assert d1 > d2 > d3
    assert d3 < 1e-12


def test_decoupling_report():
    m = jd.JCModel(0.5, 2.0, jd.TwoLevelDot(0.3, 1.2), 0.9,
                   jd.FockTruncation(6))
    rep = jd.decoupling_report(m, z=-2.0 + 1.0j)
    # a diagonal dot couples the sides through the photon ladder only
    assert rep["cross_off_ladder_max"] == 0.0
    assert rep["cross_block_max"] > 0.1
    m_off = jd.JCModel(0.5, 2.0, jd.TwoLevelDot(0.3, 1.2), 0.0,
                       jd.FockTruncation(6))
    rep0 = jd.decoupling_report(m_off, z=-2.0 + 1.0j)
    assert rep0["cross_block_max"] == 0.0
    assert rep0["weight_cross_max"] < 1e-15


def test_spectrum_report_far_apart_eigenvalues_do_not_warn():
    # successive eigenvalues 2e308 apart: their gap overflows to inf, which
    # must separate them without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = jd.spectrum_report(np.diag([-1e308, 1e308]))
    assert rep["distinct"].tolist() == [-1e308, 1e308]
    assert rep["multiplicities"] == [1, 1]


def test_lead_gamma_weights_are_the_anchor_weights():
    # diag((Im a)^{-1/2}) from the cached anchors equals, bit for bit, the
    # weight the generic normalized construction computes from Im M(i - k)
    for N in (0, 3, 60):
        m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                       jd.FockTruncation(N))
        contact = build_triplet(full_line_contact(m.v_l, m.v_r))
        lk = LKernel(contact.weyl, "imag")
        x = np.array([-1.3, -0.2, 0.0, 0.4, 2.0])
        for z in (-1.0 + 0.5j, 1j):
            got = m.lead_triplet.gamma(z).images
            for k in range(N + 1):
                want = contact.gamma(z - k).postmultiply(lk.weights(k)[0])
                assert np.array_equal(got[k].values(x), want.values(x))


def test_spectrum_tilde_multiplicities():
    m = jd.JCModel(0.5, 2.0, jd.TwoLevelDot(0.3, 1.2), 0.9,
                   jd.FockTruncation(6))
    st = jd.spectrum_report(m.tilde_CJC)
    assert sum(st["multiplicities"]) == m.boundary_dim


def test_negative_lead_potential_rejected():
    with pytest.raises(ValueError):
        jd.JCModel(-0.1, 0.0, jd.TwoLevelDot(0.0, 1.0), 0.5,
                   jd.FockTruncation(2))
