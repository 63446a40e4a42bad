"""Two-lead quantum-dot model with a truncated photon ladder."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import subspace_angles

from weyltriplets import herglotz as hg
from weyltriplets import jcdot as jd
from weyltriplets import triplets
from weyltriplets.spectral import SpectralMeasurePP
from weyltriplets.tensor import tensor_normalized
from weyltriplets.models1d import build_triplet, full_line_contact
from weyltriplets._linalg import SingularMatrixError, solve_guarded
from weyltriplets.triplets import (
    BoundaryCondition,
    DomainError,
    LKernel,
    herglotz_identity_residual,
    krein_correction,
)


def _normalized_lead_triplet(model):
    """The independent route to the lead triplet: the generic normalized
    tensor construction over the Fock levels, with its own anchors."""
    base = build_triplet(full_line_contact(model.v_l, model.v_r))
    return tensor_normalized(base, SpectralMeasurePP.from_levels(range(model.fock.dim)))


def _lead_atom_images(model, z):
    """The per-atom oracle of the lead gamma image at z: per Fock level k the
    two-lead contact's gamma(z - k) postmultiplied by diag((Im a)^{-1/2})
    over the two sides, a = m(i - k; v)."""
    contact = build_triplet(full_line_contact(model.v_l, model.v_r))
    n = model.fock.dim
    scale = 1.0 / np.sqrt(model.anchors.imag)
    return [contact.gamma(z - k).postmultiply(np.diag(scale[[k, n + k]]))
            for k in range(n)]


def _dense_values(images, x):
    """The dense samples of a lead image gamma^S over one-dimensional Fock
    slots, shape (nx, total, d*total): entry (k, (j, k)) is column j of the
    per-atom image k, zero off slot k."""
    total, d = len(images), images[0].dim
    out = np.zeros((len(x), total, d, total), dtype=complex)
    for k, img in enumerate(images):
        out[:, k, :, k] = img.values(x)[:, 0, :]
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
    assert np.abs(f.b.T @ f.b - f.T).max() < 1e-14


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


@pytest.mark.parametrize("dot", [jd.TwoLevelDot(1.3, -0.4), jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j)],
                         ids=["diagonal", "complex-gamma"])
def test_cjc_matches_index_loop(dot):
    # the eigenbasis bytes that spectrum and jacobi_reorder's chain check read:
    # lam_i + k on the diagonal, tau sqrt(k) between |0, k> and |1, k - 1>
    m = jd.JCModel(0.5, 0.25, dot, 0.7, jd.FockTruncation(20))
    lam, n = dot.eigen()[:2], m.fock.dim
    C = np.zeros((2 * n, 2 * n), complex)
    for i in range(2):
        for k in range(n):
            C[i * n + k, i * n + k] = lam[i] + k
    for k in range(1, n):
        C[n + k - 1, k] = C[k, n + k - 1] = m.tau * np.sqrt(k)
    assert m.CJC.tobytes() == C.tobytes()


@pytest.mark.parametrize("dot", [jd.TwoLevelDot(0.7, 0.7), jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j)],
                         ids=["degenerate", "complex-gamma"])
@pytest.mark.parametrize("N", [0, 3, 20, 60])
def test_site_and_tilde_cjc_nest_across_truncations(dot, N):
    # C_JC, C~_JC and M^S(z) at N are the (side, level <= N) block of the
    # same model at N + delta, bit for bit
    small = jd.JCModel(0.5, 0.25, dot, 0.7, jd.FockTruncation(N))
    weyl = lambda m: m.lead_weyl(-1 + 0.5j)
    for delta in (1, 2, 4):
        big = jd.JCModel(0.5, 0.25, dot, 0.7, jd.FockTruncation(N + delta))
        keep = np.r_[0:N + 1, N + delta + 1:2 * N + delta + 2]
        for get in (lambda m: m.CJC, lambda m: m.site_CJC, lambda m: m.tilde_CJC, weyl):
            assert get(big)[np.ix_(keep, keep)].tobytes() == get(small).tobytes(), delta


def test_rq_closed_form_matches_generic(models):
    for m in models.values():
        assert jd.rq_consistency(m) < 1e-12
        r, q = jd.build_R_Q(m)
        assert np.array_equal(r, m.rq[0]) and np.array_equal(q, m.rq[1])


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
        floor = np.min(np.real(jd.tilde_T_part(m)))
        vmin = min(m.v_l, m.v_r)
        assert abs(floor - jd.z_value(vmin, 0) ** 2) < 1e-13
        assert floor >= 1.0 - 1e-14
    floor13 = np.min(np.real(jd.tilde_T_part(models["(1,3)"])))
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


@pytest.mark.parametrize("sides", ["left", "right"])
@pytest.mark.parametrize("v", [0.0, 1e-300, 1e6])
@pytest.mark.parametrize("N", [0, 3, 60])
def test_lead_weyl_is_exactly_i_at_i(N, v, sides):
    # the general route (a - Re a)/Im a with a the anchors, bit for bit iI
    # with +0.0 off the diagonal, at z = i and at -0.0 + i
    v_l, v_r = (v, 0.0) if sides == "left" else (0.0, v)
    m = jd.JCModel(v_l, v_r, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7, jd.FockTruncation(N))
    want = np.diag(np.full(2 * (N + 1), 1j)).view(np.uint64)
    for z in (1j, complex(-0.0, 1.0)):
        assert np.array_equal(m.lead_weyl(z).view(np.uint64), want)
        assert np.array_equal(m.lead_weyl.grid([z])[0].view(np.uint64), want)


@pytest.mark.parametrize("N", [0, 3])
def test_lead_weyl_grid_matches_pointwise_bitwise(N):
    m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7, jd.FockTruncation(N))
    zs = [1j, -1 + 0.5j, 2.3 + 1e-3j, 0.25 + 1e-300j, -1e6 + 2j, 1e6j, 4 - 0.5j, -3 + 0j]
    weyl = m.lead_weyl
    assert weyl.diagonal
    got = weyl.grid(zs)
    want = np.array([weyl(z) for z in zs])
    assert got.shape == want.shape == (len(zs), 2 * (N + 1), 2 * (N + 1))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("N", [3, 20, 60])
def test_krein_weight_is_decoupling_solve(N):
    # the correction and the decoupling report invert one C~ - M^S(z)
    m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                   jd.FockTruncation(N))
    bc = BoundaryCondition.operator(m.tilde_CJC)
    for z in (-1.0 + 0.5j, 2.5 - 0.75j):
        weight = krein_correction(m.lead_triplet, bc, z).weight
        want = solve_guarded(m.tilde_CJC - jd.weyl_S(m, z))
        assert np.array_equal(weight, want)


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _rung(model, z, xs):
    """The benchmark's call order for one jc-run rung."""
    return (jd.decoupling_report(model, z), jd.weyl_S(model, z),
            jd.dot_resolvent_correction(model, z, xs))


def _counted_solves(monkeypatch):
    """Every guarded solve of jcdot and of the triplets it could route through."""
    calls = []

    def counted(A, context=""):
        calls.append(context)
        return solve_guarded(A, context)

    for module in (jd, triplets):
        monkeypatch.setattr(module, "solve_guarded", counted)
    return calls


def test_one_solve_per_rung(monkeypatch):
    # two models in alternation, as the jc-ladder benchmark reuses its models:
    # each rung replaces the other's solve, so every rung solves exactly once
    calls = _counted_solves(monkeypatch)
    models = [jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                         jd.FockTruncation(N)) for N in (3, 5)]
    xs = np.array([-1.0, 0.5])
    for _ in range(2):
        for m in models:
            before = len(calls)
            _rung(m, -1.0 + 0.5j, xs)
            assert calls[before:] == ["C~ - M^S(z)"]
    assert len(calls) == 4


@pytest.mark.parametrize("N", [3, 20, 60])
def test_shared_solve_is_bitwise_the_separate_routes(monkeypatch, N):
    calls = _counted_solves(monkeypatch)
    m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                   jd.FockTruncation(N))
    bc = BoundaryCondition.operator(m.tilde_CJC)
    xs = np.array([-1.0, -0.25, 0.5])
    # a real z below every lead spectrum, with both signs of its zero: z and its
    # twin compare equal but are distinct bit patterns, so each gets its own solve
    zs = (-1.0 + 0.5j, 2.5 - 0.75j, complex(0.125, 0.0), complex(0.125, -0.0))
    for z in zs:
        before = len(calls)
        _, M, K = _rung(m, z, xs)
        assert len(calls) == before + 1
        assert _bits_equal(jd._weight(m, z), solve_guarded(m.tilde_CJC - m.lead_weyl(z)))
        assert _bits_equal(M, m.lead_weyl(z))
        want = krein_correction(m.lead_triplet, bc, z).kernel(xs, xs)
        assert _bits_equal(K, want.reshape(K.shape))


def test_shared_solve_is_read_only():
    m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                   jd.FockTruncation(3))
    z = -1.0 + 0.5j
    jd.decoupling_report(m, z)
    for a in (jd.weyl_S(m, z), jd._weight(m, z)):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0


def test_weyl_S_off_the_slot_leaves_it():
    m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                   jd.FockTruncation(3))
    jd.decoupling_report(m, -1.0 + 0.5j)
    slot = jd._latest
    M = jd.weyl_S(m, 2.0 + 1.0j)
    assert jd._latest is slot and M.flags.writeable
    assert _bits_equal(M, m.lead_weyl(2.0 + 1.0j))


def test_singular_weight_raises_every_time_and_keeps_the_slot():
    # the dot of test_cli's _KE_HUGE_BETA: cond(C~ - M^S(z)) = inf
    kept = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                      jd.FockTruncation(3))
    jd.decoupling_report(kept, -1.0 + 0.5j)
    slot = jd._latest
    m = jd.JCModel(0.0, 0.0, jd.TwoLevelDot(3.0, 1e308, 1 - 1e308j), 2.0, jd.FockTruncation(0))
    for _ in range(2):
        with pytest.raises(SingularMatrixError, match=r"C~ - M\^S\(z\)"):
            jd.dot_resolvent_correction(m, -1.0 + 0.5j, [-1.0, 0.5])
        assert jd._latest is slot


def test_lead_triplet_herglotz_identity():
    for N in (3, 20):
        m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                       jd.FockTruncation(N))
        for z, zeta in ((-1.0 + 0.5j, 0.3 + 2.0j), (2.0 - 1.0j, -0.5 + 0.25j)):
            assert herglotz_identity_residual(m.lead_triplet, z, zeta) <= 1e-13


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


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("N", [0, 1, 20, 60])
@pytest.mark.parametrize("dot, tau", [
    (jd.TwoLevelDot(0.7, 0.7), 2.5),
    (jd.TwoLevelDot(-0.3, 1.1), 0.9),
    (jd.TwoLevelDot(0.2, 1.4, 0.3 - 0.25j), 0.0),
], ids=["degenerate", "gamma0", "tau0"])
def test_regularization_scalings_match_dense_products(N, dot, tau, monkeypatch):
    # the oracle: R, R^{-1} and Q as dense diagonal matrices, every product
    # with them a matmul; the scalings must give the same bits, signs of
    # zeros included
    m = jd.JCModel(1.0, 0.5, dot, tau, jd.FockTruncation(N))
    r, q, _ = m.rq
    R, Rinv, Q = np.diag(r), np.diag(1.0 / r), np.diag(q)
    Ct = Rinv @ (m.site_CJC - Q) @ Rinv
    T = Rinv @ (np.kron(np.eye(2), m.fock.T) - Q) @ Rinv
    M1 = np.hstack([-m.site_CJC, np.eye(m.boundary_dim)])
    M2 = np.hstack([-(Rinv @ Q + Ct @ R), Rinv])
    assert _same_bits(m.tilde_CJC, Ct)
    assert _same_bits(jd.tilde_T_part(m), np.diag(T))
    seen = []
    angle = jd._largest_kernel_angle
    monkeypatch.setattr(jd, "_largest_kernel_angle",
                        lambda A, B, **kw: seen.append((A, B)) or angle(A, B, **kw))
    ke = jd.kernel_equivalence(m)
    assert _same_bits(seen[0][0], M1) and _same_bits(seen[0][1], M2)
    assert _same_bits(ke["transform_residual"], float(np.abs(M2 - Rinv @ M1).max()))


def _unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _planted(m, theta):
    # m-dimensional A, B in C^{2m} with principal angles in [0, theta], the
    # largest exactly theta; each given in a random unitary frame, and each
    # as the kernel of a matrix whose rows span its complement, M1 and M2
    rng = np.random.default_rng(int(1e3 * m + 1e6 * theta))
    U = _unitary(rng, 2 * m)
    angles = rng.uniform(0.0, theta, m)
    angles[rng.integers(m)] = theta
    c, s = np.cos(angles), np.sin(angles)
    A = U[:, :m] @ _unitary(rng, m)
    B = (U[:, :m] * c + U[:, m:] * s) @ _unitary(rng, m)
    M2 = _unitary(rng, m) @ (U[:, m:] * c - U[:, :m] * s).conj().T
    M1 = _unitary(rng, m) @ U[:, m:].conj().T
    assert np.abs(M1 @ A).max() < 1e-14
    assert np.abs(M2 @ B).max() < 1e-14
    return A, B, M1, M2


_THETAS = [0.0, 1e-12, 1e-6, 1e-2, 0.7, np.pi / 2 - 1e-3]


@pytest.mark.parametrize("m", [6, 60])
@pytest.mark.parametrize("theta", _THETAS)
def test_largest_angle_to_kernel_planted(m, theta):
    A, B, M1, M2 = _planted(m, theta)
    reference = subspace_angles(A, B).max()
    got, null_dim = jd._largest_kernel_angle(M1, M2)
    assert null_dim == m
    assert abs(got - reference) < 1e-12
    assert abs(got - theta) < 1e-12
    assert abs(reference - theta) < 1e-12


@pytest.mark.parametrize("m", [6, 60])
@pytest.mark.parametrize("theta", _THETAS)
@pytest.mark.parametrize("extra", ["repeated_row", "smaller_kernel"])
def test_largest_kernel_angle_planted_ranks(m, theta, extra):
    # M1 with one more row: a repeat of its first (rank m), or a row from A
    # (rank m + 1, so dim ker M1 = m - 1 < dim ker M2).  The angle takes the
    # row count as the rank, which kernel_equivalence certifies for its own
    # matrices: with the repeated row it measures an (m - 1)-dimensional
    # subspace of ker M1, so it is at most theta.  The oracle's kernel bases
    # come from scipy's SVD-based null_space
    A, B, M1, M2 = _planted(m, theta)
    row = M1[:1] if extra == "repeated_row" else A[:, :1].conj().T
    M1 = np.vstack([M1, row])
    got, null_dim = jd._largest_kernel_angle(M1, M2)
    assert null_dim == m - 1
    assert got <= theta + 1e-12
    if extra == "smaller_kernel":
        K1 = scipy.linalg.null_space(M1)
        assert K1.shape[1] == m - 1
        reference = subspace_angles(K1, scipy.linalg.null_space(M2)).max()
        assert abs(got - reference) < 1e-12


@pytest.mark.parametrize("factor", [0.99, 1.01], ids=["inside", "outside"])
def test_rank_certificate_edge(factor):
    # alpha = -beta = t, tau = 0, N = 0, v = 0: C = diag(t, -t) and M1 = [-C, I]
    # (M2 = R^{-1} M1 up to rounding), so max(shape) eps ||M1||_F < min |D_ii|
    # reads 4 eps sqrt(2 t^2 + 2) < 1
    eps = np.finfo(float).eps
    t = factor * np.sqrt(((4 * eps) ** -2 - 2) / 2)
    m = jd.JCModel(0.0, 0.0, jd.TwoLevelDot(t, -t), 0.0, jd.FockTruncation(0))
    assert np.array_equal(m.site_CJC, np.diag([t, -t]))
    if factor < 1:
        ke = jd.kernel_equivalence(m)
        assert ke["max_principal_angle"] < 1e-12 and ke["null_dim"] == 2
    else:
        with pytest.raises(ArithmeticError, match=r"^kernel equivalence: the rank "
                           r"certificate of M1 fails: max\(shape\) eps \|\|M1\|\|_F = 1.01 "
                           r"is not below min \|D_ii\| = 1$"):
            jd.kernel_equivalence(m)


def test_rank_certificate_of_huge_entries_raises_no_warning():
    # entries whose complex modulus or square overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=r"certificate of M fails: .* = 2\.51e\+293 "):
            jd._certified_rows("M", np.full((2, 2), 1e308 + 1e308j), np.ones(2))


def _hermitian(rng, d, scale):
    # eigenvalues of modulus in [scale / 10, scale], of random sign
    lam = scale * rng.uniform(0.1, 1.0, d) * rng.choice([-1.0, 1.0], d)
    U = _unitary(rng, d)
    return (U * lam) @ U.conj().T


@pytest.mark.parametrize("N", [0, 3, 20, 60])
@pytest.mark.parametrize("scale", [1.0, 1e4, 1e8, 1e12, 1e14])
@pytest.mark.parametrize("source", ["random", "model"])
def test_kernel_angle_matches_null_space_oracle(N, scale, source, monkeypatch):
    # kernel_equivalence's own M1 = [-C, I] and M2, with C a random Hermitian
    # matrix of norm `scale` put in the model's place, or the model's C_JC at
    # dot energies of that size.  Where the rank certificate holds (checked
    # here through numpy's norm), the angle matches scipy's subspace_angles
    # of SVD null-space bases; where it fails, kernel_equivalence refuses
    dot = jd.TwoLevelDot(0.1, -0.9, 0.2 - 0.15j)
    if source == "model":
        dot = jd.TwoLevelDot(dot.alpha * scale, dot.beta * scale, dot.gamma * scale)
    m = jd.JCModel(0.5, 0.25, dot, 0.7, jd.FockTruncation(N))
    if source == "random":
        # the cached_property's slot, filled before its first use
        m.__dict__["site_CJC"] = _hermitian(np.random.default_rng(N), m.boundary_dim, scale)
    seen = []
    certified = jd._certified_rows
    monkeypatch.setattr(jd, "_certified_rows", lambda name, X, d: seen.append(
        (np.hstack([X, np.diag(d)]), d)) or certified(name, X, d))
    holds = lambda M, d: max(M.shape) * np.finfo(float).eps * np.linalg.norm(M) < np.abs(d).min()
    try:
        ke = jd.kernel_equivalence(m)
    except ArithmeticError as exc:
        assert "rank certificate" in str(exc) and not holds(*seen[-1])
        assert scale >= 1e12
        return
    assert len(seen) == 2 and all(holds(*s) for s in seen)
    M1, M2 = (M for M, _ in seen)
    reference = subspace_angles(scipy.linalg.null_space(M1), scipy.linalg.null_space(M2)).max()
    assert abs(ke["max_principal_angle"] - reference) < 1e-12
    assert ke["null_dim"] == m.boundary_dim


def test_kernel_equivalence_detects_shifted_Q(models, monkeypatch):
    # with Q + 1e-6 I in M2 only, M2 != R^{-1} M1 and the kernels differ
    for m in models.values():
        assert jd.kernel_equivalence(m)["max_principal_angle"] < 1e-12
    build = jd.build_R_Q

    def shifted(model):
        r, q = build(model)
        return r, q + 1e-6

    monkeypatch.setattr(jd, "build_R_Q", shifted)
    for m in models.values():
        assert jd.kernel_equivalence(m)["max_principal_angle"] > 1e-10


def test_kernel_equivalence_makes_no_svd(models, monkeypatch):
    # every binding of svd that kernel_equivalence could reach: the public
    # names, the ones scipy's null_space/orth/svdvals and numpy's norm call,
    # and any import of jcdot's own
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
        assert len(calls) == 0


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
    cols_z, cols_zb = (
        np.stack([base.gamma(w).values(xs, np.eye(2)[:, j])[:, 0] for j in range(2)],
                 axis=1)
        for w in (z, np.conj(z)))
    K_hand = np.einsum("xj,jk,yk->xy", cols_z @ Wn, A, np.conj(cols_zb @ Wn))
    assert np.abs(K0 - K_hand).max() < 1e-12
    tt0 = _normalized_lead_triplet(m0)
    K0b = krein_correction(
        tt0.assembled, BoundaryCondition.operator(Ct0), z
    ).kernel(xs, xs)
    assert np.abs(K0 - np.asarray(K0b).reshape(K0.shape)).max() < 1e-14


def test_correction_matches_per_pair_products():
    # independent oracle: one small matrix product U(x) W V(y)* per
    # (x, y) pair, on both leads; the complex dot coupling makes the weight
    # non-symmetric.  The JC kernel samples xs x xs, the correction's own
    # kernel also different x- and y-grids
    m = jd.JCModel(0.5, 0.2, jd.TwoLevelDot(0.1, 0.9, 0.2 + 0.3j), 0.7,
                   jd.FockTruncation(8))
    z = -1.0 + 0.5j
    xs = np.array([-1.3, -0.4, 0.2, 0.9])
    ys = np.array([-0.8, 0.5, 1.7])
    corr = krein_correction(
        _normalized_lead_triplet(m).assembled,
        BoundaryCondition.operator(jd.build_tilde_CJC(m)),
        z,
    )

    def oracle(xs, ys):
        U = _dense_values(_lead_atom_images(m, z), xs)
        V = _dense_values(_lead_atom_images(m, np.conj(z)), ys)
        return np.array([[U[i] @ corr.weight @ V[j].conj().T
                          for j in range(len(ys))] for i in range(len(xs))])

    K, want = jd.dot_resolvent_correction(m, z, xs), oracle(xs, xs)
    assert K.shape == want.shape == (4, 4, 9, 9)
    assert np.abs(K - want).max() <= 1e-12 * np.abs(want).max()
    K, want = np.asarray(corr.kernel(xs, ys)), oracle(xs, ys)
    assert K.shape == want.shape == (4, 3, 9, 9)
    assert np.abs(K - want).max() <= 1e-12 * np.abs(want).max()


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
        lk = LKernel(contact.weyl)
        x = np.array([-1.3, -0.2, 0.0, 0.4, 2.0])
        for z in (-1.0 + 0.5j, 1j):
            got = m.lead_triplet.gamma(z).slot_samples(x)
            for k in range(N + 1):
                want = contact.gamma(z - k).postmultiply(lk.weights(k)[0])
                assert np.array_equal(got[:, k], want.values(x))


_LEAD_XS = np.array([-2.0, -0.7, -1e-300, -0.0, 0.0, 1e-300, 0.3, 1.9])


def _contact_columns_by_hand(points, v_l, v_r, x, dx=False):
    """The contact's columns at each point p, written out: e^{-i w_l x} on
    x <= 0, e^{i w_r x} on x > 0 and 1 (i w_r for the x-derivative) in the
    right column at x == 0, w = sqrt_cut(p - v); shape (len x, len points, 1, 2)."""
    out = np.zeros((len(x), len(points), 1, 2), dtype=complex)
    for k, p in enumerate(points):
        a, b = -1j * hg.sqrt_cut(p - v_l), 1j * hg.sqrt_cut(p - v_r)
        left, right = np.exp(a * x), np.exp(b * x)
        if dx:
            left, right = a * left, b * right
        out[x <= 0, k, 0, 0] = left[x <= 0]
        out[x > 0, k, 0, 1] = right[x > 0]
        out[x == 0, k, 0, 1] = b if dx else 1.0
    return out


@pytest.mark.parametrize("N", [0, 1, 8, 60])
def test_lead_gamma_samples_match_the_per_atom_contact_images(N):
    # the lead image and the contact's columns and x-derivatives equal the
    # exponentials written out, bit for bit, signed zeros included: z above
    # and below the axis, a conjugate pair, z next to the cut of level 5, and
    # x at +-0, +-1e-300 and beyond
    m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                   jd.FockTruncation(N))
    contact = build_triplet(full_line_contact(m.v_l, m.v_r))
    scale = 1.0 / np.sqrt(m.anchors.imag)
    same = lambda a, b: np.array_equal(a.view(np.uint64), b.view(np.uint64))
    for z in (-1.0 + 0.5j, -1.0 - 0.5j, 0.3 + 1e-3j, -2.0 - 0.7j, -5.0 + 1e-8j, 2.0 + 3.0j):
        points = [z - k for k in range(N + 1)]
        cols, dx = (_contact_columns_by_hand(points, m.v_l, m.v_r, _LEAD_XS, dx=d)
                    for d in (False, True))
        got = m.lead_triplet.gamma(z).slot_samples(_LEAD_XS)
        assert got.shape == (len(_LEAD_XS), N + 1, 1, 2)
        for k, p in enumerate(points):
            assert same(got[:, k], cols[:, k] @ np.diag(scale[[k, N + 1 + k]]))
            kern = contact.gamma(p)
            assert same(kern.columns(_LEAD_XS), cols[:, k])
            assert same(kern.columns_dx(_LEAD_XS), dx[:, k])


@pytest.mark.parametrize("N", [0, 3, 20])
def test_lead_gram_matches_the_per_level_quadrature(N):
    # the closed-form Gram against the quadrature Grams of the per-level
    # contact images: a conjugate pair, and z at Im z = 1e-3 next to the
    # lowest lead threshold k + v_r = 0.25
    m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                   jd.FockTruncation(N))
    n = N + 1
    for z, zeta in ((-1.0 + 0.5j, -1.0 - 0.5j), (0.25 + 1e-3j, 0.3 + 2.0j),
                    (2.0 - 1.0j, 0.25 + 1e-3j)):
        got = m.lead_triplet.gamma(zeta).gram(m.lead_triplet.gamma(z))
        want = np.zeros((2 * n, 2 * n), dtype=complex)
        for k, (a, b) in enumerate(zip(_lead_atom_images(m, zeta), _lead_atom_images(m, z))):
            want[k::n, k::n] = a.gram(b)
        assert np.abs(np.diag(got) / np.diag(want) - 1.0).max() <= 1e-10
        assert np.array_equal(got, np.diag(np.diag(got)))


def test_lead_gram_diverges_on_the_lead_spectrum():
    # at real points above the threshold of level 0 (v_l = 0.5) neither column
    # decays, and the Gram integral diverges
    m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9), 0.7, jd.FockTruncation(3))
    with pytest.raises(ArithmeticError, match="the lead Gram diverges"):
        m.lead_triplet.gamma(3.0).gram(m.lead_triplet.gamma(2.0))


def test_lead_gamma_samples_reject_nan():
    m = jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9), 0.7, jd.FockTruncation(3))
    image = m.lead_triplet.gamma(-1.0 + 0.5j)
    with pytest.raises(DomainError, match="x = nan lies outside"):
        image.slot_samples(np.array([-1.0, np.nan, 0.5]))
    with pytest.raises(DomainError, match="x = nan lies outside"):
        _lead_atom_images(m, -1.0 + 0.5j)[0].values(np.array([-1.0, np.nan, 0.5]))


def test_spectrum_tilde_multiplicities():
    m = jd.JCModel(0.5, 2.0, jd.TwoLevelDot(0.3, 1.2), 0.9,
                   jd.FockTruncation(6))
    st = jd.spectrum_report(m.tilde_CJC)
    assert sum(st["multiplicities"]) == m.boundary_dim


def test_negative_lead_potential_rejected():
    with pytest.raises(ValueError):
        jd.JCModel(-0.1, 0.0, jd.TwoLevelDot(0.0, 1.0), 0.5,
                   jd.FockTruncation(2))
