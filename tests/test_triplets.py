"""Boundary triplets: Krein formula, normalization, probes, direct sums."""

import numpy as np
import pytest

from weyltriplets import herglotz as hg
from weyltriplets import triplets as tr
from weyltriplets.oracle import make_dense_toy
from weyltriplets.models1d import (
    build_triplet,
    schrodinger_right,
    schrodinger_interval,
    full_line_contact,
)

Z_POINTS = (1j, -2 + 0.5j, 1.5 + 2j)


@pytest.fixture(scope="module")
def toy():
    return make_dense_toy(6, 2, seed=20250814)


def test_dense_toy_green_identity(toy):
    assert toy.green_identity_residual(samples=20) < 1e-12


@pytest.mark.parametrize("z", Z_POINTS)
def test_dense_toy_krein_vs_direct_difference(toy, z):
    B = toy.Q0 + np.eye(toy.d)
    direct = toy.direct_resolvent_difference(B, z)
    corr = tr.krein_correction(
        toy.as_triplet(), tr.BoundaryCondition.operator(B), z
    )
    assert np.abs(corr.dense() - direct).max() < 1e-10


@pytest.mark.parametrize("z,zeta", [(1j, -2 + 0.5j), (1.5 + 2j, 1j)])
def test_dense_toy_mlambda_identity(toy, z, zeta):
    assert tr.herglotz_identity_residual(toy.as_triplet(), z, zeta) < 1e-12


def test_halfline_mlambda_identity_by_quadrature():
    t = build_triplet(schrodinger_right(v=0.5))
    z, zeta = 2 + 1j, -1 + 0.5j
    gram = t.gamma(zeta).gram(t.gamma(z))
    lhs = t.weyl(z) - np.conj(t.weyl(zeta)).T
    assert np.abs(lhs - (z - np.conj(zeta)) * gram).max() < 1e-8


@pytest.mark.parametrize(
    "spec",
    [schrodinger_right(v=0.3), schrodinger_interval(v=0.2),
     full_line_contact(1.0, 0.0)],
    ids=["halfline", "interval", "full-line"],
)
def test_normalize_anchor_and_idempotence(spec):
    t = tr.normalize(build_triplet(spec))
    assert t.normalized
    n = t.dim
    assert np.abs(t.weyl(1j) - 1j * np.eye(n)).max() < 1e-10
    assert t.check_normalized() < 1e-10
    again = tr.normalize(t)
    for z in Z_POINTS:
        assert np.abs(again.weyl(z) - t.weyl(z)).max() < 1e-12


def test_normalize_dense_toy(toy):
    t = tr.normalize(toy.as_triplet())
    assert np.abs(t.weyl(1j) - 1j * np.eye(toy.d)).max() < 1e-12
    # the gamma field is transformed consistently: the abstract identity
    # M(z) - M(zeta)* = (z - conj zeta) gamma(zeta)* gamma(z) survives
    assert tr.herglotz_identity_residual(t, 1j, 1.5 + 2j) < 1e-12


def test_boundary_condition_validation():
    tr.BoundaryCondition.theta0()
    tr.BoundaryCondition.theta1()
    tr.BoundaryCondition.operator(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        tr.BoundaryCondition.operator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_krein_kernel_closed_form():
    # v = 0 half line: K_z(x, y) = exp(i w (x+y)) / (theta - i w)
    t = build_triplet(schrodinger_right())
    theta, z = 0.7, 2 + 1j
    corr = tr.krein_correction(
        t, tr.BoundaryCondition.operator(np.array([[theta]])), z
    )
    x = np.linspace(0.0, 3.0, 7)
    K = corr.kernel(x, x)
    w = hg.sqrt_cut(z)
    want = np.exp(1j * w * (x[:, None] + x[None, :])) / (theta - 1j * w)
    assert np.abs(K - want).max() < 1e-12


def test_krein_theta_variants():
    t = build_triplet(schrodinger_right())
    x = np.array([0.25, 1.0])
    # theta1 is the boundary condition Gamma1 = 0, i.e. B = 0
    k1 = tr.krein_correction(t, tr.BoundaryCondition.theta1(), -1 + 0j)
    k0 = tr.krein_correction(
        t, tr.BoundaryCondition.operator(np.zeros((1, 1))), -1 + 0j
    )
    assert np.abs(k1.kernel(x, x) - k0.kernel(x, x)).max() == 0.0
    # theta0 reproduces the reference extension: zero correction
    ref = tr.krein_correction(t, tr.BoundaryCondition.theta0(), -1 + 0j)
    assert np.abs(ref.kernel(x, x)).max() == 0.0


def test_gamma_translation_dense(toy):
    t = toy.as_triplet()
    assert tr.gamma_translation_residual(t, 1.5 + 2j, 1j) < 1e-12


def test_gamma_translation_kernel_needs_oracle():
    t = build_triplet(schrodinger_right())
    with pytest.raises(tr.RepresentationError):
        tr.gamma_translation_residual(t, 1j, 2 + 1j)


def test_weyl_derivative_analytic_and_numeric(toy):
    t = build_triplet(schrodinger_right(v=1.0))
    assert t.weyl.derivative is not None
    a = -2.0
    analytic = tr.weyl_derivative(t.weyl, a)
    assert abs(analytic[0, 0] - hg.dm_schrodinger_halfline(a, 1.0)) < 1e-14
    # dense toy has no analytic derivative: central difference fallback
    tw = toy.as_triplet().weyl
    assert tw.derivative is None
    a = float(np.linalg.eigvalsh(toy.A0).min() - 2.0)
    h = 1e-6 * (1 + abs(a))
    manual = (tw(a + h) - tw(a - h)) / (2 * h)
    assert np.abs(tr.weyl_derivative(tw, a) - manual).max() < 1e-13


def test_normalize_boundary_maps_matches_weyl_transform():
    rng = np.random.default_rng(5)
    d, n = 2, 6
    G0 = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    G1 = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    W = rng.standard_normal((d, d))
    R = W @ W.T + d * np.eye(d)  # positive definite
    Q = rng.standard_normal((d, d))
    Q = (Q + Q.T) / 2
    B = rng.standard_normal((d, d))
    B = (B + B.T) / 2
    G0t, G1t = tr.normalize_boundary_maps(G0, G1, R, Q)
    Rinv = np.linalg.inv(R)
    Bt = Rinv @ (B - Q) @ Rinv
    # the transformed condition is the R^{-1}-image of the original one,
    # hence has the same kernel
    lhs = G1t - Bt @ G0t
    rhs = Rinv @ (G1 - B @ G0)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_direct_sum_normalized_is_normalized():
    blocks = [build_triplet(schrodinger_right(v=float(k))) for k in range(4)]
    t = tr.direct_sum_normalized(blocks)
    assert t.normalized
    assert t.dim == 4
    assert np.abs(t.weyl(1j) - 1j * np.eye(4)).max() < 1e-12
    # blocks stay decoupled away from the anchor
    M = t.weyl(-3 + 0.25j)
    off = M - np.diag(np.diag(M))
    assert np.abs(off).max() == 0.0


def test_direct_sum_plain_is_diagnostic_only():
    blocks = [build_triplet(schrodinger_right(v=float(k))) for k in range(3)]
    t = tr.direct_sum_plain(blocks)
    assert t.diagnostic_only
    with pytest.raises(tr.DiagnosticTripletError):
        tr.krein_correction(t, tr.BoundaryCondition.theta1(), 1j)
    # raw diagonal blocks are untouched
    M = t.weyl(1j)
    assert abs(M[2, 2] - hg.m_schrodinger_halfline(1j, 2.0)) < 1e-14


@pytest.fixture(scope="module")
def dense_toys():
    # dense summands with d = 1 and 2, so their direct sums carry BlockDiagImage
    return [make_dense_toy(5, 1, seed=3).as_triplet(),
            make_dense_toy(6, 2, seed=20250814).as_triplet()]


@pytest.mark.parametrize("build", ["normalized", "plain-then-normalize"])
@pytest.mark.parametrize("z,zeta", [(1j, -2 + 0.5j), (1.5 + 2j, 1j)])
def test_block_diag_gamma_mlambda_identity(dense_toys, build, z, zeta):
    # the Gram matrix of BlockDiagImage, and in the second build its
    # postmultiply by normalize's weight, against the Weyl function
    if build == "normalized":
        t = tr.direct_sum_normalized(dense_toys)
    else:
        t = tr.normalize(tr.direct_sum_plain(dense_toys))
    assert isinstance(t.gamma(z), tr.BlockDiagImage)
    assert np.abs(t.weyl(1j) - 1j * np.eye(3)).max() < 1e-10
    assert tr.herglotz_identity_residual(t, z, zeta) < 1e-10


def test_block_diag_image_refuses_coupling_postmultiplier(dense_toys):
    image = tr.direct_sum_plain(dense_toys).gamma(1j)
    C = np.eye(3, dtype=complex)
    C[0, 2] = 0.5
    with pytest.raises(tr.RepresentationError, match="block-diagonal"):
        image.postmultiply(C)


def test_regularize_at_real_point():
    toys = [make_dense_toy(5, 1, seed=s) for s in (3, 4)]
    a = min(float(np.linalg.eigvalsh(t.A0).min()) for t in toys) - 1.5
    reg = tr.regularize_at_real_point([t.as_triplet() for t in toys], a)
    assert np.abs(reg.weyl(a)).max() < 1e-10
    Mp = tr.weyl_derivative(reg.weyl, a)
    assert np.abs(Mp - np.eye(2)).max() < 1e-6


def test_regularize_rejects_point_outside_gap():
    t = build_triplet(schrodinger_right())
    with pytest.raises(tr.GapViolationError):
        tr.regularize_at_real_point([t], 2.0)  # inside the essential spectrum


def _scalar_triplet(m):
    return tr.BoundaryTriplet(
        weyl=tr.WeylFunction(1, lambda z: np.array([[m(z)]])),
        gamma=tr.GammaField(1, lambda z: tr.DenseMatrix(np.ones((1, 1)))),
    )


def test_direct_sum_normalized_names_failing_block():
    # Im M(i) = 0 in the second summand: no normalization weight exists
    blocks = [build_triplet(schrodinger_right()), _scalar_triplet(lambda z: 1.0)]
    with pytest.raises(tr.NotPositiveDefiniteError, match="block 1"):
        tr.direct_sum_normalized(blocks)


def test_regularize_names_failing_block():
    # M(a) = i is not Hermitian: a is in no real gap of the second summand
    right = build_triplet(schrodinger_right())
    blocks = [right, _scalar_triplet(lambda z: 1j)]
    with pytest.raises(tr.GapViolationError, match="block 1"):
        tr.regularize_at_real_point(blocks, -1.0)
    # a = 2 lies on the half line's cut: M cannot be evaluated there
    blocks = [_scalar_triplet(lambda z: z), right]
    with pytest.raises(tr.GapViolationError, match="block 1: cannot evaluate"):
        tr.regularize_at_real_point(blocks, 2.0)


def test_kernel_values_check_domain():
    half = build_triplet(schrodinger_right()).gamma(-1.0)
    assert half.values(np.array([0.0, 1.0])).shape == (2, 1, 1)
    with pytest.raises(ValueError, match="outside the kernel domain"):
        half.values(np.array([1.0, -40.0]))
    with pytest.raises(tr.DomainError) as info:
        half.values(np.array([-1e-12]))
    assert info.value.x == -1e-12
    # interval endpoints are inside the domain; anything beyond is not
    box = build_triplet(schrodinger_interval()).gamma(2 + 1j)
    assert np.isfinite(box.values(np.array([-1.0, 0.0, 1.0]))).all()
    with pytest.raises(tr.DomainError):
        box.values(np.array([1.0 + 1e-12]))


def test_friedrichs_and_lsb_probes():
    # scalar half line: m(x) = -sqrt(-x) below the spectrum
    t = build_triplet(schrodinger_right())
    x_grid = -np.logspace(0.0, 4.0, 60)
    report = tr.friedrichs_probe(t.weyl, x_grid, [np.array([1.0])])
    assert report["friedrichs"] is True
    assert report["krein"] is False
    lsb = tr.lsb_uniform_probe(t.weyl, (1, 2, 3), x_grid)
    for entry in lsb["levels"]:
        assert entry["found"]
        assert entry["x_N"] <= -entry["N"] ** 2 + 1e-9


def test_probe_grids_must_decrease():
    t = build_triplet(schrodinger_right())
    with pytest.raises(ValueError):
        tr.friedrichs_probe(t.weyl, np.array([-1.0, -0.5]), [np.array([1.0])])
    with pytest.raises(ValueError):
        tr.lsb_uniform_probe(t.weyl, (1,), np.array([-1.0, -0.5]))
