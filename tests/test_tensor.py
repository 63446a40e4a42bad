"""Tensor-sum constructions over pure-point measures."""

import numpy as np
import pytest

from weyltriplets import herglotz as hg
from weyltriplets import jcdot as jd
from weyltriplets import spectral as sp
from weyltriplets import tensor as tn
from weyltriplets import triplets as tr
from weyltriplets.oracle import dense_spectral_integral
from weyltriplets.models1d import (
    build_triplet,
    dirac_right,
    full_line_contact,
    schrodinger_right,
)

Z_POINTS = (1j, -2 + 0.5j, 1.5 + 2j)


@pytest.fixture(scope="module")
def base():
    return build_triplet(full_line_contact(1.0, 0.0))


@pytest.fixture(scope="module")
def measure():
    return sp.SpectralMeasurePP.from_levels([0.0, 1.5, 4.0], dims=[1, 2, 1])


def test_raw_assembly_matches_dense_summation(base, measure):
    # boundary-outer assembly vs the atom-outer dense loop, related by
    # the slot permutation perm[i*total + off_k + t] = off_k*d + i*dim_k + t
    raw = tn.tensor_weyl_bounded(base.weyl, measure)
    d, total = base.dim, measure.total_dim
    offs = measure.block_offsets()
    bdims = [dk for _, dk in measure.atoms]
    perm = np.empty(d * total, dtype=int)
    for k in range(len(bdims)):
        for i in range(d):
            for t in range(bdims[k]):
                perm[i * total + offs[k] + t] = offs[k] * d + i * bdims[k] + t
    for z in Z_POINTS:
        dense = dense_spectral_integral(
            lambda lam: base.weyl(z - lam), measure.lambdas, bdims
        )
        assert np.abs(raw(z) - dense[np.ix_(perm, perm)]).max() == 0.0


def test_raw_weyl_is_the_spectral_integral(base, measure):
    raw = tn.tensor_weyl_bounded(base.weyl, measure)
    for z in Z_POINTS:
        omega = sp.OperatorFunctionOnR(base.dim, lambda lam: base.weyl(z - lam))
        assert np.array_equal(raw(z), sp.integral_pp(omega, measure))


def test_raw_gamma_mlambda_identity(base, measure):
    weyl = tn.tensor_weyl_bounded(base.weyl, measure)
    gamma = tn.tensor_gamma_bounded(base.gamma, measure)
    t = tr.BoundaryTriplet(weyl=weyl, gamma=gamma)
    assert tr.herglotz_identity_residual(t, 1j, -2 + 0.5j) < 1e-10


def test_normalized_anchor_and_idempotence(base, measure):
    tt = tn.tensor_normalized(base, measure)
    assert tt.assembled.normalized
    n = tt.dim
    assert np.abs(tt.assembled.weyl(1j) - 1j * np.eye(n)).max() == 0.0
    assert tt.assembled.check_normalized() < 1e-10
    again = tr.normalize(tt.assembled)
    for z in Z_POINTS:
        assert np.abs(again.weyl(z) - tt.assembled.weyl(z)).max() < 1e-12


def test_normalized_boundary_transform_identity(base, measure):
    # M~ = G1 M_raw G1 - G2 G1 with G0 = R, G1 = R^{-1}, G2 = R^{-1} Q
    tt = tn.tensor_normalized(base, measure)
    raw = tn.tensor_weyl_bounded(base.weyl, measure)
    assert np.abs(tt.G0 @ tt.G1 - np.eye(tt.dim)).max() < 1e-12
    for z in Z_POINTS:
        lhs = tt.assembled.weyl(z)
        rhs = tt.G1 @ raw(z) @ tt.G1 - tt.G2 @ tt.G1
        assert np.abs(lhs - rhs).max() < 1e-12


def test_normalized_mlambda_identity(base, measure):
    tt = tn.tensor_normalized(base, measure)
    for z, zeta in ((1j, -2 + 0.5j), (1.5 + 2j, 1j)):
        assert tr.herglotz_identity_residual(tt.assembled, z, zeta) < 1e-12


def test_single_atom_reduction(base):
    # one atom at 0 reproduces the normalized base triplet exactly
    one = sp.SpectralMeasurePP.from_levels([0.0])
    tt = tn.tensor_normalized(base, one)
    nb = tr.normalize(base)
    for z in Z_POINTS:
        assert np.abs(tt.assembled.weyl(z) - nb.weyl(z)).max() < 1e-13


def test_unbounded_source_needs_window(base):
    m = sp.SpectralMeasurePP.from_levels(range(3), source_unbounded=True)
    with pytest.raises(ValueError, match="window"):
        tn.tensor_weyl_bounded(base.weyl, m)
    with pytest.raises(ValueError, match="window"):
        tn.tensor_normalized(base, m)
    windowed = sp.SpectralMeasurePP.from_levels(
        range(3), window=(0.0, 2.0), source_unbounded=True
    )
    tn.tensor_normalized(base, windowed)  # certified slice is accepted


def test_positive_mode_real_anchor(base, measure):
    tt = tn.tensor_positive(base, measure, -3.0)
    assert not tt.assembled.normalized
    assert np.abs(tt.assembled.weyl(-3.0)).max() == 0.0
    D = tr.weyl_derivative(tt.assembled.weyl, -3.0)
    assert np.abs(D - np.eye(tt.dim)).max() < 1e-6
    with pytest.raises(ValueError):
        tn.tensor_positive(base, measure, 2.0)
    with pytest.raises(ValueError):
        tn.tensor_positive(
            base, sp.SpectralMeasurePP.from_levels([-1.0, 0.0]), -3.0
        )


def test_positive_mode_gap_violation():
    # a base whose Weyl function is not real on the real axis is rejected
    fake = tr.BoundaryTriplet(
        weyl=tr.WeylFunction(1, lambda z: np.array([[1j]])),
        gamma=tr.GammaField(1, lambda z: tr.DenseMatrix(np.ones((1, 1)))),
    )
    with pytest.raises(tr.GapViolationError):
        tn.tensor_positive(fake, sp.SpectralMeasurePP.from_levels([0.0]), -1.0)


def test_lkernel_exact_short_circuits(base):
    lk = tn.LKernel(base.weyl, "imag")
    assert np.array_equal(lk.at(1j, 2.0), 1j * np.eye(2))
    lkr = tn.LKernel(base.weyl, "real", anchor=-3.0)
    assert np.array_equal(lkr.at(-3.0, 2.0), np.zeros((2, 2)))
    # consistency off the anchor against the defining formula
    z, lam = -1 + 0.5j, 1.5
    M_i = base.weyl(1j - lam)
    from weyltriplets._linalg import herm_inv_sqrt, herm_part, imag_part

    W = herm_inv_sqrt(imag_part(M_i))
    want = W @ (base.weyl(z - lam) - herm_part(M_i)) @ W
    assert np.abs(lk.at(z, lam) - want).max() < 1e-14
    with pytest.raises(ValueError):
        tn.LKernel(base.weyl, "neither")
    with pytest.raises(ValueError):
        tn.LKernel(base.weyl, "real", anchor=1j)


def test_growth_certificate_slopes():
    lam = np.logspace(0, 4, 40)
    cert = tn.growth_certificate(lam, np.sqrt(1.0 + lam), 0.5)
    assert cert["dominates"]
    assert abs(cert["fitted_exponent"] - 0.5) < 0.05
    flat = tn.growth_certificate(lam, np.ones_like(lam), 0.0)
    assert flat["fitted_exponent"] == 0.0
    with pytest.raises(ValueError):
        tn.growth_certificate([0.0, 1.0], [1.0, 1.0], 1.0)


def test_weight_growth_certificates():
    wg = tn.weight_growth_certificates(lambda z: hg.m_schrodinger_halfline(z))
    for key in ("im_sqrt", "im_inv_sqrt"):
        assert wg[key]["dominates"]
        assert abs(wg[key]["fitted_exponent"] - 1.0) < 0.1
    assert wg["l_kernel"]["dominates"]
    assert abs(wg["l_kernel"]["fitted_exponent"]) < 0.1


def test_weight_growth_certificates_evaluate_each_point_once():
    # one m(i - lambda) and one m(z0 - lambda) per lambda
    calls = []
    wg = tn.weight_growth_certificates(
        lambda z: calls.append(z) or hg.m_schrodinger_halfline(z))
    assert len(calls) == len(set(calls)) == 2 * len(wg["lambdas"])


def test_friedrichs_krein_tensor_check(base):
    m = sp.SpectralMeasurePP.from_levels([0, 1, 2])
    rep = tn.friedrichs_krein_tensor_check(base, m)
    assert rep["friedrichs"] is True
    assert rep["krein"] is False
    assert rep["n_directions"] == 20
    assert len(rep["friedrichs_per_direction"]) == 20
    assert all(rep["friedrichs_per_direction"])
    for entry in rep["lsb"]:
        assert entry["found"]
        assert entry["x_N"] <= -entry["N"] ** 2 + 1e-9


# -- the Krein correction kernel of tensor images ---------------------------


def _dense_values(image, x):
    """The slot-expanded samples of gamma^S(z), shape (nx, total, d*total):
    column (i, s) is base column i of the atom owning slot s, on slot s
    only.  Built from the base images, not from ``values``."""
    d, total = image.boundary_dim, image.measure.total_dim
    out = np.zeros((len(x), total, d * total), dtype=complex)
    grid = out.reshape(len(x), total, d, total)
    for img, sl in zip(image.images, image.measure.slots()):
        grid[:, sl, :, sl] = img.values(x)[:, 0, :]
    return out


def _dense_kernel(corr, xs, ys):
    """The oracle: U W V* summed over every weight column of the dense samples."""
    U, V = _dense_values(corr.left, xs), _dense_values(corr.right, ys)
    UW = np.einsum("xsj,jk->xsk", U, corr.weight)
    K = np.einsum("xsk,ytk->xyst", UW, V.conj())
    return K[:, :, 0, 0] if K.shape[2:] == (1, 1) else K


XS = np.array([-1.3, -0.4, 0.0, 0.2, 0.9])
YS = np.array([-0.8, 0.5, 1.7])


def _jc_dot(N):
    return jd.JCModel(0.5, 0.2, jd.TwoLevelDot(0.1, 0.9, 0.2 + 0.3j), 0.7,
                      jd.FockTruncation(N))


@pytest.mark.parametrize("N", [0, 1, 8, 40])
def test_jc_correction_kernel_matches_dense_oracle(N):
    model = _jc_dot(N)
    bc = tr.BoundaryCondition.operator(model.tilde_CJC)
    for z in (-1.0 + 0.5j, 0.3 - 2.0j):
        corr = tr.krein_correction(model.lead_triplet, bc, z)
        K = corr.kernel(XS, YS)
        shape = (len(XS), len(YS)) + ((N + 1, N + 1) if N else ())
        assert K.shape == shape
        assert np.abs(K).max() > 0.0
        assert np.array_equal(K, _dense_kernel(corr, XS, YS))


@pytest.mark.parametrize("build", ["normalized", "bounded"])
def test_tensor_correction_kernel_matches_dense_oracle(base, build):
    # atoms of dimensions 1, 3 and 2: each atom's base columns repeat over
    # its slots, and the weight (B - M(z))^{-1} is dense across atoms
    measure = sp.SpectralMeasurePP.from_levels([0.0, 1.5, 4.0], dims=[1, 3, 2])
    if build == "normalized":
        triplet = tn.tensor_normalized(base, measure).assembled
    else:
        triplet = tr.BoundaryTriplet(
            weyl=tn.tensor_weyl_bounded(base.weyl, measure),
            gamma=tn.tensor_gamma_bounded(base.gamma, measure),
        )
    rng = np.random.default_rng(7)
    B = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for z in (-1.0 + 0.5j, 2.0 + 1.5j):
        corr = tr.krein_correction(triplet, tr.BoundaryCondition.operator(B + B.conj().T), z)
        K = corr.kernel(XS, YS)
        assert K.shape == (5, 3, 6, 6)
        assert np.array_equal(K, _dense_kernel(corr, XS, YS))
        g = corr.left.slot_samples(XS)
        assert g.shape == (5, 6, 1, 2)
        assert np.array_equal(g[:, 1:4], np.repeat(g[:, 1:2], 3, axis=1))


def test_tensor_correction_kernel_theta0_is_zero(base):
    measure = sp.SpectralMeasurePP.from_levels([0.0, 1.5, 4.0], dims=[1, 3, 2])
    triplet = tn.tensor_normalized(base, measure).assembled
    corr = tr.krein_correction(triplet, tr.BoundaryCondition.theta0(), -1.0 + 0.5j)
    K = corr.kernel(XS, YS)
    assert K.shape == (5, 3, 6, 6) and not K.any()
    assert np.array_equal(K, _dense_kernel(corr, XS, YS))
    jc = _jc_dot(8).lead_triplet
    K = tr.krein_correction(jc, tr.BoundaryCondition.theta0(), 1j).kernel(XS, YS)
    assert K.shape == (5, 3, 9, 9) and not K.any()


def test_tensor_correction_kernel_squeezes_one_slot():
    right = build_triplet(schrodinger_right())
    triplet = tn.tensor_normalized(right, sp.SpectralMeasurePP.from_levels([0.0])).assembled
    xs, ys = np.array([0.0, 0.4, 1.0, 2.2]), np.array([0.3, 1.5])
    corr = tr.krein_correction(triplet, tr.BoundaryCondition.operator([[0.7]]), 2.0 + 1.0j)
    K = corr.kernel(xs, ys)
    assert K.shape == (4, 2)
    assert np.array_equal(K, _dense_kernel(corr, xs, ys))
    # the same single-atom kernel as the normalized base triplet's
    plain = tr.krein_correction(tr.normalize(right), tr.BoundaryCondition.operator([[0.7]]),
                                2.0 + 1.0j).kernel(xs, ys)
    assert np.abs(K - plain).max() <= 1e-14 * np.abs(plain).max()


def test_tensor_contraction_needs_tensor_images(base):
    measure = sp.SpectralMeasurePP.from_levels([0.0, 1.0])
    image = tn.tensor_normalized(base, measure).assembled.gamma(1j)
    # a tensor image has no generic (nx, v, dim) sampler, and a tensor image
    # paired with a plain one does not match the weight, on either side
    assert not hasattr(image, "values")
    for left, right in ((image, base.gamma(1j)), (base.gamma(1j), image)):
        with pytest.raises(tr.RepresentationError):
            tr.KreinCorrection(1j, np.eye(4), left, right).kernel(XS, YS)


def test_dirac_tensor_kernel_matches_per_atom_products():
    # spinor base kernels (v = 2) over atoms of dimensions 1 and 2: the
    # kernel block of slots (s, t) is gamma_k(x) W_st gamma_l(y)*, with k, l
    # the atoms owning s and t and W_st the weight block of that slot pair
    spinor = build_triplet(dirac_right())
    measure = sp.SpectralMeasurePP.from_levels([0.0, 1.0], dims=[1, 2])
    triplet = tn.tensor_normalized(spinor, measure).assembled
    d, total = spinor.dim, measure.total_dim
    B = np.diag(np.linspace(-0.5, 0.7, d * total)) + 0.2
    corr = tr.krein_correction(triplet, tr.BoundaryCondition.operator(B), -1.0 + 0.5j)
    xs, ys = XS[2:], YS[1:]
    K = corr.kernel(xs, ys)
    assert K.shape == (3, 2, 6, 6)
    W = corr.weight.reshape(d, total, d, total)
    owner = [0, 1, 1]
    want = np.zeros_like(K)
    for s in range(total):
        g = corr.left.images[owner[s]].values(xs)  # (nx, 2, d)
        for t in range(total):
            h = corr.right.images[owner[t]].values(ys)  # (ny, 2, d)
            for a in range(len(xs)):
                for b in range(len(ys)):
                    want[a, b, 2 * s:2 * s + 2, 2 * t:2 * t + 2] = (
                        g[a] @ W[:, s, :, t] @ h[b].conj().T)
    assert np.abs(want).max() > 0.0
    assert np.abs(K - want).max() <= 1e-14 * np.abs(want).max()
