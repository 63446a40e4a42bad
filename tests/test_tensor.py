"""Tensor-sum constructions over pure-point measures."""

import numpy as np
import pytest

from weyltriplets import herglotz as hg
from weyltriplets import spectral as sp
from weyltriplets import tensor as tn
from weyltriplets import triplets as tr
from weyltriplets.oracle import dense_spectral_integral
from weyltriplets.models1d import (
    build_triplet,
    full_line_contact,
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
