"""Boundary triplets: Krein formula, normalization, probes, direct sums."""

import cmath

import numpy as np
import pytest

from weyltriplets import herglotz as hg
from weyltriplets import jcdot as jd
from weyltriplets import spectral as sp
from weyltriplets import tensor as tn
from weyltriplets import triplets as tr
from weyltriplets.oracle import make_dense_toy
from weyltriplets import models1d as m1
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
    n = t.dim
    assert np.abs(t.weyl(1j) - 1j * np.eye(n)).max() < 1e-10
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
    # a payload that is not a square matrix is refused by its shape, not
    # broadcast against its transpose
    for shape in ((1, 2), (2, 2, 2), (2, 3)):
        msg = r"must be a square matrix, got shape \(%s\)" % ", ".join(map(str, shape))
        with pytest.raises(ValueError, match=msg):
            tr.BoundaryCondition.operator(np.ones(shape))


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


def test_krein_correction_needs_a_d_by_d_operator():
    # a 1x1 B must not broadcast over the d = 2 contact, nor a 3x3 one fail
    # inside numpy: both are refused with both shapes named
    t = build_triplet(full_line_contact())
    for n in (1, 3):
        bc = tr.BoundaryCondition.operator(0.7 * np.eye(n))
        msg = r"B has shape \(%d, %d\), but M\(z\) has shape \(2, 2\)" % (n, n)
        with pytest.raises(ValueError, match=msg):
            tr.krein_correction(t, bc, -1 + 0.5j)


@pytest.mark.parametrize("call, error, match", [
    # the two kernels' decay rates sum to 8.5e-21, below MIN_KERNEL_DECAY
    (lambda: tr.herglotz_identity_residual(build_triplet(schrodinger_right()),
                                           1 + 1e-20j, 2 + 1e-20j),
     tr.QuadratureError, "too slow for Gram quadrature"),
    (lambda: tr.BoundaryCondition("theta2"), ValueError,
     "unknown boundary-condition variant 'theta2'"),
    (lambda: tr.BoundaryCondition("theta0", np.eye(1)), ValueError,
     "'theta0' takes no operator payload"),
    (lambda: tr.BoundaryCondition("theta1", np.eye(1)), ValueError,
     "'theta1' takes no operator payload"),
    # N = 1 has a 4 x 4 boundary space
    (lambda: jd.jacobi_reorder(np.eye(3), jd.JCModel(
        0.0, 0.0, jd.TwoLevelDot(0.1, 0.9, 0.2), 0.7, jd.FockTruncation(1))),
     ValueError, "does not match the model truncation"),
], ids=["gram-decay", "unknown-variant", "theta0-payload", "theta1-payload",
        "jacobi-size"])
def test_guards_refuse_their_inputs(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _dense_resolvent(toy):
    """(U, z, grid) -> (A0 - z)^{-1} U, the toy's reference resolvent."""
    return lambda U, z, grid: np.linalg.solve(toy.A0 - z * np.eye(toy.n), U)


def test_gamma_translation_dense(toy):
    t = toy.as_triplet()
    assert tr.gamma_translation_residual(t, 1.5 + 2j, 1j, _dense_resolvent(toy)) < 1e-12


def test_gamma_translation_kernel_needs_oracle(toy):
    # a kernel image is sampled on the oracle's grid: none given is refused,
    # and so is a spinor-valued kernel
    resolvent = _dense_resolvent(toy)
    with pytest.raises(tr.RepresentationError, match="needs a grid"):
        tr.gamma_translation_residual(build_triplet(schrodinger_right()), 1j, 2 + 1j,
                                      resolvent)
    with pytest.raises(tr.RepresentationError, match="dense or scalar-kernel"):
        tr.gamma_translation_residual(build_triplet(m1.dirac_right()), 1j, 2 + 1j,
                                      resolvent, grid=np.array([0.5]))


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


# Direct sums of the shifted triplets Pi_A - lambda_k over the atoms of T are
# the tensor constructions; the tests below run them on dense-toy bases.
_ATOMS = sp.SpectralMeasurePP.from_levels([0.0, 1.5, 4.0], dims=[1, 2, 1])


def _plain_dense_sum(base, measure):
    """The plain tensor sum with its gamma image as one DenseMatrix."""
    # P_k projects the total space onto atom k's slots (order of H (x) T)
    projectors = [np.diag(np.isin(np.arange(measure.total_dim), sl))
                  for sl in measure.slots()]

    def gamma(z):
        return tr.DenseMatrix(sum(
            np.kron(base.gamma(z - lam).mat, P)
            for (lam, _), P in zip(measure.atoms, projectors)
        ))

    return tr.BoundaryTriplet(
        weyl=tn.tensor_weyl_bounded(base.weyl, measure), gamma=gamma
    )


@pytest.mark.parametrize("build", ["normalized", "plain-then-normalize"])
@pytest.mark.parametrize("z,zeta", [(1j, -2 + 0.5j), (1.5 + 2j, 1j)])
def test_block_diag_gamma_mlambda_identity(toy, build, z, zeta):
    # the Gram of TensorKernelImage over each atom's DenseMatrix.postmultiply,
    # and in the second build the Gram of one dense image postmultiplied by
    # normalize's weight, against the Weyl function
    normalized = tn.tensor_normalized(toy.as_triplet(), _ATOMS).assembled
    if build == "normalized":
        t, image = normalized, tn.TensorKernelImage
    else:
        t, image = tr.normalize(_plain_dense_sum(toy.as_triplet(), _ATOMS)), tr.DenseMatrix
        assert np.abs(t.weyl(z) - normalized.weyl(z)).max() < 1e-12
    assert isinstance(t.gamma(z), image)
    assert np.abs(t.weyl(1j) - 1j * np.eye(t.dim)).max() < 1e-10
    assert tr.herglotz_identity_residual(t, z, zeta) < 1e-12


def test_regularize_at_real_point():
    # tensor_positive on dense toys anchored below their spectra: M'(a) by
    # the central difference of weyl_derivative
    for toy in (make_dense_toy(5, 1, seed=s) for s in (3, 4)):
        a = float(np.linalg.eigvalsh(toy.A0).min()) - 1.5
        reg = tn.tensor_positive(toy.as_triplet(), _ATOMS, a).assembled
        assert np.abs(reg.weyl(a)).max() == 0.0
        Mp = tr.weyl_derivative(reg.weyl, a)
        assert np.abs(Mp - np.eye(reg.dim)).max() < 1e-6


def _scalar_base(m):
    return tr.BoundaryTriplet(
        weyl=tr.WeylFunction(1, lambda z: np.array([[m(complex(z))]])),
        gamma=lambda z: tr.DenseMatrix(np.ones((1, 1))),
    )


def _cut_below(z):
    if z.real < -2:
        raise ValueError("on the cut")
    return z.real


def test_regularize_names_failing_block():
    # each base is fine at a - 0 = -1 and fails at a - 2 = -3 only: the
    # failing atom is named by its lambda
    atoms = sp.SpectralMeasurePP.from_levels([0.0, 2.0])
    complex_below = _scalar_base(lambda z: 1j if z.real < -2 else z.real)
    with pytest.raises(tr.GapViolationError, match=r"M\(a - 2\) is not Hermitian"):
        tn.tensor_positive(complex_below, atoms, -1.0)
    with pytest.raises(tr.GapViolationError, match=r"cannot evaluate M at a - 2 = -3"):
        tn.tensor_positive(_scalar_base(_cut_below), atoms, -1.0)


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


def _trig_arg(spec, z):
    """+-(w d), or +-(k d) for Dirac: the tan/cot argument, by cmath."""
    if spec.family == "dirac-interval":
        s = 0.5 * spec.c ** 2
        return cmath.sqrt(z * z - s * s) / spec.c * spec.half_length
    return cmath.sqrt(z - spec.v) * spec.half_length


def _at_trig_arg(spec, arg):
    """A z whose tan/cot argument is ``arg``; off the real axis for Dirac."""
    k = arg / spec.half_length
    if spec.family == "dirac-interval":
        return cmath.sqrt((spec.c * k) ** 2 + (0.5 * spec.c ** 2) ** 2) + 1e-300j
    return spec.v + k * k


_GRID_Z = [1j, -2 + 0.5j, 1.5 + 2j, 3 - 1e-3j, -1e6 + 1e-300j]
_GRID_SPECS = {
    "schrodinger-right": m1.schrodinger_right(v=0.3),
    "schrodinger-left": m1.schrodinger_left(v=0.3),
    "schrodinger-interval": m1.schrodinger_interval(v=0.2, a=0.0, b=1.0),
    "dirac-right": m1.dirac_right(c=1.2),
    "dirac-interval": m1.dirac_interval(c=1.2, a=-1.0, b=1.0),
    "full-line-contact": m1.full_line_contact(1.0, 0.5),
}
# per family: the points of its own branches, besides _GRID_Z
_GRID_EXTRA = {
    "schrodinger-right": [0.3 - 1e-12j, 7 + 1e-300j, -5 + 0j],
    "schrodinger-left": [0.3 - 1e-12j, 7 + 1e-300j, -5 + 0j],
    "full-line-contact": [0.75 + 1e-300j, 0.5 - 1e-12j, -5 + 0j],
    # the gap, with its branch point c^2/2, where k1 is a numpy scalar
    "dirac-right": [0.3 + 0j, -0.5 + 0j, 0.72 + 0j],
    # series, saturation and just outside the pole guard, sorted below
    "schrodinger-interval": [0.2 + 1e-13j, 0.2 + 0j, 0.2 + 1e-12, 0.2 - 1e-13j,
                             -1e4 + 1j, 1e8j, -1e300 + 0j, -5 + 0j],
    "dirac-interval": [0.72 + 1e-13j, -0.72 + 1e-13j, 0.72 + 0j, 100j, 1e6 + 1e6j,
                       -1e3 + 1e3j],
}
_POLE_ARGS = [np.pi / 2 + 1.5e-10j, np.pi / 2 + 1.5e-10, np.pi - 1.5e-10j,
              5 * np.pi / 2 + 1.5e-10j, 2 * np.pi - 1.5e-10]


@pytest.mark.parametrize("family", m1.FAMILY_TABLE)
def test_weyl_grid_matches_pointwise_bitwise(family):
    spec = _GRID_SPECS[family]
    zs = _GRID_Z + _GRID_EXTRA[family]
    if spec.family.endswith("interval"):
        zs += [_at_trig_arg(spec, a) for a in _POLE_ARGS]
        branch = {"series": 0, "saturated": 0, "near pole": 0}
        for z in zs:
            arg = _trig_arg(spec, z)
            dist = abs(arg - np.pi / 2 * round(arg.real / (np.pi / 2)))
            branch["series"] += abs(arg) < hg._SERIES_CUTOFF
            branch["saturated"] += abs(arg.imag) > 20.0
            branch["near pole"] += hg.POLE_GUARD < dist < 2 * hg.POLE_GUARD
        assert min(branch.values()) >= 3, branch
    weyl = build_triplet(spec).weyl
    assert weyl.diagonal
    got = weyl.grid(zs)
    want = np.array([weyl(z) for z in zs])
    assert got.shape == want.shape == (len(zs), weyl.dim, weyl.dim)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_weyl_grid_of_a_dense_weyl_function_stacks_the_points(toy):
    weyl = toy.as_triplet().weyl
    assert not weyl.diagonal
    zs = list(Z_POINTS) + [-0.5 - 3j]
    got = weyl.grid(zs)
    want = np.array([weyl(z) for z in zs])
    assert got.shape == (len(zs), 2, 2)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_diagonal_weyl_function_checks_its_length():
    weyl = tr.WeylFunction(2, lambda z: [z], diagonal=True)
    with pytest.raises(ValueError, match=r"returned shape \(1, 1\), expected \(2, 2\)"):
        weyl(1j)
    with pytest.raises(ValueError):
        weyl.grid([1j, 2j])
    assert weyl.grid([]).shape == (0, 2, 2)


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
