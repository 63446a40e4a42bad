"""Model catalogue: boundary data, defect equations, pole catalogues."""

from collections import Counter

import numpy as np
import pytest

from weyltriplets import herglotz as hg
from weyltriplets import models1d as m1
from weyltriplets import oracle as orc
from weyltriplets import triplets as tr

ALL_SPECS = [
    m1.schrodinger_right(v=0.3),
    m1.schrodinger_left(v=0.3),
    m1.schrodinger_interval(v=0.2, a=0.0, b=1.0),
    m1.dirac_right(c=1.2),
    m1.dirac_interval(c=1.2, a=-1.0, b=1.0),
    m1.full_line_contact(1.0, 0.5),
]
IDS = [s.family for s in ALL_SPECS]


def test_family_registry():
    assert set(m1.FAMILIES) == {
        "schrodinger-right", "schrodinger-left", "schrodinger-interval",
        "dirac-right", "dirac-interval", "full-line-contact",
    }
    for spec in ALL_SPECS:
        assert spec.family in m1.FAMILIES


def test_spec_validation():
    with pytest.raises(ValueError):
        m1.ModelSpec(family="nope")
    with pytest.raises(ValueError):
        m1.schrodinger_interval(a=1.0, b=-1.0)
    with pytest.raises(ValueError):
        m1.ModelSpec(family="schrodinger-interval")  # missing endpoints
    with pytest.raises(ValueError):
        m1.dirac_right(c=0.0)
    # b - a overflows although both endpoints are finite
    for factory in (m1.schrodinger_interval, m1.dirac_interval):
        with pytest.raises(ValueError, match="^interval length b - a overflows"):
            factory(a=-1e308, b=1e308)
    # b - a > 0 is the least subnormal, whose half rounds to 0
    for factory in (m1.schrodinger_interval, m1.dirac_interval):
        with pytest.raises(ValueError, match="^interval half-length"):
            factory(a=0.0, b=5e-324)


def test_midpoint_is_bitwise_the_halved_sum_where_that_is_finite():
    # 0.5 a + 0.5 b equals 0.5 (a + b) bit for bit where the latter is finite,
    # but may differ by one subnormal unit with an endpoint below 2^-1020
    rng = np.random.default_rng(24)
    mag = np.ldexp(rng.uniform(1.0, 2.0, (20000, 2)), rng.integers(-1020, 1024, (20000, 2)))
    pairs = np.sort(mag * rng.choice([-1.0, 1.0], (20000, 2)), axis=1)
    with np.errstate(over="ignore"):
        keep = np.isfinite(pairs.sum(axis=1)) & np.isfinite(pairs[:, 1] - pairs[:, 0])
    assert keep.sum() > 15000
    for a, b in pairs[keep].tolist():
        got = m1.schrodinger_interval(a=a, b=b).midpoint
        assert np.float64(got).view(np.uint64) == np.float64(0.5 * (a + b)).view(np.uint64)
    # the sum overflows but the midpoint does not
    assert m1.dirac_interval(a=1e308, b=1.5e308).midpoint == 1.25e308


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
# the last three reach the exp-scaled forms of the interval kernels
@pytest.mark.parametrize("z", [2 + 1j, -1 + 0.5j, 1e4j, 1e7j, 5 + 1e6j])
def test_gamma_boundary_data_is_identity_and_weyl(spec, z):
    G0, G1 = m1.gamma_boundary_data(spec, z)
    t = m1.build_triplet(spec)
    n = t.dim
    assert np.abs(np.asarray(G0) - np.eye(n)).max() < 1e-12
    assert np.abs(np.asarray(G1) - t.weyl(z)).max() < 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
@pytest.mark.parametrize("z", [2 + 1j, -1 - 0.5j])
def test_kernel_width_is_the_weyl_dimension(spec, z):
    # a kernel's declared width d, the triplet's and the sampled columns'
    # agree, also after postmultiplying by a d x d and a d x 1 matrix
    t = m1.build_triplet(spec)
    d = t.dim
    kern = m1._gamma_kernel(spec, z)
    x = np.clip([-0.5, 0.0, 0.5], *kern.domain)
    assert kern.dim == t.gamma(z).dim == d
    assert kern.columns(x).shape[2] == d
    C = np.arange(1.0, d * d + 1).reshape(d, d) + 1j
    for post, width in ((C, d), (C[:, :1], 1)):
        image = kern.postmultiply(post)
        assert image.dim == image.columns(x).shape[2] == width


@pytest.mark.parametrize("spec, z", [
    (m1.schrodinger_interval(v=0.2, a=-1.0, b=1.0), 0.2 + 2j * 349.9 ** 2),
    (m1.schrodinger_interval(v=0.0, a=-3.0, b=0.5), 7 + 2j * (349.9 / 1.75) ** 2),
    (m1.dirac_interval(c=1.0, a=-1.0, b=1.0), 349.9j),
    (m1.dirac_interval(c=1.7, a=-0.3, b=2.0), 3 + 1.7j * 349.9 / 1.15),
], ids=["schrodinger", "schrodinger-offset", "dirac", "dirac-offset"])
def test_interval_kernel_scaled_forms_match_direct_below_cutoff(monkeypatch, spec, z):
    # Im(w) dd is just below the cutoff, so the default is the direct form;
    # a zero cutoff forces the exp-scaled form at the same point
    def columns(cutoff):
        monkeypatch.setattr(m1, "_SCALED_CUTOFF", cutoff)
        kern = m1.build_triplet(spec).gamma(z)
        x = np.linspace(spec.a, spec.b, 201)
        fns = [kern.columns] + ([kern.columns_dx] if kern.columns_dx else [])
        return [f(x) for f in fns]

    direct, scaled = columns(m1._SCALED_CUTOFF), columns(0.0)
    for d, s in zip(direct, scaled):
        # relative to each column's largest value, which sits at an end
        scale = np.abs(d).max(axis=0)
        assert np.all(np.abs(d - s).max(axis=0) <= 1e-14 * scale)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_weyl_conjugate_symmetry(spec):
    t = m1.build_triplet(spec)
    for z in (1j, -2 + 0.5j, 1.5 + 2j):
        M = t.weyl(z)
        assert np.abs(t.weyl(np.conj(z)) - M.conj().T).max() < 1e-12
        im = (M - M.conj().T) / 2j
        assert np.linalg.eigvalsh(im).min() > 0


@pytest.mark.parametrize(
    "spec,grid",
    [
        (m1.schrodinger_right(v=0.5), np.linspace(0.0, 20.0, 4001)),
        (m1.schrodinger_left(v=-0.2, a=0.25), np.linspace(-19.75, 0.25, 4001)),
        (m1.schrodinger_interval(v=0.0, a=0.0, b=1.0),
         np.linspace(0.0, 1.0, 2001)),
        (m1.dirac_right(c=1.0), np.linspace(0.0, 20.0, 4001)),
        (m1.dirac_interval(c=1.0, a=-1.0, b=1.0),
         np.linspace(-1.0, 1.0, 2001)),
        (m1.full_line_contact(1.0, 0.0), np.linspace(-15.0, 15.0, 6001)),
    ],
    ids=["halfline", "halfline-left", "interval", "dirac", "dirac-interval", "full-line"],
)
def test_defect_equation(spec, grid):
    assert m1.verify_defect_equation(spec, 2 + 1j, grid) < 1e-4


def test_defect_equation_needs_uniform_grid():
    bad = np.concatenate([np.linspace(0, 1, 100), np.linspace(1.1, 5, 100)])
    with pytest.raises(ValueError):
        m1.verify_defect_equation(m1.schrodinger_right(), 2 + 1j, bad)


@pytest.mark.parametrize(
    "spec", [m1.schrodinger_right(v=0.3), m1.schrodinger_left(v=-0.2, a=0.25),
             m1.full_line_contact(1.0, 0.5)],
    ids=["halfline", "halfline-left", "full-line"],
)
def test_mlambda_identity_by_quadrature(spec):
    t = m1.build_triplet(spec)
    z, zeta = 2 + 1j, -1 + 0.5j
    gram = t.gamma(zeta).gram(t.gamma(z))
    lhs = t.weyl(z) - np.conj(t.weyl(zeta)).T
    assert np.abs(lhs - (z - np.conj(zeta)) * gram).max() < 1e-8


@pytest.mark.parametrize("spec, coefficient, root, scalar_points", [
    (m1.schrodinger_interval(v=0.2, a=0.0, b=1.0), "m_interval", "sqrt_cut", 3),
    (m1.dirac_interval(c=1.2, a=-1.0, b=1.0), "m_dirac_interval", "dirac_k1", 7),
], ids=["schrodinger-interval", "dirac-interval"])
def test_interval_weyl_grid_takes_one_root_per_point(monkeypatch, spec, coefficient, root,
                                                     scalar_points):
    # the pair (m1, m2) of an interval comes from one coefficient call and
    # one wave number per z; the coefficient is looked up on herglotz when
    # the triplet is built, so it is wrapped first.  The Schrodinger interval
    # takes its grid in one array call, and the scalar call only at the three
    # points its array form leaves: 0.3 (real w d, the pole test's band),
    # 0.2 + 1e-13j (the series) and 1e8j (saturated tan and cot)
    calls = Counter()

    def counted(name):
        fn = getattr(hg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(hg, name, wrapper)

    counted(coefficient)
    counted(root)
    zs = [1j, -2 + 0.5j, 1.5 + 2j, 3 - 1e-3j, 0.3 + 0j, 0.2 + 1e-13j, 1e8j]
    m1.build_triplet(spec).weyl.grid(zs)
    assert calls == {coefficient: scalar_points, root: scalar_points}


def test_interval_pole_catalogue_locates_weyl_poles():
    spec = m1.schrodinger_interval(v=0.2, a=0.0, b=1.0)
    poles = m1.interval_weyl_poles(spec, count=3)
    assert len(poles["branch1"]) == len(poles["branch2"]) == 3
    dd = spec.half_length
    for branch, arr in ((1, poles["branch1"]), (2, poles["branch2"])):
        for p in arr:
            # the reciprocal of the Weyl branch vanishes linearly at a
            # pole; locate its root from two nearby samples
            eps = 1e-6 * max(1.0, abs(p))
            f1 = 1.0 / hg.m_interval(p - eps, spec.v, dd)[branch - 1]
            f2 = 1.0 / hg.m_interval(p - 2 * eps, spec.v, dd)[branch - 1]
            root = (p - eps) + f1 * eps / (f2 - f1)
            assert abs(root - p) < 1e-7 * max(1.0, abs(p))
    with pytest.raises(ValueError):
        m1.interval_weyl_poles(m1.schrodinger_right())


def test_krein_correction_matches_fd_oracle():
    spec = m1.schrodinger_right()
    t = m1.build_triplet(spec)
    theta, z = 1.0, -1.0 + 0j
    xs = np.array([0.25, 0.5, 1.0, 2.0])
    corr = tr.krein_correction(
        t, tr.BoundaryCondition.operator(np.array([[theta]])), z
    )
    K = corr.kernel(xs, xs)
    fd = orc.fd_resolvent_difference(orc.FDGrid(5e-3, 30.0), theta, z, xs, xs)
    assert np.abs(K - fd).max() / np.abs(K).max() < 1e-2


def test_eval_gamma_on_grid_samples_defect_elements():
    spec = m1.schrodinger_right(v=0.0)
    t = m1.build_triplet(spec)
    z = 2 + 1j
    grid = np.linspace(0.0, 3.0, 7)
    vals = t.gamma(z).values(grid, np.array([1.0]))[:, 0]
    w = hg.sqrt_cut(z)
    assert np.abs(vals - np.exp(1j * w * grid)).max() < 1e-12


def test_full_line_contact_sides():
    t = m1.build_triplet(m1.full_line_contact(2.0, 0.0))
    M = t.weyl(1j)
    assert abs(M[0, 0] - hg.m_schrodinger_halfline(1j, 2.0)) < 1e-14
    assert abs(M[1, 1] - hg.m_schrodinger_halfline(1j, 0.0)) < 1e-14
    assert abs(M[0, 1]) == 0.0 and abs(M[1, 0]) == 0.0
