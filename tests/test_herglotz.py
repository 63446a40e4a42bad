"""Scalar coefficient catalogue: frozen values, symmetry, branch guards."""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyltriplets import herglotz as hg
from weyltriplets import models1d as m1

# Frozen reference values, computed independently (backward-recursion /
# closed-form checks in the finite-difference oracle) and pinned here.
FROZEN = [
    ("sqrt_cut(i)", lambda: hg.sqrt_cut(1j),
     0.7071067811865476 + 0.7071067811865475j),
    ("m(i)", lambda: hg.m_schrodinger_halfline(1j),
     -0.7071067811865475 + 0.7071067811865476j),
    ("m(-1)", lambda: hg.m_schrodinger_halfline(-1.0), -1.0 + 0j),
    ("m(i-3; v=1)", lambda: hg.m_schrodinger_halfline(-3 + 1j, v=1.0),
     -2.0153294551533825 + 0.24809839340235632j),
    ("m1(-1)", lambda: hg.m_interval(-1.0, 0.0, 1.0)[0],
     -0.7615941559557649 + 0j),
    ("m2(-1)", lambda: hg.m_interval(-1.0, 0.0, 1.0)[1],
     -1.3130352854993315 + 0j),
    ("k1 in gap", lambda: hg.dirac_k1(0.25, 1.0), 0.5773502691896257j),
    ("k1(i)", lambda: hg.dirac_k1(1j, 1.0),
     0.8944271909999159 + 0.447213595499958j),
    ("m_D(i)", lambda: hg.m_dirac(1j, 1.0),
     -0.447213595499958 + 0.8944271909999159j),
    ("m_D(0)", lambda: hg.m_dirac(0.0, 1.0), -1.0 + 0j),
    ("m_D1(i)", lambda: hg.m_dirac_interval(1j, 1.0, 1.0)[0],
     -0.36084948920405996 + 0.7216989784081198j),
    ("m_D2(i)", lambda: hg.m_dirac_interval(1j, 1.0, 1.0)[1],
     -0.5542477015587524 + 1.1084954031175045j),
]


@pytest.mark.parametrize("name,fn,want", FROZEN, ids=[f[0] for f in FROZEN])
def test_frozen_values(name, fn, want):
    assert abs(fn() - want) < 5e-15


def test_sqrt_cut_branch():
    # branch with the cut on [0, inf): continuous from above, Im >= 0 off the cut
    assert abs(hg.sqrt_cut(-1.0) - 1j) < 1e-15
    assert abs(hg.sqrt_cut(4.0 + 1e-12j) - 2.0) < 1e-6
    assert hg.sqrt_cut(-2.0 - 1.0j).imag > 0


@pytest.mark.parametrize("z", [1e308 - 1.4791286014180062e-283j,
                               1e308 + 1.4791286014180062e-283j])
def test_sqrt_cut_where_the_phase_underflows(z):
    # Im z / Re z underflows, so cmath.phase raises OverflowError there;
    # just below the cut the root is -sqrt(z), just above it sqrt(z)
    want = cmath.sqrt(z) if z.imag > 0 else -cmath.sqrt(z)
    assert abs(hg.sqrt_cut(z) - want) <= 1e-15 * abs(want)


# (Weyl function, diagonal index) of the seven scalars of the five one-model
# families, at v = 0.25, c = 1.3 and half-length 0.8
DIAGONAL_SCALARS = [
    (weyl, j) for weyl in (m1.build_triplet(spec).weyl for spec in (
        m1.schrodinger_right(v=0.25), m1.schrodinger_left(v=0.25),
        m1.schrodinger_interval(v=0.25, a=-0.8, b=0.8), m1.dirac_right(c=1.3),
        m1.dirac_interval(c=1.3, a=-0.8, b=0.8)))
    for j in range(weyl.dim)
]


@settings(max_examples=200, deadline=None)
@given(
    re=st.floats(-8, 8),
    im=st.floats(0.05, 8),
    idx=st.integers(0, len(DIAGONAL_SCALARS) - 1),
)
def test_conjugate_symmetry_and_positivity(re, im, idx):
    weyl, j = DIAGONAL_SCALARS[idx]
    z = complex(re, im)
    val = weyl(z)[j, j]
    assert val.imag > 0
    assert abs(val - np.conj(weyl(np.conj(z))[j, j])) < 1e-11 * max(1.0, abs(val))


def test_interval_branches_tend_to_halfline():
    # far from the real axis the interval coefficients forget the far endpoint
    z = 1.0 + 300.0j
    w = 1j * hg.sqrt_cut(z)
    for m in hg.m_interval(z, 0.0, 1.0):
        assert abs(m - w) / abs(w) < 1e-3


@pytest.mark.parametrize(
    "fn,dfn,z0",
    [
        (lambda z: hg.m_schrodinger_halfline(z, 0.5),
         lambda z: hg.dm_schrodinger_halfline(z, 0.5), -2.0 + 0.7j),
        (lambda z: hg.m_interval(z, 0.0, 1.0)[0],
         lambda z: hg.dm_interval(z, 0.0, 1.0)[0], -1.0 + 0.3j),
        (lambda z: hg.m_interval(z, 0.0, 1.0)[1],
         lambda z: hg.dm_interval(z, 0.0, 1.0)[1], 0.5 + 1.1j),
    ],
    ids=["halfline", "interval-1", "interval-2"],
)
def test_derivative_matches_difference_quotient(fn, dfn, z0):
    der = dfn(z0)
    h = 1e-6
    quot = (fn(z0 + h) - fn(z0 - h)) / (2 * h)
    assert abs(der - quot) < 1e-7 * max(1.0, abs(der))


@pytest.mark.parametrize("branch", [1, 2])
@pytest.mark.parametrize("d, v", [(1.0, 0.0), (0.4, -0.7), (2.5, 1.3)])
def test_interval_derivative_matches_cauchy_integral(branch, d, v):
    # oracle: f'(z0) = (1 / 2 pi i) int f(z) / (z - z0)^2 dz by the trapezoid
    # rule on a circle halfway to the nearest pole (u = (pi / 2d)^2 for
    # branch 1, (pi / d)^2 for branch 2, u = z - v), where it converges
    # geometrically; it reads m_interval only
    pole = (np.pi / (2 * d if branch == 1 else d)) ** 2
    nodes = np.exp(2j * np.pi * np.arange(128) / 128)
    for x_abs in np.logspace(-8, 0, 17):
        for phase in (0.0, 0.4, 1.3, 2.2, np.pi, -0.9):
            u = (x_abs * cmath.exp(1j * phase) / d) ** 2
            rho = (pole - abs(u)) / 2
            ref = sum(hg.m_interval(v + u + rho * e, v, d)[branch - 1] / e
                      for e in nodes) / (128 * rho)
            got = hg.dm_interval(v + u, v, d)[branch - 1]
            assert abs(got - ref) <= 1e-13 * abs(ref), (x_abs, phase)


@pytest.mark.parametrize("branch", [1, 2])
@pytest.mark.parametrize("d, v", [(1.0, 0.0), (0.4, -0.7), (2.5, 1.3)])
def test_interval_series_matches_mpmath(branch, d, v):
    # below |w d| = 1e-6 m_interval sums a series; the oracle is the closed
    # form w tan(w d) or -w cot(w d) at 40 digits, even in w, so that the
    # branch of the root does not matter
    for x_abs in (9e-7, 1e-7, 3e-8):
        for phase in (0.0, 0.4, 1.3, np.pi / 2, 2.2, -0.9):
            z = v + (x_abs * cmath.exp(1j * phase) / d) ** 2
            with mpmath.workdps(40):
                w = mpmath.sqrt(mpmath.mpc(z.real, z.imag) - v)
                ref = complex(w * mpmath.tan(w * d) if branch == 1
                              else -w * mpmath.cot(w * d))
            got = hg.m_interval(z, v, d)[branch - 1]
            assert abs(got - ref) <= 1e-15 * abs(ref), (x_abs, phase)


# (m1', m2') at v = 0.2, d = 1 as uint64 (re, im, re, im), pinned from an
# implementation that took each entry in a call of its own: at z = v and
# v + 1e-14 i (both series), |w d| ~ 0.32 (m2' Taylor sum, m1' closed form),
# 1.5e-10 off a tan pole, 1.5e-10 i off a cot pole and at 1e5 i (saturated)
_DM_BITS = [
    (0.2, (0x3ff0000000000000, 0x0000000000000000, 0x3fd5555555555555, 0x0000000000000000)),
    (0.2 + 1e-14j,
     (0x3ff0000000000000, 0x3cfe0624b3818f79, 0x3fd5555555555555, 0x3cc00346c622f730)),
    (0.3 + 0.05j,
     (0x3ff11d8da7adaa9d, 0x3fa3468065b68575, 0x3fd59eef47d6801f, 0x3f62bbf723d5aabf)),
    (2.6674011007435787,
     (0x43f34653e86f4308, 0x0000000000000000, 0x3fe0000000068fee, 0x0000000000000000)),
    (10.069604401089357 + 9.42477796076938e-10j,
     (0x3fe0000000000000, 0x3dba3fb8577e075e, 0xc3f3465315f68b2d, 0x42c08059a8497089)),
    (100000j,
     (0x3f5251610e0acde9, 0x3f52515ea7658244, 0x3f5251610e0acde9, 0x3f52515ea7658244)),
]


@pytest.mark.parametrize("z, bits", _DM_BITS, ids=[str(z) for z, _ in _DM_BITS])
def test_interval_derivative_pair_is_pinned_bitwise(z, bits):
    got = np.array(hg.dm_interval(z, 0.2, 1.0), dtype=complex).view(np.uint64)
    assert [hex(b) for b in got] == [hex(b) for b in bits]


def _dirac_m1_near_the_pole(c, d):
    """z = -c^2/2 + 1e-14 i, inside the series range |k d| < 1e-6 for the d
    used here, and m1 = c k1 tan(k d) there at 40 digits."""
    s = 0.5 * c * c
    z = complex(-s, 1e-14)
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        k1 = mpmath.sqrt((zm - s) / (zm + s))
        return z, complex(c * k1 * mpmath.tan((zm + s) * k1 / c * d))


@pytest.mark.parametrize("c, d", [(1.0, 1.0), (0.6, 2.5), (2.0, 0.3)])
def test_dirac_interval_at_the_second_branch_point(c, d):
    # at z = -c^2/2, k = 0 while k1 is singular: m2 has a pole there, so the
    # pair raises; just above the point m2 is finite and m1 matches its
    # closed form
    s = 0.5 * c * c
    assert hg.dirac_k(-s, c) == 0
    with pytest.raises(hg.PoleError, match="second Dirac branch"):
        hg.m_dirac_interval(-s, c, d)
    z, ref = _dirac_m1_near_the_pole(c, d)
    m1, m2 = hg.m_dirac_interval(z, c, d)
    assert abs(m1 - ref) <= 1e-15 * abs(ref)
    assert cmath.isfinite(m2)


def test_dirac_interval_second_branch_where_the_pole_term_underflows():
    # (z + c^2/2) d underflows to 0 next to the pole z = -c^2/2: the pair
    # names m2's pole instead of dividing by zero; a little farther from the
    # pole m2 is finite and m1 matches its closed form
    z, d = -0.5 + 1e-130j, 1e-200
    with pytest.raises(hg.PoleError, match="second Dirac branch"):
        hg.m_dirac_interval(z, 1.0, d)
    z, ref = _dirac_m1_near_the_pole(1.0, d)
    m1, m2 = hg.m_dirac_interval(z, 1.0, d)
    assert abs(m1 - ref) <= 1e-15 * abs(ref)
    assert cmath.isfinite(m2)


def test_dirac_interval_second_branch_where_the_pole_term_overflows():
    # (z + c^2/2) d = 1e-310j is subnormal but not 0, and -c^2/((z + c^2/2) d)
    # overflows: the second branch names its pole instead of returning inf;
    # a little farther from the pole the term is finite and is returned
    z, d = -0.5 + 1e-130j, 1e-180
    with pytest.raises(hg.PoleError, match="second Dirac branch"):
        hg.m_dirac_interval(z, 1.0, d)
    near = hg.m_dirac_interval(-0.5 + 1e-120j, 1.0, d)[1]
    assert near == -1.0 / ((-0.5 + 1e-120j + 0.5) * d) + (-1.0 + 1e-120j) * d / 3.0
    assert cmath.isfinite(near)


@pytest.mark.parametrize("d", [0.0, -1.0])
@pytest.mark.parametrize("fn", [hg.m_interval, hg.dm_interval, hg.m_dirac_interval],
                         ids=["m_interval", "dm_interval", "m_dirac_interval"])
def test_interval_half_length_must_be_positive(fn, d):
    with pytest.raises(ValueError, match="^interval half-length d must be positive$"):
        fn(-1.0, 1.0, d)


def test_cut_and_pole_rejection():
    with pytest.raises(hg.BranchCutError):
        hg.m_schrodinger_halfline(2.0)  # on the essential-spectrum cut
    with pytest.raises(hg.BranchCutError):
        hg.dirac_k1(1.0, 1.0)  # |Re z| >= c^2/2 on the real axis
    with pytest.raises(hg.PoleError):
        hg.m_interval((np.pi / 2) ** 2, 0.0, 1.0)  # first tan pole


# poles approached on the real axis (Schrodinger) and 1e-12 above it (Dirac,
# whose real axis beyond |z| = c^2/2 is a cut); c = d = 1, so k^2 = z^2 - 1/4.
# At a pole of m1 (tan) the pair raises there; at one of m2 (cot) m1 is finite
_POLES = [
    ("m2", lambda: hg.m_interval(np.pi ** 2, 0.0, 1.0), "w*d", "cot"),
    ("dm1", lambda: hg.dm_interval((np.pi / 2) ** 2, 0.0, 1.0), "w*d", "tan"),
    ("dm2", lambda: hg.dm_interval(np.pi ** 2, 0.0, 1.0), "w*d", "cot"),
    ("m_D1", lambda: hg.m_dirac_interval(
        np.sqrt((np.pi / 2) ** 2 + 0.25) + 1e-12j, 1.0, 1.0), "k*d", "tan"),
    ("m_D2", lambda: hg.m_dirac_interval(
        np.sqrt(np.pi ** 2 + 0.25) + 1e-12j, 1.0, 1.0), "k*d", "cot"),
]


@pytest.mark.parametrize("name,fn,label,trig", _POLES, ids=[p[0] for p in _POLES])
def test_interval_pole_names_its_argument(name, fn, label, trig):
    with pytest.raises(hg.PoleError, match=r"^%s = \(.*\) too close to a pole of %s$"
                       % (re.escape(label), trig)):
        fn()


@pytest.mark.parametrize("x", [0.3, 1e6])
@pytest.mark.parametrize("y", [-20.5, -1e300])
@pytest.mark.parametrize("trig", ["tan", "cot"])
def test_trig_saturates_below_the_axis(trig, x, y):
    # Im arg < -20: tan is -i and cot is +i to double precision.  No interval
    # coefficient reaches this side (Im w, Im k >= 0 and d > 0), so the
    # guarded helpers are called directly; the oracles are the 40-digit
    # closed form and the conjugate of the value above the axis
    fn = {"tan": hg._tan, "cot": hg._cot}[trig]
    arg = complex(x, y)
    got = fn(arg, "w*d")
    with mpmath.workdps(40):
        ref = complex(getattr(mpmath, trig)(mpmath.mpc(x, y)))
    assert got == (-1j if trig == "tan" else 1j)
    assert abs(got - ref) <= 1e-15
    assert got == fn(arg.conjugate(), "w*d").conjugate()


# The pole guard by hand: float lattice points pi (n + 1/2) of tan and pi n of
# cot, offsets straddling the guard, and the distance as math.hypot of the
# offsets that survive rounding; no herglotz code is used to place them
_GUARD = 1e-10


@pytest.mark.parametrize("n", [0, 1, -1, 7, 1000, -1000, 10 ** 6, -(10 ** 6)])
@pytest.mark.parametrize("trig,half,other", [("tan", 0.5, "cot"), ("cot", 0.0, "tan")])
def test_pole_guard_is_the_hand_computed_distance(trig, half, other, n):
    assert hg.POLE_GUARD == _GUARD
    fn = {"tan": hg._tan, "cot": hg._cot}
    pole = math.pi * (n + half)
    raised = 0
    for dx in (-5e-11, 0.0, 5e-11):
        for dy in (0.0, _GUARD * (1 - 1e-6), _GUARD, _GUARD * (1 + 1e-6)):
            for arg in (complex(pole + dx, dy), complex(pole + dx, -dy)):
                if math.hypot(arg.real - pole, arg.imag) < _GUARD:
                    with pytest.raises(hg.PoleError):
                        fn[trig](arg, "w*d")
                    raised += 1
                else:
                    assert cmath.isfinite(fn[trig](arg, "w*d"))
                # pi/2 from every pole of the other function
                assert cmath.isfinite(fn[other](arg, "w*d"))
    assert raised >= 4  # dy < guard at dx = 0 raises, on both sides


_NON_FINITE = [complex(0.3, math.inf), complex(0.3, -math.inf), complex(math.inf, 0.5),
               complex(-math.inf, 25.0), complex(math.nan, 30.0), complex(0.3, math.nan),
               complex(math.nan, math.nan), complex(math.inf, -math.inf)]


@pytest.mark.parametrize("arg", _NON_FINITE, ids=str)
@pytest.mark.parametrize("trig", ["tan", "cot"])
def test_trig_rejects_a_non_finite_argument(trig, arg):
    # an inf or nan part is an error, never a saturated +-i
    fn = {"tan": hg._tan, "cot": hg._cot}[trig]
    with pytest.raises(ArithmeticError, match=r"^tan/cot argument .* is not finite$"):
        fn(arg, "w*d")


def test_dirac_gap_values_are_purely_imaginary():
    # inside the spectral gap (-c^2/2, c^2/2) the quotient is i * positive
    for z in (-0.3, 0.0, 0.2, 0.45):
        k1 = hg.dirac_k1(z, 1.0)
        assert abs(k1.real) < 1e-15
        assert k1.imag > 0
