"""The array route of ``WeylFunction.grid`` against its scalar route, bit for bit.

The Schrodinger families and the JC leads evaluate a z-grid through the
array forms in ``herglotz``.  Each value must carry the scalar loop's bits,
each error the scalar loop's first error (type and message), and the points
the array forms leave to the scalar function must each cost one scalar call.
No step may warn.
"""

import cmath
from dataclasses import replace

import numpy as np
import pytest

from weyltriplets import herglotz as hg
from weyltriplets import jcdot as jd
from weyltriplets import models1d as m1
from weyltriplets.triplets import WeylFunction

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INF, NAN = float("inf"), float("nan")


def _scalar_loop(weyl, zs):
    """The scalar route: the same Weyl function without its array form, on
    the points as Python complex numbers."""
    return WeylFunction(weyl.dim, weyl.eval, diagonal=True).grid(list(map(complex, zs)))


def _counted(weyl):
    """``weyl`` whose scalar eval records each point it is called at."""
    calls = []

    def ev(z):
        calls.append(complex(z))
        return weyl.eval(z)
    return replace(weyl, eval=ev), calls


def _seeded_grid(seed, below, n=10_000):
    """n points with |z| log-uniform in [1e-8, 1e8] in all four quadrants.
    One point in seven has a real part +-0.0; one in eleven has an imaginary
    part +-0.0 and lies left of ``below``, off every half-line cut."""
    rng = np.random.default_rng(seed)
    r = 10.0 ** rng.uniform(-8, 8, n)
    phi = rng.uniform(-np.pi, np.pi, n)
    zero = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    re_, im = r * np.cos(phi), r * np.sin(phi)
    re_[::7] = zero[::7]
    re_[3::11], im[3::11] = below - r[3::11], zero[3::11]
    zs = np.empty(n, dtype=complex)
    zs.real, zs.imag = re_, im
    return zs


def _edge_points(v, interval=False):
    """Where the phase underflows (v + 1 +- 1e-320 i) or cmath.phase may raise
    (v + 1e5 +- 1e-320 i; also 1e308 +- 1.48e-283 i, but not for an interval,
    whose pole test refuses any real w d that large, nor its non-finite
    points, which it refuses too), |z - v| near the smallest normal numbers,
    and magnitudes 1e300."""
    huge = [] if interval else [1e308 - 1.4791286014180062e-283j,
                                1e308 + 1.4791286014180062e-283j, complex(INF, 1.0),
                                complex(1.0, -INF), complex(NAN, 0.5), complex(-1.0, NAN)]
    return huge + [v + 1 + 1e-320j, v + 1 - 1e-320j, v + 1e5 + 1e-320j, v + 1e5 - 1e-320j,
                   v + 1e-310j, v + 3e-308j, v - 3e-308j, v + complex(1e-310, 1e-310),
                   1e300 + 1e300j, -1e300 + 1e300j, -1e300 - 1e300j, 1e300 - 1j, 1e300j,
                   -1e300j, -1e300 + 0j, -1e300 - 0j]


def _lead(N):
    return jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                      jd.FockTruncation(N)).lead_weyl


# (Weyl function, the least potential: real points left of it are off every cut)
WEYLS = {
    **{"interval-v%g-d%g" % (v, d): (m1.build_triplet(m1.schrodinger_interval(v, -d, d)).weyl, v)
       for v, d in ((0.0, 1.0), (0.2, 0.5), (-2.0, 3.0), (1.5, 1e-3), (0.25, 40.0))},
    **{"%s-v%g" % (fam, v): (m1.build_triplet(m1.FACTORIES[fam](v=v)).weyl, v)
       for fam in ("schrodinger-right", "schrodinger-left") for v in (0.0, 0.25, -1.5, 3.0)},
    "contact-1-0.5": (m1.build_triplet(m1.full_line_contact(1.0, 0.5)).weyl, 0.5),
    "contact-0-m2": (m1.build_triplet(m1.full_line_contact(0.0, -2.0)).weyl, -2.0),
    **{"jc-lead-N%d" % N: (_lead(N), 0.25) for N in (0, 3, 20)},
}


@pytest.mark.parametrize("name", list(WEYLS))
def test_array_route_is_the_scalar_route_bitwise(name):
    weyl, v = WEYLS[name]
    assert weyl.eval_grid is not None
    zs = np.concatenate([_seeded_grid(list(WEYLS).index(name), v),
                         _edge_points(v, name.startswith("interval"))])
    counted, calls = _counted(weyl)
    got = counted.grid(zs)
    want = _scalar_loop(weyl, zs)
    assert got.shape == want.shape == (len(zs), weyl.dim, weyl.dim)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # the scalar function takes only the points the array form leaves, and
    # the array form carries thousands (past |Im w d| = 20 an interval's are left)
    left = ~np.isfinite(np.stack(weyl.eval_grid(zs), axis=-1)).all(axis=1)
    assert np.array_equal(np.array(calls, dtype=complex).view(np.uint64),
                          zs[left].view(np.uint64))
    assert (~left).sum() >= 2000


def test_array_route_of_the_coefficients_is_the_scalar_bitwise():
    zs = np.concatenate([_seeded_grid(1, 0.3), _edge_points(0.3, interval=True)])
    for fn, grid_fn, kw in ((hg.m_interval, hg.m_interval_grid, {"v": 0.3, "d": 0.7}),
                            (hg.m_schrodinger_halfline, hg.m_schrodinger_halfline_grid,
                             {"v": 0.3})):
        got = np.array(grid_fn(zs, **kw), dtype=complex).T
        want = np.array([fn(z, **kw) for z in zs.tolist()], dtype=complex)
        keep = np.isfinite(got.reshape(len(zs), -1)).all(axis=1)
        assert keep.sum() >= 2000
        assert np.array_equal(got[keep].view(np.uint64), want[keep].view(np.uint64))


_GRID = np.linspace(-3, 3, 5)[:, None] + 1j * np.linspace(0.3, 2.3, 5)
_INTERVAL = m1.build_triplet(m1.schrodinger_interval(0.2, 0.0, 1.0)).weyl  # d = 0.5
_RIGHT = m1.build_triplet(m1.schrodinger_right(v=0.25)).weyl

# (the class of special point, Weyl function, the point, its error or None)
_SPECIAL = [
    ("u = 0", _INTERVAL, 0.2 + 0j, None),
    ("|u| below 2**-1019", _RIGHT, 0.25 + 1e-310j, None),
    ("non-finite", _RIGHT, complex(INF, 1.0), None),
    ("non-finite w d", _INTERVAL, complex(NAN, 1.0), ArithmeticError),
    ("series", _INTERVAL, 0.2 + 1e-13j, None),
    ("pole band", _INTERVAL, 3.0 + 1e-14j, None),
    ("pole", _INTERVAL, 0.2 + np.pi ** 2, hg.PoleError),
    ("saturated", _INTERVAL, 1e8j, None),
    ("cut", _RIGHT, 2.0 + 0j, hg.BranchCutError),
    ("lead cut", _lead(3), 1.0 - 0j, hg.BranchCutError),
]


@pytest.mark.parametrize("k", [0, 12, 25])
@pytest.mark.parametrize("label, weyl, z, error", _SPECIAL, ids=[s[0] for s in _SPECIAL])
def test_array_route_leaves_each_special_point_to_one_scalar_call(label, weyl, z, error, k):
    zs = np.insert(_GRID.ravel(), k, z)
    counted, calls = _counted(weyl)
    if error is None:
        got = counted.grid(zs)
        assert np.array_equal(got.view(np.uint64), _scalar_loop(weyl, zs).view(np.uint64))
    else:
        with pytest.raises(error):
            counted.grid(zs)
    assert len(calls) == 1
    assert calls[0] == z or cmath.isnan(z)


def test_array_route_leaves_a_point_where_the_phase_raises(monkeypatch):
    # on a libm whose atan2 flags the underflow of Im u / Re u, cmath.phase
    # raises OverflowError and sqrt_cut takes its own branch; the array route
    # then leaves that point, and only it, to sqrt_cut
    z, phase = 1.25 + 1e-300j, cmath.phase

    def flagged(u):
        if u == z - 0.25:
            raise OverflowError("math range error")
        return phase(u)
    monkeypatch.setattr(cmath, "phase", flagged)
    monkeypatch.setattr(hg, "_PHASE", np.frompyfunc(flagged, 1, 1))
    zs = np.insert(_GRID.ravel(), 7, z)
    counted, calls = _counted(_RIGHT)
    got = counted.grid(zs)
    assert calls == [z]
    assert np.array_equal(got.view(np.uint64), _scalar_loop(_RIGHT, zs).view(np.uint64))


_RAISING = {
    "interval": (_INTERVAL, 0.2 + np.pi ** 2, complex(INF, 0.5)),
    "right": (_RIGHT, 2.0 + 0j, 0.25 - 0j),
    "contact": (m1.build_triplet(m1.full_line_contact(1.0, 0.5)).weyl, 0.5 + 0j, 3.0 + 0j),
    "jc-lead-N20": (WEYLS["jc-lead-N20"][0], 0.25 + 0j, 30.0 + 0j),
}


@pytest.mark.parametrize("k", [0, 7, 99])
@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("name", list(_RAISING))
def test_array_route_raises_the_scalar_loops_first_error(name, swap, k):
    weyl, first, second = _RAISING[name]
    if swap:
        first, second = second, first
    zs = _seeded_grid(2, -3.0, n=120)
    zs[k], zs[k + 3] = first, second
    with pytest.raises(Exception) as want:
        _scalar_loop(weyl, zs)
    with pytest.raises(Exception) as got:
        weyl.grid(zs)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
