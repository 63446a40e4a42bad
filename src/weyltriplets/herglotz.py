"""Scalar Herglotz/Nevanlinna model coefficients and branch-cut arithmetic.

All Weyl coefficients of the 1-D families (``models1d.FAMILY_TABLE``) live here:

* half-line Schrodinger           m(z)      = i sqrt(z - v)
* interval Schrodinger      (m1, m2)(z)     = (w tan(w d), -w cot(w d)),
                                              w = sqrt(z - v)
* half-line Dirac                 m(z)      = i c k1(z)
* interval Dirac            (m1, m2)(z)     = (c k1 tan(k d), -c k1 cot(k d))

An interval's Weyl function is the diagonal diag(m1, m2), so each interval
function returns that pair, built from one wave number.

with the square root cut along the positive semi-axis (sqrt 1 = 1) for
the Schrodinger family, and the doubly-cut functions

    k(z)  = (1/c) sqrt(z^2 - c^4/4),    k1(z) = sqrt((z - c^2/2)/(z + c^2/2))

for the Dirac family, holomorphic off (-inf, -c^2/2] u [c^2/2, inf) and
positive for real z > c^2/2.

Every function is Herglotz: analytic off its real singular set, with
m(conj z) = conj m(z) and Im m(z) > 0 in the upper half-plane.  Points
exactly on a cut are rejected (the boundary value is not defined by the
branch convention), and real poles of the interval functions are
rejected within a small guard distance.

The Schrodinger coefficients' array forms (``*_grid``) are bit for bit the
scalar ones: CPython 3.11-3.13's complex arithmetic in real numpy operations,
cmath elementwise, and nan where the scalar function must branch or raise.
"""

import cmath

import numpy as np

__all__ = [
    "BranchCutError",
    "PoleError",
    "sqrt_cut",
    "c_diff",
    "c_prod",
    "c_quot",
    "m_schrodinger_halfline",
    "m_schrodinger_halfline_grid",
    "dm_schrodinger_halfline",
    "m_interval",
    "m_interval_grid",
    "dm_interval",
    "dirac_k",
    "dirac_k1",
    "m_dirac",
    "m_dirac_interval",
]

# Guard distance (in the complex plane of the tan/cot argument) below
# which evaluation near a real pole is refused.
POLE_GUARD = 1e-10

# |argument| below which tan/cot removable points are evaluated by series.
_SERIES_CUTOFF = 1e-6

# d m2/du = d sum_{n>=1} c_n x^(2n-2) (u = z - v, x = w d), c_n = n 4^n |B_2n| / (2n)!
# with B_2n the Bernoulli numbers; below |x| = 1/2, where the closed form
# cancels (error ~ eps / |x|^2), these twelve terms leave under 1e-18.
_DM2_TAYLOR = (1 / 3, 2 / 45, 2 / 315, 4 / 4725, 2 / 18711, 2764 / 212837625,
               4 / 2606175, 28936 / 162820783125, 87734 / 4331032831125,
               698444 / 306265893058125, 310732 / 1222532449149375,
               1890912728 / 67306523987918840625)
_DM2_SERIES_CUTOFF = 0.5

# Beyond this |Im argument| the trig functions have saturated to +-i at
# double precision (tanh(20) differs from 1 by ~2e-18); evaluating them
# directly would overflow for very large arguments.
_TRIG_SATURATION = 20.0


# cmath's functions elementwise, rounding as in the scalar route
_PHASE, _EXP, _TAN, _COS, _SIN = (np.frompyfunc(f, 1, 1) for f in (
    cmath.phase, cmath.exp, cmath.tan, cmath.cos, cmath.sin))


class BranchCutError(ValueError):
    """Evaluation point lies on a real branch cut of the function."""


class PoleError(ValueError):
    """Evaluation point is (numerically) a real pole of the function."""


def sqrt_cut(z):
    """Square root with cut along the positive real semi-axis.

    Writes z = r e^{i theta} with theta in [0, 2pi) and returns
    sqrt(r) e^{i theta/2}, so sqrt_cut(1) = 1, sqrt_cut(-1) = i, and the
    image always has non-negative imaginary part.  Total on C (z = 0
    maps to 0); callers who need to *reject* cut points do so themselves
    since the offending set depends on the shift z - v.
    """
    z = complex(z)
    if z == 0:
        return 0j
    try:
        theta = cmath.phase(z)
    except OverflowError:
        # Im z / Re z underflows (Re z > 0): theta is within a denormal of 0
        # or, below the cut, of 2 pi
        theta = 2.0 * cmath.pi if z.imag < 0.0 else 0.0
    if theta < 0.0:
        theta += 2.0 * cmath.pi
    return cmath.sqrt(abs(z)) * cmath.exp(0.5j * theta)


def _cx(re, im):
    out = np.empty(re.shape, dtype=complex)  # im has the shape of re at every use
    out.real, out.imag = re, im
    return out


def c_diff(a, b):
    """a - b over arrays, as CPython's _Py_c_diff; a real operand has imag 0."""
    return _cx(a.real - b.real, a.imag - b.imag)


def c_prod(a, b):
    """a * b over arrays, as _Py_c_prod (numpy's complex * rounds otherwise)."""
    return _cx(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


@np.errstate(divide="ignore", invalid="ignore")
def c_quot(a, b):
    """a / b over arrays, as _Py_c_quot (Smith's method), but inf or nan at b = 0."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_re = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_re, bi / br, br / bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    return _cx(np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
               np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom)


def _phase_or_nan(u):
    try:
        return cmath.phase(u)
    except OverflowError:
        return float("nan")


def _sqrt_cut_grid(u):
    """``sqrt_cut`` over the complex array u; nan where that is left to it: u = 0,
    |u| not finite or below 2**-1019 (cmath.sqrt rescales), cmath.phase raising."""
    r = np.hypot(u.real, u.imag)
    keep = np.isfinite(r) & (r >= 2.0 ** -1019)
    u = np.where(keep, u, 1.0)
    try:
        theta = _PHASE(u).astype(float)
    except OverflowError:  # sqrt_cut's own branch, at the points where it fires
        theta = np.frompyfunc(_phase_or_nan, 1, 1)(u).astype(float)
    theta = np.where(theta < 0.0, theta + 2.0 * cmath.pi, np.where(keep, theta, np.nan))
    return c_prod(np.sqrt(r), _EXP(c_prod(0.5j, theta)).astype(complex))


def _halfline_root(z, v):
    """sqrt(z - v) of the half-line coefficients; the cut [v, inf) is rejected."""
    z = complex(z)
    if z.imag == 0.0 and z.real >= v:
        raise BranchCutError("z = %s lies on the cut [%g, inf)" % (z, v))
    return sqrt_cut(z - v)


def m_schrodinger_halfline(z, v=0.0):
    """Half-line Schrodinger Weyl coefficient m(z) = i sqrt(z - v).

    Real and negative on (-inf, v); the cut [v, inf) is rejected.
    """
    return 1j * _halfline_root(z, v)


@np.errstate(all="ignore")
def m_schrodinger_halfline_grid(zs, v=0.0):
    """``m_schrodinger_halfline`` over the complex array zs (v broadcast against
    it), bit for bit; nan on the cut and where ``sqrt_cut`` is left to it."""
    m = c_prod(1j, _sqrt_cut_grid(c_diff(zs, v)))
    return np.where((zs.imag == 0.0) & (zs.real >= v), np.nan, m)


def dm_schrodinger_halfline(z, v=0.0):
    """d/dz of the half-line coefficient: i / (2 sqrt(z - v))."""
    return 0.5j / _halfline_root(z, v)


def _near_pole(arg, offset):
    """Whether ``arg`` is within POLE_GUARD of {pi (n + offset)}; ArithmeticError
    if it is not finite.  The lattice is real and complex - float keeps Im arg,
    so each distance (a hypot) is >= |Im arg|: exact to test only below it."""
    if not cmath.isfinite(arg):
        raise ArithmeticError("tan/cot argument %s is not finite" % arg)
    if abs(arg.imag) >= POLE_GUARD:
        return False
    n = round(arg.real / cmath.pi - offset)
    return min(abs(arg - cmath.pi * (k + offset)) for k in (n - 1, n, n + 1)) < POLE_GUARD


def _tan(arg, label):
    """tan(arg): ArithmeticError if arg is not finite, PoleError naming ``label``
    within POLE_GUARD of a real pole (one comparison where |Im arg| >= POLE_GUARD),
    +-i past _TRIG_SATURATION."""
    if _near_pole(arg, 0.5):
        raise PoleError("%s = %s too close to a pole of tan" % (label, arg))
    if abs(arg.imag) > _TRIG_SATURATION:
        return 1j if arg.imag > 0 else -1j
    return cmath.tan(arg)


def _cot(arg, label):
    """cot(arg), checked, guarded and saturated as ``_tan``."""
    if _near_pole(arg, 0.0):
        raise PoleError("%s = %s too close to a pole of cot" % (label, arg))
    if abs(arg.imag) > _TRIG_SATURATION:
        return -1j if arg.imag > 0 else 1j
    return cmath.cos(arg) / cmath.sin(arg)


def _check_interval(d):
    if d <= 0:
        raise ValueError("interval half-length d must be positive")


def m_interval(z, v=0.0, d=1.0):
    """Interval Schrodinger coefficients (m1, m2), half-length ``d``:

        m1(z) =  w tan(w d),    m2(z) = -w cot(w d)    (w = sqrt(z - v))

    both from one root w.  They are Herglotz and meromorphic with real
    poles; m1 has poles at w d = pi(n + 1/2) and m2 at w d = pi n (n >= 1;
    w d = 0 is a removable point with value -1/d, handled by series).  An
    evaluation within POLE_GUARD of a pole of either raises PoleError, tan's
    first.
    """
    _check_interval(d)
    u = complex(z) - v
    w = sqrt_cut(u)
    arg = w * d
    if abs(arg) < _SERIES_CUTOFF:
        # w tan(w d) = w^2 d (1 + (w d)^2/3 + ...) = (z - v) d (1 + ...),
        # -w cot(w d) = -1/d + (z-v) d/3 + (z-v)^2 d^3/45 + ...
        return (u * d * (1.0 + arg * arg / 3.0),
                -1.0 / d + u * d / 3.0 + u * u * d**3 / 45.0)
    return w * _tan(arg, "w*d"), -w * _cot(arg, "w*d")


@np.errstate(all="ignore")
def m_interval_grid(zs, v=0.0, d=1.0):
    """``m_interval`` over the complex array zs, bit for bit; nan where that is
    left to it: where ``sqrt_cut`` is, w d not finite or in the series disc, and
    |Im w d| below POLE_GUARD (the pole test compares) or past _TRIG_SATURATION."""
    _check_interval(d)
    arg = c_prod(w := _sqrt_cut_grid(c_diff(zs, v)), d)
    r, im = np.hypot(arg.real, arg.imag), np.abs(arg.imag)
    keep = (_SERIES_CUTOFF <= r) & (r < np.inf) & (POLE_GUARD <= im) & (im <= _TRIG_SATURATION)
    arg = np.where(keep, arg, 1.0)
    cot = c_quot(_COS(arg).astype(complex), _SIN(arg).astype(complex))
    return (np.where(keep, c_prod(w, _TAN(arg).astype(complex)), np.nan),
            np.where(keep, c_prod(-w, cot), np.nan))


def dm_interval(z, v=0.0, d=1.0):
    """Analytic z-derivatives (m1', m2') of ``m_interval`` (used by regularization).

    From dw/dz = 1/(2w):

        m1'(z) = [tan(w d) + w d sec^2(w d)] / (2 w)
        m2'(z) = [-cot(w d) + w d csc^2(w d)] / (2 w)

    with removable limits d and d/3 respectively as w -> 0.  m1' takes its
    series below |w d| = _SERIES_CUTOFF; m2' is summed from its Taylor
    series below |w d| = 1/2, since the closed form cancels there.
    """
    _check_interval(d)
    w = sqrt_cut(complex(z) - v)
    arg = w * d
    if abs(arg) < _SERIES_CUTOFF:
        dm1 = d * (1.0 + 2.0 * arg * arg / 3.0)
    else:
        t = _tan(arg, "w*d")
        dm1 = (t + arg * (1.0 + t * t)) / (2.0 * w)
    if abs(arg) < _DM2_SERIES_CUTOFF:
        x2, total = arg * arg, 0j
        for c in reversed(_DM2_TAYLOR):
            total = total * x2 + c
        return dm1, d * total
    ct = _cot(arg, "w*d")
    return dm1, (-ct + arg * (1.0 + ct * ct)) / (2.0 * w)


def dirac_k1(z, c=1.0):
    """k1(z) = sqrt((z - c^2/2)/(z + c^2/2)) on the doubly-cut plane.

    Principal square root of the Moebius ratio for Im z > 0 and its
    Schwarz reflection for Im z < 0; on the real spectral gap
    (-c^2/2, c^2/2) the ratio is negative and k1 = i sqrt(|ratio|).
    The branch point z = c^2/2 itself evaluates to 0; the rest of the
    two real cuts (and the singular point z = -c^2/2) are rejected.
    """
    if c <= 0:
        raise ValueError("speed c must be positive")
    s = 0.5 * c * c
    z = complex(z)
    if z.imag == 0.0:
        x = z.real
        if x == s:
            return 0j  # branch point, common limit from above/below
        if x >= s or x <= -s:
            raise BranchCutError(
                "z = %s lies on a Dirac cut (|Re z| >= %g)" % (z, s)
            )
        ratio = (x - s) / (x + s)  # negative on the gap
        return 1j * np.sqrt(-ratio)
    w = cmath.sqrt((z - s) / (z + s))  # principal root, ratio off (-inf, 0]
    return -w if z.imag < 0.0 else w


def dirac_k(z, c=1.0):
    """k(z) = (1/c) sqrt(z^2 - c^4/4), same branch as ``dirac_k1``.

    Computed as (z + c^2/2) k1(z) / c, which keeps the function
    single-valued across the imaginary axis (the naive principal square
    root of z^2 - c^4/4 has a spurious sign jump there).
    """
    s = 0.5 * c * c
    z = complex(z)
    if z.imag == 0.0 and z.real == -s:
        return 0j  # second branch point; the k1 factor is singular there
    return (z + s) * dirac_k1(z, c) / c


def m_dirac(z, c=1.0):
    """Half-line Dirac coefficient m(z) = i c k1(z), real on the gap (-c^2/2, c^2/2)."""
    return 1j * c * dirac_k1(z, c)


def m_dirac_interval(z, c=1.0, d=1.0):
    """Interval Dirac coefficients (m1, m2), half-length ``d``:

        m1(z) =  c k1(z) tan(k(z) d),    m2(z) = -c k1(z) cot(k(z) d)

    from one k1(z), with k = (z + c^2/2) k1 / c.  The removable point
    k d -> 0 at the branch points is evaluated by series; real poles are
    guarded as in ``m_interval``.  At z = -c^2/2, where k d = 0 but k1 is
    singular, m2 has a pole and the pair raises PoleError.
    """
    z = complex(z)
    _check_interval(d)
    s = 0.5 * c * c
    # k1 is singular at z = -c^2/2, where k d = 0: the series below names m2's pole
    k1v = 0j if z == -s else dirac_k1(z, c)
    arg = (z + s) * k1v / c * d
    if abs(arg) < _SERIES_CUTOFF:
        zd = (z + s) * d  # 0 at z = -c^2/2, or where it underflows next to it
        if zd == 0 or cmath.isinf(pole := -c * c / zd):  # or the pole term overflows
            raise PoleError("z = %s is numerically the pole -c^2/2 of the "
                            "second Dirac branch" % z)
        # c k1 tan(k d) = c k1 k d (1 + ...) = (z - s) d (1 + (kd)^2/3),
        # -c k1 cot(k d) = -c^2/((z+s) d) + (z-s) d/3 + (z-s) k^2 d^3/45
        k2 = (z * z - s * s) / (c * c)  # k^2 = (z^2 - c^4/4)/c^2
        return ((z - s) * d * (1.0 + arg * arg / 3.0),
                pole + (z - s) * d / 3.0 + (z - s) * k2 * d**3 / 45.0)
    return c * k1v * _tan(arg, "k*d"), -c * k1v * _cot(arg, "k*d")
