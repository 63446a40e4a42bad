"""Catalogue of concrete 1-D boundary triplets with closed-form kernels.

Families: Schrodinger half-lines and interval (constant potential),
Dirac half-line and interval (mass s = c^2/2), and the two-lead
full-line point contact.  Each family is declared once, as one entry
of ``FAMILY_TABLE``: its factory and parameter checks, its boundary
dimension and Weyl diagonal (scalar coefficients from :mod:`herglotz`; an
interval's pair (m1, m2) is one call per z, a Schrodinger z-grid one), its gamma-field
columns (explicit solutions of the defect equation whose Gamma0-traces
are the standard basis, from one half-line exponential, one even/odd
interval helper and ``contact_columns``, shared with the JC leads), its
Gamma0/Gamma1 endpoint trace map and its defect-equation residual.

Sign conventions (documented, part of the public contract):

* right half-line (b, inf):  Gamma0 f = f(b),  Gamma1 f = f'(b);
* left half-line (-inf, a):  Gamma0 f = f(a),  Gamma1 f = -f'(a);
* interval (a, b), midpoint nu, half-length dd, inward traces
  (f'(a), -f'(b)) symmetrized by (sum, difference)/sqrt(2):
      Gamma0 f = ( (f(b)+f(a)),  (f(b)-f(a)) ) / sqrt(2),
      Gamma1 f = ( (f'(a)-f'(b)), -(f'(a)+f'(b)) ) / sqrt(2),
  which diagonalizes the Weyl function into (w tan(w dd), -w cot(w dd));
* Dirac spinors f = (f_1, f_2): half-line Gamma0 f = f_1(b),
  Gamma1 f = i c f_2(b); interval maps symmetrized the same way with
  the i c prefactor kept verbatim;
* full-line contact at 0: Gamma0 f = (f(-0), f(+0)),
  Gamma1 f = (-f'(-0), f'(+0)).
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import herglotz as hg
from .triplets import AnalyticKernel, BoundaryTriplet, WeylFunction

__all__ = [
    "ModelSpec",
    "schrodinger_right",
    "schrodinger_left",
    "schrodinger_interval",
    "dirac_right",
    "dirac_interval",
    "full_line_contact",
    "contact_waves",
    "contact_columns",
    "build_triplet",
    "gamma_boundary_data",
    "verify_defect_equation",
    "interval_weyl_poles",
    "FAMILY_TABLE",
    "FAMILIES",
    "FACTORIES",
]

# Below this |w|*length, sin(w t)/sin(w dd) switches to its Taylor ratio
# (removable singularity at w = 0).
_RATIO_CUTOFF = 1e-6
# Beyond this Im(w)*dd the interval kernels use their exp-scaled forms;
# cos and sin of w dd themselves overflow near 710.
_SCALED_CUTOFF = 350.0
# Below this half-length dd^2 stays finite.
_SQUARE_CUTOFF = 1e150

_S2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ModelSpec:
    """A catalogue entry: family tag plus the few real parameters it uses.

    ``v`` is the constant potential (Schrodinger families), ``c`` the
    Dirac speed (mass s = c^2/2), ``a``/``b`` the endpoints actually
    present for the family, ``v_l``/``v_r`` the two potentials of the
    full-line contact.
    """

    family: str
    v: float = 0.0
    c: float = 1.0
    a: float = None
    b: float = None
    v_l: float = 0.0
    v_r: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILY_TABLE:
            raise ValueError("unknown family %r" % (self.family,))
        for check in FAMILY_TABLE[self.family].checks:
            check(self)

    @property
    def midpoint(self):
        return 0.5 * self.a + 0.5 * self.b

    @property
    def half_length(self):
        return 0.5 * (self.b - self.a)


def schrodinger_right(v=0.0, b=0.0):
    return ModelSpec("schrodinger-right", v=float(v), b=float(b))


def schrodinger_left(v=0.0, a=0.0):
    return ModelSpec("schrodinger-left", v=float(v), a=float(a))


def schrodinger_interval(v=0.0, a=-1.0, b=1.0):
    return ModelSpec("schrodinger-interval", v=float(v), a=float(a), b=float(b))


def dirac_right(c=1.0, b=0.0):
    return ModelSpec("dirac-right", c=float(c), b=float(b))


def dirac_interval(c=1.0, a=-1.0, b=1.0):
    return ModelSpec("dirac-interval", c=float(c), a=float(a), b=float(b))


def full_line_contact(v_l=0.0, v_r=0.0):
    return ModelSpec("full-line-contact", v_l=float(v_l), v_r=float(v_r))


def _check_endpoints(spec):
    if spec.a is None or spec.b is None or not spec.a < spec.b:
        raise ValueError("interval families need endpoints a < b")
    if not np.isfinite(spec.b - spec.a):
        raise ValueError("interval length b - a overflows")
    if not spec.half_length > 0:
        raise ValueError("interval half-length (b - a)/2 underflows to 0")


def _check_speed(spec):
    if not spec.c > 0:
        raise ValueError("Dirac speed c must be positive")
    if not np.isfinite(0.5 * spec.c * spec.c):
        raise ValueError("Dirac mass s = c^2/2 overflows at c = %r" % spec.c)


def _exp(iw, x0):
    """x -> e^{iw (x - x0)} and its x-derivative, on 1-D arrays.  An overflow
    gives inf or nan without a warning, for the callers' finiteness checks."""
    def e(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(iw * (np.asarray(x) - x0))

    def de(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return iw * e(x)

    return e, de


def _even_odd(w, spec):
    """(small, cos(w dd), sin(w dd), trig) of the interval's even/odd kernels.

    trig(x) = (t, cos(w t), sin(w t)) at t = x - midpoint; ``small`` flags
    the removable limit |w| dd -> 0.  Past _SCALED_CUTOFF (Im w >= 0 on all
    branches used here) the four trig values carry a common factor
    2 e^{iw dd}, which cancels in each kernel ratio and keeps it finite for
    |t| <= dd: cos(w t)/cos(w dd) = (e^{iw(dd+t)} + e^{iw(dd-t)})/(1 + e^{2iw dd}).
    There |e^{2iw dd}| < e^{-700} is below rounding, so the scaled cos(w dd)
    and sin(w dd) = i (1 - e^{2iw dd}) are exactly 1 and i.  An overflow,
    here or in the kernels' columns, gives inf or nan without a warning, for
    the callers' finiteness checks.
    """
    nu, dd = spec.midpoint, spec.half_length
    small = abs(w) * max(abs(spec.a - nu), abs(spec.b - nu), dd) < _RATIO_CUTOFF
    scaled = w.imag * dd > _SCALED_CUTOFF

    def trig(x):
        t = np.asarray(x, dtype=float) - nu
        if scaled:
            p, m = np.exp(1j * w * (dd + t)), np.exp(1j * w * (dd - t))
            return t, p + m, -1j * (p - m)
        return t, np.cos(w * t), np.sin(w * t)

    if scaled:
        return small, 1.0, 1j, trig
    with np.errstate(over="ignore", invalid="ignore"):
        return small, np.cos(w * dd), np.sin(w * dd), trig


def _halfline_kernel(i, end, wave, spec, z):
    """Half-line kernel e^{i w (x - end)}: i = 1j right of end, -1j left.

    wave(spec, z) gives w and the layout of a column's values as an array of
    shape (n, value_dim, 1).
    """
    w, layout = wave(spec, z)
    x0 = getattr(spec, end)
    e, de = _exp(i * w, x0)
    return dict(columns=lambda x: layout(e(x)), columns_dx=lambda x: layout(de(x)),
                domain=(x0, np.inf) if i.imag > 0 else (-np.inf, x0), decay_rate=w.imag)


def _schrodinger_wave(spec, z):
    return hg.sqrt_cut(z - spec.v), lambda f: f[:, None, None]


def _dirac_wave(spec, z):
    """k and the spinor (f, k1 f) of a Dirac half-line column f."""
    k1 = hg.dirac_k1(z, spec.c)
    return hg.dirac_k(z, spec.c), lambda f: np.stack([f, k1 * f], axis=1)[:, :, None]


def _schrodinger_interval_kernel(spec, z):
    w = hg.sqrt_cut(z - spec.v)
    dd = spec.half_length
    small, cd, sd, trig = _even_odd(w, spec)

    def curve(t, k):
        # w^2 (k t^2 - dd^2), scaled by dd where dd^2 would overflow
        if dd < _SQUARE_CUTOFF:
            return w * w * (k * t * t - dd * dd)
        return (w * dd) * (w * dd) * (k * (t / dd) * (t / dd) - 1.0)

    @np.errstate(over="ignore", invalid="ignore")
    def cols(x):
        t, co, si = trig(x)
        odd = (t / dd) * (1.0 + curve(t, 1.0) / 6.0) if small else si / sd
        return np.stack([co / (_S2 * cd), odd / _S2], axis=-1)[:, None, :]

    @np.errstate(over="ignore", invalid="ignore")
    def cols_dx(x):
        t, co, si = trig(x)
        odd = (1.0 / dd) * (1.0 + curve(t, 3.0) / 6.0) if small else w * co / sd
        return np.stack([-w * si / (_S2 * cd), odd / _S2], axis=-1)[:, None, :]

    return dict(columns=cols, columns_dx=cols_dx, domain=(spec.a, spec.b))


def _dirac_interval_kernel(spec, z):
    c = spec.c
    s = 0.5 * c * c
    k1 = hg.dirac_k1(z, c)
    k = hg.dirac_k(z, c)
    dd = spec.half_length
    small, cd, sd, trig = _even_odd(k, spec)

    @np.errstate(over="ignore", invalid="ignore")
    def cols(x):
        t, co, si = trig(x)
        even = [co / (_S2 * cd), 1j * k1 * si / (_S2 * cd)]
        if small:
            # sin(kt)/sin(k dd) -> t/dd and k1*cos/sin(k dd) -> c/((z+s) dd)
            odd = [(t / dd) / _S2, -1j * (c / ((z + s) * dd)) * co / _S2]
        else:
            odd = [si / (_S2 * sd), -1j * k1 * co / (_S2 * sd)]
        return np.stack([np.stack(even, axis=-1), np.stack(odd, axis=-1)], axis=-1)

    return dict(columns=cols, domain=(spec.a, spec.b))


def contact_waves(zs, v_l, v_r):
    """-i w_l and i w_r, w = sqrt_cut(z - v), per point z of zs: shape (2, len zs)."""
    return np.array([[sign * hg.sqrt_cut(z - v) for z in zs]
                     for sign, v in ((-1j, v_l), (1j, v_r))])


def contact_columns(iw, x, dx=False):
    """The contact's columns, or with ``dx`` their x-derivatives, at the P
    points of ``iw = contact_waves(...)``, shape (len x, P, 1, 2): e^{-i w_l x}
    on x <= 0, e^{i w_r x} on x > 0 and, at x = 0, the right column's contact
    value 1 (i w_r).  An overflow gives inf or nan without a warning, for the
    callers' finiteness checks."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((len(x), iw.shape[1], 1, 2), dtype=complex)
    neg = x <= 0
    with np.errstate(over="ignore", invalid="ignore"):
        for side, on in enumerate((neg, ~neg)):
            e = np.exp(iw[side] * x[on, None])
            out[on, :, 0, side] = iw[side] * e if dx else e
    out[x == 0, :, 0, 1] = iw[1] if dx else 1.0
    return out


def _contact_kernel(spec, z):
    iw = contact_waves([z], spec.v_l, spec.v_r)
    return dict(columns=lambda x: contact_columns(iw, x)[:, 0],
                columns_dx=lambda x: contact_columns(iw, x, dx=True)[:, 0],
                # the real parts of -i w_l and i w_r are Im w_l and -Im w_r
                domain=(-np.inf, np.inf), decay_rate=min(iw[0, 0].real, -iw[1, 0].real),
                split_points=(0.0,))


def _symmetrized(f, g):
    """Interval traces from the end values f and inward Gamma1 values g, rows (a, b)."""
    return (np.vstack([(f[1] + f[0]) / _S2, (f[1] - f[0]) / _S2]),
            np.vstack([(g[1] + g[0]) / _S2, (g[1] - g[0]) / _S2]))


def _schrodinger_defect(potential):
    """-u'' + (V - z) u by centred second differences, V = potential(spec, x)."""
    def residual(spec, z, x, u, h):
        u = u[:, 0]
        lap = (u[2:] - 2 * u[1:-1] + u[:-2]) / (h * h)
        return -lap + (potential(spec, x[1:-1]) - z) * u[1:-1]
    return residual


def _dirac_defect(spec, z, x, u, h):
    """Centred residual of the first-order Dirac system, worst component."""
    c = spec.c
    s = 0.5 * c * c
    u1, u2 = u[:, 0], u[:, 1]
    d1 = (u1[2:] - u1[:-2]) / (2 * h)
    d2 = (u2[2:] - u2[:-2]) / (2 * h)
    r1 = -1j * c * d2 + (s - z) * u1[1:-1]
    r2 = -1j * c * d1 - (s + z) * u2[1:-1]
    return np.maximum(np.abs(r1), np.abs(r2))


_constant_v_defect = _schrodinger_defect(lambda s, x: s.v)


@dataclass(frozen=True)
class _Family:
    """How one family is built and checked (see the module docstring)."""

    factory: object
    checks: tuple  # each spec -> None, raising ValueError
    # names of the herglotz coefficient, its array form and its z-derivative (or
    # None), looked up when a triplet is built, so wrappers installed on herglotz see calls
    m: str
    m_grid: str
    dm: str
    dim: int  # boundary dimension
    diagonal: object  # (spec, m, m_grid or dm) -> z or zs -> the dim scalars of the diagonal
    kernel: object  # (spec, z) -> AnalyticKernel fields of the gamma columns
    traces: object  # (spec, values, x-derivatives at the boundary points) -> G0, G1
    defect: object  # (spec, z, x, u, h) -> residual of (A* - z) u at x[1:-1]
    value_dim: int = 1


FAMILY_TABLE = {
    "schrodinger-right": _Family(
        schrodinger_right, (), "m_schrodinger_halfline", "m_schrodinger_halfline_grid",
        "dm_schrodinger_halfline", 1, lambda s, m: lambda z: [m(z, s.v)],
        partial(_halfline_kernel, 1j, "b", _schrodinger_wave),
        lambda s, f, d: (f[0, :1], d[0, :1]), _constant_v_defect),
    "schrodinger-left": _Family(
        schrodinger_left, (), "m_schrodinger_halfline", "m_schrodinger_halfline_grid",
        "dm_schrodinger_halfline", 1, lambda s, m: lambda z: [m(z, s.v)],
        partial(_halfline_kernel, -1j, "a", _schrodinger_wave),
        lambda s, f, d: (f[0, :1], -d[0, :1]), _constant_v_defect),
    "schrodinger-interval": _Family(
        schrodinger_interval, (_check_endpoints,), "m_interval", "m_interval_grid", "dm_interval",
        2, lambda s, m: partial(m, v=s.v, d=s.half_length), _schrodinger_interval_kernel,
        lambda s, f, d: _symmetrized(f[:, 0], [d[0, 0], -d[1, 0]]), _constant_v_defect),
    "dirac-right": _Family(
        dirac_right, (_check_speed,), "m_dirac", None, None, 1,
        lambda s, m: lambda z: [m(z, s.c)], partial(_halfline_kernel, 1j, "b", _dirac_wave),
        lambda s, f, d: (f[0, :1], (1j * s.c) * f[0, 1:]), _dirac_defect, value_dim=2),
    "dirac-interval": _Family(
        dirac_interval, (_check_endpoints, _check_speed), "m_dirac_interval", None, None, 2,
        lambda s, m: partial(m, c=s.c, d=s.half_length), _dirac_interval_kernel,
        lambda s, f, d: _symmetrized(f[:, 0], [1j * s.c * f[0, 1], -1j * s.c * f[1, 1]]),
        _dirac_defect, value_dim=2),
    "full-line-contact": _Family(
        full_line_contact, (), "m_schrodinger_halfline", "m_schrodinger_halfline_grid",
        "dm_schrodinger_halfline", 2, lambda s, m: lambda z: [m(z, s.v_l), m(z, s.v_r)],
        _contact_kernel,
        # one-sided traces at the contact: the kernel holds the left column's
        # -0 limit and the right column's +0 limit at x = 0
        lambda s, f, d: (np.diag(f[0, 0]), np.diag([-d[0, 0, 0], d[0, 0, 1]])),
        _schrodinger_defect(lambda s, x: np.where(x < 0, s.v_l, s.v_r))),
}
# family -> factory; a family's parameters are its factory's keywords
FACTORIES = {name: fam.factory for name, fam in FAMILY_TABLE.items()}
FAMILIES = tuple(FAMILY_TABLE)


def _weyl_matrix(spec):
    fam = FAMILY_TABLE[spec.family]

    def diag(name):  # z (or zs) -> the family's scalars, one per boundary coordinate
        return name and fam.diagonal(spec, getattr(hg, name))
    return WeylFunction(fam.dim, diag(fam.m), diag(fam.dm), diagonal=True,
                        eval_grid=diag(fam.m_grid))


def _gamma_kernel(spec, z):
    """AnalyticKernel of the gamma-field columns at z (Gamma0-trace = I)."""
    fam = FAMILY_TABLE[spec.family]
    return AnalyticKernel(dim=fam.dim, value_dim=fam.value_dim,
                          **fam.kernel(spec, complex(z)))


def build_triplet(spec):
    """BoundaryTriplet of the catalogue entry ``spec``."""
    return BoundaryTriplet(weyl=_weyl_matrix(spec), gamma=lambda z: _gamma_kernel(spec, z))


def gamma_boundary_data(spec, z):
    """(Gamma0, Gamma1) applied to the gamma columns, from closed forms.

    Uses kernel endpoint values and analytic x-derivatives only — no
    Weyl-function formulas — so that comparing the result against
    (I, M(z)) is a genuine cross-check of the catalogue.
    """
    kern = _gamma_kernel(spec, z)
    x = np.array([p for p in (*kern.domain, *kern.split_points) if np.isfinite(p)])
    ders = None if kern.columns_dx is None else kern.columns_dx(x)
    return FAMILY_TABLE[spec.family].traces(spec, kern.values(x), ders)


def verify_defect_equation(spec, z, grid):
    """Finite-difference residual of (A* - z) on a gamma image.

    ``grid`` must be uniform and inside the spec's spatial domain.
    Schrodinger families use the centered second difference; Dirac
    families the centered first-order system residual.  Stencils
    touching a split point of the kernel (the full-line contact point)
    are skipped.
    """
    z = complex(z)
    grid = np.asarray(grid, dtype=float)
    h = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), h, rtol=0, atol=1e-12 * abs(h)):
        raise ValueError("defect check needs a uniform grid")
    kern = _gamma_kernel(spec, z)
    d = kern.dim
    u = kern.values(grid, np.ones(d) / np.sqrt(d))  # (n, value_dim)
    res = np.abs(FAMILY_TABLE[spec.family].defect(spec, z, grid, u, h))
    keep = np.ones(len(res), dtype=bool)
    for p in kern.split_points:
        keep &= np.abs(grid[1:-1] - p) > 1.5 * abs(h)
    return float(res[keep].max())


def interval_weyl_poles(spec, count=4):
    """First ``count`` poles of each interval Weyl branch.

    Branch 1 (tan) poles sit at ((2n-1) pi / (2 dd))^2 + v, branch 2
    (cot) poles at (n pi / dd)^2 + v, n = 1..count; their union is the
    Dirichlet spectrum ((n pi / (2 dd))^2 + v over all n >= 1.
    """
    if spec.family != "schrodinger-interval":
        raise ValueError("pole catalogue applies to the Schrodinger interval")
    dd = spec.half_length
    n = np.arange(1, count + 1)
    b1 = ((2 * n - 1) * np.pi / (2 * dd)) ** 2 + spec.v
    b2 = (n * np.pi / dd) ** 2 + spec.v
    return {"branch1": b1, "branch2": b2}
