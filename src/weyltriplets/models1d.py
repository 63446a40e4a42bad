"""Catalogue of concrete 1-D boundary triplets with closed-form kernels.

Families: Schrodinger half-lines and interval (constant potential),
Dirac half-line and interval (mass s = c^2/2), and the two-lead
full-line point contact.  Each factory wires the scalar Weyl
coefficients from :mod:`herglotz` to gamma-fields realized as
AnalyticKernel objects (explicit solutions of the defect equation,
normalized so the Gamma0-trace of each column is a standard basis
vector).

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

import numpy as np

from . import herglotz as hg
from .triplets import AnalyticKernel, BoundaryTriplet, GammaField, WeylFunction

__all__ = [
    "ModelSpec",
    "schrodinger_right",
    "schrodinger_left",
    "schrodinger_interval",
    "dirac_right",
    "dirac_interval",
    "full_line_contact",
    "build_triplet",
    "gamma_boundary_data",
    "eval_gamma_on_grid",
    "verify_defect_equation",
    "interval_weyl_poles",
    "FAMILIES",
    "FACTORIES",
]

# Below this |w|*length, sin(w t)/sin(w dd) switches to its Taylor ratio
# (removable singularity at w = 0).
_RATIO_CUTOFF = 1e-6


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
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        if self.family in ("schrodinger-interval", "dirac-interval"):
            if self.a is None or self.b is None or not self.a < self.b:
                raise ValueError("interval families need endpoints a < b")
        if self.family.startswith("dirac") and not self.c > 0:
            raise ValueError("Dirac speed c must be positive")
        if self.family.startswith("dirac") and not np.isfinite(0.5 * self.c * self.c):
            raise ValueError("Dirac mass s = c^2/2 overflows at c = %r" % self.c)

    @property
    def midpoint(self):
        return 0.5 * (self.a + self.b)

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


# family -> factory; a family's parameters are its factory's keywords
FACTORIES = {
    "schrodinger-right": schrodinger_right,
    "schrodinger-left": schrodinger_left,
    "schrodinger-interval": schrodinger_interval,
    "dirac-right": dirac_right,
    "dirac-interval": dirac_interval,
    "full-line-contact": full_line_contact,
}
FAMILIES = tuple(FACTORIES)


def _ratio_sin(w, t, dd):
    """sin(w t)/sin(w dd) with the removable w -> 0 limit t/dd."""
    t = np.asarray(t, dtype=float)
    if abs(w) * max(np.abs(t).max(initial=0.0), dd) < _RATIO_CUTOFF:
        return (t / dd) * (1.0 + w * w * (t * t - dd * dd) / 6.0)
    return np.sin(w * t) / np.sin(w * dd)


def _dratio_cos(w, t, dd):
    """d/dt of the above: w cos(w t)/sin(w dd), with its w -> 0 limit."""
    t = np.asarray(t, dtype=float)
    if abs(w) * max(np.abs(t).max(initial=0.0), dd) < _RATIO_CUTOFF:
        return (1.0 / dd) * (1.0 + w * w * (3.0 * t * t - dd * dd) / 6.0)
    return w * np.cos(w * t) / np.sin(w * dd)


def _weyl_matrix(spec):
    f = spec.family
    if f in ("schrodinger-right", "schrodinger-left"):
        ev = lambda z: np.array([[hg.m_schrodinger_halfline(z, spec.v)]])
        dv = lambda z: np.array([[hg.dm_schrodinger_halfline(z, spec.v)]])
        return WeylFunction(1, ev, derivative=dv,
                            resolvent_set_hint="C minus [v, inf)")
    if f == "schrodinger-interval":
        dd = spec.half_length

        def ev(z):
            return np.diag([
                hg.m_interval(z, spec.v, dd, 1),
                hg.m_interval(z, spec.v, dd, 2),
            ])

        def dv(z):
            return np.diag([
                hg.dm_interval(z, spec.v, dd, 1),
                hg.dm_interval(z, spec.v, dd, 2),
            ])

        return WeylFunction(2, ev, derivative=dv,
                            resolvent_set_hint="C minus the Dirichlet spectrum")
    if f == "dirac-right":
        ev = lambda z: np.array([[hg.m_dirac(z, spec.c)]])
        return WeylFunction(1, ev,
                            resolvent_set_hint="C minus (-inf,-s] U [s, inf)")
    if f == "dirac-interval":
        dd = spec.half_length

        def ev(z):
            return np.diag([
                hg.m_dirac(z, spec.c, "interval", dd, 1),
                hg.m_dirac(z, spec.c, "interval", dd, 2),
            ])

        return WeylFunction(2, ev, resolvent_set_hint="C minus Dirac point spectra")
    # full-line contact
    def ev(z):
        return np.diag([
            hg.m_schrodinger_halfline(z, spec.v_l),
            hg.m_schrodinger_halfline(z, spec.v_r),
        ])

    def dv(z):
        return np.diag([
            hg.dm_schrodinger_halfline(z, spec.v_l),
            hg.dm_schrodinger_halfline(z, spec.v_r),
        ])

    return WeylFunction(2, ev, derivative=dv,
                        resolvent_set_hint="C minus [min(v_l,v_r), inf)")


def _gamma_kernel(spec, z):
    """AnalyticKernel of the gamma-field columns at z (Gamma0-trace = I)."""
    f = spec.family
    z = complex(z)
    if f == "schrodinger-right":
        w = hg.sqrt_cut(z - spec.v)
        b = spec.b
        return AnalyticKernel(
            columns=lambda x: np.exp(1j * w * (np.asarray(x) - b))[:, None, None],
            columns_dx=lambda x: (1j * w)
            * np.exp(1j * w * (np.asarray(x) - b))[:, None, None],
            domain=(b, np.inf),
            decay_rate=w.imag,
            label="right half-line kernel",
        )
    if f == "schrodinger-left":
        w = hg.sqrt_cut(z - spec.v)
        a = spec.a
        return AnalyticKernel(
            columns=lambda x: np.exp(-1j * w * (np.asarray(x) - a))[:, None, None],
            columns_dx=lambda x: (-1j * w)
            * np.exp(-1j * w * (np.asarray(x) - a))[:, None, None],
            domain=(-np.inf, a),
            decay_rate=w.imag,
            label="left half-line kernel",
        )
    if f == "schrodinger-interval":
        w = hg.sqrt_cut(z - spec.v)
        nu, dd = spec.midpoint, spec.half_length
        cw = np.cos(w * dd)
        s2 = np.sqrt(2.0)

        def cols(x):
            t = np.asarray(x, dtype=float) - nu
            out = np.empty((len(t), 1, 2), dtype=complex)
            out[:, 0, 0] = np.cos(w * t) / (s2 * cw)
            out[:, 0, 1] = _ratio_sin(w, t, dd) / s2
            return out

        def cols_dx(x):
            t = np.asarray(x, dtype=float) - nu
            out = np.empty((len(t), 1, 2), dtype=complex)
            out[:, 0, 0] = -w * np.sin(w * t) / (s2 * cw)
            out[:, 0, 1] = _dratio_cos(w, t, dd) / s2
            return out

        return AnalyticKernel(
            columns=cols,
            columns_dx=cols_dx,
            domain=(spec.a, spec.b),
            label="interval even/odd kernels",
        )
    if f == "dirac-right":
        k1 = hg.dirac_k1(z, spec.c)
        k = hg.dirac_k(z, spec.c)
        b = spec.b

        def cols(x):
            e = np.exp(1j * k * (np.asarray(x) - b))
            out = np.empty((len(e), 2, 1), dtype=complex)
            out[:, 0, 0] = e
            out[:, 1, 0] = k1 * e
            return out

        def cols_dx(x):
            e = 1j * k * np.exp(1j * k * (np.asarray(x) - b))
            out = np.empty((len(e), 2, 1), dtype=complex)
            out[:, 0, 0] = e
            out[:, 1, 0] = k1 * e
            return out

        return AnalyticKernel(
            columns=cols,
            columns_dx=cols_dx,
            domain=(b, np.inf),
            value_dim=2,
            decay_rate=k.imag,
            label="Dirac half-line spinor kernel",
        )
    if f == "dirac-interval":
        c = spec.c
        s = 0.5 * c * c
        k1 = hg.dirac_k1(z, c)
        k = hg.dirac_k(z, c)
        nu, dd = spec.midpoint, spec.half_length
        ck = np.cos(k * dd)
        s2 = np.sqrt(2.0)
        small = abs(k) * max(abs(spec.a - nu), abs(spec.b - nu), dd) < _RATIO_CUTOFF

        def cols(x):
            t = np.asarray(x, dtype=float) - nu
            out = np.empty((len(t), 2, 2), dtype=complex)
            out[:, 0, 0] = np.cos(k * t) / (s2 * ck)
            out[:, 1, 0] = 1j * k1 * np.sin(k * t) / (s2 * ck)
            if small:
                # sin(kt)/sin(k dd) -> t/dd and k1*cos/sin(k dd) -> c/((z+s) dd)
                out[:, 0, 1] = (t / dd) / s2
                out[:, 1, 1] = -1j * (c / ((z + s) * dd)) * np.cos(k * t) / s2
            else:
                sk = np.sin(k * dd)
                out[:, 0, 1] = np.sin(k * t) / (s2 * sk)
                out[:, 1, 1] = -1j * k1 * np.cos(k * t) / (s2 * sk)
            return out

        return AnalyticKernel(
            columns=cols,
            domain=(spec.a, spec.b),
            value_dim=2,
            label="Dirac interval spinor kernels",
        )
    # full-line contact
    wl = hg.sqrt_cut(z - spec.v_l)
    wr = hg.sqrt_cut(z - spec.v_r)

    def cols(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros((len(x), 1, 2), dtype=complex)
        left = x <= 0
        out[left, 0, 0] = np.exp(-1j * wl * x[left])
        out[~left, 0, 1] = np.exp(1j * wr * x[~left])
        # both columns share the contact value at x = 0
        out[x == 0, 0, 1] = 1.0
        return out

    def cols_dx(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros((len(x), 1, 2), dtype=complex)
        left = x <= 0
        out[left, 0, 0] = -1j * wl * np.exp(-1j * wl * x[left])
        out[~left, 0, 1] = 1j * wr * np.exp(1j * wr * x[~left])
        out[x == 0, 0, 1] = 1j * wr
        return out

    return AnalyticKernel(
        columns=cols,
        columns_dx=cols_dx,
        domain=(-np.inf, np.inf),
        decay_rate=min(wl.imag, wr.imag),
        split_points=(0.0,),
        label="two-lead contact kernels",
    )


def build_triplet(spec):
    """BoundaryTriplet of the catalogue entry ``spec``."""
    weyl = _weyl_matrix(spec)
    gamma = GammaField(weyl.dim, lambda z: _gamma_kernel(spec, z))
    return BoundaryTriplet(weyl=weyl, gamma=gamma, label=spec.family)


def gamma_boundary_data(spec, z):
    """(Gamma0, Gamma1) applied to the gamma columns, from closed forms.

    Uses kernel endpoint values and analytic x-derivatives only — no
    Weyl-function formulas — so that comparing the result against
    (I, M(z)) is a genuine cross-check of the catalogue.
    """
    z = complex(z)
    kern = _gamma_kernel(spec, z)
    f = spec.family
    s2 = np.sqrt(2.0)
    if f == "schrodinger-right":
        pts = np.array([spec.b])
        G0 = kern.values(pts)[0, 0, :][None, :]
        G1 = kern.columns_dx(pts)[0, 0, :][None, :]
        return G0, G1
    if f == "schrodinger-left":
        pts = np.array([spec.a])
        G0 = kern.values(pts)[0, 0, :][None, :]
        G1 = -kern.columns_dx(pts)[0, 0, :][None, :]
        return G0, G1
    if f == "schrodinger-interval":
        pts = np.array([spec.a, spec.b])
        vals = kern.values(pts)[:, 0, :]  # (2 pts, 2 cols)
        ders = kern.columns_dx(pts)[:, 0, :]
        fa, fb = vals[0], vals[1]
        da, db = ders[0], ders[1]
        G0 = np.vstack([(fb + fa) / s2, (fb - fa) / s2])
        G1 = np.vstack([(da - db) / s2, -(da + db) / s2])
        return G0, G1
    if f == "dirac-right":
        pts = np.array([spec.b])
        vals = kern.values(pts)[0]  # (2, 1)
        G0 = vals[0, :][None, :]
        G1 = (1j * spec.c) * vals[1, :][None, :]
        return G0, G1
    if f == "dirac-interval":
        pts = np.array([spec.a, spec.b])
        vals = kern.values(pts)  # (2 pts, 2 spinor, 2 cols)
        f1a, f1b = vals[0, 0, :], vals[1, 0, :]
        g1a = 1j * spec.c * vals[0, 1, :]  # Gamma1 trace at a
        g1b = -1j * spec.c * vals[1, 1, :]  # and at b
        G0 = np.vstack([(f1b + f1a) / s2, (f1b - f1a) / s2])
        G1 = np.vstack([(g1b + g1a) / s2, (g1b - g1a) / s2])
        return G0, G1
    # full-line contact: one-sided traces at the contact point (the
    # kernel arrays carry the left column's -0 limit and the right
    # column's +0 limit at x = 0; the cross supports vanish identically)
    pts = np.array([0.0])
    vals = kern.values(pts)[0, 0, :]
    ders = kern.columns_dx(pts)[0, 0, :]
    G0 = np.diag(vals).astype(complex)
    G1 = np.diag([-ders[0], ders[1]]).astype(complex)
    return G0, G1


def eval_gamma_on_grid(triplet, z, boundary_vector, grid):
    """Sample gamma(z) xi on a spatial grid.

    Returns shape (n,) for scalar kernels and (n, 2) for spinors.
    """
    img = triplet.gamma(z)
    vals = img.values(np.asarray(grid, dtype=float),
                      np.asarray(boundary_vector, dtype=complex))
    return vals[:, 0] if vals.shape[1] == 1 else vals


def verify_defect_equation(spec, z, grid, xi=None):
    """Finite-difference residual of (A* - z) on a gamma image.

    ``grid`` must be uniform and inside the spec's spatial domain.
    Schrodinger families use the centered second difference; Dirac
    families the centered first-order system residual.  Stencils
    straddling the full-line contact point are skipped.
    """
    z = complex(z)
    grid = np.asarray(grid, dtype=float)
    h = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), h, rtol=0, atol=1e-12 * abs(h)):
        raise ValueError("defect check needs a uniform grid")
    kern = _gamma_kernel(spec, z)
    d = kern.dim
    if xi is None:
        xi = np.ones(d) / np.sqrt(d)
    u = kern.values(grid, np.asarray(xi, dtype=complex))  # (n, value_dim)
    f = spec.family
    if f.startswith("dirac"):
        c = spec.c
        s = 0.5 * c * c
        u1, u2 = u[:, 0], u[:, 1]
        d1 = (u1[2:] - u1[:-2]) / (2 * h)
        d2 = (u2[2:] - u2[:-2]) / (2 * h)
        r1 = -1j * c * d2 + (s - z) * u1[1:-1]
        r2 = -1j * c * d1 - (s + z) * u2[1:-1]
        return float(max(np.abs(r1).max(), np.abs(r2).max()))
    if f == "full-line-contact":
        pot = np.where(grid < 0, spec.v_l, spec.v_r)
    else:
        pot = np.full(len(grid), spec.v)
    uu = u[:, 0]
    lap = (uu[2:] - 2 * uu[1:-1] + uu[:-2]) / (h * h)
    res = -lap + (pot[1:-1] - z) * uu[1:-1]
    if f == "full-line-contact":
        # exclude stencils touching the contact kink at x = 0
        keep = np.abs(grid[1:-1]) > 1.5 * abs(h)
        res = res[keep]
    return float(np.abs(res).max())


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
