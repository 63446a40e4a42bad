"""Operator-valued spectral integrals against pure-point measures.

The only measures representable here are atomic (equivalently,
piecewise-constant distribution functions): a sorted list of atoms
(lambda_k, block_dim_k) whose orthogonal eigenprojections sum to the
identity of the truncated space.  An operator function Omega maps each
real lambda to a d x d matrix, optionally with a certified growth bound
||Omega(lambda)|| <= C0 (1 + |lambda|)^alpha used for improper-integral
truncation plans.

The spectral integral of Omega against the measure is the exact sum

    integral = sum_k Omega(lambda_k) (x) P_k,

assembled by ``kron_sum`` in the order of H (x) T: boundary index
outer, atom slot inner.  ``kron_sum`` is the one assembler of such
sums; the tensor-sum constructions use it too.  A Riemann-Stieltjes
refinement driver mirrors the partition-limit definition and
integrates against piecewise-constant measures given only cell data.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralMeasurePP",
    "OperatorFunctionOnR",
    "kron_sum",
    "integral_pp",
    "integral_riemann",
    "admissibility_residual",
    "truncation_plan",
    "MomentDivergenceError",
    "RefinementError",
]

MAX_REFINEMENT_DEPTH = 24


class MomentDivergenceError(ArithmeticError):
    """The weighted moment sums fail a Cauchy test: no finite window."""


class RefinementError(RuntimeError):
    """Riemann-Stieltjes refinement did not converge within max depth."""


@dataclass(frozen=True)
class SpectralMeasurePP:
    """Pure-point spectral measure: sorted atoms with block dimensions.

    ``atoms`` is a tuple of (lambda, dim) with strictly increasing
    lambda.  ``window`` records an optional truncation interval when the
    atoms are a finite slice of an unbounded spectrum
    (``source_unbounded`` marks that case).
    """

    atoms: tuple
    window: tuple = None
    source_unbounded: bool = False

    def __post_init__(self):
        atoms = tuple((float(l), int(d)) for l, d in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        lams = [l for l, _ in atoms]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("atoms must be strictly increasing in lambda")
        if any(d <= 0 for _, d in atoms):
            raise ValueError("block dimensions must be positive")

    @classmethod
    def from_levels(cls, levels, dims=1, **kw):
        levels = list(levels)
        if np.isscalar(dims):
            dims = [dims] * len(levels)
        return cls(tuple(zip(levels, dims)), **kw)

    @property
    def total_dim(self):
        return sum(d for _, d in self.atoms)

    @property
    def lambdas(self):
        return np.array([l for l, _ in self.atoms])

    def block_offsets(self):
        """Offsets of each atom's block in the atom-ordered total space."""
        offs = [0]
        for _, d in self.atoms:
            offs.append(offs[-1] + d)
        return offs

    def slots(self):
        """Per-atom slot index arrays of the total space, in atom order."""
        offs = self.block_offsets()
        return [np.arange(lo, hi) for lo, hi in zip(offs, offs[1:])]


@dataclass(frozen=True)
class OperatorFunctionOnR:
    """Matrix-valued function of a real variable with optional growth tag.

    The certified pair (C0, alpha) asserts
    ||eval(lambda)||_2 <= C0 (1 + |lambda|)^alpha and is consumed by
    ``truncation_plan``; leave both None for uncertified integrands.
    """

    dim: int
    eval: object  # callable lambda -> (dim, dim) array
    C0: float = None
    alpha: float = None

    def __call__(self, lam):
        out = np.atleast_2d(np.asarray(self.eval(lam), dtype=complex))
        if out.shape != (self.dim, self.dim):
            raise ValueError(
                "operator function returned shape %s, expected (%d, %d)"
                % (out.shape, self.dim, self.dim)
            )
        return out

    @property
    def certified(self):
        return self.C0 is not None and self.alpha is not None

    def check_certificate(self, lambdas):
        """Max violation of the certified bound on sampled lambdas (diagnostic)."""
        if not self.certified:
            raise ValueError("no certified (C0, alpha) pair on this function")
        worst = 0.0
        for lam in lambdas:
            bound = self.C0 * (1.0 + abs(lam)) ** self.alpha
            worst = max(worst, np.linalg.norm(self(lam), 2) - bound)
        return worst


def kron_sum(blocks, measure, d):
    """sum_k blocks[k] (x) P_k for d x d blocks, one per atom.

    Entry (i * total + s, j * total + s) holds blocks[k][i, j] for every
    slot s of atom k: the order of H (x) T, boundary index outer.
    """
    total = measure.total_dim
    out = np.zeros((d * total, d * total), dtype=complex)
    grid = out.reshape(d, total, d, total)
    for B, sl in zip(blocks, measure.slots()):
        grid[:, sl, :, sl] = B
    return out


def integral_pp(omega, measure):
    """Exact spectral integral sum_k Omega(lambda_k) (x) P_k.

    Assembled by ``kron_sum`` in the order of H (x) T; total size =
    omega.dim * measure.total_dim.
    """
    return kron_sum([omega(lam) for lam, _ in measure.atoms], measure, omega.dim)


def integral_riemann(omega, measure, a=None, b=None, tol=1e-10,
                     max_depth=MAX_REFINEMENT_DEPTH):
    """Riemann-Stieltjes integral by partition refinement.

    Sums Omega(tag_j) F([t_j, t_{j+1})) over a partition of [a, b) with
    left-endpoint tags, halving cells and splitting them at interior
    jump points until two successive sums agree within ``tol``.  For the
    piecewise-constant measures representable here the refinement
    terminates exactly once every atom sits at the left endpoint of its
    cell, at which point the sum equals ``integral_pp``.

    Each atom lies in exactly one cell, so a partial sum is
    ``integral_pp`` of the Omega that tags each atom with the left
    endpoint of its cell; Omega is evaluated once per atom, not once per
    non-empty cell.
    """
    lams = measure.lambdas
    if a is None:
        a = float(lams.min())
    if b is None:
        b = float(lams.max()) + 1.0
    if not (a <= lams.min() and lams.max() < b):
        raise ValueError("[a, b) must contain all atoms")

    def riemann_sum(points):
        cells = np.searchsorted(points, lams, side="right") - 1
        tag_of = dict(zip(lams.tolist(), np.asarray(points)[cells]))
        return integral_pp(
            OperatorFunctionOnR(omega.dim, lambda lam: omega(tag_of[lam])), measure
        )

    points = list(np.linspace(a, b, 9))
    prev = riemann_sum(points)
    for _ in range(max_depth):
        refined = []
        for lo, hi in zip(points[:-1], points[1:]):
            refined.append(lo)
            # split at interior atoms first so jumps become endpoints
            inner = [l for l in lams if lo < l < hi]
            refined.extend(inner)
            if not inner:
                refined.append(0.5 * (lo + hi))
        refined.append(points[-1])
        points = refined
        cur = riemann_sum(points)
        if np.abs(cur - prev).max() < tol:
            return cur
        prev = cur
    raise RefinementError(
        "Riemann-Stieltjes refinement did not stabilize in %d rounds" % max_depth
    )


def admissibility_residual(omega, measure, probe_sets):
    """Commutation defect of Omega with the measure's projections.

    ``probe_sets`` are lists of atom indices (unions of atoms).  The
    integrand is evaluated at every atom position; Omega must act on the
    measure's total space, i.e. omega.dim is an integer multiple c of
    measure.total_dim, with the projection F(delta) = I_c (x) P_delta in
    the order of ``kron_sum``.  Returns

        max_{lambda, delta} || Omega(lambda) F(delta)
                               - F(delta) Omega(lambda) F(delta) ||_2.
    """
    total = measure.total_dim
    if omega.dim % total != 0:
        raise ValueError(
            "omega.dim = %d is not a multiple of total_dim = %d"
            % (omega.dim, total)
        )
    c = omega.dim // total
    worst = 0.0
    for idxs in probe_sets:
        F = kron_sum([float(k in idxs) * np.eye(c) for k in range(len(measure.atoms))],
                     measure, c)
        for lam, _ in measure.atoms:
            O = omega(lam)
            resid = O @ F - F @ O @ F
            worst = max(worst, np.linalg.norm(resid, 2))
    return worst


def truncation_plan(omega, atom_stream, f_moment, tol, symmetric=False,
                    max_atoms=200000):
    """Smallest truncation window certified by the moment tail bound.

    The improper integral of Omega against the spectral measure applied
    to a vector f converges when sum_k C0^2 (1+|lambda_k|)^{2 alpha}
    ||E({lambda_k}) f||^2 is finite; this routine consumes the atom
    stream, forms those weights with f_moment(k) = ||E({lambda_k}) f||^2,
    and returns the smallest window such that the certified tail is
    below tol^2.

    Divergence is detected by a Cauchy test over doubling index windows:
    if consecutive doubling-block sums stop decaying (ratio >= 0.75)
    or fail to decay at all, MomentDivergenceError is raised; otherwise
    the remaining tail is extrapolated geometrically.

    Returns a dict with the window, the certified bound, the (C0,
    alpha) pair used and whether it was certified or fitted.
    """
    lams, weights, norms = [], [], []
    C0, alpha, certified = omega.C0, omega.alpha, omega.certified
    for k, lam in enumerate(atom_stream):
        if k >= max_atoms:
            break
        lams.append(float(lam))
        # the norms only feed the fit of an uncertified Omega
        if not certified:
            norms.append(np.linalg.norm(omega(lam), 2))
        weights.append(f_moment(k))
    lams = np.asarray(lams)
    weights = np.asarray(weights)
    if not certified:
        norms = np.asarray(norms)
        # log-log fit over the sampled range; flagged as uncertified
        mask = (1.0 + np.abs(lams)) > 1.0
        if mask.sum() >= 2:
            alpha = max(
                0.0,
                np.polyfit(np.log1p(np.abs(lams[mask])), np.log(norms[mask] + 1e-300), 1)[0],
            )
        else:
            alpha = 0.0
        C0 = float((norms / (1.0 + np.abs(lams)) ** alpha).max())
    w = C0**2 * (1.0 + np.abs(lams)) ** (2.0 * alpha) * weights

    # Cauchy test over doubling index blocks
    block_sums = []
    j, start = 0, 0
    while start < len(w):
        stop = min(len(w), 2 ** (j + 1))
        block_sums.append(w[start:stop].sum())
        start = stop
        j += 1
    tail_extra = 0.0
    if len(block_sums) >= 4:
        last, prev = block_sums[-1], block_sums[-2]
        if prev > 0 and last > 0:
            rho = last / prev
            if rho >= 1.0:
                raise MomentDivergenceError(
                    "doubling-window moment sums are non-decreasing "
                    "(ratio %.3g); the weighted moment series diverges" % rho
                )
            rho = max(rho, 0.0)
            if rho >= 0.75:
                raise MomentDivergenceError(
                    "doubling-window moment sums decay too slowly "
                    "(ratio %.3g >= 0.75) for a certified finite tail" % rho
                )
            # certified geometric tail beyond the consumed stream
            tail_extra = last * rho / (1.0 - rho)

    # smallest K among atom positions with tail (beyond K) below tol^2
    target = tol * tol
    order = np.argsort(np.abs(lams)) if symmetric else np.argsort(lams)
    sorted_abs = np.abs(lams[order]) if symmetric else lams[order]
    sorted_w = w[order]
    suffix = np.concatenate([np.cumsum(sorted_w[::-1])[::-1], [0.0]])
    K = None
    for idx in range(len(sorted_abs)):
        if suffix[idx + 1] + tail_extra < target:
            K = float(sorted_abs[idx])
            break
    if K is None:
        raise MomentDivergenceError(
            "no window within the consumed stream certifies tail < tol^2"
        )
    window = (-K, K) if symmetric else (float(min(lams.min(), 0.0)), K)
    return {
        "window": window,
        "tail_bound": float(suffix[np.searchsorted(sorted_abs, K, side="right")] + tail_extra),
        "C0": float(C0),
        "alpha": float(alpha),
        "certified": bool(certified),
        "atoms_consumed": int(len(lams)),
    }
