"""Boundary-triplet calculus: Weyl functions, gamma-fields, Krein corrections.

A boundary triplet is carried here as the pair every computation
actually touches: a matrix Weyl function M(z) and a gamma-field
z -> gamma(z), together with bookkeeping (which reference extension the
triplet distinguishes, whether it is normalized, an optional dense
realization of the reference operator for oracle checks).

Gamma-field images come in two concrete representations: dense matrices
(finite-dimensional toys) and analytic kernels (explicit defect
solutions of the 1-D models, integrated by adaptive quadrature).  The
two fundamental Herglotz identities

    M(z) - M(zeta)* = (z - conj zeta) gamma(zeta)* gamma(z)
    gamma(z) = (I + (z - zeta)(S0 - z)^{-1}) gamma(zeta)

are exposed as residual computations, and Krein's resolvent formula

    (S_B - z)^{-1} - (S0 - z)^{-1} = gamma(z) (B - M(z))^{-1} gamma(conj z)*

as a correction object that can be materialized densely or sampled as a
two-point kernel.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import block_diag

from ._linalg import (
    NotPositiveDefiniteError,
    SingularMatrixError,
    herm_inv_sqrt,
    herm_part,
    imag_part,
    is_hermitian,
    solve_guarded,
)

__all__ = [
    "WeylFunction",
    "GammaField",
    "DenseMatrix",
    "AnalyticKernel",
    "BlockDiagImage",
    "BoundaryCondition",
    "BoundaryTriplet",
    "KreinCorrection",
    "krein_correction",
    "LKernel",
    "normalize",
    "direct_sum_normalized",
    "direct_sum_plain",
    "regularize_at_real_point",
    "herglotz_identity_residual",
    "gamma_translation_residual",
    "friedrichs_probe",
    "lsb_uniform_probe",
    "normalize_boundary_maps",
    "QuadratureError",
    "GapViolationError",
    "DomainError",
    "RepresentationError",
    "DiagnosticTripletError",
    "NotPositiveDefiniteError",
    "SingularMatrixError",
]

# Combined decay below which half-line Gram quadrature is refused.
MIN_KERNEL_DECAY = 1e-8


class QuadratureError(RuntimeError):
    """Kernel Gram quadrature cannot converge (decay too slow)."""


class GapViolationError(ValueError):
    """A real point claimed to be in a resolvent gap is not."""


class DomainError(ValueError):
    """A kernel was sampled outside its domain; ``x`` is the first such point."""

    def __init__(self, x, domain):
        super().__init__(
            "x = %.17g lies outside the kernel domain [%g, %g]" % (x, *domain)
        )
        self.x = x


class RepresentationError(TypeError):
    """Operation unsupported for this gamma-image representation."""


class DiagnosticTripletError(RuntimeError):
    """The object is a diagnostic-only construction, not a boundary triplet."""


@dataclass(frozen=True)
class WeylFunction:
    """Matrix Weyl function: dim, an eval map, optional analytic derivative."""

    dim: int
    eval: object  # callable z -> (dim, dim) array
    derivative: object = None  # optional callable z -> (dim, dim) array

    def __call__(self, z):
        out = np.atleast_2d(np.asarray(self.eval(z), dtype=complex))
        if out.shape != (self.dim, self.dim):
            raise ValueError(
                "Weyl function returned shape %s, expected (%d, %d)"
                % (out.shape, self.dim, self.dim)
            )
        return out


@dataclass(frozen=True)
class GammaField:
    """dim boundary columns; eval(z) returns a gamma-image object."""

    dim: int
    eval: object  # callable z -> image

    def __call__(self, z):
        return self.eval(z)


@dataclass(frozen=True)
class DenseMatrix:
    """Gamma image as an explicit n x d matrix."""

    mat: np.ndarray

    @property
    def dim(self):
        return self.mat.shape[1]

    def postmultiply(self, C):
        return DenseMatrix(np.asarray(self.mat) @ np.asarray(C, dtype=complex))

    def gram(self, other):
        """gamma(self)* gamma(other) as an exact d x d product."""
        if not isinstance(other, DenseMatrix):
            raise RepresentationError("cannot form Gram of DenseMatrix with %r" % other)
        return self.mat.conj().T @ other.mat


@dataclass(frozen=True)
class AnalyticKernel:
    """Gamma image as d explicit functions on a real domain.

    ``columns`` maps an x-array of shape (n,) to values of shape
    (n, value_dim, d): one function per boundary coordinate, with
    value_dim = 1 for scalar problems and 2 for spinors.  ``decay_rate``
    is a positive lower bound on the exponential decay toward infinite
    domain ends (used to truncate Gram quadrature); ``split_points``
    marks interior kinks (e.g. a contact point) that quadrature must not
    integrate across blindly.  ``columns_dx`` optionally provides the
    analytic spatial derivative in the same layout.
    """

    columns: object
    domain: tuple
    value_dim: int = 1
    decay_rate: float = None
    split_points: tuple = ()
    columns_dx: object = None

    @property
    def dim(self):
        x0 = self._probe_point()
        return self.columns(np.array([x0])).shape[2]

    def _probe_point(self):
        a, b = self.domain
        if np.isfinite(a) and np.isfinite(b):
            return 0.5 * (a + b)
        if np.isfinite(a):
            return a + 1.0
        if np.isfinite(b):
            return b - 1.0
        return 0.0

    def values(self, x, xi=None):
        """Kernel values on grid x; contracted with boundary vector xi if given.

        Every x must lie in ``domain`` (endpoints included), else DomainError.
        """
        x = np.asarray(x, dtype=float)
        outside = ~((x >= self.domain[0]) & (x <= self.domain[1]))
        if outside.any():
            raise DomainError(float(x[outside].flat[0]), self.domain)
        vals = self.columns(x)
        if xi is None:
            return vals
        return vals @ np.asarray(xi, dtype=complex)

    def slot_samples(self, x):
        """``values(x)`` as a single slot, shape (n, 1, value_dim, d)."""
        return self.values(x)[:, None]

    def postmultiply(self, C):
        C = np.asarray(C, dtype=complex)
        cols = self.columns
        dcols = self.columns_dx
        return replace(
            self,
            columns=lambda x: cols(x) @ C,
            columns_dx=(None if dcols is None else (lambda x: dcols(x) @ C)),
        )

    def _quad_pieces(self, other):
        """Finite integration pieces covering both domains' overlap."""
        a = max(self.domain[0], other.domain[0])
        b = min(self.domain[1], other.domain[1])
        rate = 0.0
        if not np.isfinite(a) or not np.isfinite(b):
            r1 = self.decay_rate if self.decay_rate else 0.0
            r2 = other.decay_rate if other.decay_rate else 0.0
            rate = r1 + r2
            if rate < MIN_KERNEL_DECAY:
                raise QuadratureError(
                    "combined kernel decay %.3g too slow for Gram quadrature" % rate
                )
        length = 30.0 / rate if rate > 0 else None
        if not np.isfinite(a) and not np.isfinite(b):
            a, b = -length, length
        elif not np.isfinite(b):
            b = a + length
        elif not np.isfinite(a):
            a = b - length
        cuts = sorted(
            {float(p) for p in (*self.split_points, *other.split_points) if a < p < b}
        )
        edges = [a, *cuts, b]
        return list(zip(edges[:-1], edges[1:]))

    def gram(self, other):
        """Adaptive-quadrature Gram matrix gamma(self)* gamma(other)."""
        # imported here: scipy.integrate is costly to import and only the
        # Gram matrix needs it
        from scipy.integrate import quad_vec

        if not isinstance(other, AnalyticKernel):
            raise RepresentationError(
                "cannot form Gram of AnalyticKernel with %r" % other
            )

        def integrand(x):
            u = self.columns(np.array([x]))[0]  # (value_dim, d1)
            v = other.columns(np.array([x]))[0]  # (value_dim, d2)
            return u.conj().T @ v

        total = 0.0
        for lo, hi in self._quad_pieces(other):
            val, _ = quad_vec(integrand, lo, hi, epsabs=1e-12, epsrel=1e-11)
            total = total + val
        return total


@dataclass(frozen=True)
class BlockDiagImage:
    """Direct-sum gamma image: per-summand images, block-outer ordering."""

    blocks: tuple

    @property
    def dim(self):
        return sum(b.dim for b in self.blocks)

    def postmultiply(self, C):
        """Postmultiply by a block-diagonal matrix (conformal blocks only)."""
        C = np.asarray(C, dtype=complex)
        dims = [b.dim for b in self.blocks]
        if C.shape != (sum(dims), sum(dims)):
            raise RepresentationError("postmultiplier shape mismatch")
        off = 0
        out = []
        mask = np.ones_like(C, dtype=bool)
        for b, d in zip(self.blocks, dims):
            blk = C[off : off + d, off : off + d]
            mask[off : off + d, off : off + d] = False
            out.append(b.postmultiply(blk))
            off += d
        if C[mask].size and np.abs(C[mask]).max() > 1e-14 * max(1.0, np.abs(C).max()):
            raise RepresentationError(
                "BlockDiagImage only supports block-diagonal postmultipliers"
            )
        return BlockDiagImage(tuple(out))

    def gram(self, other):
        if not isinstance(other, BlockDiagImage) or len(other.blocks) != len(
            self.blocks
        ):
            raise RepresentationError("Gram needs matching block structures")
        d = self.dim
        out = np.zeros((d, d), dtype=complex)
        off = 0
        for b1, b2 in zip(self.blocks, other.blocks):
            g = b1.gram(b2)
            k = g.shape[0]
            out[off : off + k, off : off + k] = g
            off += k
        return out


class BoundaryCondition:
    """Abstract boundary condition selecting a self-adjoint extension.

    Three variants: ``theta0`` is the non-graph relation picking the
    reference extension S0 itself (zero Krein correction); ``theta1`` is
    the graph of the zero operator (boundary condition Gamma1 f = 0);
    ``operator`` carries a Hermitian matrix B (condition
    Gamma1 f = B Gamma0 f).
    """

    __slots__ = ("variant", "B")

    def __init__(self, variant, B=None):
        if variant not in ("theta0", "theta1", "operator"):
            raise ValueError("unknown boundary-condition variant %r" % variant)
        if variant == "operator":
            B = np.atleast_2d(np.asarray(B, dtype=complex))
            if not is_hermitian(B, tol=1e-14):
                raise ValueError("boundary operator payload must be Hermitian")
        elif B is not None:
            raise ValueError("variant %r takes no operator payload" % variant)
        self.variant = variant
        self.B = B

    @classmethod
    def theta0(cls):
        return cls("theta0")

    @classmethod
    def theta1(cls):
        return cls("theta1")

    @classmethod
    def operator(cls, B):
        return cls("operator", B)

    def __repr__(self):
        if self.variant == "operator":
            return "BoundaryCondition.operator(%r)" % (self.B,)
        return "BoundaryCondition.%s()" % self.variant


@dataclass(frozen=True)
class BoundaryTriplet:
    """Weyl function + gamma-field with provenance flags.

    ``normalized`` asserts M(i) = i I (checked lazily via
    ``check_normalized``); ``s0`` optionally carries a dense matrix
    realization of the reference extension for resolvent oracles;
    ``diagnostic_only`` marks constructions (like the plain,
    un-regularized direct sum) that are *not* boundary triplets in
    general and therefore refuse Krein computations.
    """

    weyl: WeylFunction
    gamma: GammaField
    normalized: bool = False
    s0: np.ndarray = None
    diagnostic_only: bool = False

    @property
    def dim(self):
        return self.weyl.dim

    def check_normalized(self):
        Mi = self.weyl(1j)
        dev = np.linalg.norm(Mi - 1j * np.eye(self.dim), 2)
        if self.normalized and dev >= 1e-10:
            raise AssertionError(
                "triplet flagged normalized but ||M(i) - iI|| = %.3g" % dev
            )
        return dev


@dataclass(frozen=True)
class KreinCorrection:
    """The rank-d resolvent correction gamma(z) (B - M(z))^{-1} gamma(conj z)*."""

    z: complex
    weight: np.ndarray  # (d, d) matrix (B - M(z))^{-1}; zero for theta0
    left: object  # gamma image at z
    right: object  # gamma image at conj z

    def dense(self):
        """Materialize as an n x n matrix (dense images only)."""
        if not (isinstance(self.left, DenseMatrix) and isinstance(self.right, DenseMatrix)):
            raise RepresentationError("dense() needs DenseMatrix gamma images")
        return self.left.mat @ self.weight @ self.right.mat.conj().T

    def kernel(self, xs, ys):
        """Sample the correction kernel K(x, y) on a grid pair.

        Both images are read by ``slot_samples``: g = gamma(z) (nx, S, v, d)
        and h = gamma(conj z) (ny, T, v', d'), one slot for a plain kernel
        and one per atom slot for a tensor image.  With W viewed as
        (d, S, d', T), the order of H (x) T,

            (g W)[x, s, a, j, t] = sum_i g[x, s, a, i] W[i, s, j, t]
            K[x, y, (s, a), (t, b)] = sum_j (g W)[x, s, a, j, t] conj h[y, t, b, j]

        of shape (nx, ny, S v, T v'), squeezed to (nx, ny) when
        S v = T v' = 1.  For the JC dot (S = T = N+1, d = 2) this is
        O(nx ny N^2).  Unsampled or mismatched images raise
        RepresentationError.  Both steps are plain einsum loops, not BLAS
        products: BLAS rounds differently and would change the last digits
        of the 17-digit CLI output.
        """
        samplers = [getattr(im, "slot_samples", None) for im in (self.left, self.right)]
        if not all(callable(f) for f in samplers):
            raise RepresentationError("kernel() needs samplable gamma images")
        g, h = samplers[0](xs), samplers[1](ys)
        nx, S, v, d = g.shape
        ny, T, w, e = h.shape
        if self.weight.shape != (d * S, e * T):
            raise RepresentationError("gamma images do not match the weight's shape")
        gW = np.einsum("xsai,isjt->xsajt", g, self.weight.reshape(d, S, e, T))
        K = np.einsum("xsajt,ytbj->xysatb", gW, h.conj()).reshape(nx, ny, S * v, T * w)
        return K[:, :, 0, 0] if K.shape[2:] == (1, 1) else K


def krein_correction(triplet, bc, z):
    """Krein resolvent correction of the extension selected by ``bc`` at z.

    theta0 selects the reference extension itself: the correction is the
    zero operator.  theta1 is the boundary condition Gamma1 f = 0
    (operator B = 0).  A numerically singular B - M(z) (condition number
    beyond 1e12) raises SingularMatrixError: z is approaching the
    spectrum of the selected extension.
    """
    if triplet.diagnostic_only:
        raise DiagnosticTripletError(
            "this is a diagnostic-only construction (not a boundary triplet "
            "in general); Krein corrections are refused"
        )
    z = complex(z)
    d = triplet.dim
    left = triplet.gamma(z)
    right = triplet.gamma(np.conj(z))
    if bc.variant == "theta0":
        weight = np.zeros((d, d), dtype=complex)
        return KreinCorrection(z, weight, left, right)
    B = np.zeros((d, d), dtype=complex) if bc.variant == "theta1" else bc.B
    M = triplet.weyl(z)
    weight = solve_guarded(B - M, np.eye(d), context="B - M(z)")
    return KreinCorrection(z, weight, left, right)


def weyl_derivative(weyl, a):
    """M'(a): analytic when the model provides it, else central difference."""
    if weyl.derivative is not None:
        return np.atleast_2d(np.asarray(weyl.derivative(a), dtype=complex))
    h = 1e-6 * (1.0 + abs(a))
    return (weyl(a + h) - weyl(a - h)) / (2.0 * h)


@dataclass(frozen=True)
class LKernel:
    """Rescaled difference kernel of a Weyl function, shifted by an atom lam.

    ``at(z, lam)`` evaluates, depending on mode,

        imag:  W (M(z - lam) - Re M(i - lam)) W,   W = (Im M(i - lam))^{-1/2}
        real:  W (M(z - lam) - M(a - lam)) W,      W = (M'(a - lam))^{-1/2}

    with the defining exact values L = iI at z = i (imag mode) and
    L = 0 at z = a (real mode).  This is the one rescaling behind
    ``normalize``, the direct sums and every tensor construction; lam = 0
    rescales a single triplet.  Weights are cached per atom shift.
    """

    weyl: WeylFunction
    mode: str  # "imag" | "real"
    anchor: complex = 1j
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("imag", "real"):
            raise ValueError("mode must be 'imag' or 'real'")
        if self.mode == "real" and complex(self.anchor).imag != 0:
            raise ValueError("real-point mode needs a real anchor")

    def weights(self, lam):
        """(W, S, C): C = Im M or M' at the anchor, W = C^{-1/2}, S the subtrahend.

        Real mode needs the anchor in a real resolvent gap: M(a - lam)
        must be evaluable and Hermitian, else GapViolationError.
        """
        lam = float(lam)
        if lam not in self._cache:
            w = self.anchor - lam
            if self.mode == "imag":
                M = self.weyl(w)
                C = imag_part(M)
                what = "Im M(i - %g)" % lam
            else:
                try:
                    M = self.weyl(w)
                except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
                    raise GapViolationError(
                        "cannot evaluate M at a - %g = %g (%s)" % (lam, w, exc)
                    ) from exc
                if np.abs(imag_part(M)).max() > 1e-8 * max(1.0, np.abs(M).max()):
                    raise GapViolationError(
                        "M(a - %g) is not Hermitian at a = %g; "
                        "a is not in a real resolvent gap" % (lam, self.anchor)
                    )
                C = herm_part(weyl_derivative(self.weyl, w))
                what = "M'(a - %g)" % lam
            self._cache[lam] = (herm_inv_sqrt(C, what=what), herm_part(M), C)
        return self._cache[lam]

    def at(self, z, lam):
        d = self.weyl.dim
        if complex(z) == complex(self.anchor):
            return 1j * np.eye(d) if self.mode == "imag" else np.zeros((d, d))
        W, S, _ = self.weights(lam)
        return W @ (self.weyl(complex(z) - float(lam)) - S) @ W


def _rescaled(triplet, mode, anchor):
    """The triplet rescaled by its own LKernel (lam = 0): W (M - S) W, gamma W."""
    lk = LKernel(triplet.weyl, mode, anchor)
    W, _, _ = lk.weights(0.0)
    return BoundaryTriplet(
        weyl=WeylFunction(triplet.dim, lambda z: lk.at(z, 0.0)),
        gamma=GammaField(triplet.dim, lambda z: triplet.gamma(z).postmultiply(W)),
        normalized=mode == "imag",
        s0=triplet.s0,
    )


def _rescaled_blocks(triplets, mode, anchor):
    """Rescale every summand, naming the block whose weights fail."""
    out = []
    for n, t in enumerate(triplets):
        try:
            out.append(_rescaled(t, mode, anchor))
        except (NotPositiveDefiniteError, GapViolationError) as exc:
            raise type(exc)("block %d: %s" % (n, exc)) from exc
    return out


def _direct_sum(blocks, **flags):
    """Block-diagonal Weyl function and s0, BlockDiagImage gamma-field."""
    total = sum(t.dim for t in blocks)
    s0 = [t.s0 for t in blocks]
    return BoundaryTriplet(
        weyl=WeylFunction(total, lambda z: block_diag(*[t.weyl(z) for t in blocks])),
        gamma=GammaField(
            total, lambda z: BlockDiagImage(tuple(t.gamma(z) for t in blocks))
        ),
        s0=block_diag(*s0) if all(m is not None for m in s0) else None,
        **flags,
    )


def normalize(triplet):
    """Renormalize a triplet so that M(i) = i Identity.

    With R = sqrt(Im M(i)) and Q = Re M(i), the transformed pair

        M~(z) = R^{-1} (M(z) - Q) R^{-1},     gamma~(z) = gamma(z) R^{-1}

    is again a boundary triplet for the same reference extension (ker
    Gamma0 unchanged); M~(i) = iI exactly.  Triplets already normalized
    at z = i are returned unchanged (up to the flag).  Fails when Im M(i)
    is not positive definite.
    """
    d = triplet.dim
    if np.linalg.norm(triplet.weyl(1j) - 1j * np.eye(d), 2) < 1e-12:
        return replace(triplet, normalized=True)
    return _rescaled(triplet, "imag", 1j)


def direct_sum_normalized(triplets):
    """Normalized direct sum: blockwise Rn^{-1}(Mn(z) - Qn)Rn^{-1}.

    Unlike the plain direct sum, this *is* a boundary triplet for the
    direct sum of the adjoints, for any (even infinitely many, here
    finitely truncated) summands.
    """
    return _direct_sum(_rescaled_blocks(triplets, "imag", 1j), normalized=True)


def direct_sum_plain(triplets):
    """Plain (un-renormalized) direct sum -- diagnostic only.

    The naive direct sum of infinitely many boundary triplets is not a
    boundary triplet in general (the boundary maps can fail to be
    surjective in the limit); this constructor exists to demonstrate
    that failure mode numerically and refuses Krein computations.
    """
    return _direct_sum(list(triplets), diagnostic_only=True)


def regularize_at_real_point(triplets, a):
    """Direct sum regularized at a common real resolvent point a.

    Each block is transformed to Rn^{-1}(Mn(z) - Mn(a))Rn^{-1} with
    Rn = sqrt(Mn'(a)); the assembled Weyl function satisfies M~(a) = 0
    and M~'(a) = Identity.  Requires a to lie in a real resolvent gap of
    every block (checked by Hermiticity of Mn(a)) with Mn'(a) positive
    definite.
    """
    return _direct_sum(_rescaled_blocks(triplets, "real", float(a)), normalized=False)


def herglotz_identity_residual(triplet, z, zeta):
    """|| M(z) - M(zeta)* - (z - conj zeta) gamma(zeta)* gamma(z) ||_2."""
    z, zeta = complex(z), complex(zeta)
    M_z = triplet.weyl(z)
    M_zeta = triplet.weyl(zeta)
    G = triplet.gamma(zeta).gram(triplet.gamma(z))
    return float(
        np.linalg.norm(M_z - M_zeta.conj().T - (z - np.conj(zeta)) * G, 2)
    )


def gamma_translation_residual(triplet, z, zeta, grid=None, resolvent_apply=None):
    """Residual of gamma(z) = (I + (z - zeta)(S0 - z)^{-1}) gamma(zeta).

    Dense images use the triplet's own dense reference operator ``s0``.
    Analytic kernels need an external resolvent oracle
    ``resolvent_apply(u_samples, z, grid)`` returning samples of
    (S0 - z)^{-1} u on the same grid; the residual is then the max
    pointwise deviation over boundary basis vectors.
    """
    z, zeta = complex(z), complex(zeta)
    gz = triplet.gamma(z)
    gzeta = triplet.gamma(zeta)
    if isinstance(gz, DenseMatrix):
        if triplet.s0 is None:
            raise RepresentationError(
                "dense translation residual needs the triplet's s0 operator"
            )
        n = triplet.s0.shape[0]
        R = np.linalg.solve(triplet.s0 - z * np.eye(n), gzeta.mat)
        pred = gzeta.mat + (z - zeta) * R
        return float(np.abs(gz.mat - pred).max())
    if isinstance(gz, AnalyticKernel):
        if grid is None or resolvent_apply is None:
            raise RepresentationError(
                "kernel translation residual needs a grid and a resolvent oracle"
            )
        if gz.value_dim != 1:
            raise RepresentationError(
                "kernel translation residual implemented for scalar kernels only"
            )
        U_z = gz.values(grid)[:, 0, :]
        U_zeta = gzeta.values(grid)[:, 0, :]
        worst = 0.0
        for j in range(U_z.shape[1]):
            Ru = resolvent_apply(U_zeta[:, j], z, grid)
            pred = U_zeta[:, j] + (z - zeta) * Ru
            worst = max(worst, float(np.abs(U_z[:, j] - pred).max()))
        return worst
    raise RepresentationError("unsupported gamma-image representation %r" % gz)


def _monotone(seq, direction, slack):
    diffs = np.diff(seq)
    if direction == "down":
        return bool((diffs <= slack).all())
    return bool((diffs >= -slack).all())


def friedrichs_probe(weyl, x_grid, f_samples):
    """Limit diagnostics of (M(x) f, f) along a real grid in a gap.

    ``x_grid`` must be strictly decreasing (toward -infinity); the
    Friedrichs indicator checks monotone divergence of (M(x) f, f) to
    -infinity along the grid, the Krein indicator checks divergence to
    +infinity toward the grid's upper end (x increasing to the gap's
    right edge).  Purely diagnostic: verdicts are heuristic flags from
    finite data.
    """
    x = np.asarray(x_grid, dtype=float)
    if not (np.diff(x) < 0).all():
        raise ValueError("x_grid must be strictly decreasing")
    f_samples = [np.asarray(f, dtype=complex) for f in f_samples]
    values = np.empty((len(f_samples), len(x)))
    for j, xv in enumerate(x):
        M = weyl(xv)
        for i, f in enumerate(f_samples):
            values[i, j] = np.real(np.vdot(f, M @ f))
    scale = max(1.0, np.abs(values).max())
    slack = 1e-10 * scale
    fr_dir, kr_dir = [], []
    mid = len(x) // 2
    for i in range(len(f_samples)):
        v = values[i]
        fr = (
            _monotone(v, "down", slack)
            and v[-1] <= v[0] - 1.0
            and v[-1] <= 2.0 * v[mid] + slack
        )
        u = v[::-1]  # x increasing toward the gap's right end
        kr = (
            _monotone(u, "up", slack)
            and u[-1] >= u[0] + 1.0
            and u[-1] >= 2.0 * u[mid] - slack
            and u[-1] > 0
        )
        fr_dir.append(bool(fr))
        kr_dir.append(bool(kr))
    return {
        "x_grid": x,
        "values": values,
        "friedrichs_per_direction": fr_dir,
        "krein_per_direction": kr_dir,
        "friedrichs": all(fr_dir),
        "krein": all(kr_dir),
    }


def lsb_uniform_probe(weyl, N_levels, x_grid):
    """Uniform divergence probe: lambda_max(M(x)) <= -N beyond some x_N.

    For each requested level N, searches the (decreasing) grid for the
    largest x_N such that every grid point x <= x_N has
    lambda_max(M(x)) <= -N.  Reports found/not-found and the witness.
    """
    x = np.asarray(x_grid, dtype=float)
    if not (np.diff(x) < 0).all():
        raise ValueError("x_grid must be strictly decreasing")
    lmax = np.array(
        [np.linalg.eigvalsh(herm_part(weyl(xv))).max() for xv in x]
    )
    # suffix_ok[j]: lambda_max <= -N for all grid points from j onward
    results = []
    for N in N_levels:
        ok = lmax <= -float(N)
        suffix_ok = np.logical_and.accumulate(ok[::-1])[::-1]
        if suffix_ok.any():
            j = int(np.argmax(suffix_ok))
            results.append({"N": float(N), "found": True, "x_N": float(x[j])})
        else:
            results.append({"N": float(N), "found": False, "x_N": None})
    return {"x_grid": x, "lambda_max": lmax, "levels": results}


def normalize_boundary_maps(Gamma0, Gamma1, R, Q):
    """Boundary-map counterpart of ``normalize``.

    Returns (R Gamma0, R^{-1}(Gamma1 - Q Gamma0)); the boundary
    condition Gamma1 = B Gamma0 is equivalent to the transformed
    condition with B~ = R^{-1}(B - Q)R^{-1}, with identical kernels.
    """
    Gamma0 = np.asarray(Gamma0, dtype=complex)
    Gamma1 = np.asarray(Gamma1, dtype=complex)
    R = np.asarray(R, dtype=complex)
    Rinv = np.linalg.inv(R)
    return R @ Gamma0, Rinv @ (Gamma1 - Q @ Gamma0)
