"""Boundary-triplet calculus: Weyl functions, gamma-fields, Krein corrections.

A boundary triplet is carried here as the pair every computation
actually touches: a matrix Weyl function M(z) and a gamma-field
z -> gamma(z).

Gamma-field images come in two concrete representations here: dense
matrices (finite-dimensional toys) and analytic kernels (explicit defect
solutions of the 1-D models, integrated by adaptive quadrature).  Direct
sums over the atoms of a spectral measure, and their images, live in
``tensor``; the JC leads' image in ``jcdot``.  The two fundamental
Herglotz identities

    M(z) - M(zeta)* = (z - conj zeta) gamma(zeta)* gamma(z)
    gamma(z) = (I + (z - zeta)(S0 - z)^{-1}) gamma(zeta)

are exposed as residual computations, and Krein's resolvent formula

    (S_B - z)^{-1} - (S0 - z)^{-1} = gamma(z) (B - M(z))^{-1} gamma(conj z)*

as a correction object that can be materialized densely or sampled as a
two-point kernel.
"""

from dataclasses import dataclass, field, replace

import numpy as np

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
    "DenseMatrix",
    "AnalyticKernel",
    "BoundaryCondition",
    "BoundaryTriplet",
    "KreinCorrection",
    "krein_correction",
    "weyl_derivative",
    "LKernel",
    "normalize",
    "herglotz_identity_residual",
    "gamma_translation_residual",
    "friedrichs_probe",
    "lsb_uniform_probe",
    "QuadratureError",
    "GapViolationError",
    "DomainError",
    "RepresentationError",
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


@dataclass(frozen=True)
class WeylFunction:
    """Matrix Weyl function: dim, an eval map, optional analytic derivative;
    with ``diagonal`` both maps return the dim scalars of a diagonal."""

    dim: int
    eval: object  # callable z -> (dim, dim) array, or its diagonal's dim scalars
    derivative: object = None  # optional callable, same form as eval
    diagonal: bool = False

    def __call__(self, z):
        out = np.asarray(self.eval(z), dtype=complex)
        out = np.diag(out) if self.diagonal else np.atleast_2d(out)
        if out.shape != (self.dim, self.dim):
            raise ValueError(
                "Weyl function returned shape %s, expected (%d, %d)"
                % (out.shape, self.dim, self.dim)
            )
        return out

    def grid(self, zs):
        """M(z) at each z of ``zs``, shape (len(zs), dim, dim), bit for bit the
        stacked self(z); a diagonal one costs its scalar calls and one scatter."""
        n, d = len(zs), self.dim
        if not self.diagonal:
            return np.array([self(z) for z in zs], dtype=complex).reshape(n, d, d)
        vals = np.array([self.eval(z) for z in zs], dtype=complex).reshape(n, d)
        out = np.zeros((n, d, d), dtype=complex)
        out.reshape(n, d * d)[:, :: d + 1] = vals
        return out


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
    """Gamma image as d = ``dim`` explicit functions on a real domain.

    ``columns`` maps an x-array of shape (n,) to values of shape
    (n, value_dim, dim): one function per boundary coordinate, with
    value_dim = 1 for scalar problems and 2 for spinors.  ``decay_rate``
    is a positive lower bound on the exponential decay toward infinite
    domain ends (used to truncate Gram quadrature); ``split_points``
    marks interior kinks (e.g. a contact point) that quadrature must not
    integrate across blindly.  ``columns_dx`` optionally provides the
    analytic spatial derivative in the same layout.
    """

    columns: object
    domain: tuple
    dim: int
    value_dim: int = 1
    decay_rate: float = None
    split_points: tuple = ()
    columns_dx: object = None

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
        # an overflow gives inf or nan, for the callers' finiteness checks
        with np.errstate(over="ignore", invalid="ignore"):
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
            dim=C.shape[1],
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
            if B.ndim != 2 or B.shape[0] != B.shape[1]:
                raise ValueError("boundary operator payload must be a square "
                                 "matrix, got shape %s" % (B.shape,))
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
    """A boundary triplet as the pair (M, gamma) that computations read.

    Direct sums over the atoms of a spectral measure are built in
    ``tensor``.
    """

    weyl: WeylFunction
    gamma: object  # callable z -> gamma image

    @property
    def dim(self):
        return self.weyl.dim


@dataclass(frozen=True)
class KreinCorrection:
    """The rank-d resolvent correction gamma(z) (B - M(z))^{-1} gamma(conj z)*,
    held as its weight and its two gamma images."""

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
        and one per atom slot for a tensor image or the JC leads' image.
        With W viewed as (d, S, d', T), the order of H (x) T,

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
    spectrum of the selected extension.  An operator B must be d x d,
    d the triplet's dimension, else ValueError.
    """
    z = complex(z)
    d = triplet.dim
    if bc.variant == "operator" and bc.B.shape != (d, d):
        raise ValueError(
            "boundary operator B has shape %s, but M(z) has shape (%d, %d)"
            % (bc.B.shape, d, d)
        )
    left = triplet.gamma(z)
    right = triplet.gamma(np.conj(z))
    if bc.variant == "theta0":
        weight = np.zeros((d, d), dtype=complex)
        return KreinCorrection(weight, left, right)
    B = np.zeros((d, d), dtype=complex) if bc.variant == "theta1" else bc.B
    M = triplet.weyl(z)
    weight = solve_guarded(B - M, context="B - M(z)")
    return KreinCorrection(weight, left, right)


def weyl_derivative(weyl, a):
    """M'(a): analytic when the model provides it, else central difference."""
    if weyl.derivative is not None:
        return WeylFunction(weyl.dim, weyl.derivative, diagonal=weyl.diagonal)(a)
    h = 1e-6 * (1.0 + abs(a))
    return (weyl(a + h) - weyl(a - h)) / (2.0 * h)


@dataclass(frozen=True)
class LKernel:
    """Rescaled difference kernel of a Weyl function, shifted by an atom lam.

    ``at(z, lam)`` evaluates, for a non-real anchor (i by default) and a
    real anchor a respectively,

        W (M(z - lam) - Re M(i - lam)) W,   W = (Im M(i - lam))^{-1/2}
        W (M(z - lam) - M(a - lam)) W,      W = (M'(a - lam))^{-1/2}

    with the defining exact values L = iI at z = i and L = 0 at z = a.
    This is the one rescaling behind ``normalize`` (lam = 0, a single
    triplet) and every tensor construction (one lam per atom).
    Weights are cached per atom shift.
    """

    weyl: WeylFunction
    anchor: complex = 1j
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def real_point(self):
        """Whether the anchor is real: then L vanishes there, else L = iI."""
        return complex(self.anchor).imag == 0

    def weights(self, lam):
        """(W, S, C): C = Im M or M' at the anchor, W = C^{-1/2}, S the subtrahend.

        A real anchor must lie in a real resolvent gap: M(a - lam) must be
        evaluable and Hermitian, else GapViolationError.
        """
        lam = float(lam)
        if lam not in self._cache:
            w = self.anchor - lam
            if not self.real_point:
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
            return np.zeros((d, d)) if self.real_point else 1j * np.eye(d)
        W, S, _ = self.weights(lam)
        return W @ (self.weyl(complex(z) - float(lam)) - S) @ W


def normalize(triplet):
    """Renormalize a triplet so that M(i) = i Identity.

    With R = sqrt(Im M(i)) and Q = Re M(i), the transformed pair

        M~(z) = R^{-1} (M(z) - Q) R^{-1},     gamma~(z) = gamma(z) R^{-1}

    is again a boundary triplet for the same reference extension (ker
    Gamma0 unchanged); M~(i) = iI exactly.  This is ``LKernel`` at
    lam = 0.  A triplet with M(i) = iI already is returned itself.  Fails
    when Im M(i) is not positive definite.  A gamma image without
    ``postmultiply`` (a tensor sum's) raises RepresentationError at
    gamma(z): ``tensor.tensor_normalized`` normalizes a tensor sum atom by
    atom.
    """
    d = triplet.dim
    if np.linalg.norm(triplet.weyl(1j) - 1j * np.eye(d), 2) < 1e-12:
        return triplet
    lk = LKernel(triplet.weyl)
    W, _, _ = lk.weights(0.0)

    def gamma(z):
        image = triplet.gamma(z)
        if not hasattr(image, "postmultiply"):
            raise RepresentationError(
                "normalize cannot rescale a %s gamma image; build a normalized "
                "tensor sum with tensor.tensor_normalized" % type(image).__name__
            )
        return image.postmultiply(W)

    return BoundaryTriplet(weyl=WeylFunction(d, lambda z: lk.at(z, 0.0)), gamma=gamma)


def herglotz_identity_residual(triplet, z, zeta):
    """|| M(z) - M(zeta)* - (z - conj zeta) gamma(zeta)* gamma(z) ||_2."""
    z, zeta = complex(z), complex(zeta)
    M_z = triplet.weyl(z)
    M_zeta = triplet.weyl(zeta)
    G = triplet.gamma(zeta).gram(triplet.gamma(z))
    return float(
        np.linalg.norm(M_z - M_zeta.conj().T - (z - np.conj(zeta)) * G, 2)
    )


def _samples(image, grid):
    """A dense or scalar-kernel gamma image as an (n, d) sample matrix."""
    if isinstance(image, DenseMatrix):
        return image.mat
    if not isinstance(image, AnalyticKernel) or image.value_dim != 1:
        raise RepresentationError(
            "translation residual needs a dense or scalar-kernel image, got %s"
            % type(image).__name__
        )
    if grid is None:
        raise RepresentationError("kernel translation residual needs a grid")
    return image.values(grid)[:, 0, :]


def gamma_translation_residual(triplet, z, zeta, resolvent_apply, grid=None):
    """max |gamma(z) - (I + (z - zeta)(S0 - z)^{-1}) gamma(zeta)|, sampled.

    Both images are read as sample matrices, one column per boundary
    coordinate: a dense image's ``mat``, or a scalar kernel's values on
    ``grid``.  ``resolvent_apply(U, z, grid)`` is the reference resolvent:
    it returns (S0 - z)^{-1} U for such a matrix U.
    """
    z, zeta = complex(z), complex(zeta)
    U_z, U_zeta = (_samples(triplet.gamma(w), grid) for w in (z, zeta))
    pred = U_zeta + (z - zeta) * resolvent_apply(U_zeta, z, grid)
    return float(np.abs(U_z - pred).max())


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
