"""Independent brute-force validators.

Three families of oracles, deliberately built from first principles so
that they share no code path with the analytic machinery they check:

* second-order finite differences on a truncated half-line, giving both
  the Weyl coefficient (backward recursion) and Krein-type resolvent
  differences (dense/banded inversion of Dirichlet vs Robin matrices);
* seeded dense finite-dimensional "toy" boundary triplets on which every
  abstract identity is exact linear algebra;
* entrywise dense summation of spectral integrals.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import herm_part
from .triplets import BoundaryTriplet, DenseMatrix, WeylFunction

__all__ = [
    "FDGrid",
    "fd_m_function",
    "fd_resolvent_difference",
    "fd_resolvent_apply",
    "DenseToyTriplet",
    "make_dense_toy",
    "dense_spectral_integral",
]

# Required decay budget: L * min(1, Im sqrt(z - v)) >= DECAY_MARGIN puts
# the far-end truncation error below e^{-12} ~ 6e-6, comfortably inside
# the 1e-2 tolerances these oracles certify.
DECAY_MARGIN = 12.0

_RESCALE = 1e250


@dataclass(frozen=True)
class FDGrid:
    """Uniform grid on [0, L] with Dirichlet far end and potential v."""

    h: float
    L: float
    v: float = 0.0

    def __post_init__(self):
        if self.h <= 0 or self.L <= 0:
            raise ValueError("h and L must be positive")
        n = round(self.L / self.h)
        if abs(n * self.h - self.L) > 1e-9 * self.L:
            raise ValueError("L must be an integral multiple of h")

    @property
    def n(self):
        return round(self.L / self.h)

    def nodes(self):
        return np.arange(self.n + 1) * self.h

    def assert_adequate(self, z):
        """Check the truncation-decay budget for an evaluation point z."""
        w = np.sqrt(complex(z) - self.v)
        kappa = min(1.0, abs(w.imag))
        if self.L * kappa < DECAY_MARGIN:
            raise ValueError(
                "L = %g gives decay budget %.2f < %.0f at z = %s; "
                "increase L" % (self.L, self.L * kappa, DECAY_MARGIN, z)
            )


def fd_m_function(grid, z):
    """Weyl coefficient of the FD half-line problem by backward recursion.

    Solves -(u_{j+1} - 2 u_j + u_{j-1})/h^2 + v u_j = z u_j from the far
    Dirichlet end (u_N = 0, u_{N-1} = 1 seed) down to 0, rescaling when
    the values grow, and returns the one-sided second-order estimate

        m_h(z) = (-3 u_0 + 4 u_1 - u_2) / (2 h u_0).
    """
    z = complex(z)
    grid.assert_adequate(z)
    h, v, n = grid.h, grid.v, grid.n
    a = 2.0 + h * h * (v - z)
    u_next = 0.0 + 0.0j  # u_N
    u = 1.0 + 0.0j  # u_{N-1}
    for j in range(n - 1, 0, -1):
        u_prev = a * u - u_next
        u_next, u = u, u_prev
        if abs(u.real) > _RESCALE or abs(u.imag) > _RESCALE:
            scale = 1.0 / max(abs(u.real), abs(u.imag))
            u *= scale
            u_next *= scale
    # after the loop, u holds u_0 and u_next holds u_1; recover u_2 from
    # the recursion at j = 1: u_0 = a u_1 - u_2  =>  u_2 = a u_1 - u_0
    u0, u1 = u, u_next
    u2 = a * u1 - u0
    if u0 == 0 or not np.isfinite(abs(u0)):
        raise ArithmeticError("FD recursion produced unusable boundary value")
    m = (-3.0 * u0 + 4.0 * u1 - u2) / (2.0 * h * u0)
    if not np.isfinite(abs(m)):
        raise ArithmeticError("FD m-function overflowed")
    return m


def _banded_from_tridiag(lower, diag, upper):
    n = len(diag)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return ab


def _fd_matrices(grid, theta, z):
    """Banded (H - z) for the Dirichlet and Robin realizations.

    Dirichlet: unknowns at interior nodes 1..n-1.
    Robin (u'(0) = theta u(0), ghost-point second order): unknowns at
    nodes 0..n-1, with first row (2 + 2 h theta)/h^2 + v and -2/h^2.
    """
    h, v, n = grid.h, grid.v, grid.n
    inv_h2 = 1.0 / (h * h)
    m = n - 1
    diag_D = np.full(m, 2.0 * inv_h2 + v - z, dtype=complex)
    off_D = np.full(m - 1, -inv_h2, dtype=complex)
    ab_D = _banded_from_tridiag(off_D, diag_D, off_D)

    mR = n
    diag_R = np.full(mR, 2.0 * inv_h2 + v - z, dtype=complex)
    diag_R[0] = (2.0 + 2.0 * h * theta) * inv_h2 + v - z
    lower_R = np.full(mR - 1, -inv_h2, dtype=complex)
    upper_R = np.full(mR - 1, -inv_h2, dtype=complex)
    upper_R[0] = -2.0 * inv_h2
    ab_R = _banded_from_tridiag(lower_R, diag_R, upper_R)
    return ab_D, ab_R


def _snap_indices(grid, xs):
    idx = np.rint(np.asarray(xs, dtype=float) / grid.h).astype(int)
    if (idx < 1).any() or (idx > grid.n - 1).any():
        raise ValueError("sample points outside the FD grid interior")
    return idx


def fd_resolvent_difference(grid, theta, z, xs, ys):
    """FD approximation of the Robin-minus-Dirichlet Green kernel.

    Returns the matrix of G_theta(x, y) - G_D(x, y) at the sample points
    xs (rows) and ys (columns), each snapped to an interior grid node;
    matrix inverse entries are converted to kernel values by the 1/h
    quadrature-weight convention.
    """
    from scipy.linalg import solve_banded  # imported here: costly, and only validate needs it
    z = complex(z)
    grid.assert_adequate(z)
    n, h = grid.n, grid.h
    ix = _snap_indices(grid, xs)
    iy = _snap_indices(grid, ys)
    ab_D, ab_R = _fd_matrices(grid, theta, z)

    # columns of the inverse at the requested y nodes
    m = n - 1
    rhs_D = np.zeros((m, len(iy)), dtype=complex)
    for col, j in enumerate(iy):
        rhs_D[j - 1, col] = 1.0  # Dirichlet unknowns start at node 1
    sol_D = solve_banded((1, 1), ab_D, rhs_D)

    rhs_R = np.zeros((n, len(iy)), dtype=complex)
    for col, j in enumerate(iy):
        rhs_R[j, col] = 1.0  # Robin unknowns start at node 0
    sol_R = solve_banded((1, 1), ab_R, rhs_R)

    K_D = sol_D[ix - 1, :] / h
    K_R = sol_R[ix, :] / h
    return K_R - K_D


def fd_resolvent_apply(grid):
    """Dirichlet resolvent oracle: (u, z, xs) -> (S0 - z)^{-1} u at xs.

    ``u`` holds samples at ``xs``, one column each if it is a matrix;
    ``xs`` must coincide with the grid's interior nodes.  Intended for
    the gamma translation-identity check.
    """

    def apply(u_values, z, xs):
        from scipy.linalg import solve_banded
        z = complex(z)
        ix = _snap_indices(grid, xs)
        nodes = np.asarray(xs, dtype=float)
        if len(nodes) != grid.n - 1 or (np.diff(ix) != 1).any():
            raise ValueError("resolvent oracle expects the full interior grid")
        ab_D, _ = _fd_matrices(grid, 0.0, z)
        sol = solve_banded((1, 1), ab_D, np.asarray(u_values, dtype=complex))
        return sol

    return apply


@dataclass(frozen=True)
class DenseToyTriplet:
    """Seeded dense boundary triplet on C^n with d boundary dimensions.

    The adjoint's domain is represented in graph coordinates
    (g, c) in C^{n+d} with

        S*(g, c) = A0 g + (A0 - i) G c,
        Gamma0 (g, c) = -c,
        Gamma1 (g, c) = X g + Y c,      X = G*(A0 + i), Y = G* A0 G - Q0,

    so that gamma(z) = (A0 - i)(A0 - z)^{-1} G and

        M(z) = Q0 - i G*G + (z + i) G*(A0 - i)(A0 - z)^{-1} G.

    The reference extension (kernel of Gamma0, c = 0) is A0 itself, and
    the extension with boundary condition Gamma1 = B Gamma0 is the
    Hermitian matrix S_B = A0 - (A0 - i) G (B + Y)^{-1} X.  The discrete
    Green identity and the Herglotz range identity hold in exact
    arithmetic; the constructor self-validates both.
    """

    n: int
    d: int
    seed: int
    retries: int
    A0: np.ndarray
    G: np.ndarray
    Q0: np.ndarray

    @property
    def X(self):
        return self.G.conj().T @ (self.A0 + 1j * np.eye(self.n))

    @property
    def Y(self):
        return self.G.conj().T @ self.A0 @ self.G - self.Q0

    def adjoint_apply(self, g, c):
        return self.A0 @ g + (self.A0 - 1j * np.eye(self.n)) @ self.G @ c

    def gamma_mat(self, z):
        z = complex(z)
        rhs = np.linalg.solve(self.A0 - z * np.eye(self.n), self.G)
        return (self.A0 - 1j * np.eye(self.n)) @ rhs

    def weyl_mat(self, z):
        z = complex(z)
        core = (self.A0 - 1j * np.eye(self.n)) @ np.linalg.solve(
            self.A0 - z * np.eye(self.n), self.G
        )
        return (
            self.Q0
            - 1j * (self.G.conj().T @ self.G)
            + (z + 1j) * (self.G.conj().T @ core)
        )

    def extension(self, B):
        B = np.atleast_2d(np.asarray(B, dtype=complex))
        S = self.A0 - (self.A0 - 1j * np.eye(self.n)) @ self.G @ np.linalg.solve(
            B + self.Y, self.X
        )
        return S

    def direct_resolvent_difference(self, B, z):
        z = complex(z)
        eye = np.eye(self.n)
        S_B = self.extension(B)
        return np.linalg.inv(S_B - z * eye) - np.linalg.inv(self.A0 - z * eye)

    def green_identity_residual(self, samples=20):
        rng = np.random.default_rng(self.seed + 987654321)
        ip = lambda u, v: np.vdot(v, u)  # <u, v> = sum u conj(v)
        worst = 0.0
        for _ in range(samples):
            g, c = _crandn(rng, self.n), _crandn(rng, self.d)
            h, e = _crandn(rng, self.n), _crandn(rng, self.d)
            lhs = ip(self.adjoint_apply(g, c), h) - ip(g, self.adjoint_apply(h, e))
            u0, u1 = -c, self.X @ g + self.Y @ c
            v0, v1 = -e, self.X @ h + self.Y @ e
            rhs = ip(u1, v0) - ip(u0, v1)
            worst = max(worst, abs(lhs - rhs))
        return worst

    def as_triplet(self):
        weyl = WeylFunction(self.d, self.weyl_mat)
        gamma = lambda z: DenseMatrix(self.gamma_mat(z))
        return BoundaryTriplet(weyl=weyl, gamma=gamma)


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def make_dense_toy(n, d, seed):
    """Deterministic dense toy triplet; same seed gives identical bytes.

    Draws A0 Hermitian, G full-rank n x d and Q0 Hermitian from a single
    seeded generator.  A degenerate draw (nearly rank-deficient G) is
    retried with seed+1 and the retry count recorded.  The construction
    self-validates the Green identity and the range identity before
    returning.
    """
    if not (1 <= d <= n // 2):
        raise ValueError("need 1 <= d <= n/2")
    retries = 0
    s = int(seed)
    while True:
        rng = np.random.default_rng(s)
        A0 = herm_part(_crandn(rng, n, n))
        G = _crandn(rng, n, d)
        Q0 = herm_part(_crandn(rng, d, d))
        if np.linalg.svd(G, compute_uv=False).min() > 1e-3:
            break
        retries += 1
        s += 1
        if retries > 16:
            raise RuntimeError("could not draw a non-degenerate toy")
    toy = DenseToyTriplet(n=n, d=d, seed=s, retries=retries, A0=A0, G=G, Q0=Q0)
    if toy.green_identity_residual() > 1e-12 * n:
        raise AssertionError("toy failed its Green-identity self-validation")
    for z in (1j, 2.0 - 3.0j):
        lhs = toy.weyl_mat(z) - toy.weyl_mat(z).conj().T
        rhs = (z - np.conj(z)) * (toy.gamma_mat(z).conj().T @ toy.gamma_mat(z))
        if np.abs(lhs - rhs).max() > 1e-10 * max(1.0, np.abs(lhs).max()):
            raise AssertionError("toy failed its range-identity self-validation")
    return toy


def dense_spectral_integral(omega, atoms, block_dims):
    """Entrywise dense summation of blockdiag_k Omega(lambda_k) (x) I.

    Deliberately index-loop based (no Kronecker/blockdiag helpers) so it
    is an independent check of the spectral-integral assembly.
    """
    atoms = [float(a) for a in atoms]
    block_dims = [int(b) for b in block_dims]
    if len(atoms) != len(block_dims):
        raise ValueError("atoms and block_dims must have equal length")
    vals = [np.atleast_2d(np.asarray(omega(a), dtype=complex)) for a in atoms]
    d = vals[0].shape[0] if vals else 0
    total = sum(d * b for b in block_dims)
    out = np.zeros((total, total), dtype=complex)
    off = 0
    for val, bdim in zip(vals, block_dims):
        for i in range(d):
            for j in range(d):
                for t in range(bdim):
                    out[off + i * bdim + t, off + j * bdim + t] = val[i, j]
        off += d * bdim
    return out
