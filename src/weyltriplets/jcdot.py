"""Two-lead quantum dot with a Jaynes-Cummings boson mode.

The boundary space of the two-lead point contact (left/right half-line
leads with potentials v_l, v_r) is tensored with a truncated Fock
ladder; the boundary operator is the Jaynes-Cummings matrix

    C_JC = B (x) I + I (x) T + tau (sigma+ (x) b + sigma- (x) b*),

with B the 2x2 dot Hamiltonian (sigma+- defined in its eigenbasis) and
T = b*b the number operator.  Because the raw lead triplet tensored
with the Fock space is not normalized, the physically equivalent
boundary condition uses the regularized operator

    C~_JC = R^{-1} (C_JC - Q) R^{-1},

where R, Q are the closed-form diagonal matrices built from
Z(v, k) = sqrt(sqrt(1 + (k+v)^2) + k + v):

    R = 2^{-1/4} diag(Z_l^{-1/2}, Z_r^{-1/2}),   Q = -2^{-1/2} diag(Z_l, Z_r),

which coincide entrywise with sqrt(Im m(i - T; v)) and Re m(i - T; v)
of the lead Weyl coefficients (the construction aborts if the two
routes disagree).

Ordering convention: boundary/dot index outer, Fock index inner,
everywhere; C_JC is emitted in the dot eigenbasis, C~_JC in the site
(lead) basis since R and Q live there.  ``jacobi_reorder`` is the only
permutation producer.

The usual parameter regime has 0 <= v_r <= v_l; this is recorded as a
convention only and deliberately not enforced (nothing below needs it).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space, subspace_angles

from . import herglotz as hg
from ._linalg import solve_guarded
from .models1d import build_triplet, full_line_contact
from .spectral import SpectralMeasurePP
from .tensor import tensor_normalized, tensor_quasi_scalar
from .triplets import BoundaryCondition, krein_correction

__all__ = [
    "FockTruncation",
    "TwoLevelDot",
    "JCModel",
    "z_value",
    "build_Z",
    "rq_consistency",
    "build_CJC",
    "site_CJC",
    "build_R_Q",
    "build_tilde_CJC",
    "jacobi_reorder",
    "lead_weyl",
    "weyl_S",
    "dot_resolvent_correction",
    "spectrum_tilde_CJC",
    "spectrum_report",
    "kernel_equivalence",
    "decoupling_report",
]

_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class FockTruncation:
    """Boson ladder restricted to levels 0..N."""

    N: int

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("truncation level must be >= 0")

    @property
    def dim(self):
        return self.N + 1

    @property
    def b(self):
        """Lowering matrix, b e_k = sqrt(k) e_{k-1}."""
        n = self.dim
        out = np.zeros((n, n))
        for k in range(1, n):
            out[k - 1, k] = np.sqrt(k)
        return out

    @property
    def bdag(self):
        return self.b.T.copy()

    @property
    def T(self):
        return np.diag(np.arange(self.dim, dtype=float))

    def truncation_defect(self):
        """[b, b*] - I; exactly -(N+1) P_N on the truncated ladder."""
        b = self.b
        return b @ b.T - b.T @ b - np.eye(self.dim)


@dataclass(frozen=True)
class TwoLevelDot:
    """Dot Hamiltonian B = [[alpha, gamma], [conj gamma, beta]].

    The ladder matrices sigma+- live in the eigenbasis of B (ascending
    eigenvalues; each eigenvector's first nonzero component is made
    real positive).  A degenerate B (eigenvalue gap below 1e-12
    relative) keeps the site basis as its eigenbasis, which picks the
    vector of larger first-component magnitude as the ground state.
    """

    alpha: float
    beta: float
    gamma: complex = 0.0

    @property
    def B(self):
        return np.array(
            [[self.alpha, self.gamma], [np.conj(self.gamma), self.beta]],
            dtype=complex,
        )

    def eigen(self):
        """(lam0, lam1, U) with U the site <- eigen basis matrix."""
        w, V = np.linalg.eigh(self.B)
        scale = max(1.0, np.abs(w).max())
        if w[1] - w[0] <= _DEGENERACY_TOL * scale:
            return w[0], w[1], np.eye(2, dtype=complex)
        for col in range(2):
            j = int(np.argmax(np.abs(V[:, col]) > 1e-12))
            phase = V[j, col] / abs(V[j, col])
            V[:, col] *= np.conj(phase)
        return w[0], w[1], V

    @property
    def sigma_plus(self):
        """Raising matrix in the eigenbasis: e0 -> e1, e1 -> 0."""
        return np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

    @property
    def sigma_minus(self):
        return self.sigma_plus.conj().T

    def ladder_reconstruction_defect(self):
        """|| B - (lam1 s+s- + lam0 s-s+) || in the eigen representation."""
        lam0, lam1, _ = self.eigen()
        sp, sm = self.sigma_plus, self.sigma_minus
        recon = lam1 * (sp @ sm) + lam0 * (sm @ sp)
        return float(np.abs(np.diag([lam0, lam1]) - recon).max())


@dataclass(frozen=True)
class JCModel:
    """Two leads (v_l, v_r >= 0), a two-level dot, JC coupling tau."""

    v_l: float
    v_r: float
    dot: TwoLevelDot
    tau: float
    fock: FockTruncation

    def __post_init__(self):
        if self.v_l < 0 or self.v_r < 0:
            raise ValueError("lead potentials must be non-negative")

    @property
    def boundary_dim(self):
        return 2 * self.fock.dim


def z_value(v, k):
    """Z(v, k) = sqrt(sqrt(1 + (k+v)^2) + k + v)."""
    t = float(k) + float(v)
    return np.sqrt(np.sqrt(1.0 + t * t) + t)


def build_Z(v, fock):
    """Positive diagonal matrix diag_k Z(v, k), k = 0..N."""
    return np.diag([z_value(v, k) for k in range(fock.dim)])


def build_CJC(model):
    """C_JC in the dot-eigenbasis-outer, Fock-inner ordering."""
    lam0, lam1, _ = model.dot.eigen()
    f = model.fock
    eye = np.eye(f.dim)
    C = (
        np.kron(np.diag([lam0, lam1]), eye)
        + np.kron(np.eye(2), f.T)
        + model.tau
        * (
            np.kron(model.dot.sigma_plus, f.b)
            + np.kron(model.dot.sigma_minus, f.bdag)
        )
    )
    return C


def site_CJC(model):
    """C_JC expressed in the site (lead) basis of the dot."""
    _, _, U = model.dot.eigen()
    W = np.kron(U, np.eye(model.fock.dim))
    return W @ build_CJC(model) @ W.conj().T


def _closed_form_rq_diagonals(model):
    f = model.fock
    Zl = build_Z(model.v_l, f)
    Zr = build_Z(model.v_r, f)
    quarter = 2.0 ** (-0.25)
    half = 2.0 ** (-0.5)
    r_diag = np.concatenate(
        [quarter / np.sqrt(np.diag(Zl)), quarter / np.sqrt(np.diag(Zr))]
    )
    q_diag = np.concatenate([-half * np.diag(Zl), -half * np.diag(Zr)])
    return r_diag, q_diag


def rq_consistency(model):
    """Worst entrywise deviation of the closed-form R, Q from the
    generic path sqrt(Im m(i - k; v)), Re m(i - k; v)."""
    r_diag, q_diag = _closed_form_rq_diagonals(model)
    n = model.fock.dim
    worst = 0.0
    for s, v in enumerate((model.v_l, model.v_r)):
        for k in range(n):
            m = hg.m_schrodinger_halfline(1j - k, v)
            worst = max(worst, abs(np.sqrt(m.imag) - r_diag[s * n + k]))
            worst = max(worst, abs(m.real - q_diag[s * n + k]))
    return worst


def build_R_Q(model):
    """The closed-form normalization pair (R, Q), generic-checked.

    R = 2^{-1/4} diag(Z_l^{-1/2}, Z_r^{-1/2}) must equal
    sqrt(Im m(i - k; v)) entrywise and Q = -2^{-1/2} diag(Z_l, Z_r)
    must equal Re m(i - k; v); a deviation above 1e-10 means the two
    square-root branches have drifted apart and raises.
    """
    worst = rq_consistency(model)
    if worst > 1e-10:
        raise ArithmeticError(
            "closed-form R/Q deviate from the generic normalization path "
            "by %.3g (branch inconsistency)" % worst
        )
    r_diag, q_diag = _closed_form_rq_diagonals(model)
    return np.diag(r_diag), np.diag(q_diag)


def build_tilde_CJC(model):
    """C~_JC = R^{-1}(C_JC - Q)R^{-1} in the site basis."""
    R, Q = build_R_Q(model)
    Rinv = np.diag(1.0 / np.diag(R))
    return Rinv @ (site_CJC(model) - Q) @ Rinv


def tilde_T_part(model):
    """The boson part of C~_JC: R^{-1}(I (x) T - Q)R^{-1} = diag(sqrt2 T Z + Z^2)."""
    R, Q = build_R_Q(model)
    Rinv = np.diag(1.0 / np.diag(R))
    return Rinv @ (np.kron(np.eye(2), model.fock.T) - Q) @ Rinv


def _chain_permutation(N):
    """Chains {e0 (x) e_{m+1}, e1 (x) e_m} plus the two unpaired states."""
    idx = lambda j, k: j * (N + 1) + k
    perm = [idx(0, 0)]
    for m in range(N):
        perm.extend([idx(0, m + 1), idx(1, m)])
    perm.append(idx(1, N))
    blocks = [1] + [2] * N + [1]
    return np.array(perm), blocks


def _fock_permutation(N):
    """Fock-major order: 2x2 dot blocks per boson level."""
    perm = [j * (N + 1) + k for k in range(N + 1) for j in range(2)]
    return np.array(perm), [2] * (N + 1)


def _off_blockdiag_max(A, blocks):
    mask = np.ones(A.shape, dtype=bool)
    off = 0
    for bsize in blocks:
        mask[off : off + bsize, off : off + bsize] = False
        off += bsize
    return float(np.abs(A[mask]).max()) if mask.any() else 0.0


def _beyond_band_max(A, blocks):
    """Max entry beyond the first off-block-diagonal."""
    block_of = np.repeat(np.arange(len(blocks)), blocks)
    far = np.abs(np.subtract.outer(block_of, block_of)) > 1
    return float(np.abs(A[far]).max()) if far.any() else 0.0


def jacobi_reorder(matrix, model):
    """Reorder a 2(N+1) boundary matrix into the two Jacobi-type bases.

    The chain basis {e0 (x) e0} + {e0 (x) e_{m+1}, e1 (x) e_m} + {e1 (x) e_N}
    block-diagonalizes C_JC exactly (one singleton, N two-level chains,
    one residual top state).  The Fock-major basis groups 2x2 dot
    blocks per boson level, in which C~_JC is block-tridiagonal.  Both
    permutations and both structure residuals are reported; spectra are
    invariant under either.
    """
    A = np.asarray(matrix, dtype=complex)
    N = model.fock.N
    if A.shape != (2 * (N + 1), 2 * (N + 1)):
        raise ValueError("matrix size does not match the model truncation")
    cp, cblocks = _chain_permutation(N)
    fp, fblocks = _fock_permutation(N)
    A_chain = A[np.ix_(cp, cp)]
    A_fock = A[np.ix_(fp, fp)]
    off_chain = _off_blockdiag_max(A_chain, cblocks)
    fock_beyond = _beyond_band_max(A_fock, fblocks)
    return {
        "chain_permutation": cp,
        "chain_blocks": cblocks,
        "chain_matrix": A_chain,
        "off_chain_max": off_chain,
        "chain_block_diagonal": off_chain == 0.0,
        "fock_permutation": fp,
        "fock_blocks": fblocks,
        "fock_matrix": A_fock,
        "fock_beyond_band_max": fock_beyond,
        "fock_block_tridiagonal": fock_beyond < 1e-14,
    }


def lead_weyl(model):
    """Normalized Weyl function of the tensored two-lead triplet.

    diag over (side, Fock level) of the scalar normalizations
    (m(z - k; v) - Re m(i - k; v)) / Im m(i - k; v), built once per model
    by ``tensor_quasi_scalar``; identically iI at z = i.  This scalar
    route rounds differently from the matrix route W (M - S) W of
    ``tensor_normalized``, which the Krein correction uses with its gamma
    weights; the two agree to ~1e-13.
    """
    return tensor_quasi_scalar(
        [lambda z, v=v: hg.m_schrodinger_halfline(z, v) for v in (model.v_l, model.v_r)],
        SpectralMeasurePP.from_levels(range(model.fock.dim)),
    )


def weyl_S(model, z):
    """lead_weyl(model) at one point z."""
    return lead_weyl(model)(z)


def _normalized_lead_triplet(model):
    base = build_triplet(full_line_contact(model.v_l, model.v_r))
    measure = SpectralMeasurePP.from_levels(range(model.fock.dim))
    return tensor_normalized(base, measure)


def dot_resolvent_correction(model, z, xs, ys=None):
    """Krein correction kernel of the JC boundary condition.

    Returns samples of gamma~(z) (C~_JC - M^S(z))^{-1} gamma~(conj z)*
    of shape (len xs, len ys, N+1, N+1): a Fock-space operator per
    spatial pair, with the lead side encoded in the sign of x and y.
    """
    z = complex(z)
    xs = np.asarray(xs, dtype=float)
    ys = xs if ys is None else np.asarray(ys, dtype=float)
    tt = _normalized_lead_triplet(model)
    bc = BoundaryCondition.operator(build_tilde_CJC(model))
    corr = krein_correction(tt.assembled, bc, z)
    n = model.fock.dim
    # undo the scalar squeeze at N = 0 so the shape contract is uniform
    return np.asarray(corr.kernel(xs, ys)).reshape(len(xs), len(ys), n, n)


def spectrum_report(matrix, cluster_tol=1e-8):
    """Sorted eigenvalues of a Hermitian matrix with multiplicities."""
    vals = np.linalg.eigvalsh(np.asarray(matrix))
    scale = max(1.0, np.abs(vals).max()) if len(vals) else 1.0
    distinct, mult = [], []
    for v in vals:
        if distinct and abs(v - distinct[-1]) <= cluster_tol * scale:
            mult[-1] += 1
        else:
            distinct.append(float(v))
            mult.append(1)
    return {
        "eigenvalues": vals,
        "distinct": np.array(distinct),
        "multiplicities": mult,
    }


def spectrum_tilde_CJC(model, cluster_tol=1e-8):
    return spectrum_report(build_tilde_CJC(model), cluster_tol)


def kernel_equivalence(model):
    """Compare the raw and regularized boundary-condition kernels.

    The conditions Gamma1 = C_JC Gamma0 and Gamma~1 = C~_JC Gamma~0 are
    encoded as row spaces [-C, I] acting on stacked boundary data; the
    second equals R^{-1} times the first exactly, so their null spaces
    coincide.  Reports the largest principal angle between the computed
    null spaces and the residual of the exact-transform identity.
    """
    m = model.boundary_dim
    site = site_CJC(model)
    R, Q = build_R_Q(model)
    Rinv = np.diag(1.0 / np.diag(R))
    Ct = build_tilde_CJC(model)
    M1 = np.hstack([-site, np.eye(m)])
    M2 = np.hstack([-(Rinv @ Q + Ct @ R), Rinv])
    K1 = null_space(M1)
    K2 = null_space(M2)
    angles = subspace_angles(K1, K2)
    return {
        "max_principal_angle": float(angles.max()) if angles.size else 0.0,
        "transform_residual": float(np.abs(M2 - Rinv @ M1).max()),
        "null_dim": K1.shape[1],
    }


def decoupling_report(model, z=None):
    """Zero-pattern diagnostics of the lead coupling.

    With gamma = 0 and tau = 0 both C~_JC and the correction weight are
    block-diagonal across (l, r); with a diagonal dot and tau != 0 the
    cross-side block only carries the boson ladder (entries at Fock
    distance exactly 1).
    """
    n = model.fock.dim
    Ct = build_tilde_CJC(model)
    cross = Ct[:n, n:]
    ladder = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) == 1
    report = {
        "cross_block_max": float(np.abs(cross).max()),
        "cross_off_ladder_max": float(np.abs(cross[~ladder]).max())
        if (~ladder).any()
        else 0.0,
    }
    if z is not None:
        W = solve_guarded(
            Ct - weyl_S(model, z), np.eye(2 * n), context="C~ - M^S(z)"
        )
        report["weight_cross_max"] = float(np.abs(W[:n, n:]).max())
    return report
