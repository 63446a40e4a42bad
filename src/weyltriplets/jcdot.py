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

The leads have one normalized Weyl function M^S, built from the same
anchors m(i - k; v) that check R and Q.  ``decoupling_report``, ``weyl_S``
and ``dot_resolvent_correction`` share one solve of C~_JC - M^S(z): the
latest (model, z, M^S(z), W) is kept, read-only, in one module-level slot,
not per model, so a model reused across runs pays each run's solve.  The
gamma image is the contact's ``models1d.contact_columns`` at every Fock
level, weighted by (Im m(i - k; v))^{-1/2} from those anchors too (one
``jc-run`` evaluates each anchor once); its Gram is closed-form.

Ordering convention: boundary/dot index outer, Fock index inner,
everywhere; C_JC is emitted in the dot eigenbasis, C~_JC in the site
(lead) basis since R and Q live there.  ``jacobi_reorder`` is the only
permutation producer.

The usual parameter regime has 0 <= v_r <= v_l; this is recorded as a
convention only and deliberately not enforced (nothing below needs it).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import herglotz as hg
from ._linalg import solve_guarded
from .models1d import contact_columns, contact_waves
from .triplets import BoundaryTriplet, DomainError, KreinCorrection, WeylFunction

__all__ = [
    "FockTruncation",
    "TwoLevelDot",
    "JCModel",
    "z_value",
    "rq_consistency",
    "build_CJC",
    "build_R_Q",
    "build_tilde_CJC",
    "tilde_T_part",
    "jacobi_reorder",
    "weyl_S",
    "dot_resolvent_correction",
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
        return np.diag(np.sqrt(np.arange(1, self.dim)), 1)

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
        with np.errstate(over="ignore"):  # an infinite gap is not degenerate
            gap = w[1] - w[0]
        if gap <= _DEGENERACY_TOL * scale:
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
    """Two leads (v_l, v_r >= 0), a two-level dot, JC coupling tau.

    The model owns its derived objects, each built on first use and
    cached (``functools.cached_property``) for every function below:
    ``CJC``, ``site_CJC``, ``anchors``, ``rq``, ``tilde_CJC``, ``lead_weyl``
    and ``lead_triplet``.  Cached arrays are read-only.  An exception is
    never cached, so ``tilde_CJC`` raises on every access while the
    closed-form R, Q is inconsistent (see ``build_R_Q``).
    """

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

    @cached_property
    def CJC(self):
        """C_JC in the dot-eigenbasis-outer, Fock-inner ordering."""
        lam0, lam1, _ = self.dot.eigen()
        f, d = self.fock, self.dot
        ladder = np.kron(d.sigma_plus, f.b) + np.kron(d.sigma_minus, f.bdag)
        # an overflow here is reported by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            C = (np.kron(np.diag([lam0, lam1]), np.eye(f.dim))
                 + np.kron(np.eye(2), f.T) + self.tau * ladder)
        if not np.isfinite(C).all():
            raise ArithmeticError("C_JC is not finite (overflow in the dot energies or tau)")
        return _read_only(C)

    @cached_property
    def site_CJC(self):
        """C_JC expressed in the site (lead) basis of the dot."""
        _, _, U = self.dot.eigen()
        W = np.kron(U, np.eye(self.fock.dim))
        return _read_only(W @ self.CJC @ W.conj().T)

    @cached_property
    def anchors(self):
        """The lead Weyl coefficients a = m(i - k; v) over (side, Fock level),
        evaluated once for both ``rq``'s check and ``lead_weyl``."""
        return _read_only(np.array([hg.m_schrodinger_halfline(1j - k, v)
                                    for v in (self.v_l, self.v_r)
                                    for k in range(self.fock.dim)]))

    @cached_property
    def rq(self):
        """(r, q, deviation): the closed-form diagonals of R and Q over
        (side, Fock level), and their worst entrywise deviation from the
        generic path sqrt(Im a), Re a of the ``anchors``."""
        sides, k = (self.v_l, self.v_r), np.arange(self.fock.dim)
        Z = np.concatenate([z_value(v, k) for v in sides])
        r = 2.0 ** (-0.25) / np.sqrt(Z)
        q = -(2.0 ** (-0.5)) * Z
        m = self.anchors
        dev = np.concatenate([np.abs(np.sqrt(m.imag) - r), np.abs(m.real - q)])
        # fmax skips NaN like a running Python max seeded with 0.0
        return _read_only(r), _read_only(q), float(np.fmax.reduce(dev, initial=0.0))

    @cached_property
    def tilde_CJC(self):
        """C~_JC = R^{-1}(C_JC - Q)R^{-1} in the site basis, as a row and a
        column scaling by the diagonal of R^{-1}."""
        r, q = build_R_Q(self)
        rinv = 1.0 / r
        # an overflow here is reported by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            ct = rinv[:, None] * (self.site_CJC - np.diag(q)) * rinv
        if not np.isfinite(ct).all():
            raise ArithmeticError("C~_JC is not finite (overflow in R^-1 (C_JC - Q) R^-1)")
        return _read_only(ct)

    @cached_property
    def lead_weyl(self):
        """Normalized Weyl function M^S of the tensored two-lead triplet.

        diag over (side, Fock level) of (m(z - k; v) - Re a) / Im a with a
        the ``anchors``, in scalar arithmetic, and in its array form for a
        z-grid, bit for bit; identically iI at z = i.
        """
        a = self.anchors.tolist()
        if any(w.imag <= 0 for w in a):
            raise ValueError("a lead anchor m(i - k; v) has non-positive imaginary part")
        levels = [(v, k) for v in (self.v_l, self.v_r) for k in range(self.fock.dim)]
        vs, ks = (np.array(col, dtype=float)[:, None] for col in zip(*levels))
        anchors = self.anchors[:, None]

        def ev(z):
            z = complex(z)
            return [(hg.m_schrodinger_halfline(z - k, v) - w.real) / w.imag
                    for (v, k), w in zip(levels, a)]

        def ev_grid(zs):  # ev's values over an array, rounded as ev rounds them
            m = hg.m_schrodinger_halfline_grid(hg.c_diff(zs, ks), vs)
            return hg.c_quot(hg.c_diff(m, anchors.real), anchors.imag)

        return WeylFunction(len(a), ev, diagonal=True, eval_grid=ev_grid)

    @cached_property
    def lead_triplet(self):
        """The normalized two-lead triplet on the Fock ladder: ``lead_weyl``
        and a ``_LeadGammaImage`` gamma-field, weighted at each Fock level k
        by the normalization weight diag((Im a)^{-1/2}) over the two sides, a
        the ``anchors`` (Im M(i - k) is diagonal)."""
        weyl = self.lead_weyl  # first: it rejects a non-positive Im a
        n = self.fock.dim
        scale = 1.0 / np.sqrt(self.anchors.imag)
        weights = _read_only(np.array([np.diag(s) for s in scale.reshape(2, n).T], complex))
        waves = lambda z: contact_waves([complex(z) - k for k in range(n)], self.v_l, self.v_r)
        return BoundaryTriplet(weyl=weyl, gamma=lambda z: _LeadGammaImage(waves(z), weights))


@dataclass(frozen=True)
class _LeadGammaImage:
    """gamma^S(z) = sum_k gamma^A(z - k) W_k (x) P_k, gamma^A the two-lead
    contact's: at each Fock level k its ``contact_columns`` at z - k times
    the level's weight W_k.  ``slot_samples`` (nx, N+1, 1, 2) is one array
    call.  ``gram`` is closed-form and diagonal over (side, level), since
    int_0^inf e^{i (w(z) - conj w(zeta)) t} dt = i / (w(z) - conj w(zeta))."""

    iw: np.ndarray  # (2, N+1): -i w_l and i w_r per level
    weights: np.ndarray  # (N+1, 2, 2): diag((Im a)^{-1/2}) per level

    def gram(self, other):
        # with a = iw: 1 / (a + conj a') on x <= 0 and -1 / (a + conj a') on x > 0
        den = other.iw + self.iw.conj()
        if (den.real == 0).any():
            raise ArithmeticError("the lead Gram diverges: both points lie on a lead spectrum")
        w = lambda img: img.weights.diagonal(axis1=1, axis2=2).T
        return np.diag((np.array([[1.0], [-1.0]]) / den * w(self).conj() * w(other)).ravel())

    def slot_samples(self, x):
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise DomainError(float("nan"), (-np.inf, np.inf))
        # the weights as a stacked matmul: an elementwise product would flip
        # the signed zeros of underflowed samples
        with np.errstate(over="ignore", invalid="ignore"):
            return contact_columns(self.iw, x) @ self.weights


def _read_only(a):
    a.setflags(write=False)
    return a


# below this t = k + v, (k+v)^2 stays finite
_Z_CUTOFF = 1e154


def z_value(v, k):
    """Z(v, k) = sqrt(sqrt(1 + (k+v)^2) + k + v), elementwise in k.

    Past _Z_CUTOFF, sqrt(1 + t^2) + t rounds to 2t, so Z = sqrt(2) sqrt(t)
    there, a form that cannot overflow.
    """
    t = np.asarray(k, dtype=float) + float(v)
    small, big = np.minimum(t, _Z_CUTOFF), np.maximum(t, _Z_CUTOFF)
    return np.where(t > _Z_CUTOFF, np.sqrt(2.0) * np.sqrt(big),
                    np.sqrt(np.sqrt(1.0 + small * small) + small))


def build_CJC(model):
    """C_JC in the dot-eigenbasis-outer, Fock-inner ordering (cached)."""
    return model.CJC


def rq_consistency(model):
    """Worst deviation of the closed-form R, Q from the generic path (cached)."""
    return model.rq[2]


def build_R_Q(model):
    """The diagonals (r, q) of the closed-form R and Q over (side, Fock
    level).  Raises ``ArithmeticError`` on every call while they deviate
    from sqrt(Im m(i - k; v)), Re m(i - k; v) by more than 1e-10."""
    r, q, worst = model.rq
    if worst > 1e-10:
        raise ArithmeticError(
            "closed-form R/Q deviate from the generic normalization path "
            "by %.3g (branch inconsistency)" % worst
        )
    return r, q


def build_tilde_CJC(model):
    """C~_JC = R^{-1}(C_JC - Q)R^{-1} in the site basis (cached)."""
    return model.tilde_CJC


def tilde_T_part(model):
    """The diagonal of the boson part of C~_JC, R^{-1}(I (x) T - Q)R^{-1}
    = diag(sqrt2 T Z + Z^2), from the diagonals of R and Q."""
    r, q = build_R_Q(model)
    rinv = 1.0 / r
    k = np.tile(np.arange(model.fock.dim, dtype=float), 2)
    return rinv * (k - q) * rinv


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


def _beyond_band_max(A, blocks, width=1):
    """Max entry more than ``width`` blocks off the block diagonal."""
    block_of = np.repeat(np.arange(len(blocks)), blocks)
    far = np.abs(np.subtract.outer(block_of, block_of)) > width
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
    off_chain = _beyond_band_max(A_chain, cblocks, width=0)
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


_latest = (None,) * 4  # the latest solve (model, bits of z, M^S(z), W)


def _held(model, z):
    """The slot if it holds this model (by identity) and z (by bit pattern)."""
    slot = _latest
    return slot if slot[0] is model and slot[1] == np.complex128(z).tobytes() else None


def _weight(model, z):
    """W = (C~_JC - M^S(z))^{-1}, from the slot or a new solve that replaces it."""
    global _latest
    slot = _held(model, z)
    if slot is None:
        M = model.lead_weyl(complex(z))
        W = solve_guarded(model.tilde_CJC - M, context="C~ - M^S(z)")
        slot = _latest = (model, np.complex128(z).tobytes(), _read_only(M), _read_only(W))
    return slot[3]


def weyl_S(model, z):
    """The model's ``lead_weyl`` at z; the slot's read-only M^S(z) if it holds z."""
    slot = _held(model, z)
    return model.lead_weyl(z) if slot is None else slot[2]


def dot_resolvent_correction(model, z, xs):
    """Krein correction kernel of the JC boundary condition.

    Returns samples of gamma~(z) (C~_JC - M^S(z))^{-1} gamma~(conj z)*
    of shape (len xs, len xs, N+1, N+1): a Fock-space operator per
    spatial pair, with the lead side encoded in the sign of x and y.
    Its weight is ``decoupling_report``'s solve, "C~ - M^S(z)".
    """
    z = complex(z)
    xs = np.asarray(xs, dtype=float)
    model.tilde_CJC  # first: it raises while R, Q are inconsistent
    left, right = (model.lead_triplet.gamma(w) for w in (z, np.conj(z)))
    corr = KreinCorrection(_weight(model, z), left, right)
    n = model.fock.dim
    # undo the scalar squeeze at N = 0 so the shape contract is uniform
    return np.asarray(corr.kernel(xs, xs)).reshape(len(xs), len(xs), n, n)


def spectrum_report(matrix):
    """Sorted eigenvalues of a Hermitian matrix with multiplicities.

    Eigenvalues within 1e-8 of the spectral scale form one cluster.
    """
    vals = np.linalg.eigvalsh(np.asarray(matrix))
    scale = max(1.0, np.abs(vals).max()) if len(vals) else 1.0
    distinct, mult = [], []
    for v in vals:
        if distinct and abs(float(v) - distinct[-1]) <= 1e-8 * scale:
            mult[-1] += 1
        else:
            distinct.append(float(v))
            mult.append(1)
    return {
        "eigenvalues": vals,
        "distinct": np.array(distinct),
        "multiplicities": mult,
    }


def _largest_kernel_angle(M1, M2):
    """Largest principal angle from ker M1 to ker M2, and dim ker M1, for
    M1 and M2 of full row rank.

    With Q1, Q2 the orthonormal row-space bases from numpy's Householder
    QRs of M1^*, M2^*, its sine is ||P_row(M2) P_ker(M1)||, the root of the
    largest eigenvalue of Y^* Y, Y = Q2 - Q1 (Q1^* Q2), for any row counts
    (1 when ker M1 is the larger); accurate for small angles.
    """
    Q1, Q2 = (np.linalg.qr(M.conj().T)[0] for M in (M1, M2))
    Y = Q2 - Q1 @ (Q1.conj().T @ Q2)
    sine2 = np.linalg.eigvalsh(Y.conj().T @ Y)[-1]
    return float(np.arcsin(min(1.0, np.sqrt(sine2)))), M1.shape[1] - Q1.shape[1]


def _certified_rows(name, X, d):
    """M = [X, diag(d)], refused unless a backward-stable QR certainly sees
    its full row rank.

    M M^* = X X^* + D D^*, so sigma_min(M) >= min|d|.  A Householder QR is
    exact for M plus a perturbation of norm about max(M.shape) eps ||M||_F
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 19.3), so the rank is certain when that is below min|d|.  Both
    sides are divided by the largest real or imaginary part of an entry,
    which keeps every intermediate finite and raises no warning.
    """
    M = np.hstack([X, np.diag(d)])
    parts = np.abs(np.stack([M.real, M.imag]))
    scale, dmin = float(parts.max()), float(np.abs(d).min())
    # ||M||_F / scale, a sum of squares of numbers at most 1
    fro = math.sqrt(float(np.square(parts / scale).sum())) if math.isfinite(scale) else math.inf
    lhs = max(M.shape) * np.finfo(float).eps * fro
    if not lhs < dmin / scale:
        raise ArithmeticError(
            "kernel equivalence: the rank certificate of %s fails: max(shape) eps ||%s||_F "
            "= %.3g is not below min |D_ii| = %.3g" % (name, name, lhs * scale, dmin))
    return M


def kernel_equivalence(model):
    """Compare the raw and regularized boundary-condition kernels.

    The conditions Gamma1 = C_JC Gamma0 and Gamma~1 = C~_JC Gamma~0 are
    encoded as row spaces M1 = [-C, I] and M2 = [-(R^{-1}Q + C~ R), R^{-1}]
    acting on stacked boundary data; M2 equals R^{-1} M1 exactly, so their
    null spaces coincide.  Reports the largest principal angle between the
    two null spaces, the residual of the exact-transform identity and
    dim ker M1.  R and Q are diagonal, so M2 and R^{-1} M1 are row and
    column scalings by the diagonals from ``build_R_Q``.

    The angle and dim ker M1 come from M1 and M2 as assembled, through
    orthonormal row-space bases from two Householder QRs (Bjorck and
    Golub, Math. Comp. 27, 1973).  Their full row rank 2 (N + 1) is
    certified from each matrix's own diagonal right block, and a matrix
    whose certificate fails is refused (``_certified_rows``).  It uses
    neither the closed form [I; C] of ker M1 nor the relation M2 = R^{-1} M1,
    so it stays an independent check of the regularization.
    """
    r, q = build_R_Q(model)
    rinv, Ct = 1.0 / r, model.tilde_CJC
    M1 = _certified_rows("M1", -model.site_CJC, np.ones(model.boundary_dim))
    M2 = _certified_rows("M2", -(np.diag(rinv * q) + Ct * r), rinv)
    angle, null_dim = _largest_kernel_angle(M1, M2)
    return {"max_principal_angle": angle,
            "transform_residual": float(np.abs(M2 - rinv[:, None] * M1).max()),
            "null_dim": null_dim}


def decoupling_report(model, z):
    """Zero-pattern diagnostics of the lead coupling at a point z off the
    lead spectrum.

    With gamma = 0 and tau = 0 both C~_JC and the correction weight
    (C~_JC - M^S(z))^{-1} are block-diagonal across (l, r); with a diagonal
    dot and tau != 0 the cross-side block of C~_JC only carries the boson
    ladder (entries at Fock distance exactly 1).  The weight is the solve
    that ``weyl_S`` and ``dot_resolvent_correction`` share at this z.
    """
    n = model.fock.dim
    Ct = model.tilde_CJC
    cross = Ct[:n, n:]
    ladder = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) == 1
    W = _weight(model, z)
    return {
        "cross_block_max": float(np.abs(cross).max()),
        "cross_off_ladder_max": float(np.abs(cross[~ladder]).max()),
        "weight_cross_max": float(np.abs(W[:n, n:]).max()),
    }
