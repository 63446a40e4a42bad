"""Boundary triplets for tensor sums S = A (x) I + I (x) T.

T enters only through its pure-point spectral measure (atoms lambda_k
with eigenprojections P_k); every construction here is a direct sum
over those atoms, and these are the library's only direct sums.  Raw
("bounded") objects shift the base data,

    M^S(z) = sum_k M^A(z - lambda_k) (x) P_k,
    gamma^S(z) = sum_k gamma^A(z - lambda_k) (x) P_k,

and the normalized/regularized constructions rescale each atom block
with ``triplets.LKernel``, anchored at i - lambda (or at a real point
a - lambda below the spectrum), so that the assembled triplet satisfies
M(i) = iI (resp. M(a) = 0) exactly.  The weights (W, S, C) of every atom
are computed once and give both the gamma-field weight W and the
boundary-map transforms G0 = C^{1/2}, G1 = W, G2 = W S.

Every block sum is assembled by ``spectral.kron_sum`` in the order of
H (x) T (boundary index outer, atom slot inner); this is part of the
public contract.  Every sampled image gives ``slot_samples`` in one layout,
one slot per atom slot (a plain kernel is the one-atom case, T = 0 on C):
``TensorKernelImage`` samples atom by atom, the JC leads' image (``jcdot``)
in one array call.  ``KreinCorrection.kernel`` contracts it over the d
boundary columns of a slot, never over the d * total columns of gamma^S.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import herm_sqrt
from .spectral import SpectralMeasurePP, kron_sum
from .triplets import (
    BoundaryTriplet,
    LKernel,
    RepresentationError,
    WeylFunction,
    friedrichs_probe,
    lsb_uniform_probe,
)

__all__ = [
    "LKernel",
    "TensorKernelImage",
    "TensorTriplet",
    "tensor_weyl_bounded",
    "tensor_gamma_bounded",
    "tensor_normalized",
    "tensor_positive",
    "friedrichs_krein_tensor_check",
    "growth_certificate",
    "weight_growth_certificates",
]


def _require_window(measure, what):
    if measure.source_unbounded and measure.window is None:
        raise ValueError(
            "%s over an unbounded source needs a certified truncation "
            "window on the measure (see truncation_plan)" % what
        )


@dataclass(frozen=True)
class TensorKernelImage:
    """gamma^S(z) image: one base gamma image per atom, slot-expanded.

    Spectral-projection orthogonality makes Gram matrices block-local:
    gamma^S(zeta)* gamma^S(z) = sum_k (gamma_k(zeta)* gamma_k(z)) (x) P_k.
    It also makes every column (i, s) of gamma^S(z) live on the single
    atom slot s, so ``slot_samples`` never samples the zero columns.
    There is no ``values``: no (nx, v, dim) layout is formed.
    """

    measure: SpectralMeasurePP
    images: tuple  # one base gamma image per atom (weights folded in)
    boundary_dim: int

    def gram(self, other):
        if not isinstance(other, TensorKernelImage):
            raise RepresentationError(
                "cannot form Gram of TensorKernelImage with %r" % other
            )
        if self.measure.atoms != other.measure.atoms:
            raise RepresentationError("tensor images built over different measures")
        grams = [a.gram(b) for a, b in zip(self.images, other.images)]
        return kron_sum(grams, self.measure, self.boundary_dim)

    def slot_samples(self, x):
        """Kernel samples in slot layout, shape (nx, total, v, d).

        Slot s holds the base columns of the atom that owns it: column
        (i, s) of gamma^S(z) is entry i of slot s, supported on slot s
        alone.  ``KreinCorrection.kernel`` contracts this layout.
        """
        per_atom = np.stack([img.values(x) for img in self.images], axis=1)
        return np.repeat(per_atom, [dim for _, dim in self.measure.atoms], axis=1)


@dataclass(frozen=True)
class TensorTriplet:
    """Assembled tensor-sum triplet plus its boundary-map transforms.

    (G0, G1, G2) act on base boundary data blockwise:
    new Gamma0 = G0 Gamma0 and new Gamma1 = G1 Gamma1 - G2 Gamma0.
    """

    assembled: BoundaryTriplet
    G0: np.ndarray
    G1: np.ndarray
    G2: np.ndarray

    @property
    def dim(self):
        return self.assembled.dim


def tensor_weyl_bounded(base_weyl, measure):
    """M^S(z) = sum_k M^A(z - lambda_k) (x) P_k for bounded T."""
    _require_window(measure, "raw tensor Weyl function")
    d = base_weyl.dim
    lams = measure.lambdas

    def ev(z):
        return kron_sum([base_weyl(complex(z) - lam) for lam in lams], measure, d)

    return WeylFunction(d * measure.total_dim, ev)


def tensor_gamma_bounded(base, measure, weights=None):
    """gamma^S(z) = sum_k gamma^A(z - lambda_k) W_k (x) P_k, gamma^A = base.gamma.

    W_k = I, or the per-atom postmultipliers ``weights`` of a rescaled
    construction.
    """
    _require_window(measure, "raw tensor gamma-field")
    d = base.dim
    lams = [lam for lam, _ in measure.atoms]

    def ev(z):
        imgs = [base.gamma(complex(z) - lam) for lam in lams]
        if weights is not None:
            imgs = [img.postmultiply(W) for img, W in zip(imgs, weights)]
        return TensorKernelImage(measure, tuple(imgs), d)

    return ev


def _rescaled_tensor(base, measure, lk):
    """Assemble the atom blocks lk.at(z, lam) and their boundary transforms.

    Each atom's (W, S, C) comes from ``lk.weights`` once: the gamma-field
    is postmultiplied by W, and G0 = C^{1/2}, G1 = W, G2 = W S.
    """
    d = base.dim
    total = measure.total_dim
    lams = [lam for lam, _ in measure.atoms]
    weights = [lk.weights(lam) for lam in lams]

    def weyl_ev(z):
        return kron_sum([lk.at(z, lam) for lam in lams], measure, d)

    assembled = BoundaryTriplet(
        weyl=WeylFunction(d * total, weyl_ev),
        gamma=tensor_gamma_bounded(base, measure, [W for W, _, _ in weights]),
    )
    return TensorTriplet(
        assembled=assembled,
        G0=kron_sum([herm_sqrt(C) for _, _, C in weights], measure, d),
        G1=kron_sum([W for W, _, _ in weights], measure, d),
        G2=kron_sum([W @ S for W, S, _ in weights], measure, d),
    )


def tensor_normalized(base, measure):
    """Normalized tensor triplet: every atom block is L(z-lam, i-lam).

    The assembled Weyl function satisfies M(i) = iI exactly; boundary
    data transforms are G0 = (Im M^A(i-lam))^{1/2}, G1 = W, G2 = W Re
    M^A(i-lam) per atom (W the inverse square root), assembled as
    sum_k G_k (x) P_k.
    """
    _require_window(measure, "normalized tensor construction")
    return _rescaled_tensor(base, measure, LKernel(base.weyl))


def tensor_positive(base, measure, a):
    """Real-point regularized tensor triplet for non-negative T.

    Anchored at a real a < 0 below every shifted spectrum; the
    assembled Weyl function vanishes at a exactly and has derivative I
    there.  Boundary transforms use the square roots of M'(a - lam).
    """
    a = float(a)
    if a >= 0:
        raise ValueError("anchor a must be negative")
    if measure.lambdas.min() < 0:
        raise ValueError("tensor_positive expects non-negative atoms")
    _require_window(measure, "real-point tensor construction")
    return _rescaled_tensor(base, measure, LKernel(base.weyl, a))


def friedrichs_krein_tensor_check(base, measure, seed=20250814):
    """Extension-ordering diagnostics of the raw tensor Weyl function.

    Probes (M^S(x) f, f) in 20 random directions f for x decreasing
    from -1 to -1e4: the Friedrichs verdict (reference extension is the
    largest one) requires monotone divergence to -infinity in all
    sampled directions, the Krein verdict divergence to +infinity.  Also
    runs the uniform lower-semibound scan lambda_max(M^S(x)) <= -N for
    N = 1, 2, 3.
    """
    if measure.lambdas.min() < 0:
        raise ValueError("diagnostics assume a non-negative atom set")
    weyl = tensor_weyl_bounded(base.weyl, measure)
    x_grid = -np.logspace(0.0, 4.0, 41)
    rng = np.random.default_rng(seed)
    dirs = []
    for _ in range(20):
        f = rng.standard_normal(weyl.dim) + 1j * rng.standard_normal(weyl.dim)
        dirs.append(f / np.linalg.norm(f))
    probe = friedrichs_probe(weyl, x_grid, dirs)
    lsb = lsb_uniform_probe(weyl, (1, 2, 3), x_grid)
    return {
        "friedrichs": probe["friedrichs"],
        "krein": probe["krein"],
        "friedrichs_per_direction": probe["friedrichs_per_direction"],
        "krein_per_direction": probe["krein_per_direction"],
        "values": probe["values"],
        "lsb": lsb["levels"],
        "lambda_max": lsb["lambda_max"],
        "x_grid": x_grid,
        "n_directions": len(dirs),
    }


def growth_certificate(lambdas, norms, alpha):
    """Certify the envelope ||data|| <= C0 (1 + lambda)^alpha.

    C0 is the smallest constant making the envelope dominate the data.
    ``fitted_exponent`` is the log-log slope of the certified envelope
    over the data's lambda range (≈ alpha for lambda >> 1, exactly 0
    for alpha = 0); ``data_slope`` is the raw data's own slope.
    """
    lam = np.asarray(lambdas, dtype=float)
    nrm = np.asarray(norms, dtype=float)
    if lam.min() <= 0:
        raise ValueError("growth fits need strictly positive lambdas")
    env_base = (1.0 + lam) ** alpha
    C0 = float((nrm / env_base).max())
    envelope = C0 * env_base
    fitted = float(np.polyfit(np.log(lam), np.log(envelope), 1)[0])
    data_slope = float(np.polyfit(np.log(lam), np.log(nrm), 1)[0])
    dominates = bool((nrm <= envelope * (1.0 + 1e-12)).all())
    return {
        "C0": C0,
        "alpha": float(alpha),
        "fitted_exponent": fitted,
        "data_slope": data_slope,
        "dominates": dominates,
    }


def weight_growth_certificates(base_m):
    """Linear-envelope certificates for the normalization weights.

    For a scalar Herglotz base m, sampled at 40 log-spaced lambda in
    [1, 1e4]: the weights (Im m(i - lambda))^{+-1/2} admit O(1 + lambda)
    envelopes (alpha = 1) and the normalized kernel L(z0 - lambda,
    i - lambda) at z0 = 2 + i an O(1) envelope (alpha = 0); these are
    exactly the growth facts that make the improper block sums of the
    unbounded construction converge.
    """
    z0 = 2.0 + 1.0j
    lam = np.logspace(0.0, 4.0, 40)
    anchors = [complex(base_m(1j - x)) for x in lam]
    im = np.array([a.imag for a in anchors])
    if (im <= 0).any():
        raise ValueError("Im m(i - lambda) must stay positive")
    L = np.array(
        [abs((complex(base_m(z0 - x)) - a.real) / a.imag) for x, a in zip(lam, anchors)]
    )
    return {
        "im_sqrt": growth_certificate(lam, np.sqrt(im), alpha=1.0),
        "im_inv_sqrt": growth_certificate(lam, 1.0 / np.sqrt(im), alpha=1.0),
        "l_kernel": growth_certificate(lam, L, alpha=0.0),
        "lambdas": lam,
    }
