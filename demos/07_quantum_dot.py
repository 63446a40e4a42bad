"""Two leads coupled through a two-level dot dressed by a photon mode.

Walks through the full pipeline: closed-form boundary weights checked
against the generic path, the transformed coupling matrix and its two
exact sparsity patterns, the diagonal Weyl function of the decoupled
system, and the super-exponential convergence of the resolvent
correction in the photon-number cutoff.
"""

import numpy as np

from weyltriplets import jcdot as jd

dot = jd.TwoLevelDot(alpha=0.1, beta=0.9, gamma=0.2)
model = jd.JCModel(v_l=0.5, v_r=0.0, dot=dot, tau=0.7,
                   fock=jd.FockTruncation(12))
print("model: v = (%.1f, %.1f), tau = %.1f, photon cutoff N = %d, "
      "boundary dimension %d"
      % (model.v_l, model.v_r, model.tau, model.fock.N, model.boundary_dim))

print("\nclosed-form R, Q vs the generic normalization path: %.2e"
      % jd.rq_consistency(model))

Ct = jd.build_tilde_CJC(model)
print("transformed coupling matrix Hermiticity: %.2e"
      % np.abs(Ct - Ct.conj().T).max())
floor = jd.tilde_T_part(model).min()
print("photon-part diagonal floor %.6f (>= 1, closed form Z(v_min,0)^2)"
      % floor)

rep = jd.jacobi_reorder(jd.build_CJC(model), model)
print("\nexcitation-chain reordering of the bare coupling matrix:")
print("  blocks %s..., off-chain max %.1e (exactly zero)"
      % (rep["chain_blocks"][:5], rep["off_chain_max"]))
rep = jd.jacobi_reorder(Ct, model)
print("photon-major reordering of the transformed matrix:")
print("  2x2 blocks, beyond-band max %.1e (block tridiagonal)"
      % rep["fock_beyond_band_max"])

m_res = jd.JCModel(0.0, 0.0, jd.TwoLevelDot(0.0, 1.0), 1.0,
                   jd.FockTruncation(1))
spec = jd.spectrum_report(jd.build_CJC(m_res))
print("\nresonant N=1 spectrum (exact doublets):",
      spec["distinct"], "multiplicities", spec["multiplicities"])

z = -1.0 + 0.5j
W = jd.weyl_S(model, 1j)
print("\ndecoupled-system Weyl function at i: |M~(i) - iI| = %.1e"
      % np.abs(W - 1j * np.eye(model.boundary_dim)).max())

ke = jd.kernel_equivalence(model)
print("boundary-condition kernel equivalence: principal angle %.1e, "
      "transform residual %.1e" % (ke["max_principal_angle"],
                                   ke["transform_residual"]))

print("\nresolvent-correction convergence in the cutoff at z = %s:" % z)
xs = np.array([0.3])
prev = None
for N in (5, 10, 20, 40):
    m = jd.JCModel(0.5, 0.0, dot, 0.7, jd.FockTruncation(N))
    K = jd.dot_resolvent_correction(m, z, xs)[0, 0, :6, :6]
    if prev is not None:
        print("  |K_%d - K_%d| = %.3e" % (N, prevN, np.abs(K - prev).max()))
    prev, prevN = K, N
print("the shared low-photon block stabilizes to machine zero almost")
print("immediately; truncation converges super-exponentially.")
