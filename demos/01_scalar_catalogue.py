"""Tour of the scalar Weyl coefficients of the 1-D families.

Evaluates the diagonal Weyl scalars of each family of
``models1d.FAMILY_TABLE`` at z = i, shows the conjugate symmetry and
positivity invariants, and demonstrates how evaluation on a branch cut or at
a pole is rejected rather than silently continued.
"""

import numpy as np

from weyltriplets import herglotz as hg
from weyltriplets import models1d as m1

print("diagonal Weyl scalars at each factory's defaults (v=0, c=1, d=1):")
for family, factory in m1.FACTORIES.items():
    for j, val in enumerate(np.diag(m1.build_triplet(factory()).weyl(1j))):
        print("  %-20s m_%d(i) = %+.6f%+.6fj" % (family, j + 1, val.real, val.imag))

print("\nHerglotz invariants of schrodinger-right (v=0.5) at a few points:")
weyl = m1.build_triplet(m1.schrodinger_right(v=0.5)).weyl
m = lambda z: weyl(z)[0, 0]
for z in (1j, -2 + 0.5j, 3 + 0.1j):
    val = m(z)
    sym = abs(val - np.conj(m(np.conj(z))))
    print("  z = %8s   Im m = %+.4f (> 0)   symmetry residual %.1e"
          % (z, val.imag, sym))

print("\nderivative against a central difference at z = -2 + 0.7j:")
z0 = -2 + 0.7j
der = hg.dm_schrodinger_halfline(z0, 0.5)
h = 1e-6
quot = (m(z0 + h) - m(z0 - h)) / (2 * h)
print("  analytic %.12f%+.12fj   difference quotient deviation %.1e"
      % (der.real, der.imag, abs(der - quot)))

print("\nguarded singularities:")
try:
    hg.m_schrodinger_halfline(2.0, v=0.5)
except hg.BranchCutError as exc:
    print("  cut:  %s" % exc)
try:
    hg.m_interval((np.pi / 2) ** 2, 0.0, 1.0)
except hg.PoleError as exc:
    print("  pole: %s" % exc)

print("\nDirac quotient inside the spectral gap (purely imaginary):")
for z in (-0.3, 0.0, 0.25):
    print("  k1(%+.2f) = %s" % (z, hg.dirac_k1(z, 1.0)))
