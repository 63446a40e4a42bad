"""Tour of the scalar coefficient catalogue.

Evaluates each catalogued Herglotz function on a few points, shows the
conjugate symmetry and positivity invariants, and demonstrates how
evaluation on a branch cut or at a pole is rejected rather than
silently continued.
"""

import numpy as np

from weyltriplets import herglotz as hg

print("catalogue entries (v=0.5, c=1.0, d=1.0):")
for name, fn in hg.catalogue(v=0.5, c=1.0, d=1.0):
    val = fn(1j)
    print("  %-6s m(i) = %+.6f%+.6fj" % (name, val.real, val.imag))

print("\nHerglotz invariants for m_hr at a few points:")
m = lambda z: hg.m_schrodinger_halfline(z, v=0.5)
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
