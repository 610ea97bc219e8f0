"""Anatomy of the brute-force oracle and its agreement with the closed forms.

The oracle never touches an analytic formula: it builds truncated density
matrices, takes eigendecompositions and trace norms, and minimizes the
Chernoff integrand.  This script walks one scenario end to end.
"""

import numpy as np

import targetdetect as td
from targetdetect.oracle import Overlap

noise = td.NoiseSpec(n_b=1.0)
n_s = 0.8
pair = td.target_pair_single_mode(td.coherent_ket(n_s), noise)
print(f"coherent probe n_s = {n_s} against thermal noise n_b = {noise.n_b}")
print(f"truncated space dimension: {pair.dims[0]}"
      f" (trace deficit {pair.rho0.trace_deficit:.2e})")
print()

ss = np.linspace(0.0, 1.0, 11)
qs = Overlap(pair).evaluate(ss)
print("Chernoff integrand q(s) = Tr[rho0^s rho1^(1-s)] on a coarse grid:")
for s, q in zip(ss, qs):
    bar = "#" * int(40 * q / qs.max())
    print(f"  s = {s:4.1f}  q = {q:.6f}  {bar}")
print("q decreases toward s = 1 whenever the channel-1 output is pure;")
print("q is convex, so its slope at s = 1 settles the minimum without a search:")
upper = td.chernoff_bound(pair)
print(f"  q'(1) = {upper.diagnostics['slope']:.6e} ({upper.diagnostics['s_rule']})")
print(f"  s* = {upper.s_star:.8f}, bound = {upper.value:.12e}")
print(f"  closed form        = {td.coherent_qcb(n_s, noise.n_b, 1):.12e}")
print()

lower = td.bhattacharyya_lower(pair)
exact = td.helstrom_error(pair)
print("single-copy sandwich from the same matrices:")
print(f"  lower {lower.value:.10e} <= exact {exact.value:.10e} <= upper {upper.value:.10e}")
print()

print("the commuting scenario is exact at any copy count via the rank-one path:")
pair_n = td.target_pair_single_mode(td.number_ket(2), noise)
for m in (1, 5, 25):
    got = td.helstrom_error(pair_n, m)
    want = td.number_state_error(2, noise, m)
    print(f"  m = {m:>2}: oracle {got.value:.12e}  closed {want:.12e}"
          f"  ({got.diagnostics['path']})")
print()

print("random 4-dimensional states obey the same sandwich:")
rng = np.random.default_rng(1)
g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
rho0 = td.DensityOperator(g @ g.conj().T / np.trace(g @ g.conj().T).real, (4,))
rho1 = td.DensityOperator(h @ h.conj().T / np.trace(h @ h.conj().T).real, (4,))
for m in (1, 2):
    lb = td.bhattacharyya_lower((rho0, rho1), m).value
    ex = td.helstrom_error((rho0, rho1), m).value
    ub = td.chernoff_bound((rho0, rho1), m).value
    print(f"  m = {m}: {lb:.6f} <= {ex:.6f} <= {ub:.6f}")
