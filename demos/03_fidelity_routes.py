"""
Three routes to the same fidelity
=================================

The fidelity of two mixed states has three equivalent characterizations:

  * the trace formula  Tr sqrt(sqrt(rho1) rho0 sqrt(rho1)),
  * the best overlap of purifications (a maximum),
  * the worst classical overlap over measurements (a minimum).

This script computes all three on random pairs and exhibits the optimal
witnesses on one of them.
"""

import numpy as np

from qcheat import (
    fidelity_povm,
    fidelity_purification,
    fidelity_trace,
    povm_overlaps,
    random_povms,
)

rng = np.random.default_rng(2024)


def random_density(dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


print("dim   trace route      purification     measurement")
for dim in (2, 4, 8):
    rho0, rho1 = random_density(dim), random_density(dim)
    f_tr = fidelity_trace(rho0, rho1)
    f_pur, witnesses = fidelity_purification(rho0, rho1)
    f_pov, best_povm = fidelity_povm(rho0, rho1)
    print(f"{dim:3d}   {f_tr:.12f}   {f_pur:.12f}   {f_pov:.12f}")

# the purification route hands back the two pure states realizing the max
rho0, rho1 = random_density(4), random_density(4)
value, (psi0, psi1) = fidelity_purification(rho0, rho1)
print()
print(f"purification witnesses overlap: "
      f"{abs(np.vdot(psi0.amplitudes, psi1.amplitudes)):.12f}  (= {value:.12f})")

# the measurement route hands back the POVM attaining the min; random
# measurements always classically overlap at least as much
value, best = fidelity_povm(rho0, rho1)
worst_random = povm_overlaps(rho0, rho1, random_povms(4, 5, 500, rng)).min()
print(f"minimizing measurement:  {value:.12f}")
print(f"best of 500 random ones: {worst_random:.12f}  (never below the minimum)")
