# python3
"""Demo: the distillable-subspace search, its certificates and the rank bound.

A distillable subspace (DSS) is a product of local subspaces onto which the
mixed state projects to a pure entangled state; its existence is exactly
what makes finite-copy distillation possible.  The search covers all
subsets of per-party bases, screens out candidates that are clearly zero,
mixed or product from the state's eigenvectors alone, and certifies the
survivors with the exact classification.
Every genuine certificate obeys a rank ceiling: an n-copy state that
yields an n_A x n_B x ... pure state has rank at most
(prod dims)^n - prod(n_i) + 1.
"""

import numpy as np

from dsskit import (
    DensityMatrix,
    SystemShape,
    check_certificate,
    check_rank_bound,
    find_dss,
    rank_bound,
)
from dsskit.states import product_basis_vector


def main():
    # Plant a pure entangled state on a basis-aligned subspace of a 3x3
    # system, mixed with an orthogonal product state outside it.
    rng = np.random.default_rng(8)
    shape = SystemShape.of(("A", 3), ("B", 3))
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    coeffs /= np.linalg.norm(coeffs)
    psi = np.zeros(9, dtype=complex)
    for pos, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        psi[3 * i + j] = coeffs[pos]
    outside = product_basis_vector(shape, (2, 2))
    state = DensityMatrix.mixture(shape, [(0.6, psi), (0.4, outside)])

    print("State: 0.6 [entangled on A:{0,1} x B:{0,1}] + 0.4 [|22>]")
    print(f"Search space: {(2**3 - 1)**2} candidate subspaces\n")

    certs = find_dss(state)
    for cert in certs:
        print(f"certificate: indices {cert.subspace.basis_indices}")
        print(f"  weight {cert.outcome.weight:.6f}, signature {cert.outcome.signature}")
        verdict = check_certificate(state, cert.subspace)
        print(f"  independent re-check: {type(verdict).__name__}")
        bound = check_rank_bound(state, 1, cert)
        print(f"  rank {bound.rank} <= bound {bound.bound}: {bound.satisfied}")

    print("\nThe bound alone already rules distillation out for some targets:")
    print("  two qubits, one copy, target signature (2,2):",
          f"rank must be <= {rank_bound(SystemShape.qubits('AB'), 1, (2, 2))}")
    print("  (only pure states qualify, so no mixed two-qubit state can be")
    print("   distilled to a Bell state from a single copy)")


if __name__ == "__main__":
    main()
