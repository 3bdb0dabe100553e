"""Named test fixtures: small operators and states with known values."""

from __future__ import annotations

import numpy as np

from .linalg import BipartiteOperator, PureState
from .cones import SchmidtEnsemble

__all__ = [
    "maximally_entangled",
    "shifted_entangled",
    "example51",
    "swap_operator",
    "isotropic",
    "basis_product_ensemble",
]


def maximally_entangled(n: int) -> PureState:
    """sum_i |ii> / sqrt(n)."""
    return PureState((n, n), np.eye(n, dtype=complex).reshape(-1) / np.sqrt(n))


def shifted_entangled(n: int) -> PureState:
    """sum_i |i, i+1 mod n> / sqrt(n), n >= 2; orthogonal to maximally_entangled(n)."""
    if n < 2:
        raise ValueError("shifted entangled vector needs n >= 2, got %d" % n)
    v = np.zeros((n, n), dtype=complex)
    for i in range(n):
        v[i, (i + 1) % n] = 1.0
    return PureState((n, n), v.reshape(-1) / np.sqrt(n))


def example51(n: int) -> BipartiteOperator:
    """Rank-one X = |phi><psi| built from the maximally entangled vector and
    its cyclic shift.  Its Schmidt-rank-k norms have closed forms used by the
    regression suite:

    * ``min_order_norm`` is at most min(k/n, 1/2) for every n, since
      |<phi|v>| and |<psi|v>| are each at most sqrt(k/n) for a unit v of
      Schmidt rank <= k and their squares sum to at most 1; the bound is
      attained at n = 3 (1/3, 1/2, 1/2 for k = 1, 2, 3);
    * ``omin_norm`` and ``sk_norm`` both equal k/n.  Needs n >= 2."""
    psi = shifted_entangled(n).amplitudes
    phi = maximally_entangled(n).amplitudes
    return BipartiteOperator((n, n), np.outer(phi, psi.conj()))


def swap_operator(n: int) -> BipartiteOperator:
    """SWAP |i,j> = |j,i> on C^n (x) C^n."""
    s = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            s[i * n + j, j * n + i] = 1.0
    return BipartiteOperator((n, n), s)


def isotropic(f: float, n: int) -> BipartiteOperator:
    """F |phi><phi| + (1-F)(I - |phi><phi|)/(n^2 - 1) with fidelity F; its
    Schmidt number exceeds k iff F > k/n (Terhal & Horodecki, PRA 61, 040301,
    2000).  At k = 1 that is the partial-transpose test: the smallest
    eigenvalue of rho^Gamma is (1 - nF)/(n(n - 1)) for F >= 1/n^2.  (In the
    weight p of p|phi><phi| + (1-p)I/n^2 the threshold reads
    p > (kn - 1)/(n^2 - 1).)"""
    if n < 2:
        raise ValueError("isotropic state needs n >= 2, got %d" % n)
    if not 0.0 <= f <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    phi = maximally_entangled(n).amplitudes
    proj = np.outer(phi, phi.conj())
    rest = (np.eye(n * n, dtype=complex) - proj) / (n * n - 1)
    return BipartiteOperator((n, n), f * proj + (1.0 - f) * rest)


def basis_product_ensemble(m: int, n: int) -> SchmidtEnsemble:
    """Uniform mixture of the mn computational product states; its density is
    the maximally mixed state and every term has Schmidt rank 1."""
    states = []
    for i in range(m):
        for j in range(n):
            amp = np.zeros(m * n, dtype=complex)
            amp[i * n + j] = 1.0
            states.append((1.0 / (m * n), PureState((m, n), amp)))
    return SchmidtEnsemble(terms=tuple(states), k=1)
