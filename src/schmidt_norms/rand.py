"""Seeded random generation of vectors, frames, unitaries, and channels.

Every stochastic routine in the package draws from a generator built out of
a :class:`RandomConfig`.  Identical ``(seed, stream_index)`` pairs give
bit-identical draws, so optimizer restarts and CLI runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import BipartiteOperator, Frame, PureState

__all__ = [
    "RandomConfig",
    "complex_gaussian",
    "random_unit_vector",
    "random_sr_k_vector",
    "random_frame",
    "random_unitary",
    "random_isometry",
    "random_hermitian",
    "random_cptp",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RandomConfig:
    """Reproducible RNG stream id.  ``stream(i)`` derives the i-th substream;
    restart r of an optimizer draws from ``cfg.rng.stream(r)``."""

    seed: int = 0
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=[self.seed & _MASK64, self.stream_index & _MASK64])
        return np.random.Generator(np.random.PCG64(ss))

    def stream(self, offset: int) -> "RandomConfig":
        return RandomConfig(self.seed, self.stream_index + offset)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian entries (real and imaginary parts N(0,1))."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = complex_gaussian(rng, dim)
    return v / np.linalg.norm(v)


def _qr_phase_fixed(a: np.ndarray) -> np.ndarray:
    """QR orthonormalization with the R diagonal rotated positive, which makes
    the column distribution Haar for Gaussian input."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    d = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * d.conj()


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary."""
    return _qr_phase_fixed(complex_gaussian(rng, (dim, dim)))


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar isometry, ``rows >= cols``, columns orthonormal."""
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    return _qr_phase_fixed(complex_gaussian(rng, (rows, cols)))


def random_frame(n: int, k: int, rng: np.random.Generator) -> Frame:
    """k Haar-orthonormal vectors in C^n."""
    return Frame(vectors=random_isometry(n, k, rng).T.copy())


def random_sr_k_vector(dims: tuple[int, int], k: int,
                       rng: np.random.Generator) -> PureState:
    """Unit vector of Schmidt rank <= k built directly from its Schmidt data:
    random orthonormal systems on both factors with random positive weights."""
    m, n = dims
    if not 1 <= k <= min(m, n):
        raise ValueError("need 1 <= k <= min(dims)")
    left = random_isometry(m, k, rng)
    right = random_isometry(n, k, rng)
    coeff = np.abs(rng.standard_normal(k)) + 1e-12
    coeff = coeff / np.linalg.norm(coeff)
    vec = np.einsum("t,it,at->ia", coeff, left, right).reshape(-1)
    return PureState(dims=(m, n), amplitudes=vec / np.linalg.norm(vec))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style Hermitian matrix."""
    a = complex_gaussian(rng, (dim, dim))
    return (a + a.conj().T) / 2.0


def random_cptp(in_dim: int, out_dim: int, rng: np.random.Generator) -> BipartiteOperator:
    """Choi matrix of a Haar-random CPTP map, via a Stinespring isometry
    V : C^in -> C^out (x) C^out (the environment is as large as the output).
    The Choi lives on C^in (x) C^out and its partial trace over the output
    factor is the in_dim identity."""
    v = random_isometry(out_dim * out_dim, in_dim, rng)
    kraus = v.reshape(out_dim, out_dim, in_dim)
    # J[i,a,j,b] = sum_e A_e[a,i] conj(A_e[b,j])
    j4 = np.einsum("aei,bej->iajb", kraus, kraus.conj())
    mat = j4.reshape(in_dim * out_dim, in_dim * out_dim)
    return BipartiteOperator(dims=(in_dim, out_dim), mat=mat)
