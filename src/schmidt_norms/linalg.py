"""Dense complex linear algebra for bipartite operators.

Conventions used across the whole package:

* Everything is a dense ``complex128`` numpy array; vectors are 1-D,
  operators 2-D.
* An operator on C^m (x) C^n is an (m*n) x (m*n) matrix over the product
  basis ``|i>|j>`` stored at flat index ``i*n + j`` (left factor major).
  ``numpy.kron(A, B)`` with ``A`` of size m and ``B`` of size n follows the
  same convention, as does ``vec.reshape(m, n)``.
* Schmidt coefficients are reported in non-increasing order with
  orthonormal left/right vector systems.

The spectral helpers (`operator_norm`, `trace_norm`, `min_eig_hermitian`,
`numerical_radius`) delegate the eigen/singular work to LAPACK via numpy;
the value conventions on top of them are fixed here and relied on by the
optimizers.  The numerical radius is an angle scan refined by Newton steps
on lambda_max(Re(e^{i theta} x)) (Johnson, SIAM J. Numer. Anal. 15, 1978).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERM_TOL",
    "ORTHO_TOL",
    "RECON_TOL",
    "RANK_TOL",
    "UNIT_TOL",
    "EVAL_TOL",
    "REFUTE_TOL",
    "BipartiteOperator",
    "PureState",
    "SchmidtDecomposition",
    "Frame",
    "tensor",
    "dagger",
    "is_hermitian",
    "operator_norm",
    "trace_norm",
    "min_eig_hermitian",
    "numerical_radius",
    "schmidt_decompose",
    "schmidt_rank",
    "truncate_schmidt",
]

# Default tolerances.  Hermiticity / orthonormality checks are strict; the
# reconstruction and rank cutoffs leave room for accumulated round-off.
HERM_TOL = 1e-10
ORTHO_TOL = 1e-10
RECON_TOL = 1e-9
RANK_TOL = 1e-9
UNIT_TOL = 1e-9
EVAL_TOL = 1e-8
REFUTE_TOL = 1e-8


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteOperator:
    """An operator on C^m (x) C^n with its factor dimensions attached.

    Parameters
    ----------
    dims : (m, n)
        Dimensions of the two tensor factors.
    mat : array_like
        Square (m*n) x (m*n) complex matrix in the product basis with flat
        index ``i*n + j``.
    """

    dims: tuple[int, int]
    mat: np.ndarray

    def __post_init__(self):
        m, n = self.dims
        if m < 1 or n < 1:
            raise ValueError("factor dimensions must be positive")
        mat = _as_complex(self.mat)
        if mat.ndim != 2 or mat.shape != (m * n, m * n):
            raise ValueError(
                "matrix shape %r does not match dims (%d, %d)" % (mat.shape, m, n)
            )
        if not np.isfinite(mat).all():
            raise ValueError("mat has a non-finite entry")
        object.__setattr__(self, "dims", (int(m), int(n)))
        object.__setattr__(self, "mat", mat)

    @property
    def m(self) -> int:
        return self.dims[0]

    @property
    def n(self) -> int:
        return self.dims[1]

    def blocks(self) -> np.ndarray:
        """The operator as an (m, n, m, n) tensor, T[i,a,j,b] = X[(i,a),(j,b)]."""
        m, n = self.dims
        return self.mat.reshape(m, n, m, n)


@dataclass(frozen=True)
class PureState:
    """A unit vector in C^m (x) C^n (flat index ``i*n + j``)."""

    dims: tuple[int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        m, n = self.dims
        if m < 1 or n < 1:
            raise ValueError("factor dimensions must be positive")
        amp = _as_complex(self.amplitudes).reshape(-1)
        if amp.shape != (m * n,):
            raise ValueError("amplitude length %d does not match dims (%d, %d)"
                             % (amp.size, m, n))
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes has a non-finite entry")
        nrm = np.linalg.norm(amp)
        if abs(nrm - 1.0) > UNIT_TOL:
            raise ValueError("state norm %.3e is not 1 within %g" % (nrm, UNIT_TOL))
        object.__setattr__(self, "dims", (int(m), int(n)))
        object.__setattr__(self, "amplitudes", amp)

    @property
    def m(self) -> int:
        return self.dims[0]

    @property
    def n(self) -> int:
        return self.dims[1]

    def matrix_form(self) -> np.ndarray:
        """Amplitudes reshaped to the m x n coefficient matrix."""
        return self.amplitudes.reshape(self.dims)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a bipartite vector.

    ``coeffs`` are non-negative and non-increasing, ``left[t]`` / ``right[t]``
    are the matching orthonormal vectors, so the original vector is
    ``sum_t coeffs[t] * kron(left[t], right[t])``.
    """

    coeffs: np.ndarray
    left: np.ndarray   # shape (s, m), rows are vectors
    right: np.ndarray  # shape (s, n)

    def reconstruct(self) -> np.ndarray:
        return np.einsum("t,ti,ta->ia", self.coeffs, self.left,
                         self.right).reshape(-1)


@dataclass(frozen=True)
class Frame:
    """k orthonormal vectors in C^n, stored as the rows of ``vectors``."""

    vectors: np.ndarray

    def __post_init__(self):
        vecs = _as_complex(self.vectors)
        if vecs.ndim != 2:
            raise ValueError("frame must be a 2-D array of row vectors")
        if not np.isfinite(vecs).all():
            raise ValueError("vectors has a non-finite entry")
        k, n = vecs.shape
        if k > n:
            raise ValueError("cannot fit %d orthonormal vectors in C^%d" % (k, n))
        gram = vecs.conj() @ vecs.T
        if np.max(np.abs(gram - np.eye(k))) > ORTHO_TOL:
            raise ValueError("frame vectors are not orthonormal within %g" % ORTHO_TOL)
        object.__setattr__(self, "vectors", vecs)

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def tensor(a, b) -> np.ndarray:
    """Kronecker product in the package's left-factor-major convention."""
    return np.kron(_as_complex(a), _as_complex(b))


def dagger(x) -> np.ndarray:
    return _as_complex(x).conj().T


def is_hermitian(x) -> bool:
    """Square and equal to its adjoint within HERM_TOL, entry by entry."""
    x = _as_complex(x)
    return x.ndim == 2 and x.shape[0] == x.shape[1] and \
        np.max(np.abs(x - x.conj().T)) <= HERM_TOL


def _check_k(X: BipartiteOperator, k: int) -> None:
    if not 1 <= k <= min(X.dims):
        raise ValueError("k=%d out of range for dims %r" % (k, X.dims))


def operator_norm(x) -> float:
    """Largest singular value."""
    x = _as_complex(x)
    if x.ndim != 2:
        raise ValueError("operator_norm expects a matrix")
    return float(np.linalg.norm(x, 2))


def trace_norm(x) -> float:
    """Sum of singular values."""
    x = _as_complex(x)
    if x.ndim != 2:
        raise ValueError("trace_norm expects a matrix")
    return float(np.sum(np.linalg.svd(x, compute_uv=False)))


def min_eig_hermitian(x) -> float:
    """Smallest eigenvalue of a Hermitian matrix; rejects non-Hermitian input."""
    x = _as_complex(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("min_eig_hermitian expects a square matrix")
    if not is_hermitian(x):
        raise ValueError("matrix is not Hermitian within HERM_TOL = %g" % HERM_TOL)
    h = (x + x.conj().T) / 2.0
    return float(np.linalg.eigvalsh(h)[0])


# -- numerical radius -------------------------------------------------------


def _numerical_radius_attain(x, grid_points: int = 64, theta_tol: float = 1e-12):
    """max_theta lambda_max(Re(e^{i theta} x)), its angle and eigenvector: the
    best of ``grid_points`` angles, refined within one grid step by Newton
    steps, lambda' = <v|K|v> and lambda'' = -lambda + 2 sum_j |<v_j|K|v>|^2 /
    (lambda - lambda_j) with K = d Re(e^{i theta} x) / d theta, from the eigh
    already done.  lambda' shrinks the bracket, bisected where Newton fails
    (lambda'' >= 0, repeated top eigenvalue, step out of the bracket), until
    step or bracket is below ``theta_tol``; returns the best angle evaluated."""
    x = _as_complex(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("numerical_radius expects a square matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("numerical_radius expects finite entries")
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    if not 0.0 < theta_tol < np.inf:
        raise ValueError("theta_tol must be finite and > 0")
    thetas = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    # Re(e^{i(theta + pi)} x) = -Re(e^{i theta} x): an even grid reads its
    # second half off the bottom eigenvalues of the first
    half = grid_points // 2 if grid_points % 2 == 0 else grid_points
    px = np.exp(1j * thetas[:half])[:, None, None] * x
    vals = np.linalg.eigvalsh((px + px.conj().transpose(0, 2, 1)) / 2.0)
    grid = vals[:, -1] if half == grid_points else np.concatenate((vals[:, -1], -vals[:, 0]))
    theta = float(thetas[np.argmax(grid)])
    a, b = theta - 2.0 * np.pi / grid_points, theta + 2.0 * np.pi / grid_points
    top = (-np.inf, theta, None)
    while True:
        px = np.exp(1j * theta) * x
        vals, vecs = np.linalg.eigh((px + px.conj().T) / 2.0)
        if vals[-1] > top[0]:
            top = (float(vals[-1]), theta, vecs[:, -1])
        # <v_j|K|v> for every eigenvector v_j, v the top one
        kv = vecs.conj().T @ ((px - px.conj().T) @ vecs[:, -1]) * 0.5j
        d1 = kv[-1].real
        a = theta if d1 >= 0.0 else a  # the maximum lies uphill
        b = theta if d1 <= 0.0 else b
        new = (a + b) / 2.0
        gaps = vals[-1] - vals[:-1]
        if np.all(gaps > 0.0):
            d2 = 2.0 * np.sum(np.abs(kv[:-1]) ** 2 / gaps) - vals[-1]
            if d2 < 0.0 and a <= theta - d1 / d2 <= b:
                new = theta - d1 / d2
        if abs(new - theta) < theta_tol or b - a < theta_tol:
            return top
        theta = float(new)


def numerical_radius(x, grid_points: int = 64, theta_tol: float = 1e-12) -> float:
    """Numerical radius sup_{|u|=1} |<u|x|u>|, a lower bound: an angle scan
    refined by Newton steps to ``theta_tol`` (`_numerical_radius_attain`)."""
    val, _, _ = _numerical_radius_attain(x, grid_points, theta_tol)
    return val


# ---------------------------------------------------------------------------
# Schmidt machinery
# ---------------------------------------------------------------------------


def schmidt_decompose(state: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition of a pure bipartite state via the SVD of its
    m x n coefficient matrix.  Coefficients come out non-increasing."""
    u, s, vh = np.linalg.svd(state.matrix_form(), full_matrices=False)
    return SchmidtDecomposition(coeffs=s, left=u.T.copy(), right=vh.copy())


def schmidt_rank(state: PureState) -> int:
    """Number of Schmidt coefficients above RANK_TOL."""
    s = np.linalg.svd(state.matrix_form(), compute_uv=False)
    return int(np.sum(s > RANK_TOL))


def _truncate_vec(vec: np.ndarray, m: int, n: int, k: int) -> np.ndarray:
    """Best Schmidt-rank-<=k approximation of ``vec`` (not normalized), as
    an m x n matrix; a stack of vectors (..., m*n) gives (..., m, n)."""
    u, s, vh = np.linalg.svd(vec.reshape(vec.shape[:-1] + (m, n)),
                             full_matrices=False)
    kk = min(k, m, n)
    return (u[..., :kk] * s[..., None, :kk]) @ vh[..., :kk, :]


def truncate_schmidt(state: PureState, k: int) -> PureState:
    """Keep the k largest Schmidt terms and renormalize.

    Eckart-Young: the result is the closest unit vector of Schmidt rank <= k.
    Raises if the leading coefficients all vanish.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m, n = state.dims
    trunc = _truncate_vec(state.amplitudes, m, n, k)
    nrm = np.linalg.norm(trunc)
    if nrm <= 0.0:
        raise ValueError("all leading Schmidt coefficients vanish")
    return PureState(dims=state.dims, amplitudes=trunc.reshape(-1) / nrm)
