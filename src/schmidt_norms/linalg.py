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
on lambda_max(Re(e^{i theta} x)) (Johnson, SIAM J. Numer. Anal. 15, 1978),
in closed form with no LAPACK call when x is 2 x 2.
"""

from __future__ import annotations

import math
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


class _Factors:
    """The factor dimensions (m, n) = ``dims`` of a bipartite value."""

    def _check_dims(self) -> tuple[int, int]:
        m, n = self.dims
        if m < 1 or n < 1:
            raise ValueError("factor dimensions must be positive")
        object.__setattr__(self, "dims", (int(m), int(n)))
        return m, n

    @property
    def m(self) -> int:
        return self.dims[0]

    @property
    def n(self) -> int:
        return self.dims[1]


@dataclass(frozen=True)
class BipartiteOperator(_Factors):
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
        m, n = self._check_dims()
        mat = _as_complex(self.mat)
        if mat.ndim != 2 or mat.shape != (m * n, m * n):
            raise ValueError(
                "matrix shape %r does not match dims (%d, %d)" % (mat.shape, m, n)
            )
        if not np.isfinite(mat).all():
            raise ValueError("mat has a non-finite entry")
        object.__setattr__(self, "mat", mat)

    def blocks(self) -> np.ndarray:
        """The operator as an (m, n, m, n) tensor, T[i,a,j,b] = X[(i,a),(j,b)]."""
        m, n = self.dims
        return self.mat.reshape(m, n, m, n)


@dataclass(frozen=True)
class PureState(_Factors):
    """A unit vector in C^m (x) C^n (flat index ``i*n + j``)."""

    dims: tuple[int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        m, n = self._check_dims()
        amp = _as_complex(self.amplitudes).reshape(-1)
        if amp.shape != (m * n,):
            raise ValueError("amplitude length %d does not match dims (%d, %d)"
                             % (amp.size, m, n))
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes has a non-finite entry")
        nrm = np.linalg.norm(amp)
        if abs(nrm - 1.0) > UNIT_TOL:
            raise ValueError("state norm %.3e is not 1 within %g" % (nrm, UNIT_TOL))
        object.__setattr__(self, "amplitudes", amp)

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


def _newton_bracket(theta: float, a: float, b: float, d1: float, d2, theta_tol: float):
    """One safeguarded step of the angle search at ``theta`` in [a, b] with
    lambda' = d1 and lambda'' = d2 (None where Newton does not apply): d1
    shrinks the bracket towards the uphill side, the Newton step is taken
    when d2 < 0 and it stays in the bracket, else the bracket is bisected.
    Returns (next angle or None once step or bracket is below ``theta_tol``,
    a, b)."""
    a = theta if d1 >= 0.0 else a  # the maximum lies uphill
    b = theta if d1 <= 0.0 else b
    new = (a + b) / 2.0
    if d2 is not None and d2 < 0.0 and a <= theta - d1 / d2 <= b:
        new = theta - d1 / d2
    if abs(new - theta) < theta_tol or b - a < theta_tol:
        return None, a, b
    return float(new), a, b


def _numerical_radius_2x2(x: np.ndarray, points: int, theta_tol: float):
    """`_numerical_radius_attain` of a 2 x 2 matrix with no LAPACK call.

    Re(e^{i theta} x) = [[t + u, q], [conj(q), t - u]] with t, u and q linear
    in (cos theta, sin theta), so lambda_max = t + r, r = sqrt(u^2 + |q|^2):
    the support function of the elliptical numerical range (C.-K. Li, Proc.
    AMS 124, 1996).  The best of ``points`` angles is refined by the Newton
    and bisection rule of `_newton_bracket` on the analytic lambda' and
    lambda'' in scalar arithmetic; where r = 0 (x = c I) lambda = t alone.
    The eigenvector of t + r is (r + u, conj(q)) or (q, r - u), whichever
    has the larger norm."""
    (x00, x01), (x10, x11) = x.tolist()
    # t, u, Re q and Im q are Re(e^{i theta} w) for these w, and their
    # theta derivatives -Im(e^{i theta} w)
    wt, wu = (x00 + x11) / 2.0, (x00 - x11) / 2.0
    wr, wi = (x01 + x10) / 2.0, (x01 - x10) / 2.0j
    thetas = np.arange(points) * (2.0 * np.pi / points)
    t, u, qr, qi = (np.array([[w.real, -w.imag] for w in (wt, wu, wr, wi)])
                    @ np.array((np.cos(thetas), np.sin(thetas))))
    theta = float(thetas[np.argmax(t + np.hypot(u, np.hypot(qr, qi)))])
    a, b = theta - 2.0 * np.pi / points, theta + 2.0 * np.pi / points
    top = (-np.inf,)
    while True:
        z = complex(math.cos(theta), math.sin(theta))
        zt, zu, zr, zi = z * wt, z * wu, z * wr, z * wi
        t, u, qr, qi = zt.real, zu.real, zr.real, zi.real
        r = math.hypot(u, qr, qi)
        if t + r > top[0]:
            top = (t + r, theta, u, complex(qr, qi), r)
        d1, d2 = -zt.imag, -t
        if r > 0.0:
            u1, qr1, qi1 = -zu.imag, -zr.imag, -zi.imag
            r1 = (u * u1 + qr * qr1 + qi * qi1) / r
            d1 += r1
            d2 += (u1 * u1 + qr1 * qr1 + qi1 * qi1 - r1 * r1) / r - r
        theta, a, b = _newton_bracket(theta, a, b, d1, d2, theta_tol)
        if theta is None:
            break
    val, theta, u, q, r = top
    if r == 0.0:
        return val, theta, np.array([1.0, 0.0], dtype=complex)
    vec = [r + u, q.conjugate()] if u >= 0.0 else [q, r - u]
    return val, theta, np.array(vec, dtype=complex) / math.sqrt(2.0 * r * (r + abs(u)))


def _numerical_radius_attain(x, grid_points: int = 64, theta_tol: float = 1e-12,
                             warm=None):
    """max_theta lambda_max(Re(e^{i theta} x)), its angle and eigenvector.

    A 2 x 2 x takes `_numerical_radius_2x2` on max(4 grid_points, 64)
    angles.  Any other x takes the best of ``grid_points`` angles from one
    batched eigvalsh, refined within one grid step by Newton steps, lambda' =
    <v|K|v> and lambda'' = -lambda + 2 sum_j |<v_j|K|v>|^2 / (lambda -
    lambda_j) with K = d Re(e^{i theta} x) / d theta, from the eigh already
    done, by the rule of `_newton_bracket`, until step or bracket is below
    ``theta_tol``.  ``warm`` = (theta, eigenvalues, eigenvectors), an eigh of
    Re(e^{i theta} x) already done, starts Newton at that angle with no eigh
    when it lies in the grid winner's bracket; the grid still picks the
    bracket.  Returns the best angle evaluated."""
    x = _as_complex(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("numerical_radius expects a square matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("numerical_radius expects finite entries")
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    if not 0.0 < theta_tol < np.inf:
        raise ValueError("theta_tol must be finite and > 0")
    if x.shape[0] == 2:
        return _numerical_radius_2x2(x, max(4 * grid_points, 64), theta_tol)
    thetas = np.arange(grid_points) * (2.0 * np.pi / grid_points)
    # Re(e^{i(theta + pi)} x) = -Re(e^{i theta} x): an even grid reads its
    # second half off the bottom eigenvalues of the first
    half = grid_points // 2 if grid_points % 2 == 0 else grid_points
    px = np.exp(1j * thetas[:half])[:, None, None] * x
    vals = np.linalg.eigvalsh((px + px.conj().transpose(0, 2, 1)) / 2.0)
    grid = vals[:, -1] if half == grid_points else np.concatenate((vals[:, -1], -vals[:, 0]))
    theta = float(thetas[np.argmax(grid)])
    a, b = theta - 2.0 * np.pi / grid_points, theta + 2.0 * np.pi / grid_points
    eig = None
    if warm is not None:
        start = theta + (warm[0] - theta + np.pi) % (2.0 * np.pi) - np.pi
        if a <= start <= b:
            theta, eig = float(start), warm[1:]
    top = (-np.inf, theta, None)
    while True:
        px = np.exp(1j * theta) * x
        vals, vecs = eig or np.linalg.eigh((px + px.conj().T) / 2.0)
        eig = None
        if vals[-1] > top[0]:
            top = (float(vals[-1]), theta, vecs[:, -1])
        # <v_j|K|v> for every eigenvector v_j, v the top one
        kv = vecs.conj().T @ ((px - px.conj().T) @ vecs[:, -1]) * 0.5j
        gaps = vals[-1] - vals[:-1]
        d2 = 2.0 * np.sum(np.abs(kv[:-1]) ** 2 / gaps) - vals[-1] \
            if np.all(gaps > 0.0) else None
        theta, a, b = _newton_bracket(theta, a, b, kv[-1].real, d2, theta_tol)
        if theta is None:
            return top


def numerical_radius(x, grid_points: int = 64, theta_tol: float = 1e-12) -> float:
    """Numerical radius sup_{|u|=1} |<u|x|u>|, a lower bound: an angle scan
    refined by Newton steps to ``theta_tol`` (`_numerical_radius_attain`; a
    2 x 2 x has the closed-form eigenvalue on 4x the angles and no LAPACK
    call)."""
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
