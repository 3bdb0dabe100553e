"""Choi-matrix calculus for linear maps between matrix algebras.

Convention: J(Phi) = sum_ij |i><j| (x) Phi(|i><j|), input factor first, so the
Choi matrix of a map M_r -> M_n is a BipartiteOperator with dims (r, n) and
apply(Phi, X) = sum_ij X_ij Phi(|i><j|).

The two map norms, ``idk_op_norm`` (a see-saw between the polar factor of
the pairing matrix and the top singular pair) and ``hermitian_trace_norm``
(a projected-gradient ascent on the sphere of inputs u, since rank-1
projections are extreme among Hermitian trace-ball elements), run their
restarts as the rows of one stacked ascent (``optim.ascend_rows``,
``optim.sphere_ascent``), one batched SVD or eigh per step.  Each returns a
``MapNormEstimate``: a ``lower`` value with the ``optim.SearchRecord`` of its
search, or on a completely positive map a proved closed form, ``exact``
with the zero-work record: ||Phi(I)|| (Russo-Dye) and lambda_max(Tr_out
J(Phi)).  The kernels ``idk_apply`` and ``idk_pairing_matrix`` are gemms on
transposed layouts of the Choi tensor, and take a leading stack axis.  The
map certificates and their rechecks share ``_hermitian_choi``, the checked
state ``_choi_state`` and the checked trace norm ``_contraction_value``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import BlockPositivityVerdict, SchmidtEnsemble, WitnessCertificate, \
    _block_positivity, _check_state, _reconstructs, _reduction_witness, _witness_pairing
from .linalg import (
    EVAL_TOL,
    REFUTE_TOL,
    UNIT_TOL,
    BipartiteOperator,
    PureState,
    _check_k,
    is_hermitian,
    min_eig_hermitian,
    operator_norm,
    trace_norm,
)
from .optim import (SearchRecord, SeeSawConfig, _row_dot, ascend_rows,
                    check_direction, restart_rngs, search_metadata, sphere_ascent)
from .rand import random_unit_vector

__all__ = [
    "MapRepr",
    "MapNormEstimate",
    "ContractionTestResult",
    "identity_map",
    "transpose_map",
    "depolarizing_map",
    "reduction_map",
    "apply",
    "idk_apply",
    "idk_pairing_matrix",
    "k_positivity",
    "k_peb_certify",
    "k_peb_refute",
    "idk_op_norm",
    "hermitian_trace_norm",
    "detection_map",
    "sn_contraction_test",
]


@dataclass(frozen=True)
class MapRepr:
    """A linear map M_r -> M_n held as its Choi matrix."""

    in_dim: int
    out_dim: int
    choi: BipartiteOperator

    def __post_init__(self):
        if self.choi.dims != (self.in_dim, self.out_dim):
            raise ValueError("Choi dims %r do not match (%d, %d)"
                             % (self.choi.dims, self.in_dim, self.out_dim))

    @classmethod
    def from_choi(cls, choi: BipartiteOperator) -> "MapRepr":
        return cls(in_dim=choi.m, out_dim=choi.n, choi=choi)

    @classmethod
    def from_kraus(cls, kraus, in_dim: int, out_dim: int) -> "MapRepr":
        """Phi(X) = sum_i A_i X A_i^dagger from n x r Kraus operators."""
        j4 = np.zeros((in_dim, out_dim, in_dim, out_dim), dtype=complex)
        for a in kraus:
            a = np.asarray(a, dtype=complex)
            if a.shape != (out_dim, in_dim):
                raise ValueError("Kraus operator shape %r, expected %r"
                                 % (a.shape, (out_dim, in_dim)))
            j4 += np.einsum("ai,bj->iajb", a, a.conj())
        mat = j4.reshape(in_dim * out_dim, in_dim * out_dim)
        return cls(in_dim, out_dim, BipartiteOperator((in_dim, out_dim), mat))

    @classmethod
    def from_callable(cls, f, in_dim: int, out_dim: int) -> "MapRepr":
        """Tabulate Phi on the matrix units."""
        j4 = np.zeros((in_dim, out_dim, in_dim, out_dim), dtype=complex)
        for i in range(in_dim):
            for j in range(in_dim):
                e = np.zeros((in_dim, in_dim), dtype=complex)
                e[i, j] = 1.0
                out = np.asarray(f(e), dtype=complex)
                if out.shape != (out_dim, out_dim):
                    raise ValueError("map output shape %r, expected %r"
                                     % (out.shape, (out_dim, out_dim)))
                j4[i, :, j, :] = out
        mat = j4.reshape(in_dim * out_dim, in_dim * out_dim)
        return cls(in_dim, out_dim, BipartiteOperator((in_dim, out_dim), mat))

    def j4(self) -> np.ndarray:
        return self.choi.blocks()

    def is_hermiticity_preserving(self) -> bool:
        return is_hermitian(self.choi.mat)

    def is_cp(self) -> bool:
        """Choi matrix Hermitian with no eigenvalue below -EVAL_TOL."""
        return self._choi_min_eig() >= -EVAL_TOL

    def _choi_min_eig(self) -> float:
        """Smallest eigenvalue of the Choi matrix; -inf where it is not
        Hermitian within HERM_TOL (then the map is not CP)."""
        try:
            return min_eig_hermitian(self.choi.mat)
        except ValueError:
            return -np.inf

    def is_trace_preserving(self) -> bool:
        """Tr Phi(|i><j|) = delta_ij within UNIT_TOL, entry by entry."""
        red = np.einsum("iaja->ij", self.j4())
        return bool(np.max(np.abs(red - np.eye(self.in_dim))) <= UNIT_TOL)


def identity_map(n: int) -> MapRepr:
    return MapRepr.from_callable(lambda x: x, n, n)


def transpose_map(n: int) -> MapRepr:
    return MapRepr.from_callable(lambda x: x.T, n, n)


def depolarizing_map(n: int) -> MapRepr:
    """Omega(X) = Tr(X) I/n."""
    return MapRepr.from_callable(
        lambda x: np.trace(x) * np.eye(n, dtype=complex) / n, n, n)


def reduction_map(n: int, p: float = 1.0) -> MapRepr:
    """Phi_p(X) = Tr(X) I - p X; k-positive iff p <= 1/k."""
    return MapRepr.from_callable(
        lambda x: np.trace(x) * np.eye(n, dtype=complex) - p * x, n, n)


def apply(phi: MapRepr, x: np.ndarray) -> np.ndarray:
    """Phi(X), the k = 1 case of :func:`idk_apply`."""
    return idk_apply(phi, x, 1)


def idk_apply(phi: MapRepr, x: np.ndarray, k: int) -> np.ndarray:
    """(id_k (x) Phi)(X) for X on C^k (x) C^r, or for a stack of them."""
    r, n = phi.in_dim, phi.out_dim
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (2, 3) or x.shape[-2:] != (k * r, k * r):
        raise ValueError("input shape %r, expected %r" % (x.shape, (k * r,) * 2))
    xs = x.reshape(-1, k, r, k, r).transpose(0, 1, 3, 2, 4).reshape(-1, r * r)  # (s p q, i j)
    js = phi.j4().transpose(0, 2, 1, 3).reshape(r * r, n * n)                  # (i j, a b)
    out = np.dot(xs, js).reshape(-1, k, k, n, n).transpose(0, 1, 3, 2, 4)      # (s, p, a, q, b)
    return out.reshape(x.shape[:-2] + (k * n, k * n))


def idk_pairing_matrix(phi: MapRepr, v: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Y with <v|(id_k (x) Phi)(X)|w> = Tr(X Y) for every X on C^k (x) C^r,
    or the stack of them for stacks of v and w."""
    r, n = phi.in_dim, phi.out_dim
    v4 = np.asarray(v, dtype=complex).reshape(-1, k, n)
    w4 = np.asarray(w, dtype=complex).reshape(-1, n)
    s = v4.shape[0]
    t = np.dot(phi.choi.mat.reshape(r * n * r, n), w4.T)                         # (i a j, s q)
    t = t.reshape(r, n, r, s, k).transpose(3, 1, 0, 2, 4).reshape(s, n, r * r * k)
    y = np.matmul(v4.conj(), t)                                                  # (s, p, i j q)
    y = y.reshape(s, k, r, r, k).transpose(0, 4, 3, 1, 2)                        # (s, q, j, p, i)
    return y.reshape(np.shape(v)[:-1] + (k * r, k * r))


# ---------------------------------------------------------------------------
# positivity / PEB
# ---------------------------------------------------------------------------


def k_positivity(phi: MapRepr, k: int,
                 cfg: SeeSawConfig | None = None) -> BlockPositivityVerdict:
    """k-positive iff the Choi matrix is k-block positive; delegates to the
    cones module.  A refutation witness encodes the violating input state."""
    return _block_positivity(_hermitian_choi(phi), k, cfg)


def _hermitian_choi(phi: MapRepr) -> BipartiteOperator:
    """phi's Choi matrix under k_positivity's rule: phi preserves Hermiticity."""
    if not phi.is_hermiticity_preserving():
        raise ValueError("k-positivity needs a Hermiticity-preserving map")
    return phi.choi


def _choi_state(phi: MapRepr) -> BipartiteOperator:
    """rho = J / Tr J of a CP map with Tr J > 0, checked as a state (a tiny
    Tr J can make it none) with lambda_min(J) / Tr J from the one eigvalsh
    of J that decides complete positivity."""
    lam = phi._choi_min_eig()
    if not lam >= -EVAL_TOL:
        raise ValueError("operation defined for completely positive maps only")
    tr = float(np.trace(phi.choi.mat).real)
    if tr <= 0:
        raise ValueError("Choi matrix has nonpositive trace")
    rho = BipartiteOperator(phi.choi.dims, phi.choi.mat / tr)
    _check_state(rho, lam / tr)
    return rho


def k_peb_certify(phi: MapRepr, ens: SchmidtEnsemble) -> bool:
    """Certify k-partial entanglement breaking: the normalized Choi state has
    Schmidt number <= ens.k iff such an ensemble exists."""
    return _reconstructs(_choi_state(phi), ens)


def k_peb_refute(phi: MapRepr, k: int,
                 cfg: SeeSawConfig | None = None) -> WitnessCertificate:
    """Attempt to refute k-PEB: pair the normalized Choi state against the
    reduction-type witness on C^r (x) C^n.  A valid certificate refutes."""
    rho = _choi_state(phi)
    _check_k(rho, k)
    W = _reduction_witness(rho.dims, k)
    return WitnessCertificate(W=W, k=k, pairing=_witness_pairing(W, rho),
                              block_pos_evidence=_block_positivity(W, k, cfg))


# ---------------------------------------------------------------------------
# map norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapNormEstimate:
    """Map-norm value with its direction, one of ``optim.DIRECTIONS``, the
    attaining input and the ``optim.SearchRecord`` of its search;
    re-evaluating the norm at ``attaining_input`` reproduces ``value`` within
    EVAL_TOL."""

    value: float
    direction: str
    attaining_input: object
    search: SearchRecord = SearchRecord()

    def __post_init__(self):
        check_direction(self.direction)


def _polar_trace_step(y: np.ndarray) -> np.ndarray:
    """Polar factors of a stack of Y^dagger: each X, ||X|| <= 1, max Re Tr(X Y)."""
    u, _, vh = np.linalg.svd(y)
    return np.matmul(vh.conj().transpose(0, 2, 1), u.conj().transpose(0, 2, 1))


def idk_op_norm(phi: MapRepr, k: int, cfg: SeeSawConfig | None = None) -> MapNormEstimate:
    """Lower bound on ||id_k (x) Phi|| = sup{||(id_k (x) Phi)(X)|| : ||X|| <= 1}.

    Alternates two exact partial maximizations (see module docstring);
    restart 0 starts from X = I.  A completely positive map attains the
    supremum at X = I (Russo-Dye), so it gets the closed form ||Phi(I)||,
    ``exact``, with no search.
    """
    cfg = cfg or SeeSawConfig()
    if k < 1:
        raise ValueError("k must be >= 1")
    r, n = phi.in_dim, phi.out_dim
    if phi.is_cp():
        return MapNormEstimate(value=operator_norm(np.einsum("iaib->ab", phi.j4())),
                               direction="exact",
                               attaining_input=np.eye(k * r, dtype=complex))

    def evaluate(x: np.ndarray):
        u, s, vh = np.linalg.svd(idk_apply(phi, x, k))
        return s[:, 0], (x, u[:, :, 0], vh[:, 0, :].conj())

    def step(_value, state):  # state (x, v, w): the next x from (v, w)
        new, state = evaluate(_polar_trace_step(idk_pairing_matrix(phi, *state[1:], k)))
        return new, state, np.ones(new.size, dtype=bool)

    v, w = np.array([[random_unit_vector(k * n, rng) for _ in range(2)]
                     for rng in restart_rngs(cfg)]).transpose(1, 0, 2)
    x = _polar_trace_step(idk_pairing_matrix(phi, v, w, k))
    x[0] = np.eye(k * r)
    best, outcomes = ascend_rows(*evaluate(x), step, cfg)
    return MapNormEstimate(value=best.value, direction="lower",
                           attaining_input=best.payload[0],
                           search=search_metadata(best, outcomes))


def hermitian_trace_norm(phi: MapRepr, k: int,
                         cfg: SeeSawConfig | None = None) -> MapNormEstimate:
    """Lower bound on sup ||(id_k (x) Phi)(|u><u|)||_tr over unit vectors u,
    which equals the induced Hermitian trace norm of id_k (x) Phi (rank-1
    projections are extreme among trace-ball Hermitians) and the supremum of
    ||(id (x) Phi)(rho)||_tr over states with Schmidt number <= k.

    A completely positive map has positive outputs, whose trace norm is the
    trace <u|I_k (x) M^T|u> with M = Tr_out J(Phi): the closed form
    lambda_max(M) at u = e_1 (x) conj(top eigenvector of M), ``exact``, with
    no search.  Otherwise each evaluation takes one eigh row of the
    output's Hermitian part, which gives the value (sum of |lambda|) and the
    sign matrix of the ascent direction.
    """
    cfg = cfg or SeeSawConfig()
    if k < 1:
        raise ValueError("k must be >= 1")
    if not is_hermitian(phi.choi.mat):
        raise ValueError("Hermitian trace norm needs a Hermiticity-preserving map")
    r, n = phi.in_dim, phi.out_dim
    d = k * r
    j4 = phi.j4()
    if phi.is_cp():
        vals, vecs = np.linalg.eigh(np.einsum("iaja->ij", j4))
        u = np.zeros((k, r), dtype=complex)
        u[0] = vecs[:, -1].conj()
        return MapNormEstimate(value=float(vals[-1]), direction="exact",
                               attaining_input=PureState((k, r), u.reshape(-1)))
    jt = j4.transpose(1, 3, 0, 2).reshape(n * n, r * r)  # (a b, i j)

    def value_at(u: np.ndarray):
        a = idk_apply(phi, u[:, :, None] * u.conj()[:, None, :], k)
        vals, vecs = np.linalg.eigh((a + a.conj().transpose(0, 2, 1)) / 2.0)
        return np.sum(np.abs(vals), axis=1), (vals, vecs)

    def direction(u: np.ndarray, eig) -> np.ndarray:
        # (id_k (x) Phi)^* of each sign matrix, as the (q j, p i) matrix
        vals, vecs = eig
        sign = np.matmul(vecs * np.sign(vals)[:, None, :],
                         vecs.conj().transpose(0, 2, 1))                    # (s, q b, p a)
        st = sign.reshape(-1, k, n, k, n).transpose(0, 3, 1, 4, 2).reshape(-1, n * n)
        kmat = np.dot(st, jt).reshape(-1, k, k, r, r).transpose(0, 2, 4, 1, 3)  # (s, q, j, p, i)
        g = np.matmul(kmat.reshape(-1, d, d), u[:, :, None])[:, :, 0]
        return g - u * _row_dot(u, g)[:, None]

    u = np.array([random_unit_vector(d, rng) for rng in restart_rngs(cfg)])
    u[0] = np.eye(k, r).reshape(-1) / np.sqrt(min(k, r))
    best, outcomes = sphere_ascent(value_at, direction, u, cfg)
    return MapNormEstimate(value=best.value, direction="lower",
                           attaining_input=PureState((k, r), best.payload[0]),
                           search=search_metadata(best, outcomes))


# ---------------------------------------------------------------------------
# Schmidt-number detection pipeline
# ---------------------------------------------------------------------------


def detection_map(psi: MapRepr, cfg: SeeSawConfig | None = None) -> MapRepr:
    """Block-diagonal detector X -> Psi'(X) (+) (Omega - Psi')(X) into M_2n,
    where Omega is the completely depolarizing channel and Psi' is Psi scaled
    so its induced trace norm stays 10% below 1/n.  Trace-preserving by
    construction; k-positive whenever Psi is (given the norm bound)."""
    cfg = cfg or SeeSawConfig()
    if psi.in_dim != psi.out_dim:
        raise ValueError("detector construction needs a square map")
    if not is_hermitian(psi.choi.mat):
        raise ValueError("detector construction needs a Hermiticity-preserving map")
    n = psi.in_dim
    t = hermitian_trace_norm(psi, 1, cfg).value
    target = 0.9 / n
    scale = 1.0 if t <= target else target / t
    j4 = scale * psi.j4()
    out = np.zeros((n, 2 * n, n, 2 * n), dtype=complex)
    out[:, :n, :, :n] = j4
    eye_n = np.eye(n)
    omega4 = np.einsum("ij,ab->iajb", eye_n, eye_n) / n
    out[:, n:, :, n:] = omega4 - j4
    mat = out.reshape(2 * n * n, 2 * n * n)
    return MapRepr(n, 2 * n, BipartiteOperator((n, 2 * n), mat))


@dataclass(frozen=True)
class ContractionTestResult:
    """Outcome of the trace-norm contraction test at level k."""

    status: str  # "detected" | "not-detected"
    trace_norm_value: float
    k: int
    norm_bound: float

    @property
    def detected(self) -> bool:
        return self.status == "detected"

    @property
    def sn_lower_bound(self) -> int | None:
        """Certified SN(rho) >= k+1 when detected."""
        return self.k + 1 if self.detected else None


def sn_contraction_test(rho: BipartiteOperator, phi: MapRepr, k: int,
                        cfg: SeeSawConfig | None = None,
                        norm_bound: float | None = None) -> ContractionTestResult:
    """Detect Schmidt number > k: any Phi with ||id_k (x) Phi||_tr^H <= 1
    contracts the trace norm of every SN-<=k state, so an output trace norm
    above 1 certifies SN(rho) > k.

    The norm precondition is checked against ``norm_bound`` when the caller
    certifies one, otherwise against the library's own estimate.
    """
    cfg = cfg or SeeSawConfig()
    if k < 1:
        raise ValueError("k must be >= 1")
    val = _contraction_value(rho, phi)
    if norm_bound is not None and not 0.0 <= norm_bound < np.inf:  # also NaN
        raise ValueError("norm_bound must be finite and >= 0, got %r" % norm_bound)
    bound = hermitian_trace_norm(phi, k, cfg).value if norm_bound is None else norm_bound
    if bound > 1.0 + EVAL_TOL:
        raise ValueError("map fails the contraction precondition: "
                         "||id_k (x) Phi||_tr^H = %.12g > 1" % bound)
    status = "detected" if val > 1.0 + REFUTE_TOL else "not-detected"
    return ContractionTestResult(status=status, trace_norm_value=val, k=k,
                                 norm_bound=float(bound))


def _contraction_value(rho: BipartiteOperator, phi: MapRepr) -> float:
    """||(id (x) Phi)(rho)||_tr under sn_contraction_test's input rules."""
    _check_state(rho)
    if rho.n != phi.in_dim:
        raise ValueError("map input dim %d does not match state second factor %d"
                         % (phi.in_dim, rho.n))
    return trace_norm(idk_apply(phi, rho.mat, rho.m))
