"""Cone membership: k-block positivity, Schmidt-number certificates, and
witness duality checks.

``k_block_positivity`` is the workhorse: it searches the minimum of <v|X|v>
over unit vectors of Schmidt rank at most k as the supremum of -<v|X|v>,
with the same frame search as the norms module (the inner step is an exact
bottom-eigenpair computation of the compressed operator, valued
-lambda_min).  A negative minimum below ``REFUTE_TOL`` refutes k-block
positivity with an explicit witness vector; otherwise the verdict is
``heuristically-positive``, which is deliberately one-sided: no completeness
is claimed.  Each verdict holds the ``optim.SearchRecord`` of its search, so
a ``heuristically-positive`` verdict shows whether that search converged.
A command and its recheck share one checked core per certificate value:
``_block_value``, ``_witness_pairing`` and ``_reconstructs``.  Each
public call tests an operator's Hermiticity once: ``witness_check`` and the
map certificates run the search through the unchecked core
``_block_positivity`` after their own checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    EVAL_TOL,
    RECON_TOL,
    REFUTE_TOL,
    UNIT_TOL,
    BipartiteOperator,
    Frame,
    PureState,
    _check_k,
    is_hermitian,
    min_eig_hermitian,
    schmidt_rank,
)
# compress_tensor is unused here; perfbench's tracer test patches it here.
from .optim import SearchRecord, SeeSawConfig, compress_tensor, frame_search
from .rand import random_sr_k_vector

__all__ = [
    "BlockPositivityVerdict",
    "SchmidtEnsemble",
    "WitnessCertificate",
    "k_block_positivity",
    "sn_upper_verify",
    "witness_check",
    "reduction_witness",
    "random_schmidt_ensemble",
]


@dataclass(frozen=True)
class BlockPositivityVerdict:
    """Outcome of the k-block-positivity search.

    ``refuted`` carries a Schmidt-rank-<=k witness with
    <witness|X|witness> = min_value < -REFUTE_TOL.  ``heuristically-positive``
    only reports that the search, whose ``optim.SearchRecord`` is ``search``,
    found no violation.
    """

    status: str  # "refuted" | "heuristically-positive"
    min_value: float
    witness_vector: PureState | None
    k: int
    frame: Frame | None = None
    search: SearchRecord = SearchRecord()

    def __post_init__(self):
        if self.status not in ("refuted", "heuristically-positive"):
            raise ValueError("unknown verdict status %r" % (self.status,))


@dataclass(frozen=True)
class SchmidtEnsemble:
    """Convex mixture of pure states, each of Schmidt rank <= k.

    Existence of such an ensemble for a density operator certifies Schmidt
    number <= k.
    """

    terms: tuple
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.terms:
            raise ValueError("ensemble needs at least one term")
        dims = self.terms[0][1].dims
        total = 0.0
        for w, state in self.terms:
            if not w > 0:  # also rejects NaN
                raise ValueError("ensemble weights must be positive")
            if state.dims != dims:
                raise ValueError("ensemble states must share dims")
            if schmidt_rank(state) > self.k:
                raise ValueError("ensemble state has Schmidt rank > %d" % self.k)
            total += w
        if abs(total - 1.0) > UNIT_TOL:
            raise ValueError("ensemble weights sum to %.12g, expected 1" % total)

    @property
    def dims(self) -> tuple[int, int]:
        return self.terms[0][1].dims

    def density(self) -> BipartiteOperator:
        """The mixed state sum_i w_i |v_i><v_i|."""
        mats = [w * np.outer(s.amplitudes, s.amplitudes.conj())
                for w, s in self.terms]
        return BipartiteOperator(self.dims, sum(mats))


@dataclass(frozen=True)
class WitnessCertificate:
    """Pairing of a (heuristically) k-block-positive W against a state.

    Valid only when the block-positivity evidence stands, its search
    converged, and the pairing is below -REFUTE_TOL; validity then
    certifies Schmidt number >= k+1, modulo the heuristic evidence for W.
    """

    W: BipartiteOperator
    k: int
    pairing: float
    block_pos_evidence: BlockPositivityVerdict

    @property
    def valid(self) -> bool:
        return (self.block_pos_evidence.status == "heuristically-positive"
                and self.block_pos_evidence.search.converged
                and self.pairing < -REFUTE_TOL)


def _neg_mineig_objective(c: np.ndarray):
    """-lambda_min of a Hermitian compression, from one eigh, with the term
    (-1, v, v) of its bottom eigenvector v."""
    vals, vecs = np.linalg.eigh(c)
    v = vecs[:, 0]
    return float(-vals[0]), (-1.0 + 0.0j, v, v)


def k_block_positivity(X: BipartiteOperator, k: int,
                       cfg: SeeSawConfig | None = None) -> BlockPositivityVerdict:
    """Minimize <v|X|v> over Schmidt-rank-<=k unit vectors.

    Frame ascent on -lambda_min through :func:`frame_search`: for a fixed
    orthonormal frame the inner minimum is the bottom eigenpair of the
    compression (exact), and the frame ascends -lambda_min along the
    projected gradient.  ``min_value`` is <w|X|w> re-evaluated at the witness
    w on X.  At k = min(m, n) the constraint is vacuous and the global
    eigenpair is returned directly.
    """
    if not is_hermitian(X.mat):
        raise ValueError(_NOT_HERMITIAN)
    return _block_positivity(X, k, cfg)


def _block_positivity(X: BipartiteOperator, k: int,
                      cfg: SeeSawConfig | None) -> BlockPositivityVerdict:
    """``k_block_positivity`` on an X that the caller has checked Hermitian."""
    _check_k(X, k)
    frame, (wit,), search = frame_search(X, k, _neg_mineig_objective,
                                         cfg or SeeSawConfig())
    val = _expectation(X, wit)
    status = "refuted" if val < -REFUTE_TOL else "heuristically-positive"
    return BlockPositivityVerdict(status=status, min_value=val,
                                  witness_vector=wit, k=k, frame=frame,
                                  search=search)


_NOT_HERMITIAN = "k-block positivity needs a Hermitian operator"


def _block_value(X: BipartiteOperator, w: PureState) -> float:
    """<w|X|w> under k_block_positivity's rules: X Hermitian, w on its dims."""
    if not is_hermitian(X.mat):
        raise ValueError(_NOT_HERMITIAN)
    if w.dims != X.dims:
        raise ValueError("witness vector dims %r do not match operator dims %r"
                         % (w.dims, X.dims))
    return _expectation(X, w)


def _expectation(X: BipartiteOperator, w: PureState) -> float:
    """<w|X|w>, unchecked."""
    return float(np.real(w.amplitudes.conj() @ X.mat @ w.amplitudes))


def _check_state(rho: BipartiteOperator, min_eig: float | None = None) -> None:
    """Raise ValueError unless rho is a density operator: Hermitian, unit
    trace and positive semidefinite (within EVAL_TOL).  ``min_eig`` is rho's
    smallest eigenvalue where the caller already has it."""
    if not is_hermitian(rho.mat):
        raise ValueError("state must be Hermitian")
    if abs(np.trace(rho.mat).real - 1.0) > UNIT_TOL:
        raise ValueError("state must have unit trace")
    if (min_eig_hermitian(rho.mat) if min_eig is None else min_eig) < -EVAL_TOL:
        raise ValueError("state must be positive semidefinite")


def sn_upper_verify(rho: BipartiteOperator, ens: SchmidtEnsemble) -> bool:
    """True iff the ensemble reconstructs rho within RECON_TOL, certifying
    Schmidt number <= ens.k."""
    _check_state(rho)
    return _reconstructs(rho, ens)


def _reconstructs(rho: BipartiteOperator, ens: SchmidtEnsemble) -> bool:
    """``sn_upper_verify`` on a state rho that the caller has checked."""
    if ens.dims != rho.dims:
        raise ValueError("ensemble dims %r do not match state dims %r"
                         % (ens.dims, rho.dims))
    return bool(np.max(np.abs(ens.density().mat - rho.mat)) <= RECON_TOL)


def witness_check(W: BipartiteOperator, rho: BipartiteOperator, k: int,
                  cfg: SeeSawConfig | None = None) -> WitnessCertificate:
    """Pair a candidate witness with a state: evaluates Tr(W rho) and runs
    the block-positivity heuristic on W.  A valid certificate implies
    SN(rho) >= k+1."""
    _check_state(rho)
    return WitnessCertificate(W=W, k=k, pairing=_witness_pairing(W, rho),
                              block_pos_evidence=_block_positivity(W, k, cfg))


def _witness_pairing(W: BipartiteOperator, rho: BipartiteOperator) -> float:
    """Tr(W rho) under witness_check's rules on W, for a checked state rho."""
    if not is_hermitian(W.mat):
        raise ValueError("witness must be Hermitian")
    if W.dims != rho.dims:
        raise ValueError("witness dims %r do not match state dims %r"
                         % (W.dims, rho.dims))
    return float(np.trace(W.mat @ rho.mat).real)


def _reduction_witness(dims: tuple[int, int], k: int) -> BipartiteOperator:
    """I - (d/k)|phi><phi| on C^r (x) C^n, dims = (r, n), with |phi> =
    sum_{i<d} |ii> / sqrt(d) maximally entangled and d = min(r, n)."""
    r, n = dims
    d = min(r, n)
    phi = np.eye(r, n, dtype=complex).reshape(-1) / np.sqrt(d)
    mat = np.eye(r * n, dtype=complex) - (d / k) * np.outer(phi, phi.conj())
    return BipartiteOperator((r, n), mat)


def reduction_witness(n: int, k: int) -> BipartiteOperator:
    """W = I - (n/k)|phi><phi| with |phi> maximally entangled on C^n (x) C^n.

    k-block positive: the largest overlap of a Schmidt-rank-<=k unit vector
    with |phi> is k/n, so the minimal expectation is 1 - (n/k)(k/n) = 0.  Not
    (k+1)-block positive for k < n.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return _reduction_witness((n, n), k)


def random_schmidt_ensemble(dims: tuple[int, int], k: int, terms: int,
                            rng: np.random.Generator) -> SchmidtEnsemble:
    """Random mixture of ``terms`` Schmidt-rank-<=k pure states with a
    Dirichlet weight vector; certifies SN <= k of its density by construction."""
    weights = rng.dirichlet(np.ones(terms))
    states = [random_sr_k_vector(dims, k, rng) for _ in range(terms)]
    return SchmidtEnsemble(terms=tuple(zip(map(float, weights), states)), k=k)
