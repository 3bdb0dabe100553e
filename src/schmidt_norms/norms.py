"""Schmidt-rank-constrained norms of bipartite operators.

All estimators return a :class:`NormEstimate` carrying the value, the bound
direction, attaining vectors (re-evaluating the objective at the witness
reproduces the value), and convergence metadata.  The iterative routines are
multi-restart local optimizers, so ``lower`` values are certified lower
bounds while the searches themselves are heuristics.

Norms implemented here:

* ``sk_norm``        -- sup |<v|X|w>| over unit vectors of Schmidt rank <= k,
                        by alternating Schmidt-truncation steps.
* ``omin_norm``      -- sup over orthonormal frames of the operator norm of
                        the compression (v and w share a right frame).
* ``min_order_norm`` -- same with the numerical radius of the compression,
                        i.e. sup |<v|X|v>| over Schmidt rank <= k.
* ``max_order_norm_upper`` -- Hermitian-split upper bound.
* ``dec_norm_value`` -- value of a supplied block-positive decomposition.
* ``maxk_space_norm_bounds`` -- two-sided bounds for the k-maximal norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERM_TOL,
    RECON_TOL,
    BipartiteOperator,
    Frame,
    PureState,
    _check_k,
    _numerical_radius_attain,
    _truncate_vec,
    is_hermitian,
    operator_norm,
)
from .optim import (
    RestartOutcome,
    SeeSawConfig,
    compress_tensor,
    frame_ascent,
    iterations,
    lift_from_frame,
    run_restarts,
)
from .rand import random_sr_k_vector

__all__ = [
    "NormEstimate",
    "Witness",
    "SeeSawConfig",
    "sk_norm",
    "compress",
    "omin_norm",
    "min_order_norm",
    "max_order_norm_upper",
    "dec_norm_value",
    "block_positive_decomposition",
    "maxk_space_norm_bounds",
]


@dataclass(frozen=True)
class Witness:
    """Attaining data: one or two unit vectors, plus the frame for the
    compression-based norms."""

    vectors: tuple[PureState, ...]
    frame: Frame | None = None


@dataclass(frozen=True)
class NormEstimate:
    """A computed norm value with its bound direction and search metadata.

    ``iterations`` counts accepted improvement steps summed over restarts;
    ``history`` holds one nondecreasing objective log per restart.
    """

    value: float
    direction: str  # "lower" | "upper" | "exact"
    witness: Witness | None
    restarts_used: int
    iterations: int
    converged: bool
    history: list

    def __post_init__(self):
        if self.direction not in ("lower", "upper", "exact"):
            raise ValueError("direction must be lower/upper/exact")


# ---------------------------------------------------------------------------
# S(k) norm: truncation see-saw
# ---------------------------------------------------------------------------


def _sk_worker(xm: np.ndarray, m: int, n: int, k: int, cfg: SeeSawConfig):
    def worker(_r: int, rng: np.random.Generator) -> RestartOutcome:
        v = random_sr_k_vector((m, n), k, rng).amplitudes
        w = random_sr_k_vector((m, n), k, rng).amplitudes
        val = float(np.abs(v.conj() @ xm @ w))
        history = [val]
        converged = False
        for _ in range(cfg.max_iters):
            prev = val
            u = xm @ w
            t = _truncate_vec(u, m, n, k).reshape(-1)
            nt = np.linalg.norm(t)
            if nt < 1e-300:
                converged = True
                break
            v = t / nt
            history.append(float(np.real(v.conj() @ u)))
            y = xm.conj().T @ v
            t = _truncate_vec(y, m, n, k).reshape(-1)
            nt = np.linalg.norm(t)
            if nt < 1e-300:
                converged = True
                break
            w = t / nt
            val = float(np.real(w.conj() @ y))
            history.append(val)
            if val - prev < cfg.obj_tol:
                converged = True
                break
        return RestartOutcome(value=val, payload=(v, w), history=history,
                              converged=converged)

    return worker


def sk_norm(X: BipartiteOperator, k: int, cfg: SeeSawConfig | None = None) -> NormEstimate:
    """Largest |<v|X|w>| over unit vectors with Schmidt rank at most k.

    Alternates exact partial maximizations: for fixed w the optimal v is the
    renormalized Schmidt truncation of X w (Eckart-Young), and symmetrically
    for w, so the objective is nondecreasing at every half-step.  At
    k = min(m, n) the constraint is vacuous and the exact operator norm is
    returned with its singular pair.
    """
    cfg = cfg or SeeSawConfig()
    _check_k(X, k)
    m, n = X.dims
    if k == min(m, n):
        u, s, vh = np.linalg.svd(X.mat)
        val = float(s[0])
        wit = Witness(vectors=(PureState((m, n), u[:, 0]),
                               PureState((m, n), vh[0, :].conj())))
        return NormEstimate(value=val, direction="exact", witness=wit,
                            restarts_used=0, iterations=0, converged=True,
                            history=[[val]])
    best, outcomes = run_restarts(_sk_worker(X.mat, m, n, k, cfg), cfg)
    v, w = best.payload
    wit = Witness(vectors=(PureState((m, n), v), PureState((m, n), w)))
    return NormEstimate(value=best.value, direction="lower", witness=wit,
                        restarts_used=cfg.restarts,
                        iterations=iterations(outcomes),
                        converged=best.converged,
                        history=[o.history for o in outcomes])


# ---------------------------------------------------------------------------
# frame compressions and the compression-based norms
# ---------------------------------------------------------------------------


def compress(X: BipartiteOperator, frame: Frame) -> np.ndarray:
    """Compress the second factor onto a frame: the mk x mk matrix whose
    (r, s) block in M_m collects <b_r| X_ij |b_s>."""
    if frame.n != X.n:
        raise ValueError("frame lives in C^%d, operator second factor is C^%d"
                         % (frame.n, X.n))
    return compress_tensor(X.blocks(), frame.vectors.T.copy())


def _opnorm_objective(c: np.ndarray):
    u, s, vh = np.linalg.svd(c)
    return float(s[0]), [(1.0 + 0.0j, u[:, 0], vh[0, :].conj())]


def _numrad_objective(c: np.ndarray):
    val, theta, vec = _numerical_radius_attain(c, 32, 1e-8)
    return val, [(np.exp(1j * theta), vec, vec)]


def _frame_norm(X: BipartiteOperator, k: int, cfg: SeeSawConfig, objective,
                single_vector: bool) -> NormEstimate:
    """Shared driver for omin_norm / min_order_norm: frame ascent with the
    given exact inner objective, witness lifted from the best compression."""
    m, n = X.dims
    t4 = X.blocks()

    if k == n:
        # the frame spans C^n: the compression is a fixed reordering of X
        v0 = np.eye(n, dtype=complex)
        c = compress_tensor(t4, v0)
        val, terms = objective(c)
        val, wit = _frame_witness(X, v0, c, terms, single_vector)
        return NormEstimate(value=val, direction="lower", witness=wit,
                            restarts_used=0, iterations=0, converged=True,
                            history=[[val]])

    def worker(_r: int, rng: np.random.Generator) -> RestartOutcome:
        return frame_ascent(t4, k, rng, objective, cfg, maximize=True)

    best, outcomes = run_restarts(worker, cfg)
    v, terms = best.payload
    c = compress_tensor(t4, v)
    val, wit = _frame_witness(X, v, c, terms, single_vector)
    if val < best.value:
        val = best.value
    return NormEstimate(value=val, direction="lower", witness=wit,
                        restarts_used=cfg.restarts,
                        iterations=iterations(outcomes),
                        converged=best.converged,
                        history=[o.history for o in outcomes])


def _frame_witness(X: BipartiteOperator, v: np.ndarray, c: np.ndarray, terms,
                   single_vector: bool):
    """Witness vectors in the full space; the reported value is the witness
    quadratic form itself so the re-evaluation identity is exact."""
    m, n = X.dims
    _, u, w = terms[0]
    val = float(np.abs(u.conj() @ c @ w))
    frame = Frame(vectors=v.T.copy())
    lifted_u = PureState((m, n), lift_from_frame(u, v, m))
    if single_vector:
        return val, Witness(vectors=(lifted_u,), frame=frame)
    lifted_w = PureState((m, n), lift_from_frame(w, v, m))
    return val, Witness(vectors=(lifted_u, lifted_w), frame=frame)


def omin_norm(X: BipartiteOperator, k: int, cfg: SeeSawConfig | None = None) -> NormEstimate:
    """Largest |<v|X|w>| over Schmidt-rank-<=k unit pairs sharing a right
    frame: sup over orthonormal frames of ||compress(X, f)||."""
    cfg = cfg or SeeSawConfig()
    _check_k(X, k)
    return _frame_norm(X, k, cfg, _opnorm_objective, single_vector=False)


def min_order_norm(X: BipartiteOperator, k: int,
                   cfg: SeeSawConfig | None = None) -> NormEstimate:
    """Largest |<v|X|v>| over unit vectors of Schmidt rank <= k: sup over
    orthonormal frames of the numerical radius of the compression (32-point
    angle grid, golden-section refinement to 1e-8)."""
    cfg = cfg or SeeSawConfig()
    _check_k(X, k)
    return _frame_norm(X, k, cfg, _numrad_objective, single_vector=True)


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------


def _hermitian_split(X: BipartiteOperator):
    h1 = (X.mat + X.mat.conj().T) / 2.0
    h2 = (X.mat - X.mat.conj().T) / 2.0j
    return h1, h2


def _hermitian_radius(h: BipartiteOperator, k: int, cfg: SeeSawConfig):
    """Best lower bound on sup |<v|h|v>| over SR-<=k unit vectors for a
    Hermitian operator: the numerical-radius ascent can stall on the weaker
    eigenvalue side, so take the max against both one-sided eigen descents
    (which share the frame machinery but have a different landscape)."""
    from .cones import k_block_positivity

    est = min_order_norm(h, k, cfg)
    lo = k_block_positivity(h, k, cfg)
    hi = k_block_positivity(BipartiteOperator(h.dims, -h.mat), k, cfg)
    value = max(est.value, -lo.min_value, -hi.min_value)
    iters = est.iterations + lo.iterations + hi.iterations
    return value, iters, est.converged


def max_order_norm_upper(X: BipartiteOperator, k: int,
                         cfg: SeeSawConfig | None = None) -> NormEstimate:
    """Upper bound from the split X = H1 + i H2: the sum of the order norms
    of the Hermitian parts (each exact on Hermitians up to search quality).
    Single-term for (anti-)Hermitian X."""
    cfg = cfg or SeeSawConfig()
    _check_k(X, k)
    h1, h2 = _hermitian_split(X)
    total = 0.0
    iters = 0
    converged = True
    for h in (h1, h2):
        if np.max(np.abs(h)) <= HERM_TOL:
            continue
        value, it, conv = _hermitian_radius(BipartiteOperator(X.dims, h), k, cfg)
        total += value
        iters += it
        converged = converged and conv
    return NormEstimate(value=total, direction="upper", witness=None,
                        restarts_used=cfg.restarts, iterations=iters,
                        converged=converged, history=[])


def block_positive_decomposition(X: BipartiteOperator, k: int,
                                 cfg: SeeSawConfig | None = None):
    """Canonical decomposition of X into k-block-positive parts by shifting
    each Hermitian part with (order norm + 1e-8) times the identity.
    Returns [(lambda_i, P_i)] with sum lambda_i P_i = X exactly."""
    cfg = cfg or SeeSawConfig()
    _check_k(X, k)
    eye = np.eye(X.mat.shape[0], dtype=complex)
    h1, h2 = _hermitian_split(X)
    terms = [(lam, h) for lam, h in ((0.5 + 0.0j, h1), (0.5j, h2))
             if np.max(np.abs(h)) > HERM_TOL]
    if not terms:
        terms = [(0.5 + 0.0j, h1)]
    parts = []
    for lam, h in terms:
        value, _, _ = _hermitian_radius(BipartiteOperator(X.dims, h), k, cfg)
        t = value + 1e-8
        parts.append((lam, BipartiteOperator(X.dims, t * eye + h)))
        parts.append((-lam, BipartiteOperator(X.dims, t * eye - h)))
    return parts


def dec_norm_value(X: BipartiteOperator, parts, k: int,
                   cfg: SeeSawConfig | None = None) -> NormEstimate:
    """Value of one decomposition X = sum_i lambda_i P_i with k-block-positive
    parts: the order norm of sum_i |lambda_i| P_i.

    Raises if the parts fail to reconstruct X within the reconstruction
    tolerance or if any part is refuted as k-block positive by the heuristic.
    No infimum over decompositions is attempted.
    """
    from .cones import k_block_positivity

    cfg = cfg or SeeSawConfig()
    _check_k(X, k)
    if not parts:
        raise ValueError("decomposition needs at least one part")
    recon = np.zeros_like(X.mat)
    abs_sum = np.zeros_like(X.mat)
    for lam, p in parts:
        if p.dims != X.dims:
            raise ValueError("part dims %r do not match operator dims %r"
                             % (p.dims, X.dims))
        if not is_hermitian(p.mat):
            raise ValueError("decomposition parts must be Hermitian")
        verdict = k_block_positivity(p, k, cfg)
        if verdict.status == "refuted":
            raise ValueError("part refuted as %d-block positive (min %.3e)"
                             % (k, verdict.min_value))
        recon = recon + lam * p.mat
        abs_sum = abs_sum + abs(lam) * p.mat
    if np.max(np.abs(recon - X.mat)) > RECON_TOL:
        raise ValueError("parts do not reconstruct the operator within %g"
                         % RECON_TOL)
    est = min_order_norm(BipartiteOperator(X.dims, abs_sum), k, cfg)
    return NormEstimate(value=est.value, direction="upper", witness=None,
                        restarts_used=cfg.restarts, iterations=est.iterations,
                        converged=est.converged, history=est.history)


# ---------------------------------------------------------------------------
# k-maximal norm bounds
# ---------------------------------------------------------------------------


def maxk_space_norm_bounds(X: BipartiteOperator, k: int,
                           cfg: SeeSawConfig | None = None,
                           samples: int | None = None):
    """(lower, upper) estimates for the k-maximal norm of X in M_m(M_n).

    m <= k collapses both bounds to the operator norm (identity
    factorization).  Otherwise the upper bound slices X into k-row bands
    A_tu and evaluates sqrt(max_t sum_u ||A_tu||) * sqrt(max_u sum_t
    ||A_tu||); the lower bound maximizes ||(id (x) Phi)(X)|| over sampled
    CPTP maps Phi rescaled by their own k-level norm (the identity map is
    always included, so the lower bound never drops below ||X||).
    """
    from .maps import MapRepr, idk_apply, idk_op_norm

    cfg = cfg or SeeSawConfig()
    if k < 1:
        raise ValueError("k must be >= 1")
    m, n = X.dims
    base = operator_norm(X.mat)
    if m <= k:
        exact = NormEstimate(value=base, direction="exact", witness=None,
                             restarts_used=0, iterations=0, converged=True,
                             history=[[base]])
        return exact, exact

    # upper: band partition into ceil(m/k) strips of at most k block rows
    bands = [list(range(i, min(i + k, m))) for i in range(0, m, k)]
    nb = len(bands)
    nu = np.zeros((nb, nb))
    blocks = X.blocks()
    for t, rows in enumerate(bands):
        for s, cols in enumerate(bands):
            sub = blocks[np.ix_(rows, range(n), cols, range(n))]
            sub = sub.reshape(len(rows) * n, len(cols) * n)
            nu[t, s] = operator_norm(sub)
    upper_val = float(np.sqrt(np.max(nu.sum(axis=1))) *
                      np.sqrt(np.max(nu.sum(axis=0))))
    upper = NormEstimate(value=upper_val, direction="upper", witness=None,
                         restarts_used=0, iterations=0, converged=True,
                         history=[[upper_val]])

    # lower: sampled channels, each rescaled to a k-level contraction
    from .rand import random_cptp

    count = cfg.restarts if samples is None else samples
    sub_cfg = SeeSawConfig(restarts=max(4, cfg.restarts // 2),
                           max_iters=cfg.max_iters, obj_tol=cfg.obj_tol,
                           rng=cfg.rng.stream(10_000))
    candidates = [base]
    history = [[base]]
    for s in range(count):
        rng = cfg.rng.stream(20_000 + s).generator()
        phi = MapRepr.from_choi(random_cptp(n, n, rng))
        tau = idk_op_norm(phi, min(k, n), sub_cfg).value
        mapped = idk_apply(phi, X.mat, m)
        candidates.append(operator_norm(mapped) / tau)
        history.append([candidates[-1]])
    lower_val = float(max(candidates))
    lower = NormEstimate(value=lower_val, direction="lower", witness=None,
                         restarts_used=count, iterations=0, converged=True,
                         history=history)
    return lower, upper
