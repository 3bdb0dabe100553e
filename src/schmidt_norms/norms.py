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
                        i.e. sup |<v|X|v>| over Schmidt rank <= k; Hermitian
                        X is solved exactly by one eigh per evaluation.
* ``max_order_norm_upper`` -- Hermitian-split upper bound.
* ``dec_norm_value`` -- value of a supplied block-positive decomposition.
* ``maxk_space_norm_bounds`` -- two-sided bounds for the k-maximal norm in
                        closed form with no search: k-row bands above, the
                        identity and the transpose / min(k, n) below.

``omin_norm`` and ``min_order_norm`` run on ``optim.frame_search`` (as does
``cones.k_block_positivity``), which solves a vacuous rank constraint (k = n,
or k = m for one vector) once on X; the value is the witness form |<u|X|w>|.
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
    frame_search,
    iterations,
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
                            history=[])
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


def _hermitian_objective(c: np.ndarray):
    """Numerical radius of a Hermitian compression, max(lambda_max,
    -lambda_min), from one eigh: the theta = 0 or theta = pi attainer that
    the angle search of `_numrad_objective` only approaches."""
    vals, vecs = np.linalg.eigh(c)
    if vals[-1] >= -vals[0]:
        return float(vals[-1]), [(1.0 + 0.0j, vecs[:, -1], vecs[:, -1])]
    return float(-vals[0]), [(-1.0 + 0.0j, vecs[:, 0], vecs[:, 0])]


def _frame_norm(X: BipartiteOperator, k: int, cfg: SeeSawConfig, objective,
                single_vector: bool) -> NormEstimate:
    """omin_norm / min_order_norm through :func:`frame_search`; the value is
    the witness form |<u|X|w>| on X itself, so re-evaluating the witness
    reproduces it."""
    best, outcomes = frame_search(X, k, objective, cfg,
                                  single_vector=single_vector)
    frame, vectors = best.payload
    u, w = vectors[0].amplitudes, vectors[-1].amplitudes
    return NormEstimate(value=float(np.abs(u.conj() @ X.mat @ w)),
                        direction="lower", witness=Witness(vectors, frame),
                        restarts_used=len(outcomes),
                        iterations=iterations(outcomes),
                        converged=best.converged,
                        history=[o.history for o in outcomes])


def omin_norm(X: BipartiteOperator, k: int, cfg: SeeSawConfig | None = None) -> NormEstimate:
    """Largest |<v|X|w>| over Schmidt-rank-<=k unit pairs sharing a right
    frame: sup over orthonormal frames of ||compress(X, f)||."""
    cfg = cfg or SeeSawConfig()
    _check_k(X, k)
    return _frame_norm(X, k, cfg, _opnorm_objective, single_vector=False)


def min_order_norm(X: BipartiteOperator, k: int,
                   cfg: SeeSawConfig | None = None) -> NormEstimate:
    """Largest |<v|X|v>| over unit vectors of Schmidt rank <= k: sup over
    orthonormal frames of the numerical radius of the compression.

    Hermitian X has Hermitian compressions, whose numerical radius is
    max(lambda_max, -lambda_min): one eigh per evaluation solves it exactly.
    Other X use a 32-point angle grid with golden-section refinement to 1e-8.
    """
    cfg = cfg or SeeSawConfig()
    _check_k(X, k)
    objective = _hermitian_objective if is_hermitian(X.mat) else _numrad_objective
    return _frame_norm(X, k, cfg, objective, single_vector=True)


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------


def _hermitian_radius(h: BipartiteOperator, k: int, cfg: SeeSawConfig):
    """Best lower bound on sup |<v|h|v>| over SR-<=k unit vectors for a
    Hermitian operator: the max of the `min_order_norm` ascent, which follows
    whichever eigenvalue side wins, and both one-sided eigen descents (same
    frame machinery and start frames, one side each).

    The `min_order_norm` leg is not redundant: on the 200 Hermitian parts of
    criterion 5 (5 restarts, config seed 502) it beat both descents once, on
    H2 of instance 24 at k = 1 (2.51535 against 2.29279), and dropping it
    would lower that instance's `dec` and `upper` by 0.22."""
    from .cones import k_block_positivity

    est = min_order_norm(h, k, cfg)
    lo = k_block_positivity(h, k, cfg)
    hi = k_block_positivity(BipartiteOperator(h.dims, -h.mat), k, cfg)
    value = max(est.value, -lo.min_value, -hi.min_value)
    iters = est.iterations + lo.iterations + hi.iterations
    return value, iters, est.converged


def _hermitian_parts(X: BipartiteOperator, k: int, cfg: SeeSawConfig):
    """Split X = H1 + i H2 into Hermitian parts and estimate the order norm
    of each: [(c, H, (value, iterations, converged))] with c = 1 for H1 and
    c = i for H2.  A part whose entries are all within HERM_TOL is skipped;
    if both are (X ~ 0), H1 alone is kept."""
    h1 = (X.mat + X.mat.conj().T) / 2.0
    h2 = (X.mat - X.mat.conj().T) / 2.0j
    split = [(c, h) for c, h in ((1.0 + 0.0j, h1), (1.0j, h2))
             if np.max(np.abs(h)) > HERM_TOL] or [(1.0 + 0.0j, h1)]
    return [(c, h, _hermitian_radius(BipartiteOperator(X.dims, h), k, cfg))
            for c, h in split]


def max_order_norm_upper(X: BipartiteOperator, k: int,
                         cfg: SeeSawConfig | None = None) -> NormEstimate:
    """Upper bound from the split X = H1 + i H2: the sum of the order norms
    of the Hermitian parts (each exact on Hermitians up to search quality).
    Single-term for (anti-)Hermitian X."""
    cfg = cfg or SeeSawConfig()
    _check_k(X, k)
    radii = [r for _, _, r in _hermitian_parts(X, k, cfg)]
    return NormEstimate(value=sum(r[0] for r in radii), direction="upper",
                        witness=None, restarts_used=cfg.restarts,
                        iterations=sum(r[1] for r in radii),
                        converged=all(r[2] for r in radii), history=[])


def block_positive_decomposition(X: BipartiteOperator, k: int,
                                 cfg: SeeSawConfig | None = None):
    """Canonical decomposition of X into k-block-positive parts by shifting
    each Hermitian part with (order norm + 1e-8) times the identity.
    Returns [(lambda_i, P_i)] with sum lambda_i P_i = X exactly."""
    cfg = cfg or SeeSawConfig()
    _check_k(X, k)
    eye = np.eye(X.mat.shape[0], dtype=complex)
    parts = []
    for c, h, (value, _, _) in _hermitian_parts(X, k, cfg):
        lam, t = c / 2, value + 1e-8
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
                        restarts_used=est.restarts_used,
                        iterations=est.iterations,
                        converged=est.converged, history=est.history)


# ---------------------------------------------------------------------------
# k-maximal norm bounds
# ---------------------------------------------------------------------------


def maxk_space_norm_bounds(X: BipartiteOperator, k: int):
    """(lower, upper) estimates for the k-maximal norm of X in M_m(M_n): the
    sup of ||(id_m (x) Phi)(X)|| over maps Phi with ||id_k (x) Phi|| <= 1.

    m <= k collapses both bounds to the operator norm (identity
    factorization).  Otherwise the upper bound slices X into k-row bands
    A_tu and evaluates sqrt(max_t sum_u ||A_tu||) * sqrt(max_u sum_t
    ||A_tu||).  The lower bound takes two maps whose k-level norm is known
    in closed form: the identity, and the transpose T scaled by
    1 / ||id_k (x) T|| = 1 / min(k, n), which gives max(||X||,
    ||X^Gamma|| / min(k, n)) with X^Gamma the partial transpose on M_n.
    No search runs: a CP map has ||id_k (x) Phi|| = ||Phi(I)|| (Russo-Dye),
    so rescaled CP maps never beat the identity.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m, n = X.dims
    base = operator_norm(X.mat)
    if m <= k:
        exact = NormEstimate(value=base, direction="exact", witness=None,
                             restarts_used=0, iterations=0, converged=True,
                             history=[])
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
                         history=[])

    # lower: the identity and the rescaled transpose
    x_gamma = blocks.transpose(0, 3, 2, 1).reshape(m * n, m * n)
    lower_val = max(base, operator_norm(x_gamma) / min(k, n))
    lower = NormEstimate(value=lower_val, direction="lower", witness=None,
                         restarts_used=0, iterations=0, converged=True,
                         history=[])
    return lower, upper
