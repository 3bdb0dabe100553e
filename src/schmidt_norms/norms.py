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
                        X is solved exactly by one eigh per evaluation, other
                        X screens each trial frame at the incumbent's angle
                        before its angle search: in closed form on 2 x 2
                        compressions, by one eigh that the search reuses on
                        larger ones.
* ``max_order_norm_upper`` -- proved Hermitian-split bound in closed form:
                        the sum of the one-sided Schmidt-rank radii r_k(H).
* ``block_positive_decomposition`` -- parts r_k(H) I +- H (plus 1e-8),
                        k-block positive by proof, with no search.
* ``dec_norm_value`` -- value of a supplied block-positive decomposition.
                        A part whose closed-form lower bound is >= 0 (every
                        canonical part) is proved k-block positive; other
                        parts are searched.  A part sum c I has the order
                        norm |c| in closed form, so the canonical value is
                        proved.
* ``maxk_space_norm_bounds`` -- two-sided bounds for the k-maximal norm in
                        closed form with no search: k-row bands above, the
                        identity and the transpose / min(k, n) below.

``omin_norm`` and ``min_order_norm`` run on ``optim.frame_search`` (as does
``cones.k_block_positivity``), which solves a vacuous rank constraint (k = n,
or k = m for one vector) once on X; the value is the witness form |<u|X|w>|.
``sk_norm`` runs its restarts as the rows of one stacked see-saw
(``optim.ascend_rows``, one batched SVD per half-step); the frame ascents run
theirs one at a time (see ``optim``).  :class:`NormEstimate` has the metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cones import k_block_positivity
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
    SeeSawConfig,
    _row_dot,
    ascend_rows,
    compress_tensor,
    frame_search,
    restart_rngs,
    search_metadata,
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

    Closed forms report the zero-work defaults.  Searches report through
    ``optim.search_metadata``: ``restarts_used`` restarts ran, ``history``
    holds one nondecreasing log per restart with one value per step,
    ``iterations`` sums len(h) - 1 over them.
    """

    value: float
    direction: str  # "lower" | "upper" | "exact"
    witness: Witness | None
    restarts_used: int = 0
    iterations: int = 0
    converged: bool = True
    history: list = field(default_factory=list)

    def __post_init__(self):
        if self.direction not in ("lower", "upper", "exact"):
            raise ValueError("direction must be lower/upper/exact")


# ---------------------------------------------------------------------------
# S(k) norm: truncation see-saw
# ---------------------------------------------------------------------------


def _sk_step(xm: np.ndarray, m: int, n: int, k: int):
    """The see-saw step for :func:`optim.ascend_rows` over rows (v, w): both
    half-steps, each the renormalized Schmidt truncation of X w (then of
    X^dagger v); a row whose truncation vanishes does not move."""
    def truncate(z: np.ndarray):
        t = _truncate_vec(z, m, n, k).reshape(z.shape)
        nt = np.linalg.norm(t, axis=1)
        small = nt < 1e-300
        return t / np.where(small, 1.0, nt)[:, None], ~small

    def step(_value, state):
        v, v_ok = truncate(state[1] @ xm.T)
        y = v @ xm.conj()  # rows of X^dagger v
        w, w_ok = truncate(y)
        return _row_dot(w, y).real, (v, w), v_ok & w_ok

    return step


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
        return NormEstimate(value=val, direction="exact", witness=wit)
    xm = X.mat
    v, w = np.array([[random_sr_k_vector((m, n), k, rng).amplitudes for _ in range(2)]
                     for rng in restart_rngs(cfg)]).transpose(1, 0, 2)
    best, outcomes = ascend_rows(np.abs(_row_dot(v, w @ xm.T)), (v, w),
                                 _sk_step(xm, m, n, k), cfg)
    wit = Witness(vectors=tuple(PureState((m, n), x) for x in best.payload))
    return NormEstimate(value=best.value, direction="lower", witness=wit,
                        **search_metadata(best, outcomes))


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
    return float(s[0]), (1.0 + 0.0j, u[:, 0], vh[0, :].conj())


def _numrad_objective(c: np.ndarray, warm=None):
    val, theta, vec = _numerical_radius_attain(c, 32, 1e-8, warm)
    return val, (np.exp(1j * theta), vec, vec)


def _numrad_screen(c: np.ndarray, term) -> float:
    """The frame-ascent screen of `_numrad_objective`: lambda_max(Re(e^{i
    theta} c)) at the incumbent's angle, term[0] = e^{i theta}, from one
    eigvalsh.  Every fixed angle gives a lower bound on the numerical radius
    of c, and at the objective's own term this is its value; by Danskin's
    theorem the two share their first-order change there.  A 2 x 2 c takes
    the closed form mean + sqrt(half-difference^2 + |off-diagonal|^2) of
    the Hermitian part instead."""
    pc = term[0] * c
    if pc.shape[0] == 2:
        (a, b), (e, d) = pc.tolist()
        return (a + d).real / 2.0 + math.hypot((a - d).real / 2.0,
                                               abs(b + e.conjugate()) / 2.0)
    return float(np.linalg.eigvalsh((pc + pc.conj().T) / 2.0)[-1])


def _numrad_warm_pair():
    """(objective, screen) for one non-Hermitian `min_order_norm` call on
    compressions larger than 2 x 2: the screen is `_numrad_screen` from one
    eigh instead of one eigvalsh, and the objective on the compression last
    screened starts its Newton steps from that eigh (the ``warm`` start of
    `_numerical_radius_attain`).  The two share a one-slot memo keyed on the
    compression array's identity, which holds because `frame_ascent`
    compresses each trial frame once for the screen and the objective."""
    memo = [None, None]  # the compression last screened, and its warm start

    def objective(c: np.ndarray):
        return _numrad_objective(c, memo[1] if memo[0] is c else None)

    def screen(c: np.ndarray, term) -> float:
        pc = term[0] * c
        vals, vecs = np.linalg.eigh((pc + pc.conj().T) / 2.0)
        memo[:] = c, (float(np.angle(term[0])), vals, vecs)
        return float(vals[-1])

    return objective, screen


def _hermitian_objective(c: np.ndarray):
    """Numerical radius of a Hermitian compression, max(lambda_max,
    -lambda_min), from one eigh: the theta = 0 or theta = pi attainer that
    the angle search of `_numrad_objective` only approaches."""
    vals, vecs = np.linalg.eigh(c)
    if vals[-1] >= -vals[0]:
        v = vecs[:, -1]
        return float(vals[-1]), (1.0 + 0.0j, v, v)
    v = vecs[:, 0]
    return float(-vals[0]), (-1.0 + 0.0j, v, v)


def _frame_norm(X: BipartiteOperator, k: int, cfg: SeeSawConfig, objective,
                single_vector: bool, screen=None) -> NormEstimate:
    """omin_norm / min_order_norm through :func:`frame_search`; the value is
    the witness form |<u|X|w>| on X itself, so re-evaluating the witness
    reproduces it."""
    best, outcomes = frame_search(X, k, objective, cfg,
                                  single_vector=single_vector, screen=screen)
    frame, vectors = best.payload
    u, w = vectors[0].amplitudes, vectors[-1].amplitudes
    return NormEstimate(value=float(np.abs(u.conj() @ X.mat @ w)),
                        direction="lower", witness=Witness(vectors, frame),
                        **search_metadata(best, outcomes))


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
    Other X run the angle search of `_numerical_radius_attain` to 1e-8 only
    at start frames and at trial frames that pass the screen: the top
    eigenvalue at the incumbent's angle, a lower bound on the trial's
    radius, so every trial it passes is an ascent.  A 2 x 2 compression
    (m k = 2) is screened and searched in closed form with no LAPACK call; a
    larger one is screened by one eigh, from which the angle search of a
    passing trial starts Newton after its 32-angle grid
    (`_numrad_warm_pair`).
    """
    cfg = cfg or SeeSawConfig()
    _check_k(X, k)
    if is_hermitian(X.mat):
        return _frame_norm(X, k, cfg, _hermitian_objective, single_vector=True)
    objective, screen = _numrad_objective, _numrad_screen
    if X.m * k > 2:
        objective, screen = _numrad_warm_pair()
    return _frame_norm(X, k, cfg, objective, single_vector=True, screen=screen)


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------


def _hermitian_split(X: BipartiteOperator):
    """(H1, H2), both Hermitian, with X = H1 + i H2."""
    return (X.mat + X.mat.conj().T) / 2.0, (X.mat - X.mat.conj().T) / 2.0j


def _partial_transpose(mat: np.ndarray, dims) -> np.ndarray:
    """The transpose on the second factor M_n of an mn x mn matrix."""
    m, n = dims
    return mat.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)


def _schmidt_range(h: np.ndarray, dims, k: int):
    """Proved (lower, upper) bounds on <v|h|v> over unit v of Schmidt rank
    <= k, for Hermitian h, from one eigvalsh of h and one of h^Gamma.

    sigma = (|v><v|)^Gamma has trace 1 and trace norm <= k (Vidal & Werner,
    PRA 65, 032314, 2002), so its positive part has trace <= (k+1)/2 and its
    negative part <= (k-1)/2.  As <v|h|v> = Tr(h^Gamma sigma),
    upper = min(lambda_max(h), ((k+1)/2) lambda_max(h^Gamma)
    - ((k-1)/2) lambda_min(h^Gamma)), and lower mirrors it.  At the vacuous
    k = min(m, n) the eigenvalue sides are attained, so both are exact."""
    ev = np.linalg.eigvalsh(h)
    eg = np.linalg.eigvalsh(_partial_transpose(h, dims))
    a, b = (k + 1) / 2, (k - 1) / 2
    return (float(max(ev[0], a * eg[0] - b * eg[-1])),
            float(min(ev[-1], a * eg[-1] - b * eg[0])))


def max_order_norm_upper(X: BipartiteOperator, k: int,
                         cfg: SeeSawConfig | None = None) -> NormEstimate:
    """Proved upper bound with no search (``cfg`` is not read): the sum of
    the proved radii r_k(H) = max(upper, -lower) of `_schmidt_range` over the
    Hermitian parts H of X = H1 + i H2.

    For a unit v of Schmidt rank <= k, |<v|X|v>| <= sum_H |<v|H|v>| <=
    sum_H r_k(H).  Taking each side before the maximum makes this never
    larger than sum_H min(||H||, k ||H^Gamma||).  It is the value of the
    canonical decomposition of `block_positive_decomposition` less its
    1e-8 shifts."""
    _check_k(X, k)
    value = 0.0
    for h in _hermitian_split(X):
        lower, upper = _schmidt_range(h, X.dims, k)
        value += max(upper, -lower)
    return NormEstimate(value=value, direction="upper", witness=None)


def block_positive_decomposition(X: BipartiteOperator, k: int,
                                 cfg: SeeSawConfig | None = None):
    """Canonical decomposition of X into k-block-positive parts t I +- H for
    each Hermitian part H of X = H1 + i H2, with t = r_k(H) + 1e-8 and
    r_k(H) = max(upper, -lower) of `_schmidt_range`; parts within HERM_TOL
    of zero are skipped (H1 is kept if both are).  ``cfg`` is not read: no
    search runs.  Returns [(lambda_i, P_i)] with sum lambda_i P_i = X
    exactly.

    Every part is k-block positive by proof: <v|H|v> >= lower >= -r_k(H)
    and <v|-H|v> >= -upper >= -r_k(H) on every unit v of Schmidt rank <= k."""
    _check_k(X, k)
    eye = np.eye(X.mat.shape[0], dtype=complex)
    h1, h2 = _hermitian_split(X)
    split = [(c, h) for c, h in ((1.0 + 0.0j, h1), (1.0j, h2))
             if np.max(np.abs(h)) > HERM_TOL] or [(1.0 + 0.0j, h1)]
    parts = []
    for c, h in split:
        lower, upper = _schmidt_range(h, X.dims, k)
        t = max(upper, -lower) + 1e-8
        parts += [(c / 2, BipartiteOperator(X.dims, t * eye + h)),
                  (-c / 2, BipartiteOperator(X.dims, t * eye - h))]
    return parts


def dec_norm_value(X: BipartiteOperator, parts, k: int,
                   cfg: SeeSawConfig | None = None) -> NormEstimate:
    """Value of one decomposition X = sum_i lambda_i P_i with k-block-positive
    parts: the order norm of sum_i |lambda_i| P_i.

    Raises if the parts fail to reconstruct X within the reconstruction
    tolerance or if any part is refuted as k-block positive.  A part whose
    proved lower bound of `_schmidt_range` is >= 0 is k-block positive by
    proof, as every part of `block_positive_decomposition` is; any other
    part runs the `k_block_positivity` search, and only then does "upper"
    rest on a heuristic.

    When sum_i |lambda_i| P_i is within HERM_TOL of c I with c real, as the
    canonical parts always are, its order norm is |c| exactly and no search
    runs: on the canonical parts the value is proved.  No infimum over
    decompositions is attempted.
    """
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
        if _schmidt_range(p.mat, p.dims, k)[0] < 0:
            verdict = k_block_positivity(p, k, cfg)
            if verdict.status == "refuted":
                raise ValueError("part refuted as %d-block positive (min %.3e)"
                                 % (k, verdict.min_value))
        recon = recon + lam * p.mat
        abs_sum = abs_sum + abs(lam) * p.mat
    if np.max(np.abs(recon - X.mat)) > RECON_TOL:
        raise ValueError("parts do not reconstruct the operator within %g"
                         % RECON_TOL)
    eye = np.eye(abs_sum.shape[0])
    c = float(np.trace(abs_sum).real) / abs_sum.shape[0]
    if np.max(np.abs(abs_sum - c * eye)) <= HERM_TOL:
        return NormEstimate(value=abs(c), direction="upper", witness=None)
    est = min_order_norm(BipartiteOperator(X.dims, abs_sum), k, cfg)
    return replace(est, direction="upper", witness=None)


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
        exact = NormEstimate(value=base, direction="exact", witness=None)
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
    upper = NormEstimate(value=upper_val, direction="upper", witness=None)

    # lower: the identity and the rescaled transpose
    lower_val = max(base, operator_norm(_partial_transpose(X.mat, X.dims)) / min(k, n))
    lower = NormEstimate(value=lower_val, direction="lower", witness=None)
    return lower, upper
