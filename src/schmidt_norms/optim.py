"""Shared optimizer plumbing: the ascent loops, :func:`run_restarts`, frame
compressions, :func:`frame_search` (the one frame search behind
``omin_norm``, ``min_order_norm`` and ``k_block_positivity``) and
:class:`SearchRecord`, the search metadata of every estimate and verdict.

Every search is a monotone ascent with an exact inner step that logs one
value per step.  The ``sk_norm`` and ``idk_op_norm`` see-saws and the sphere
ascent of ``hermitian_trace_norm`` run their restarts as the rows of one
stacked ascent (:func:`ascend_rows`, :func:`sphere_ascent`), one batched SVD
or eigh per step for all active rows: on matrices of at most 6 x 6, numpy's
per-call overhead costs more than the arithmetic.  The frame ascent runs its
restarts one by one through :func:`ascend` and :func:`projected_step`, since
the benchmark's tracer counts one ``frame_ascent`` call per restart and
reads each call's history.  Each line search first tries the long
Barzilai-Borwein step, capped at 1, and halves it on failure; the frame
ascent compresses a trial frame once, for a screen that may reject it and
its inner solve (see :func:`frame_ascent`).  A minimum, as in
``k_block_positivity``, is searched as the supremum of the negated
objective.  Frames retract by the Gram-Schmidt :func:`_retract`; only a
restart's Haar start frame goes through LAPACK QR.

Restart r draws its start from RNG stream ``cfg.rng.stream(r)``; the result
is the restart of largest value, ties going to the smaller index, and
:func:`search_metadata` records the search.  A closed form, and the vacuous
Schmidt-rank constraint that :func:`frame_search` solves once on X itself
(k = n, or k = m when one vector is sought), hold the zero-work
``SearchRecord()``.  ``DIRECTIONS`` is the one vocabulary of an estimate's
bound direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import BipartiteOperator, Frame, PureState
from .rand import RandomConfig, random_isometry

__all__ = ["SeeSawConfig", "RestartOutcome", "SearchRecord", "DIRECTIONS",
           "check_direction", "restart_rngs", "run_restarts", "search_metadata",
           "ascend", "ascend_rows", "projected_step", "sphere_ascent",
           "frame_ascent", "frame_search", "compress_tensor", "lift_from_frame"]

_MAX_HALVINGS = 5


@dataclass(frozen=True)
class SeeSawConfig:
    """Budget and stream configuration shared by all iterative estimators."""

    restarts: int = 20
    max_iters: int = 200
    obj_tol: float = 1e-9
    rng: RandomConfig = field(default_factory=RandomConfig)

    def __post_init__(self):
        for name, low in (("restarts", 1), ("max_iters", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < low):
                raise ValueError("%s must be an integer >= %d, got %r" % (name, low, value))
        if not 0.0 <= self.obj_tol < np.inf:  # also rejects NaN
            raise ValueError("obj_tol must be finite and >= 0")


@dataclass
class RestartOutcome:
    """One restart's result: the objective value, an opaque payload with the
    attaining data, and the per-iteration objective log."""

    value: float
    payload: object
    history: list
    converged: bool


@dataclass(frozen=True)
class SearchRecord:
    """What the search behind an estimate or verdict did: ``restarts_used``
    restarts ran, ``history`` holds one nondecreasing objective log per
    restart with one value per step, ``iterations`` sums len(h) - 1 over the
    logs, and ``converged`` is the best restart's flag.  The default is the
    zero-work record of a closed form or a vacuous rank constraint."""

    restarts_used: int = 0
    iterations: int = 0
    converged: bool = True
    history: tuple = ()


DIRECTIONS = ("lower", "upper", "exact")


def check_direction(direction: str) -> None:
    """Raise ValueError unless ``direction`` is one of ``DIRECTIONS``: a
    searched value is a ``lower`` bound, and ``upper`` and ``exact`` need a
    proof."""
    if direction not in DIRECTIONS:
        raise ValueError("direction must be lower/upper/exact, got %r" % (direction,))


def restart_rngs(cfg: SeeSawConfig) -> list:
    """One generator per restart, restart r's from ``cfg.rng.stream(r)``."""
    return [cfg.rng.stream(r).generator() for r in range(cfg.restarts)]


def run_restarts(worker, cfg: SeeSawConfig):
    """Run ``worker(restart_index, rng)`` for each restart in order and
    return (best, outcomes), best being the outcome of largest value; ties
    resolve to the first index."""
    outcomes = [worker(r, rng) for r, rng in enumerate(restart_rngs(cfg))]
    return max(outcomes, key=lambda out: out.value), outcomes


def search_metadata(best: RestartOutcome, outcomes) -> SearchRecord:
    """The record of a search from (best, outcomes): one restart and one
    objective log per outcome, and the best restart's ``converged``."""
    return SearchRecord(
        restarts_used=len(outcomes),
        iterations=int(sum(max(len(o.history) - 1, 0) for o in outcomes)),
        converged=best.converged, history=tuple(o.history for o in outcomes))


def ascend(value: float, state, step, cfg: SeeSawConfig) -> RestartOutcome:
    """The monotone ascent loop of one frame-ascent restart.

    ``step(value, state)`` returns (new value, new state), or None when no
    improving move exists.  The loop stops as converged on None or when the
    gain ``new - value`` is below ``cfg.obj_tol``, and as not converged after
    ``cfg.max_iters`` steps.  The history starts with ``value`` and logs each
    step's new value; the payload is the last state.
    """
    history = [value]
    for _ in range(cfg.max_iters):
        moved = step(value, state)
        if moved is None:
            return RestartOutcome(value, state, history, True)
        new, state = moved
        history.append(new)
        gain, value = new - value, new
        if gain < cfg.obj_tol:
            return RestartOutcome(value, state, history, True)
    return RestartOutcome(value, state, history, False)


def ascend_rows(value, state: tuple, step, cfg: SeeSawConfig):
    """:func:`ascend` on stacked restarts, row r of ``value`` and of each
    array in ``state`` being restart r.  ``step(value, state)`` gets the
    active rows, as copies it may change, and returns (new values, new state,
    moved), ``moved`` marking the rows with an improving move.  Each row stops
    by :func:`ascend`'s rule and logs the history it would log alone.
    Returns (best, outcomes) as :func:`run_restarts` does, each payload being
    a row of the last state.
    """
    value = np.array(value, dtype=float)
    state = tuple(np.array(s) for s in state)
    history = [[v] for v in value.tolist()]
    converged = np.zeros(value.size, dtype=bool)
    rows = np.arange(value.size)
    for _ in range(cfg.max_iters):
        if rows.size == 0:
            break
        new, new_state, moved = step(value[rows], tuple(s[rows] for s in state))
        up, new = rows[moved], new[moved]
        stop = ~moved
        stop[moved] = new - value[up] < cfg.obj_tol
        value[up] = new
        for s, t in zip(state, new_state):
            s[up] = t[moved]
        for r, v in zip(up.tolist(), new.tolist()):
            history[r].append(v)
        converged[rows[stop]] = True
        rows = rows[~stop]
    outcomes = [RestartOutcome(float(value[r]), tuple(s[r] for s in state),
                               history[r], bool(converged[r]))
                for r in range(value.size)]
    return max(outcomes, key=lambda out: out.value), outcomes


def projected_step(trial, direction, retract, eta: float, grad_tol: float):
    """The line search of the frame ascent, as an :func:`ascend` step over
    states (x, data); :func:`sphere_ascent` runs the same search on stacked
    rows.

    The tangent ``direction(x, data)`` ends the search when shorter than
    ``grad_tol``; normalized, it is tried with at most ``_MAX_HALVINGS + 1``
    step lengths halving from a first trial t, each point mapped back by
    ``retract``, until one raises the value.  The first trial is the long
    Barzilai-Borwein step (Barzilai & Borwein, IMA J. Numer. Anal. 8, 1988;
    on the Stiefel manifold, Wen & Yin, Math. Program. 142, 2013) from the
    last two points: with s = x - x_prev and y = g - g_prev, g the tangent
    before normalization, t = min(1, |g| <s,s> / |Re<s,y>|).  On the first
    step of a search, or when Re<s,y> = 0, it is ``eta`` (0.25 for frames),
    so every trial has t <= 1.  Build one step per search: it keeps the
    previous point and tangent.

    ``trial(x, data, value)``, given the incumbent's data and value, returns
    (value, data) at the trial point x, or None to reject x unevaluated; a
    value above the current one is accepted.
    """
    prev = None  # (x, g) at the start of the last step

    def step(value, state):
        nonlocal prev
        x, data = state
        g = direction(x, data)
        gnorm = np.sqrt(np.vdot(g, g).real)
        if gnorm < grad_tol:
            return None
        t = eta
        if prev is not None:
            s, y = x - prev[0], g - prev[1]
            sy = abs(np.vdot(s, y).real)
            if sy > 0.0:
                t = min(1.0, gnorm * np.vdot(s, s).real / sy)
        prev = x, g
        g = g / gnorm
        for _ in range(_MAX_HALVINGS + 1):
            x_new = retract(x + t * g)
            moved = trial(x_new, data, value)
            if moved is not None and moved[0] > value:
                return moved[0], (x_new, moved[1])
            t /= 2.0
        return None

    return step


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_r|b_r> for every row r."""
    return np.einsum("ij,ij->i", a.conj(), b)


def sphere_ascent(evaluate, direction, x: np.ndarray, eta: float,
                  grad_tol: float, cfg: SeeSawConfig):
    """:func:`projected_step`'s search on the unit sphere by
    :func:`ascend_rows`, restart r starting at row r of x.  ``evaluate(x) ->
    (values, data)`` and ``direction(x, data)`` take stacked rows, ``data`` a
    tuple of row arrays.  Each row keeps its own first trial, halvings and
    (s, y) pair, trying ``eta`` on its first step and where Re<s,y> = 0; a
    trial is x + t g / |g| normalized.  Each payload starts with its point.
    """
    def step(value, state):
        x, x_prev, g_prev, *data = state
        g = direction(x, tuple(data))
        gnorm = np.sqrt(_row_dot(g, g).real)
        s, y = x - x_prev, g - g_prev
        sy = np.abs(_row_dot(s, y).real)
        t = np.full(value.size, eta)
        bb = sy > 0.0
        t[bb] = np.minimum(1.0, gnorm[bb] * _row_dot(s, s).real[bb] / sy[bb])
        long = ~(gnorm < grad_tol)  # NaN searches on, as in projected_step
        rows = np.flatnonzero(long)
        unit = g / np.where(long, gnorm, 1.0)[:, None]
        new, x_new, moved = value.copy(), x.copy(), np.zeros(value.size, dtype=bool)
        for _ in range(_MAX_HALVINGS + 1):
            if rows.size == 0:
                break
            trial = x[rows] + t[rows, None] * unit[rows]
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            val, trial_data = evaluate(trial)
            up = val > value[rows]
            hit = rows[up]
            new[hit], x_new[hit], moved[hit] = val[up], trial[up], True
            for d, e in zip(data, trial_data):
                d[hit] = e[up]
            rows = rows[~up]
            t[rows] /= 2.0
        return new, (x_new, x, g, *data), moved

    value, data = evaluate(x)
    return ascend_rows(value, (x, x, np.zeros_like(x), *data), step, cfg)


# ---------------------------------------------------------------------------
# frame compressions
# ---------------------------------------------------------------------------


def compress_tensor(t4: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Compress the (m,n,m,n) operator tensor with frame columns ``v`` (n x k).

    Output is the mk x mk matrix whose (r,s) block in M_m has entries
    <b_r| X_ij |b_s>, flat index r*m + i.
    """
    (m, n), k = t4.shape[:2], v.shape[1]
    t1 = np.dot(t4.reshape(m * n * m, n), v).reshape(m, n, m, k)       # (i, a, j, s)
    t2 = np.dot(v.conj().T, t1.transpose(1, 0, 2, 3).reshape(n, m * m * k))
    t2 = t2.reshape(k, m, m, k)                                        # (r, i, j, s)
    return t2.transpose(0, 1, 3, 2).reshape(m * k, m * k)


def lift_from_frame(u: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """Rebuild the full C^m (x) C^n vector from compressed coordinates ``u``
    (flat index r*m + i) and frame columns ``v``.  Schmidt rank <= k by
    construction and the norm is preserved."""
    k = v.shape[1]
    return np.einsum("ri,ar->ia", u.reshape(k, m), v).reshape(-1)


def _gradient_layouts(t4: np.ndarray):
    """The two matrix layouts of t4 that :func:`_frame_gradient` multiplies,
    and whether t4 is exactly Hermitian as an mn x mn matrix."""
    m, n = t4.shape[:2]
    mat = t4.reshape(m * n, m * n)
    return (t4.transpose(0, 1, 3, 2).reshape(m * n, n * m),
            t4.transpose(1, 0, 2, 3).reshape(n * m, m * n),
            np.array_equal(mat, mat.conj().T))


def _frame_gradient(layouts, v: np.ndarray, term) -> np.ndarray:
    """Ascent direction for the compression objective with respect to the
    conjugate frame entries; ``layouts`` is ``_gradient_layouts(t4)``.

    ``term`` is (coef, u, w) with the differential of the objective equal
    to Re(coef * u^† dC w); the derivative through the attaining vectors
    vanishes at the optimizer of the inner problem.  When t4 is exactly
    Hermitian and the term passes one vector object as u and w, the second
    product is the first with conj(coef) for coef, so the gradient costs one
    product: 2 Re(coef) times the first without its coefficient.
    """
    (t4_iabj, t4_aijb, hermitian), (n, k), (coef, u, w) = layouts, v.shape, term
    m = t4_iabj.shape[0] // n
    ur = u.reshape(k, m).conj()
    wr = w.reshape(k, m)
    q = np.dot(v, wr).reshape(n * m, 1)                           # (b, j)
    s1 = np.dot(t4_iabj, q).reshape(m, n)                         # (i, a)
    if hermitian and u is w:
        return np.dot(s1.T, (2.0 * coef.real) * ur.T)
    p = np.dot(v.conj(), ur).reshape(1, n * m)                    # (a, i)
    s2 = np.dot(p, t4_aijb).reshape(m, n)                         # (j, b)
    m1 = np.dot(s1.T, coef * ur.T)                                # (a, r)
    m2 = np.dot(s2.T.conj(), np.conj(coef) * wr.T.conj())         # (b, s)
    return m1 + m2


def _retract(a: np.ndarray) -> np.ndarray:
    """The Stiefel retraction of :func:`frame_ascent`: the thin QR factor of
    ``a`` with a positive real R diagonal, by modified Gram-Schmidt.

    Gram-Schmidt loses orthogonality in proportion to cond(a)^2, which is
    small here: a = V + tG with V orthonormal, G a unit tangent (V^dagger G
    skew-Hermitian) and t <= 1, which the cap on the Barzilai-Borwein
    length in :func:`projected_step` ensures, has a^dagger a = I + t^2
    G^dagger G, so cond(a) <= sqrt(2).  At k = 1 this is a plain
    normalization.
    """
    q = np.array(a, order="F")
    for j in range(q.shape[1]):
        c = q[:, j]
        for i in range(j):
            p = q[:, i]
            c -= np.vdot(p, c) * p
        c /= np.sqrt(np.vdot(c, c).real)
    return q


def frame_ascent(t4: np.ndarray, k: int, rng: np.random.Generator,
                 objective, cfg: SeeSawConfig, screen=None):
    """Maximize objective(compress_tensor(t4, V)) over orthonormal frames V.

    ``objective(C) -> (value, term)`` must solve the inner problem exactly
    and return the differential term for :func:`_frame_gradient`.  The start
    frame is a Haar draw (:func:`random_isometry`, LAPACK QR); every trial
    step V + tG is mapped back by the Gram-Schmidt :func:`_retract`, exact
    to rounding since cond(V + tG) <= sqrt(2).  Each trial frame is
    compressed once, to C.  ``screen(C, term) -> (bound, warm)``, when
    given, bounds the objective at C from below using the incumbent term; a
    trial it puts at or below the current value is rejected unsolved, any
    other solved by ``objective(C, warm)``: a screened objective takes
    ``(C, warm)``, warm possibly None.  Returns a RestartOutcome whose payload is (V, value-attaining
    term).
    """
    layouts = _gradient_layouts(t4)

    def trial(v, term, value):
        c = compress_tensor(t4, v)
        if screen is None:
            return objective(c)
        bound, warm = screen(c, term)
        if bound > value:
            return objective(c, warm)
        return None

    def direction(v, term):
        g = _frame_gradient(layouts, v, term)
        # project onto the tangent space of the Stiefel manifold
        a = v.conj().T @ g
        return g - v @ ((a + a.conj().T) / 2.0)

    v = random_isometry(t4.shape[1], k, rng)
    val, term = objective(compress_tensor(t4, v))
    step = projected_step(trial, direction, _retract, 0.25, 1e-15)
    return ascend(val, (v, term), step, cfg)


def frame_search(X: BipartiteOperator, k: int, objective, cfg: SeeSawConfig,
                 single_vector: bool = True, screen=None):
    """Maximize ``objective`` (as for :func:`frame_ascent`, with its
    ``screen``; a screened objective takes ``(C, warm)``) over the
    compressions of X by k-dimensional right frames, restarted through
    :func:`run_restarts`.

    Returns (frame, vectors, record): the best restart's Frame, the
    attaining vectors of its term, u (and w unless ``single_vector``), as
    PureStates of C^m (x) C^n, and the search's SearchRecord.  The rank
    constraint is vacuous when k = n, or when k = m and one vector is
    sought; then the objective is solved once on X.mat, with no frame (None)
    and the zero-work record.
    """
    m, n = X.dims
    if k == n or (single_vector and k == m):
        (_, term), v, record = objective(X.mat), None, SearchRecord()
    else:
        t4 = X.blocks()

        def worker(_r: int, rng: np.random.Generator) -> RestartOutcome:
            return frame_ascent(t4, k, rng, objective, cfg, screen)

        best, outcomes = run_restarts(worker, cfg)
        (v, term), record = best.payload, search_metadata(best, outcomes)
    _, u, w = term
    vectors = tuple(PureState((m, n), x if v is None else lift_from_frame(x, v, m))
                    for x in ((u,) if single_vector else (u, w)))
    frame = None if v is None else Frame(vectors=v.T.copy())
    return frame, vectors, record
