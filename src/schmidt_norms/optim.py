"""Shared optimizer plumbing: the one ascent loop, the restart driver,
frame compressions, and :func:`frame_search`, the one driver behind
``omin_norm``, ``min_order_norm`` and ``k_block_positivity``.

Every search is a monotone ascent with an exact inner step and runs
:func:`ascend`: the ``sk_norm`` and ``idk_op_norm`` see-saws with their own
steps, the frame ascent and the sphere ascent of ``hermitian_trace_norm``
with :func:`projected_step`, each keeping its own retraction, first step
and gradient floor.  The frame ascent retracts by :func:`_retract`, a
Gram-Schmidt thin QR factor: several times cheaper than LAPACK QR on these
small frames, and accurate because a step from an orthonormal frame along a
unit tangent has condition number at most sqrt(2).  Only a restart's Haar
start frame goes through LAPACK QR.

Restart r draws its start from RNG stream ``cfg.rng.stream(r)``; the result
is the best restart, ties going to the smaller index, and
:func:`search_metadata` gives an estimate's search fields (``restarts_used``
= restarts that ran).

:func:`frame_search` owns the one rule for a vacuous Schmidt-rank constraint:
at k = n (or k = m when one vector is sought) the objective is solved once on
X itself, with no restarts and no frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import BipartiteOperator, Frame, PureState
from .rand import RandomConfig, random_isometry

__all__ = ["SeeSawConfig", "RestartOutcome", "run_restarts", "iterations",
           "search_metadata", "ascend", "projected_step", "frame_ascent",
           "frame_search", "compress_tensor", "lift_from_frame"]

_MAX_HALVINGS = 5


@dataclass(frozen=True)
class SeeSawConfig:
    """Budget and stream configuration shared by all iterative estimators."""

    restarts: int = 20
    max_iters: int = 200
    obj_tol: float = 1e-9
    rng: RandomConfig = field(default_factory=RandomConfig)

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
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


def run_restarts(worker, cfg: SeeSawConfig, minimize: bool = False):
    """Run ``worker(restart_index, rng)`` for each restart in order and
    return (best, outcomes); ties resolve to the first index."""
    outcomes = [worker(r, cfg.rng.stream(r).generator())
                for r in range(cfg.restarts)]
    best = outcomes[0]
    for out in outcomes[1:]:
        if (out.value < best.value) if minimize else (out.value > best.value):
            best = out
    return best, outcomes


def iterations(outcomes) -> int:
    """Logged steps summed over the restarts' histories, len(h) - 1 each."""
    return int(sum(max(len(o.history) - 1, 0) for o in outcomes))


def search_metadata(best: RestartOutcome, outcomes) -> dict:
    """An estimate's search fields from (best, outcomes): one restart and
    one objective log per outcome, and the best restart's ``converged``."""
    return dict(restarts_used=len(outcomes), iterations=iterations(outcomes),
                converged=best.converged, history=[o.history for o in outcomes])


def ascend(value: float, state, step, cfg: SeeSawConfig,
           sign: float = 1.0) -> RestartOutcome:
    """The one monotone ascent loop (a descent for ``sign = -1``).

    ``step(value, state)`` returns (logged values, new value, new state), or
    None when no improving move exists.  The loop stops as converged on None
    or when the signed gain ``sign * (new - value)`` is below ``cfg.obj_tol``,
    and as not converged after ``cfg.max_iters`` steps.  The history starts
    with ``value`` and appends every logged value; the payload is the last
    state.
    """
    history = [value]
    for _ in range(cfg.max_iters):
        moved = step(value, state)
        if moved is None:
            return RestartOutcome(value, state, history, True)
        logged, new, state = moved
        history.extend(logged)
        gain, value = sign * (new - value), new
        if gain < cfg.obj_tol:
            return RestartOutcome(value, state, history, True)
    return RestartOutcome(value, state, history, False)


def projected_step(evaluate, direction, retract, eta: float, grad_tol: float,
                   sign: float = 1.0):
    """The line search of the frame and sphere ascents, as an :func:`ascend`
    step over states (x, data) with ``evaluate(x) -> (value, data)``.

    The tangent ``direction(x, data)`` ends the search when shorter than
    ``grad_tol``; normalized, it is tried with at most ``_MAX_HALVINGS + 1``
    step sizes halving from ``eta``, each point mapped back by ``retract``,
    until one improves.  The next step starts at 1.5 times the accepted
    one, capped at 1.
    """
    def step(value, state):
        nonlocal eta
        x, data = state
        g = direction(x, data)
        gnorm = np.sqrt(np.vdot(g, g).real)
        if gnorm < grad_tol:
            return None
        g = g / gnorm
        t = eta
        for _ in range(_MAX_HALVINGS + 1):
            x_new = retract(x + t * g)
            val_new, data_new = evaluate(x_new)
            if sign * val_new > sign * value:
                eta = min(t * 1.5, 1.0)
                return [val_new], val_new, (x_new, data_new)
            t /= 2.0
        return None

    return step


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
    """The two matrix layouts of t4 that :func:`_frame_gradient` multiplies."""
    m, n = t4.shape[:2]
    return (t4.transpose(0, 1, 3, 2).reshape(m * n, n * m),
            t4.transpose(1, 0, 2, 3).reshape(n * m, m * n))


def _frame_gradient(layouts, v: np.ndarray, terms) -> np.ndarray:
    """Ascent direction for the compression objective with respect to the
    conjugate frame entries; ``layouts`` is ``_gradient_layouts(t4)``.

    ``terms`` is a list of (coef, u, w) with the differential of the
    objective equal to sum_t Re(coef * u^† dC w); the derivative through the
    attaining vectors vanishes at the optimizer of the inner problem.
    """
    (t4_iabj, t4_aijb), (n, k) = layouts, v.shape
    m = t4_iabj.shape[0] // n
    g = 0
    for coef, u, w in terms:
        ur = u.reshape(k, m).conj()
        wr = w.reshape(k, m)
        q = np.dot(v, wr).reshape(n * m, 1)                       # (b, j)
        p = np.dot(v.conj(), ur).reshape(1, n * m)                # (a, i)
        s1 = np.dot(t4_iabj, q).reshape(m, n)                     # (i, a)
        s2 = np.dot(p, t4_aijb).reshape(m, n)                     # (j, b)
        m1 = np.dot(s1.T, coef * ur.T)                            # (a, r)
        m2 = np.dot(s2.T.conj(), np.conj(coef) * wr.T.conj())     # (b, s)
        g = g + m1 + m2
    return g


def _retract(a: np.ndarray) -> np.ndarray:
    """The Stiefel retraction of :func:`frame_ascent`: the thin QR factor of
    ``a`` with a positive real R diagonal, by modified Gram-Schmidt.

    Gram-Schmidt loses orthogonality in proportion to cond(a)^2, which is
    small here: a = V + tG with V orthonormal, G a unit tangent (V^dagger G
    skew-Hermitian) and t <= 1 has a^dagger a = I + t^2 G^dagger G, so
    cond(a) <= sqrt(2).  At k = 1 this is a plain normalization.
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
                 objective, cfg: SeeSawConfig, maximize: bool = True):
    """Optimize objective(compress_tensor(t4, V)) over orthonormal frames V.

    ``objective(C) -> (value, terms)`` must solve the inner problem exactly
    and return the differential data for :func:`_frame_gradient`.  The start
    frame is a Haar draw (:func:`random_isometry`, LAPACK QR); every trial
    step V + tG is mapped back by the Gram-Schmidt :func:`_retract`, exact
    to rounding since cond(V + tG) <= sqrt(2).  Returns a RestartOutcome
    whose payload is (V, value-attaining terms).
    """
    sign = 1.0 if maximize else -1.0
    layouts = _gradient_layouts(t4)

    def evaluate(v):
        return objective(compress_tensor(t4, v))

    def direction(v, terms):
        g = sign * _frame_gradient(layouts, v, terms)
        # project onto the tangent space of the Stiefel manifold
        a = v.conj().T @ g
        return g - v @ ((a + a.conj().T) / 2.0)

    v = random_isometry(t4.shape[1], k, rng)
    val, terms = evaluate(v)
    step = projected_step(evaluate, direction, _retract, 0.25, 1e-15, sign)
    return ascend(val, (v, terms), step, cfg, sign)


def frame_search(X: BipartiteOperator, k: int, objective, cfg: SeeSawConfig,
                 maximize: bool = True, single_vector: bool = True):
    """Optimize ``objective`` (as for :func:`frame_ascent`) over the
    compressions of X by k-dimensional right frames, restarted through
    :func:`run_restarts`.

    Returns (best, outcomes) as :func:`run_restarts` does, with the payload
    of ``best`` replaced by (frame, vectors): the best restart's Frame and the
    attaining vectors of the first term, u (and w unless ``single_vector``),
    as PureStates of C^m (x) C^n.  The rank constraint is vacuous when k = n,
    or when k = m and one vector is sought; then the objective is solved once
    on X.mat, with no restarts (``outcomes`` is empty) and no frame (None).
    """
    m, n = X.dims
    if k == n or (single_vector and k == m):
        value, terms = objective(X.mat)
        best, outcomes, v = RestartOutcome(value, None, [value], True), [], None
    else:
        t4 = X.blocks()

        def worker(_r: int, rng: np.random.Generator) -> RestartOutcome:
            return frame_ascent(t4, k, rng, objective, cfg, maximize=maximize)

        best, outcomes = run_restarts(worker, cfg, minimize=not maximize)
        v, terms = best.payload
    _, u, w = terms[0]
    vectors = tuple(PureState((m, n), x if v is None else lift_from_frame(x, v, m))
                    for x in ((u,) if single_vector else (u, w)))
    frame = None if v is None else Frame(vectors=v.T.copy())
    return RestartOutcome(best.value, (frame, vectors), best.history,
                          best.converged), outcomes
