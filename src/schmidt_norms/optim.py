"""Shared optimizer plumbing: frame compressions, projected-gradient ascent
on the orthonormal-frame manifold, the multi-restart driver, and
:func:`frame_search`, the one driver behind ``omin_norm``, ``min_order_norm``
and ``k_block_positivity``.

The frame optimizers all have the same shape: for a fixed orthonormal frame
the inner problem is solved exactly by an eigen/singular decomposition of the
compressed operator, and the frame itself is improved by a projected gradient
step (gradient through the attaining vectors, QR re-orthonormalization, step
halving with at most five halvings per iteration, only improving steps are
accepted).  Restart r draws its starting frame from RNG stream
``cfg.rng.stream(r)`` and the reported result is the best restart, ties going
to the smaller restart index.

:func:`frame_search` owns the one rule for a vacuous Schmidt-rank constraint:
at k = n (or k = m when one vector is sought) the objective is solved once on
X itself, with no restarts and no frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import BipartiteOperator, Frame, PureState
from .rand import RandomConfig, _qr_phase_fixed, random_isometry

__all__ = ["SeeSawConfig", "RestartOutcome", "run_restarts", "iterations",
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
    """Accepted improvement steps summed over the restarts' histories."""
    return int(sum(max(len(o.history) - 1, 0) for o in outcomes))


# ---------------------------------------------------------------------------
# frame compressions
# ---------------------------------------------------------------------------


def compress_tensor(t4: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Compress the (m,n,m,n) operator tensor with frame columns ``v`` (n x k).

    Output is the mk x mk matrix whose (r,s) block in M_m has entries
    <b_r| X_ij |b_s>, flat index r*m + i.
    """
    m = t4.shape[0]
    k = v.shape[1]
    t1 = np.tensordot(t4, v, axes=([3], [0]))          # (i, a, j, s)
    t2 = np.tensordot(v.conj(), t1, axes=([0], [1]))   # (r, i, j, s)
    return np.ascontiguousarray(t2.transpose(0, 1, 3, 2)).reshape(m * k, m * k)


def lift_from_frame(u: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """Rebuild the full C^m (x) C^n vector from compressed coordinates ``u``
    (flat index r*m + i) and frame columns ``v``.  Schmidt rank <= k by
    construction and the norm is preserved."""
    k = v.shape[1]
    return np.einsum("ri,ar->ia", u.reshape(k, m), v).reshape(-1)


def _frame_gradient(t4: np.ndarray, v: np.ndarray, terms) -> np.ndarray:
    """Ascent direction for the compression objective with respect to the
    conjugate frame entries.

    ``terms`` is a list of (coef, u, w) with the differential of the
    objective equal to sum_t Re(coef * u^† dC w); the derivative through the
    attaining vectors vanishes at the optimizer of the inner problem.
    """
    m = t4.shape[0]
    k = v.shape[1]
    g = np.zeros_like(v)
    for coef, u, w in terms:
        ur = u.reshape(k, m)
        wr = w.reshape(k, m)
        q = v @ wr                                        # (b, j)
        s1 = np.tensordot(t4, q, axes=([3, 2], [0, 1]))   # (i, a)
        m1 = (ur.conj() @ s1).T                           # (a, r)
        p = v.conj() @ ur.conj()                          # (a, i)
        s2 = np.tensordot(p, t4, axes=([0, 1], [1, 0]))   # (j, b)
        m2 = (wr @ s2).T                                  # (b, s)
        g = g + coef * m1 + np.conj(coef) * m2.conj()
    return g


def frame_ascent(t4: np.ndarray, k: int, rng: np.random.Generator,
                 objective, cfg: SeeSawConfig, maximize: bool = True):
    """Optimize objective(compress_tensor(t4, V)) over orthonormal frames V.

    ``objective(C) -> (value, terms)`` must solve the inner problem exactly
    and return the differential data for :func:`_frame_gradient`.  Returns a
    RestartOutcome whose payload is (V, value-attaining terms).
    """
    n = t4.shape[1]
    v = random_isometry(n, k, rng)
    sign = 1.0 if maximize else -1.0

    c = compress_tensor(t4, v)
    val, terms = objective(c)
    history = [val]
    eta = 0.25
    converged = False
    for _ in range(cfg.max_iters):
        g = sign * _frame_gradient(t4, v, terms)
        # project onto the tangent space of the Stiefel manifold
        a = v.conj().T @ g
        g = g - v @ ((a + a.conj().T) / 2.0)
        gnorm = np.linalg.norm(g)
        if gnorm < 1e-15:
            converged = True
            break
        g = g / gnorm
        step = eta
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            v_new = _qr_phase_fixed(v + step * g)
            c_new = compress_tensor(t4, v_new)
            val_new, terms_new = objective(c_new)
            if (val_new > val) if maximize else (val_new < val):
                accepted = True
                break
            step /= 2.0
        if not accepted:
            converged = True
            break
        gain = abs(val_new - val)
        v, val, terms = v_new, val_new, terms_new
        history.append(val)
        eta = min(step * 1.5, 1.0)
        if gain < cfg.obj_tol:
            converged = True
            break
    return RestartOutcome(value=val, payload=(v, terms), history=history,
                          converged=converged)


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
