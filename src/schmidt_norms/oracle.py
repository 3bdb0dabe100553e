"""Independent brute-force estimators used to validate the see-saw values.

Everything here is random sampling plus local polish, written directly
against the raw arrays: no code is shared with the optimizers in
``optim``/``norms``/``cones``/``maps`` (the application/compression
contractions are reimplemented locally), so agreement between the two code
paths is evidence that both converged.

All values are one-sided (lower bounds for suprema, upper bounds for
infima).  The polish budgets are fixed: ``brute_sk_norm``,
``brute_block_min`` and ``brute_min_order`` polish their top 512 samples;
``brute_omin`` and ``brute_idk_norm`` draw ``max(1, samples // 100)``
frames (unitaries) and polish the top 32 of them.  Either pool is all
the draws when there are fewer.

Every polish loop evaluates its objective once per step.  The Schmidt-vector
oracles share ``_polish``: each evaluation returns the candidates' values
and parameter gradients, and the accepted ones are carried to the next step.
The loop stops once no candidate moves (each equals its parameters
exactly): the gradients then belong to unchanged parameters and the steps
only halve, so the values are those of the full budget bit for bit.

``brute_omin`` orthonormalises its n x k frames by classical Gram-Schmidt
run twice per column (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50,
2005), cheaper there than the LAPACK QR that ``brute_idk_norm`` keeps, and
reads each top singular value as sqrt(lambda_max(C^dagger C)) from one
batched ``eigvalsh``.  Its random-tangent polish falls short of the frame
optimum on generic operators (7.0403 against ``omin_norm``'s 7.1487 at
(3,4), k = 2), so agreement with ``omin_norm`` there is one-sided.

The three Schmidt-vector oracles never hold all their factor draws.  A
(samples, m, k) and B (samples, n, k) of each unit-vector side are drawn
from one generator, array after array, and ``_factor_blocks`` replays that
stream ``_SAMPLE_BLOCK`` samples at a time: pass 1 copies the generator at
the start of each array and draws through the array, pass 2 draws the next
block of every array from its copy, so each block holds bit for bit the
rows of a whole-array draw.  Each block's unit vectors u = A B^T / |A B^T|
are built and paired at once, and a running pool (``_top_samples``) keeps
the draws of every sample that can still rank among the ``_POOL`` best, so
the polish starts from exactly the samples that ``np.argsort`` of all the
values selects.  The sampling stage thus needs 8 bytes per sample for the
values plus O(block + pool) memory, and pays one more draw of every array
but the last: a 20000-sample ``brute_sk_norm`` at (3,4), k = 2 peaks at
2.55 MiB under tracemalloc, against 11.05 MiB with whole-array draws.  If
ties fill the pool, it grows once to hold every sample's draws, as a
whole-array draw did, and stays linear in time.  Pass 1 discards its
normals in chunks of up to ``_DRAW_CHUNK``, 2 MiB: under glibc malloc
freeing a chunk that size lifts the adaptive trim threshold above the
polish's per-step temporaries (1.2 MB at (4,4), k = 2), which are otherwise
handed back to the kernel and faulted in again every step.  On the nine
Schmidt-oracle calls of the seed-1 ``seesaw_oracle`` pool, drawing pass 1
through one block at a time took 115 849 page faults per pass, 2 MiB
chunks none (the whole-array draws 6205).

Each block and the polish pool keep the sample axis last, so every
broadcast product, step and mask is one long contiguous loop over the
samples instead of samples*m loops of length at most 4.  On the 512-sample
pool the (A, B) products run 1.9-2.8x faster than in a samples-first
layout (numpy 2.4, one Xeon core).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import BipartiteOperator, _check_k, is_hermitian
from .rand import RandomConfig

__all__ = [
    "OracleConfig",
    "brute_sk_norm",
    "brute_block_min",
    "brute_min_order",
    "brute_omin",
    "brute_idk_norm",
]

# Samples per block of the sampling stage: its pairing temporaries stay at
# 0.25 MB for m*n = 16, whatever the sample count.
_SAMPLE_BLOCK = 1024
# Normals per draw of pass 1 of the sampling stage, which discards them (see
# the module docstring).
_DRAW_CHUNK = 2 ** 18
# Top samples that get the gradient polish in the three Schmidt-vector oracles.
_POOL = 512


@dataclass(frozen=True)
class OracleConfig:
    """Sampling and polish budget: ``samples`` random draws, then
    ``polish_steps`` steps on the best of them (see the module docstring)."""

    samples: int = 20000
    polish_steps: int = 200
    rng: RandomConfig = field(default_factory=RandomConfig)

    def __post_init__(self):
        for name, low in (("samples", 1), ("polish_steps", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < low):
                raise ValueError("%s must be an integer >= %d, got %r" % (name, low, value))


def _cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    """z[..., 0] + i z[..., 1] of (..., 2) normal draws, as a view on them."""
    return rng.standard_normal(shape + (2,)).view(complex)[..., 0]


def _unit_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """u = A B^T / |A B^T| of samples-first draws, as (m*n, samples)."""
    u = _outer(*(np.ascontiguousarray(d.transpose(1, 2, 0)) for d in (a, b)))
    return u / np.linalg.norm(u, axis=0)


def _pairings(xm: np.ndarray, av: np.ndarray, bv: np.ndarray,
              aw: np.ndarray | None = None, bw: np.ndarray | None = None) -> np.ndarray:
    """<v_s|X|w_s> for the unit vectors of the samples-first draws (A_v, B_v)
    and (A_w, B_w) (default v), paired by one gemm."""
    v = _unit_vectors(av, bv)
    w = v if aw is None else _unit_vectors(aw, bw)
    return (v.conj() * (xm @ w)).sum(0)


def _factor_blocks(rng: np.random.Generator, samples: int, shapes):
    """The factor draws ``_cgauss(rng, (samples,) + shape)`` of each shape in
    turn, replayed in lockstep ``_SAMPLE_BLOCK`` samples at a time: yields
    one list of blocks, samples first, per step.  Pass 1 copies ``rng`` at
    the start of each array and draws through its normals ``_DRAW_CHUNK`` at
    a time; pass 2 draws every array's next block from its copy, so the
    blocks are the whole arrays' rows bit for bit."""
    gens = []
    for shape in shapes[:-1]:
        gens.append(copy.deepcopy(rng))
        left = 2 * samples * math.prod(shape)  # the normals of this array
        while left:
            left -= len(rng.standard_normal(min(left, _DRAW_CHUNK)))
    gens.append(rng)
    for lo in range(0, samples, _SAMPLE_BLOCK):
        count = min(_SAMPLE_BLOCK, samples - lo)
        yield [_cgauss(g, (count,) + shape) for g, shape in zip(gens, shapes)]


def _top_samples(blocks, samples: int, largest: bool):
    """Every value of ``blocks``, (values, draws) pairs in sample order with
    the draws samples first, and the draws of the samples
    ``np.argsort(values)[-_POOL:]`` (``largest``) or ``[:_POOL]``, in that
    order, copied with the sample axis last.

    A running pool holds every sample whose value is at least the running
    ``_POOL``-th best (ties kept, and NaN, which argsort ranks last, so the
    selection is exact) in buffers of ``2 * _POOL`` rows, compacted when
    full.  If ties at that value fill them, the buffers grow once to every
    sample, so each block is still copied once."""
    vals = np.empty(samples)
    held = np.empty(min(samples, 2 * _POOL), dtype=np.intp)
    bufs, count, best, lo = None, 0, vals[:0], 0
    cut = -np.inf if largest else np.inf

    def may_rank(v):
        return ~(v < cut) if largest else ~(v > cut)

    for values, draws in blocks:
        hi = lo + len(values)
        vals[lo:hi] = values
        if bufs is None:
            bufs = [np.empty((len(held),) + d.shape[1:], d.dtype) for d in draws]
        rows = np.flatnonzero(may_rank(values))
        if len(rows):
            best = np.concatenate((best, values[rows]))
            if len(best) > _POOL:
                kth = len(best) - _POOL if largest else _POOL - 1
                best = np.partition(best, kth)
                cut = best[kth]
                best = best[kth:] if largest else best[:_POOL]
                rows = rows[may_rank(values[rows])]
        if count + len(rows) > len(held):
            live = np.flatnonzero(may_rank(vals[held[:count]]))
            count = len(live)
            for buf in [held] + bufs:
                buf[:count] = buf[live]
        if count + len(rows) > len(held):
            held, *bufs = [np.concatenate((buf[:count], np.empty(
                (samples - count,) + buf.shape[1:], buf.dtype))) for buf in [held] + bufs]
        end = count + len(rows)
        held[count:end] = lo + rows
        for buf, d in zip(bufs, draws):
            buf[count:end] = d[rows]
        count, lo = end, hi
    order = np.argsort(vals)
    rows = np.searchsorted(held[:count], order[-_POOL:] if largest else order[:_POOL])
    return vals, [np.ascontiguousarray(buf[rows].transpose(1, 2, 0)) for buf in bufs]


def _sampled(xm: np.ndarray, rows, k: int, cfg: OracleConfig, value, largest: bool):
    """The sampling stage of a Schmidt-vector oracle: the factor draws
    (samples, r, k) for r in ``rows``, paired as (A_v, B_v[, A_w, B_w]) by
    ``_pairings``; returns ``value`` of every pairing and the pool's draws
    (see ``_top_samples``)."""
    blocks = ((value(_pairings(xm, *d)), d)
              for d in _factor_blocks(cfg.rng.generator(), cfg.samples,
                                      [(r, k) for r in rows]))
    return _top_samples(blocks, cfg.samples, largest)


def _sample_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[..., s] @ y[..., s] for every sample s on the last axis, one
    broadcast product per inner index: each is a single loop over the
    samples, where a batched matmul would loop over tiny matrices."""
    out = x[:, 0, None] * y[None, 0]
    for j in range(1, x.shape[1]):
        out += x[:, j, None] * y[None, j]
    return out


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """u = A B^T for every sample, flattened to (m*n, samples)."""
    return _sample_matmul(a, b.transpose(1, 0, 2)).reshape(-1, a.shape[2])


def _ab_grad(gmat: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Chain a gradient wrt the conjugate m x n matrix through u = A B^T."""
    return (_sample_matmul(gmat, b.conj()),
            _sample_matmul(gmat.transpose(1, 0, 2), a.conj()))


def _polish(evaluate, params: dict, budget: int, better) -> np.ndarray:
    """Batched adaptive-step ascent with rollback on the candidates
    ``params`` (sample axis last), for at most ``budget`` steps; returns the
    final values.  ``evaluate(params)`` gives each candidate's value and
    parameter gradients.  It stops early once no candidate moves (see the
    module docstring)."""
    values, grads = evaluate(params)
    steps = np.full(values.shape, 0.1)
    for _ in range(budget):
        cand = {name: p + steps * grads[name] for name, p in params.items()}
        if all((cand[name] == p).all() for name, p in params.items()):
            break
        cand_values, cand_grads = evaluate(cand)
        mask = better(cand_values, values)
        params = {name: np.where(mask, c, params[name]) for name, c in cand.items()}
        grads = {name: np.where(mask, g, grads[name]) for name, g in cand_grads.items()}
        values = np.where(mask, cand_values, values)
        steps = np.where(mask, steps * 1.3, steps * 0.5)
    return values


def _quad_form(xm: np.ndarray, a: np.ndarray, b: np.ndarray):
    """u = A B^T, X u, |u|^2 and g = <u|X|u> for every sample."""
    u = _outer(a, b)
    xu = xm @ u
    return u, xu, np.einsum("is,is->s", u.conj(), u).real, (u.conj() * xu).sum(0)


def brute_sk_norm(X: BipartiteOperator, k: int, cfg: OracleConfig | None = None):
    """Sampled lower bound on sup |<v|X|w>| over Schmidt-rank-<=k unit pairs.

    Gradient polish runs on the Schmidt parameters (A, B) of the top samples,
    with per-sample adaptive steps and rollback.
    """
    cfg = cfg or OracleConfig()
    _check_k(X, k)
    m, n = X.dims
    xm = X.mat
    xh = xm.conj().T
    vals, draws = _sampled(xm, (m, n, m, n), k, cfg, np.abs, largest=True)

    def evaluate(p):
        uv, uw = _outer(p["av"], p["bv"]), _outer(p["aw"], p["bw"])
        nv, nw = np.linalg.norm(uv, axis=0), np.linalg.norm(uw, axis=0)
        xw = xm @ uw
        g = (uv.conj() * xw).sum(0)
        f = np.abs(g) / (nv * nw)
        phase = np.where(np.abs(g) > 0, g / np.where(np.abs(g) > 0, np.abs(g), 1.0), 1.0)
        # ascent directions wrt conj(u_v), conj(u_w) of the normalized objective
        gv = phase.conj() * xw / (nv * nw) - f / nv ** 2 * uv
        gw = phase * (xh @ uv) / (nv * nw) - f / nw ** 2 * uw
        gav, gbv = _ab_grad(gv.reshape(m, n, -1), p["av"], p["bv"])
        gaw, gbw = _ab_grad(gw.reshape(m, n, -1), p["aw"], p["bw"])
        return f, dict(av=gav, bv=gbv, aw=gaw, bw=gbw)

    pool = dict(zip(("av", "bv", "aw", "bw"), draws))
    polished = _polish(evaluate, pool, cfg.polish_steps, np.greater)
    return float(max(vals.max(), polished.max()))


def brute_block_min(X: BipartiteOperator, k: int, cfg: OracleConfig | None = None):
    """Sampled upper bound on min <v|X|v> over Schmidt-rank-<=k unit vectors."""
    cfg = cfg or OracleConfig()
    _check_k(X, k)
    if not is_hermitian(X.mat):
        raise ValueError("brute_block_min needs a Hermitian operator")
    m, n = X.dims
    xm = X.mat
    vals, (a, b) = _sampled(xm, (m, n), k, cfg, np.real, largest=False)

    def evaluate(p):
        u, xu, nsq, g = _quad_form(xm, p["a"], p["b"])
        f = g.real / nsq
        # descent direction wrt conj(u) of the Rayleigh quotient
        ga, gb = _ab_grad((-(xu - f * u) / nsq).reshape(m, n, -1), p["a"], p["b"])
        return f, dict(a=ga, b=gb)

    polished = _polish(evaluate, dict(a=a, b=b), cfg.polish_steps, np.less)
    return float(min(vals.min(), polished.min()))


def brute_min_order(X: BipartiteOperator, k: int, cfg: OracleConfig | None = None):
    """Sampled lower bound on sup |<v|X|v>| over Schmidt-rank-<=k unit
    vectors (the order-norm objective; X need not be Hermitian)."""
    cfg = cfg or OracleConfig()
    _check_k(X, k)
    m, n = X.dims
    xm = X.mat
    xh = xm.conj().T
    vals, (a, b) = _sampled(xm, (m, n), k, cfg, np.abs, largest=True)

    def evaluate(p):
        u, xu, nsq, g = _quad_form(xm, p["a"], p["b"])
        f = np.abs(g) / nsq
        safe = np.where(np.abs(g) > 0, np.abs(g), 1.0)
        # d|g|/d conj(u) = (conj(g) X u + g X^dagger u) / (2|g|)
        gu = (g.conj() * xu + g * (xh @ u)) / (2.0 * safe)
        ga, gb = _ab_grad(((gu - f * u) / nsq).reshape(m, n, -1), p["a"], p["b"])
        return f, dict(a=ga, b=gb)

    polished = _polish(evaluate, dict(a=a, b=b), cfg.polish_steps, np.greater)
    return float(max(vals.max(), polished.max()))


def _phase_fixed_qr(z: np.ndarray) -> np.ndarray:
    """Q factors of a stack of matrices, phases fixed so diag(R) > 0."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * d.conj()[:, None, :]


def _gram_schmidt(z: np.ndarray) -> np.ndarray:
    """``_phase_fixed_qr`` of a stack of tall matrices by classical
    Gram-Schmidt run twice per column; dividing each column by its positive
    norm fixes the phase, diag(R) > 0."""
    q = np.empty_like(z)
    for j in range(z.shape[2]):
        v = z[:, :, j, None]
        if j:
            qj = q[:, :, :j]
            qh = qj.conj().transpose(0, 2, 1)
            for _ in range(2):
                v = v - qj @ (qh @ v)
        q[:, :, j, None] = v / np.sqrt((v.real ** 2 + v.imag ** 2).sum(1, keepdims=True))
    return q


def _top_singular_values(c: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack, as
    sqrt(lambda_max(C^dagger C)); the clamp keeps a zero C at 0.0."""
    top = np.linalg.eigvalsh(c.conj().transpose(0, 2, 1) @ c)[:, -1]
    return np.sqrt(np.maximum(top, 0.0))


def _frame_compressions(xt: np.ndarray, frames: np.ndarray, m: int) -> np.ndarray:
    """(I_m (x) V)^dagger X (I_m (x) V) for each n x k frame V, by two gemms.

    ``xt`` is X's blocks X[(i,a),(j,b)] laid out as an (n, m*m*n) matrix with
    rows a and columns (i, j, b)."""
    count, n, k = frames.shape
    # Z[s, r, (i, j, b)] = sum_a conj(V[s, a, r]) X[(i,a),(j,b)]
    z = frames.conj().transpose(0, 2, 1).reshape(count * k, n) @ xt
    # C[s, (r, i, j), t] = sum_b Z[s, r, i, j, b] V[s, b, t]
    c = z.reshape(count, k * m * m, n) @ frames
    c = c.reshape(count, k, m, m, k).transpose(0, 2, 1, 3, 4)
    return c.reshape(count, m * k, m * k)


def brute_omin(X: BipartiteOperator, k: int, cfg: OracleConfig | None = None):
    """Sampled lower bound on sup over orthonormal frames of the operator
    norm of the frame compression, polished by random tangent perturbations."""
    cfg = cfg or OracleConfig()
    _check_k(X, k)
    m, n = X.dims
    xt = X.blocks().transpose(1, 0, 2, 3).reshape(n, m * m * n)
    rng = cfg.rng.generator()
    count = max(1, cfg.samples // 100)
    frames = _gram_schmidt(_cgauss(rng, (count, n, k)))
    vals = _top_singular_values(_frame_compressions(xt, frames, m))

    pool_n = min(32, count)
    order = np.argsort(vals)[-pool_n:]
    best_frames = frames[order]
    best_vals = vals[order]
    steps = np.full(pool_n, 0.2)
    for _ in range(cfg.polish_steps):
        tweak = _cgauss(rng, best_frames.shape)
        cand = _gram_schmidt(best_frames + steps[:, None, None] * tweak)
        cv = _top_singular_values(_frame_compressions(xt, cand, m))
        mask = cv > best_vals
        best_frames = np.where(mask[:, None, None], cand, best_frames)
        best_vals = np.where(mask, cv, best_vals)
        steps = np.where(mask, steps * 1.2, steps * 0.7)
        steps = np.maximum(steps, 1e-6)
    return float(max(vals.max(), best_vals.max()))


def brute_idk_norm(phi, k: int, cfg: OracleConfig | None = None):
    """Sampled lower bound on ||id_k (x) Phi||: random unitaries (extreme
    points of the unit ball), then multiplicative polish along the unitary
    group by gradient retraction."""
    cfg = cfg or OracleConfig()
    if k < 1:
        raise ValueError("k=%d must be at least 1" % k)
    r, n = phi.in_dim, phi.out_dim
    j4 = phi.choi.blocks()
    d = k * r
    rng = cfg.rng.generator()

    def apply_idk(x_batch: np.ndarray) -> np.ndarray:
        x4 = x_batch.reshape(-1, k, r, k, r)
        out = np.einsum("spiqj,iajb->spaqb", x4, j4)
        return out.reshape(-1, k * n, k * n)

    def top_pairs(us: np.ndarray):
        """Top singular value and vectors of (id_k (x) Phi)(U) per row."""
        uu, ss, vh = np.linalg.svd(apply_idk(us))
        return ss[:, 0], uu[:, :, 0], vh[:, 0, :].conj()

    count = max(1, cfg.samples // 100)
    us = _phase_fixed_qr(_cgauss(rng, (count, d, d)))
    vals = np.linalg.svd(apply_idk(us), compute_uv=False)[:, 0]

    pool_n = min(32, count)
    order = np.argsort(vals)[-pool_n:]
    best_u = us[order]
    best_vals = vals[order]
    _, v_top, w_top = top_pairs(best_u)
    steps = np.full(pool_n, 0.3)
    for _ in range(cfg.polish_steps):
        # pairing matrix: <v|(id (x) Phi)(X)|w> = Tr(X Y)
        y = np.einsum("spa,iajb,sqb->sqjpi", v_top.reshape(-1, k, n).conj(), j4,
                      w_top.reshape(-1, k, n)).reshape(-1, d, d)
        # Riemannian ascent direction on the unitary group, QR retraction
        g = y.conj().transpose(0, 2, 1)
        a = np.einsum("sij,sjl->sil", best_u.conj().transpose(0, 2, 1), g)
        a = (a - a.conj().transpose(0, 2, 1)) / 2.0
        cand = _phase_fixed_qr(
            best_u + steps[:, None, None] * np.einsum("sij,sjl->sil", best_u, a))
        cv, cv_top, cw_top = top_pairs(cand)
        mask = cv > best_vals
        best_u = np.where(mask[:, None, None], cand, best_u)
        best_vals = np.where(mask, cv, best_vals)
        v_top = np.where(mask[:, None], cv_top, v_top)
        w_top = np.where(mask[:, None], cw_top, w_top)
        steps = np.where(mask, np.minimum(steps * 1.2, 1.0), steps * 0.5)
        steps = np.maximum(steps, 1e-7)
    return float(max(vals.max(), best_vals.max()))
