"""Independent brute-force estimators used to validate the see-saw values.

Everything here is random sampling plus local polish, written directly
against the raw arrays: no code is shared with the optimizers in
``norms``/``cones``/``maps`` (the application/compression contractions are
reimplemented locally), so agreement between the two code paths is evidence
that both converged.

All values are one-sided (lower bounds for suprema, upper bounds for
infima).  Each estimator can also return its running-max (resp. running-min)
curve over the sample index, which is nondecreasing (nonincreasing) by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import BipartiteOperator, is_hermitian
from .rand import RandomConfig

__all__ = [
    "OracleConfig",
    "brute_sk_norm",
    "brute_block_min",
    "brute_min_order",
    "brute_omin",
    "brute_idk_norm",
]


@dataclass(frozen=True)
class OracleConfig:
    """Sampling and polish budget.  pool is how many top samples get the
    gradient polish."""

    samples: int = 20000
    polish_steps: int = 200
    rng: RandomConfig = field(default_factory=RandomConfig)
    pool: int = 512

    def __post_init__(self):
        if self.samples < 1 or self.pool < 1 or self.polish_steps < 0:
            raise ValueError("need samples >= 1, pool >= 1 and polish_steps >= 0")


def _cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    z = rng.standard_normal(shape + (2,))
    return z[..., 0] + 1j * z[..., 1]


def _rank_k_vectors(rng: np.random.Generator, count: int, m: int, n: int, k: int):
    """count unit vectors of Schmidt rank <= k as (A, B, flattened unit vec)."""
    a = _cgauss(rng, (count, m, k))
    b = _cgauss(rng, (count, n, k))
    u = (a @ b.transpose(0, 2, 1)).reshape(count, m * n)
    norms = np.linalg.norm(u, axis=1)
    return a, b, u / norms[:, None]


def _ab_grad(gmat: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Chain a gradient wrt the conjugate m x n matrix through u = A B^T."""
    ga = gmat @ b.conj()
    gb = gmat.transpose(0, 2, 1) @ a.conj()
    return ga, gb


class _PolishState:
    """Batched adaptive-step ascent with rollback: candidates that fail to
    improve are rolled back and their step halved."""

    def __init__(self, params: dict, values: np.ndarray, step: float = 0.1):
        self.params = params
        self.values = values
        self.steps = np.full(values.shape, step)

    def propose(self, grads: dict) -> dict:
        cand = {}
        for name, p in self.params.items():
            g = grads[name]
            axes = (slice(None),) + (None,) * (p.ndim - 1)
            cand[name] = p + self.steps[axes] * g
        return cand

    def accept(self, cand: dict, cand_values: np.ndarray, better) -> None:
        mask = better(cand_values, self.values)
        for name, p in self.params.items():
            sel = mask.reshape((-1,) + (1,) * (p.ndim - 1))
            self.params[name] = np.where(sel, cand[name], p)
        self.values = np.where(mask, cand_values, self.values)
        self.steps = np.where(mask, self.steps * 1.3, self.steps * 0.5)


def _pair_value(xm: np.ndarray, av, bv, aw, bw):
    """(f, data) for f = |<v|X|w>| with v, w the normalized rank-k vectors."""
    count, m, k = av.shape
    n = bv.shape[1]
    uv = (av @ bv.transpose(0, 2, 1)).reshape(count, m * n)
    uw = (aw @ bw.transpose(0, 2, 1)).reshape(count, m * n)
    nv = np.linalg.norm(uv, axis=1)
    nw = np.linalg.norm(uw, axis=1)
    g = np.einsum("si,ij,sj->s", uv.conj(), xm, uw)
    f = np.abs(g) / (nv * nw)
    return f, (uv, uw, nv, nw, g)


def brute_sk_norm(X: BipartiteOperator, k: int, cfg: OracleConfig | None = None,
                  return_curve: bool = False):
    """Sampled lower bound on sup |<v|X|w>| over Schmidt-rank-<=k unit pairs.

    Gradient polish runs on the Schmidt parameters (A, B) of the top pool,
    with per-sample adaptive steps and rollback.
    """
    cfg = cfg or OracleConfig()
    m, n = X.dims
    xm = X.mat
    rng = cfg.rng.generator()
    av, bv, v = _rank_k_vectors(rng, cfg.samples, m, n, k)
    aw, bw, w = _rank_k_vectors(rng, cfg.samples, m, n, k)
    vals = np.abs(np.einsum("si,ij,sj->s", v.conj(), xm, w))
    curve = np.maximum.accumulate(vals)

    pool = min(cfg.pool, cfg.samples)
    top = np.argsort(vals)[-pool:]
    params = {"av": av[top], "bv": bv[top], "aw": aw[top], "bw": bw[top]}
    f0, _ = _pair_value(xm, **params)
    state = _PolishState(params, f0)
    for _ in range(cfg.polish_steps):
        p = state.params
        f, (uv, uw, nv, nw, g) = _pair_value(xm, **p)
        phase = np.where(np.abs(g) > 0, g / np.where(np.abs(g) > 0, np.abs(g), 1.0), 1.0)
        # ascent directions wrt conj(u_v), conj(u_w) of the normalized objective
        gv = (phase.conj()[:, None] * (uw @ xm.T) / (nv * nw)[:, None]
              - (f / nv ** 2)[:, None] * uv)
        gw = (phase[:, None] * (uv.conj() @ xm).conj() / (nv * nw)[:, None]
              - (f / nw ** 2)[:, None] * uw)
        gav, gbv = _ab_grad(gv.reshape(-1, m, n), p["av"], p["bv"])
        gaw, gbw = _ab_grad(gw.reshape(-1, m, n), p["aw"], p["bw"])
        cand = state.propose({"av": gav, "bv": gbv, "aw": gaw, "bw": gbw})
        cand_f, _ = _pair_value(xm, **cand)
        state.accept(cand, cand_f, np.greater)
    value = float(max(curve[-1], state.values.max()))
    return (value, curve) if return_curve else value


def _quad_value(xm: np.ndarray, a, b):
    count, m, k = a.shape
    n = b.shape[1]
    u = (a @ b.transpose(0, 2, 1)).reshape(count, m * n)
    nsq = np.einsum("si,si->s", u.conj(), u).real
    g = np.einsum("si,ij,sj->s", u.conj(), xm, u)
    return u, nsq, g


def brute_block_min(X: BipartiteOperator, k: int, cfg: OracleConfig | None = None,
                    return_curve: bool = False):
    """Sampled upper bound on min <v|X|v> over Schmidt-rank-<=k unit vectors."""
    cfg = cfg or OracleConfig()
    if not is_hermitian(X.mat):
        raise ValueError("brute_block_min needs a Hermitian operator")
    m, n = X.dims
    xm = X.mat
    rng = cfg.rng.generator()
    a, b, v = _rank_k_vectors(rng, cfg.samples, m, n, k)
    vals = np.einsum("si,ij,sj->s", v.conj(), xm, v).real
    curve = np.minimum.accumulate(vals)

    pool = min(cfg.pool, cfg.samples)
    top = np.argsort(vals)[:pool]
    params = {"a": a[top], "b": b[top]}
    _, nsq, g = _quad_value(xm, **params)
    state = _PolishState(params, g.real / nsq)
    for _ in range(cfg.polish_steps):
        p = state.params
        u, nsq, g = _quad_value(xm, **p)
        f = g.real / nsq
        # descent direction wrt conj(u) of the Rayleigh quotient
        gu = -((u @ xm.T) - f[:, None] * u) / nsq[:, None]
        ga, gb = _ab_grad(gu.reshape(-1, m, n), p["a"], p["b"])
        cand = state.propose({"a": ga, "b": gb})
        _, cn, cg = _quad_value(xm, **cand)
        state.accept(cand, cg.real / cn, np.less)
    value = float(min(curve[-1], state.values.min()))
    return (value, curve) if return_curve else value


def brute_min_order(X: BipartiteOperator, k: int, cfg: OracleConfig | None = None,
                    return_curve: bool = False):
    """Sampled lower bound on sup |<v|X|v>| over Schmidt-rank-<=k unit
    vectors (the order-norm objective; X need not be Hermitian)."""
    cfg = cfg or OracleConfig()
    m, n = X.dims
    xm = X.mat
    rng = cfg.rng.generator()
    a, b, v = _rank_k_vectors(rng, cfg.samples, m, n, k)
    vals = np.abs(np.einsum("si,ij,sj->s", v.conj(), xm, v))
    curve = np.maximum.accumulate(vals)

    pool = min(cfg.pool, cfg.samples)
    top = np.argsort(vals)[-pool:]
    params = {"a": a[top], "b": b[top]}
    _, nsq, g = _quad_value(xm, **params)
    state = _PolishState(params, np.abs(g) / nsq)
    for _ in range(cfg.polish_steps):
        p = state.params
        u, nsq, g = _quad_value(xm, **p)
        f = np.abs(g) / nsq
        safe = np.where(np.abs(g) > 0, np.abs(g), 1.0)
        # d|g|/d conj(u) = (conj(g) X u + g X^dagger u) / (2|g|)
        gu = (g.conj()[:, None] * (u @ xm.T) + g[:, None] * (u @ xm.conj())) \
            / (2.0 * safe[:, None])
        gu = (gu - f[:, None] * u) / nsq[:, None]
        ga, gb = _ab_grad(gu.reshape(-1, m, n), p["a"], p["b"])
        cand = state.propose({"a": ga, "b": gb})
        _, cn, cg = _quad_value(xm, **cand)
        state.accept(cand, np.abs(cg) / cn, np.greater)
    value = float(max(curve[-1], state.values.max()))
    return (value, curve) if return_curve else value


def _batched_frames(rng: np.random.Generator, count: int, n: int, k: int):
    q, r = np.linalg.qr(_cgauss(rng, (count, n, k)))
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * d.conj()[:, None, :]


def brute_omin(X: BipartiteOperator, k: int, cfg: OracleConfig | None = None,
               return_curve: bool = False):
    """Sampled lower bound on sup over orthonormal frames of the operator
    norm of the frame compression, polished by random tangent perturbations."""
    cfg = cfg or OracleConfig()
    m, n = X.dims
    t4 = X.blocks()
    rng = cfg.rng.generator()
    count = max(1, cfg.samples // 100)
    frames = _batched_frames(rng, count, n, k)
    c = np.einsum("sar,iajb,sbt->sritj", frames.conj(), t4, frames)
    vals = np.linalg.svd(c.reshape(count, m * k, m * k), compute_uv=False)[:, 0]
    curve = np.maximum.accumulate(vals)

    pool_n = min(32, count)
    order = np.argsort(vals)[-pool_n:]
    best_frames = frames[order]
    best_vals = vals[order]
    steps = np.full(pool_n, 0.2)
    for _ in range(cfg.polish_steps):
        tweak = _cgauss(rng, best_frames.shape)
        cand = best_frames + steps[:, None, None] * tweak
        q, r = np.linalg.qr(cand)
        d = np.diagonal(r, axis1=1, axis2=2).copy()
        d = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
        cand = q * d.conj()[:, None, :]
        cc = np.einsum("sar,iajb,sbt->sritj", cand.conj(), t4, cand)
        cv = np.linalg.svd(cc.reshape(pool_n, m * k, m * k), compute_uv=False)[:, 0]
        mask = cv > best_vals
        best_frames = np.where(mask[:, None, None], cand, best_frames)
        best_vals = np.where(mask, cv, best_vals)
        steps = np.where(mask, steps * 1.2, steps * 0.7)
        steps = np.maximum(steps, 1e-6)
    value = float(max(curve[-1], best_vals.max()))
    return (value, curve) if return_curve else value


def brute_idk_norm(phi, k: int, cfg: OracleConfig | None = None,
                   return_curve: bool = False):
    """Sampled lower bound on ||id_k (x) Phi||: random unitaries (extreme
    points of the unit ball), then multiplicative polish along the unitary
    group by gradient retraction."""
    cfg = cfg or OracleConfig()
    r, n = phi.in_dim, phi.out_dim
    j4 = phi.choi.blocks()
    d = k * r
    rng = cfg.rng.generator()

    def apply_idk(x_batch: np.ndarray) -> np.ndarray:
        x4 = x_batch.reshape(-1, k, r, k, r)
        out = np.einsum("spiqj,iajb->spaqb", x4, j4)
        return out.reshape(-1, k * n, k * n)

    count = max(1, cfg.samples // 100)
    zs = _cgauss(rng, (count, d, d))
    q, rr = np.linalg.qr(zs)
    dd = np.diagonal(rr, axis1=1, axis2=2).copy()
    dd = np.where(np.abs(dd) > 0, dd / np.abs(dd), 1.0)
    us = q * dd.conj()[:, None, :]
    vals = np.linalg.svd(apply_idk(us), compute_uv=False)[:, 0]
    curve = np.maximum.accumulate(vals)

    pool_n = min(32, count)
    order = np.argsort(vals)[-pool_n:]
    best_u = us[order]
    best_vals = vals[order]
    steps = np.full(pool_n, 0.3)
    for _ in range(cfg.polish_steps):
        z = apply_idk(best_u)
        uu, ss, vh = np.linalg.svd(z)
        v_top = uu[:, :, 0]
        w_top = vh[:, 0, :].conj()
        # pairing matrix: <v|(id (x) Phi)(X)|w> = Tr(X Y)
        y = np.einsum("spa,iajb,sqb->sqjpi", v_top.reshape(-1, k, n).conj(), j4,
                      w_top.reshape(-1, k, n)).reshape(-1, d, d)
        # Riemannian ascent direction on the unitary group, QR retraction
        g = y.conj().transpose(0, 2, 1)
        a = np.einsum("sij,sjl->sil", best_u.conj().transpose(0, 2, 1), g)
        a = (a - a.conj().transpose(0, 2, 1)) / 2.0
        cand = best_u + steps[:, None, None] * np.einsum("sij,sjl->sil", best_u, a)
        q, rr = np.linalg.qr(cand)
        dd = np.diagonal(rr, axis1=1, axis2=2).copy()
        dd = np.where(np.abs(dd) > 0, dd / np.abs(dd), 1.0)
        cand = q * dd.conj()[:, None, :]
        cv = np.linalg.svd(apply_idk(cand), compute_uv=False)[:, 0]
        mask = cv > best_vals
        best_u = np.where(mask[:, None, None], cand, best_u)
        best_vals = np.where(mask, cv, best_vals)
        steps = np.where(mask, np.minimum(steps * 1.2, 1.0), steps * 0.5)
        steps = np.maximum(steps, 1e-7)
    value = float(max(curve[-1], best_vals.max()))
    return (value, curve) if return_curve else value
