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

Every polish loop evaluates its objective once per step: the evaluation of
the accepted candidates (their vectors, norms, values and the matrix
products the next gradient needs) is carried to the next step instead of
being recomputed from the parameters.
"""

from __future__ import annotations

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

# Rows per block of the sampling-stage pairings: their temporaries stay at
# 0.5 MB for m*n = 16, whatever the sample count.
_SAMPLE_BLOCK = 2048
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
        if self.samples < 1 or self.polish_steps < 0:
            raise ValueError("need samples >= 1 and polish_steps >= 0")


def _cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    z = rng.standard_normal(shape + (2,))
    return z[..., 0] + 1j * z[..., 1]


def _rank_k_vectors(rng: np.random.Generator, count: int, m: int, n: int, k: int):
    """count unit vectors of Schmidt rank <= k as (A, B, flattened unit vec)."""
    a = _cgauss(rng, (count, m, k))
    b = _cgauss(rng, (count, n, k))
    u = _row_matmul(a, b.transpose(0, 2, 1)).reshape(count, m * n)
    norms = np.linalg.norm(u, axis=1)
    return a, b, u / norms[:, None]


def _pairings(v: np.ndarray, xm: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<v_s|X|w_s> for every row s, one gemm per block of rows."""
    out = np.empty(v.shape[0], dtype=complex)
    for lo in range(0, v.shape[0], _SAMPLE_BLOCK):
        rows = slice(lo, lo + _SAMPLE_BLOCK)
        out[rows] = (v[rows].conj() * (w[rows] @ xm.T)).sum(1)
    return out


def _row_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[s] @ y[s] for every row s, one broadcast product per inner index:
    on these tiny factors that is faster than a batched matmul."""
    out = x[:, :, 0, None] * y[:, None, 0, :]
    for j in range(1, x.shape[2]):
        out += x[:, :, j, None] * y[:, None, j, :]
    return out


def _ab_grad(gmat: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Chain a gradient wrt the conjugate m x n matrix through u = A B^T."""
    return (_row_matmul(gmat, b.conj()),
            _row_matmul(gmat.transpose(0, 2, 1), a.conj()))


def _select(mask: np.ndarray, new: dict, old: dict) -> dict:
    """Row-wise new[name] where mask, else old[name]."""
    return {name: np.where(mask.reshape((-1,) + (1,) * (o.ndim - 1)), new[name], o)
            for name, o in old.items()}


class _PolishState:
    """Batched adaptive-step ascent with rollback: candidates that fail to
    improve are rolled back and their step halved.  ``record`` is the
    evaluation of the current parameters, selected row by row with them."""

    def __init__(self, params: dict, values: np.ndarray, record: dict,
                 step: float = 0.1):
        self.params = params
        self.values = values
        self.record = record
        self.steps = np.full(values.shape, step)

    def propose(self, grads: dict) -> dict:
        cand = {}
        for name, p in self.params.items():
            g = grads[name]
            axes = (slice(None),) + (None,) * (p.ndim - 1)
            cand[name] = p + self.steps[axes] * g
        return cand

    def accept(self, cand: dict, cand_values: np.ndarray, cand_record: dict,
               better) -> None:
        mask = better(cand_values, self.values)
        self.params = _select(mask, cand, self.params)
        self.record = _select(mask, cand_record, self.record)
        self.values = np.where(mask, cand_values, self.values)
        self.steps = np.where(mask, self.steps * 1.3, self.steps * 0.5)


def _pair_value(xm: np.ndarray, av, bv, aw, bw):
    """(f, record) for f = |<v|X|w>| with v, w the normalized rank-k vectors;
    the record holds the gemms w X^T and conj(v) X that the gradient needs."""
    count, m, k = av.shape
    n = bv.shape[1]
    uv = _row_matmul(av, bv.transpose(0, 2, 1)).reshape(count, m * n)
    uw = _row_matmul(aw, bw.transpose(0, 2, 1)).reshape(count, m * n)
    nv = np.linalg.norm(uv, axis=1)
    nw = np.linalg.norm(uw, axis=1)
    xw = uw @ xm.T
    vx = uv.conj() @ xm
    g = (uv.conj() * xw).sum(1)
    f = np.abs(g) / (nv * nw)
    return f, dict(uv=uv, uw=uw, nv=nv, nw=nw, g=g, xw=xw, vx=vx)


def brute_sk_norm(X: BipartiteOperator, k: int, cfg: OracleConfig | None = None):
    """Sampled lower bound on sup |<v|X|w>| over Schmidt-rank-<=k unit pairs.

    Gradient polish runs on the Schmidt parameters (A, B) of the top samples,
    with per-sample adaptive steps and rollback.
    """
    cfg = cfg or OracleConfig()
    _check_k(X, k)
    m, n = X.dims
    xm = X.mat
    rng = cfg.rng.generator()
    av, bv, v = _rank_k_vectors(rng, cfg.samples, m, n, k)
    aw, bw, w = _rank_k_vectors(rng, cfg.samples, m, n, k)
    vals = np.abs(_pairings(v, xm, w))

    pool = min(_POOL, cfg.samples)
    top = np.argsort(vals)[-pool:]
    params = {"av": av[top], "bv": bv[top], "aw": aw[top], "bw": bw[top]}
    state = _PolishState(params, *_pair_value(xm, **params))
    for _ in range(cfg.polish_steps):
        p, r, f = state.params, state.record, state.values
        g, nv, nw = r["g"], r["nv"], r["nw"]
        phase = np.where(np.abs(g) > 0, g / np.where(np.abs(g) > 0, np.abs(g), 1.0), 1.0)
        # ascent directions wrt conj(u_v), conj(u_w) of the normalized objective
        gv = (phase.conj()[:, None] * r["xw"] / (nv * nw)[:, None]
              - (f / nv ** 2)[:, None] * r["uv"])
        gw = (phase[:, None] * r["vx"].conj() / (nv * nw)[:, None]
              - (f / nw ** 2)[:, None] * r["uw"])
        gav, gbv = _ab_grad(gv.reshape(-1, m, n), p["av"], p["bv"])
        gaw, gbw = _ab_grad(gw.reshape(-1, m, n), p["aw"], p["bw"])
        cand = state.propose({"av": gav, "bv": gbv, "aw": gaw, "bw": gbw})
        state.accept(cand, *_pair_value(xm, **cand), np.greater)
    return float(max(vals.max(), state.values.max()))


def _quad_value(xm: np.ndarray, a, b) -> dict:
    """Record of g = <u|X|u> for u = A B^T: u, |u|^2, g and the gemm u X^T."""
    count, m, k = a.shape
    n = b.shape[1]
    u = _row_matmul(a, b.transpose(0, 2, 1)).reshape(count, m * n)
    rec = dict(u=u, nsq=np.einsum("si,si->s", u.conj(), u).real, xu=u @ xm.T)
    rec["g"] = (u.conj() * rec["xu"]).sum(1)
    return rec


def brute_block_min(X: BipartiteOperator, k: int, cfg: OracleConfig | None = None):
    """Sampled upper bound on min <v|X|v> over Schmidt-rank-<=k unit vectors."""
    cfg = cfg or OracleConfig()
    _check_k(X, k)
    if not is_hermitian(X.mat):
        raise ValueError("brute_block_min needs a Hermitian operator")
    m, n = X.dims
    xm = X.mat
    rng = cfg.rng.generator()
    a, b, v = _rank_k_vectors(rng, cfg.samples, m, n, k)
    vals = _pairings(v, xm, v).real

    def evaluate(params):
        rec = _quad_value(xm, **params)
        return rec["g"].real / rec["nsq"], rec

    pool = min(_POOL, cfg.samples)
    top = np.argsort(vals)[:pool]
    params = {"a": a[top], "b": b[top]}
    state = _PolishState(params, *evaluate(params))
    for _ in range(cfg.polish_steps):
        p, r, f = state.params, state.record, state.values
        # descent direction wrt conj(u) of the Rayleigh quotient
        gu = -(r["xu"] - f[:, None] * r["u"]) / r["nsq"][:, None]
        ga, gb = _ab_grad(gu.reshape(-1, m, n), p["a"], p["b"])
        cand = state.propose({"a": ga, "b": gb})
        state.accept(cand, *evaluate(cand), np.less)
    return float(min(vals.min(), state.values.min()))


def brute_min_order(X: BipartiteOperator, k: int, cfg: OracleConfig | None = None):
    """Sampled lower bound on sup |<v|X|v>| over Schmidt-rank-<=k unit
    vectors (the order-norm objective; X need not be Hermitian)."""
    cfg = cfg or OracleConfig()
    _check_k(X, k)
    m, n = X.dims
    xm = X.mat
    rng = cfg.rng.generator()
    a, b, v = _rank_k_vectors(rng, cfg.samples, m, n, k)
    vals = np.abs(_pairings(v, xm, v))

    def evaluate(params):
        rec = _quad_value(xm, **params)
        rec["ux"] = rec["u"] @ xm.conj()  # X^dagger u, for the gradient
        return np.abs(rec["g"]) / rec["nsq"], rec

    pool = min(_POOL, cfg.samples)
    top = np.argsort(vals)[-pool:]
    params = {"a": a[top], "b": b[top]}
    state = _PolishState(params, *evaluate(params))
    for _ in range(cfg.polish_steps):
        p, r, f = state.params, state.record, state.values
        g, u, nsq = r["g"], r["u"], r["nsq"]
        safe = np.where(np.abs(g) > 0, np.abs(g), 1.0)
        # d|g|/d conj(u) = (conj(g) X u + g X^dagger u) / (2|g|)
        gu = (g.conj()[:, None] * r["xu"] + g[:, None] * r["ux"]) \
            / (2.0 * safe[:, None])
        gu = (gu - f[:, None] * u) / nsq[:, None]
        ga, gb = _ab_grad(gu.reshape(-1, m, n), p["a"], p["b"])
        cand = state.propose({"a": ga, "b": gb})
        state.accept(cand, *evaluate(cand), np.greater)
    return float(max(vals.max(), state.values.max()))


def _phase_fixed_qr(z: np.ndarray) -> np.ndarray:
    """Q factors of a stack of matrices, phases fixed so diag(R) > 0."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * d.conj()[:, None, :]


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
    frames = _phase_fixed_qr(_cgauss(rng, (count, n, k)))
    vals = np.linalg.svd(_frame_compressions(xt, frames, m), compute_uv=False)[:, 0]

    pool_n = min(32, count)
    order = np.argsort(vals)[-pool_n:]
    best_frames = frames[order]
    best_vals = vals[order]
    steps = np.full(pool_n, 0.2)
    for _ in range(cfg.polish_steps):
        tweak = _cgauss(rng, best_frames.shape)
        cand = _phase_fixed_qr(best_frames + steps[:, None, None] * tweak)
        cv = np.linalg.svd(_frame_compressions(xt, cand, m), compute_uv=False)[:, 0]
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
