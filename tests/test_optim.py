import numpy as np
import pytest

from schmidt_norms.optim import (
    SeeSawConfig,
    _frame_gradient,
    compress_tensor,
    frame_ascent,
    lift_from_frame,
    run_restarts,
)
from schmidt_norms.rand import RandomConfig, complex_gaussian, random_isometry


def _rng(seed):
    return RandomConfig(seed=seed).generator()


def test_compress_tensor_identity_frame():
    rng = _rng(0)
    m, n = 2, 3
    t4 = complex_gaussian(rng, (m, n, m, n))
    c = compress_tensor(t4, np.eye(n))
    # full frame: compression is a permutation of the original matrix
    full = t4.transpose(1, 0, 3, 2).reshape(n * m, n * m)
    assert np.max(np.abs(c - full)) < 1e-12


def test_compress_tensor_entries():
    rng = _rng(1)
    m, n, k = 2, 4, 2
    t4 = complex_gaussian(rng, (m, n, m, n))
    v = random_isometry(n, k, rng)
    c = compress_tensor(t4, v)
    for r in range(k):
        for s in range(k):
            for i in range(m):
                for j in range(m):
                    want = np.einsum("a,ab,b->", v[:, r].conj(), t4[i, :, j, :], v[:, s])
                    assert abs(c[r * m + i, s * m + j] - want) < 1e-12


def test_lift_from_frame_preserves_pairing():
    rng = _rng(2)
    m, n, k = 3, 3, 2
    t4 = complex_gaussian(rng, (m, n, m, n))
    v = random_isometry(n, k, rng)
    c = compress_tensor(t4, v)
    u = complex_gaussian(rng, (k * m,))
    w = complex_gaussian(rng, (k * m,))
    lu = lift_from_frame(u, v, m)
    lw = lift_from_frame(w, v, m)
    x = t4.reshape(m * n, m * n)
    assert abs((u.conj() @ c @ w) - (lu.conj() @ x @ lw)) < 1e-12
    assert abs(np.linalg.norm(lu) - np.linalg.norm(u)) < 1e-12


def test_frame_gradient_matches_finite_differences():
    rng = _rng(3)
    m, n, k = 2, 3, 2
    t4 = complex_gaussian(rng, (m, n, m, n))
    v = random_isometry(n, k, rng)
    terms = [(complex_gaussian(rng, ()), complex_gaussian(rng, (k * m,)),
              complex_gaussian(rng, (k * m,))) for _ in range(3)]

    def f(vv):
        c = compress_tensor(t4, vv)
        return sum(float(np.real(coef * (u.conj() @ c @ w)))
                   for coef, u, w in terms)

    g = _frame_gradient(t4, v, terms)
    eps = 1e-6
    for _ in range(5):
        d = complex_gaussian(rng, (n, k))
        fd = (f(v + eps * d) - f(v - eps * d)) / (2 * eps)
        analytic = float(np.real(np.sum(g.conj() * d)))
        assert abs(fd - analytic) < 1e-6 * max(1.0, abs(fd))


def test_frame_ascent_history_monotone():
    rng = _rng(4)
    m, n = 2, 3
    a = complex_gaussian(rng, (m * n, m * n))
    h = (a + a.conj().T) / 2
    t4 = h.reshape(m, n, m, n)

    def objective(c):
        vals, vecs = np.linalg.eigh((c + c.conj().T) / 2)
        top = vecs[:, -1]
        return float(vals[-1]), [(1.0, top, top)]

    cfg = SeeSawConfig(max_iters=100, rng=RandomConfig(seed=5))
    out = frame_ascent(t4, 2, rng, objective, cfg)
    hist = np.asarray(out.history)
    assert np.all(np.diff(hist) >= 0)
    # full-dimension eigenvalue is an upper bound for any compression
    assert out.value <= np.linalg.eigvalsh(h)[-1] + 1e-9


def _value_worker(idx, rng):
    from schmidt_norms.optim import RestartOutcome
    val = float(rng.random())
    return RestartOutcome(value=val, payload=idx, history=[val], converged=True)


def test_run_restarts_deterministic_and_best():
    cfg = SeeSawConfig(restarts=8, rng=RandomConfig(seed=6))
    best1, outs1 = run_restarts(_value_worker, cfg)
    best2, outs2 = run_restarts(_value_worker, cfg)
    assert best1.value == best2.value
    assert best1.value == max(o.value for o in outs1)
    assert [o.value for o in outs1] == [o.value for o in outs2]


def test_run_restarts_minimize():
    cfg = SeeSawConfig(restarts=8, rng=RandomConfig(seed=7))
    best, outs = run_restarts(_value_worker, cfg, minimize=True)
    assert best.value == min(o.value for o in outs)


def test_seesaw_config_rejects_bad_budget():
    for bad in (dict(restarts=0), dict(restarts=-2), dict(max_iters=-5),
                dict(obj_tol=float("nan")), dict(obj_tol=float("inf")),
                dict(obj_tol=-1e-9)):
        with pytest.raises(ValueError):
            SeeSawConfig(**bad)
    SeeSawConfig(restarts=1, max_iters=0, obj_tol=0.0)  # smallest valid budget
