import numpy as np
import pytest

from schmidt_norms import maps, norms
from schmidt_norms.linalg import BipartiteOperator
from schmidt_norms.optim import (
    RestartOutcome,
    SeeSawConfig,
    _frame_gradient,
    _gradient_layouts,
    _retract,
    ascend,
    compress_tensor,
    frame_ascent,
    lift_from_frame,
    projected_step,
    run_restarts,
)
from schmidt_norms.rand import (
    RandomConfig,
    _qr_phase_fixed,
    complex_gaussian,
    random_hermitian,
    random_isometry,
)


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

    g = _frame_gradient(_gradient_layouts(t4), v, terms)
    eps = 1e-6
    for _ in range(5):
        d = complex_gaussian(rng, (n, k))
        fd = (f(v + eps * d) - f(v - eps * d)) / (2 * eps)
        analytic = float(np.real(np.sum(g.conj() * d)))
        assert abs(fd - analytic) < 1e-6 * max(1.0, abs(fd))


def test_retract_is_the_phase_fixed_qr_factor():
    # a trial step V + tG of the frame ascent: V orthonormal, G a unit tangent
    rng = _rng(8)
    for n, k in ((3, 1), (3, 2), (4, 2), (4, 3), (6, 3)):
        v = random_isometry(n, k, rng)
        g = complex_gaussian(rng, (n, k))
        a = v.conj().T @ g
        g = g - v @ ((a + a.conj().T) / 2.0)
        g = g / np.linalg.norm(g)
        for t in (0.25, 1.0):
            q = _retract(v + t * g)
            assert np.max(np.abs(q - _qr_phase_fixed(v + t * g))) < 1e-14
            assert np.max(np.abs(q.conj().T @ q - np.eye(k))) < 1e-14


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


def test_ascend_stops_converged_when_no_move():
    cfg = SeeSawConfig(max_iters=10)
    out = ascend(2.0, "start", lambda value, state: None, cfg)
    assert out.converged is True
    assert out.history == [2.0] and out.value == 2.0 and out.payload == "start"
    # a direction shorter than grad_tol is "no move" too
    step = projected_step(lambda x: (float(x @ x), None),
                          lambda x, data: np.zeros_like(x), lambda x: x,
                          0.5, 1e-14)
    assert step(1.0, (np.ones(2), None)) is None


def test_ascend_stops_converged_on_small_descent_gain():
    cfg = SeeSawConfig(max_iters=10, obj_tol=1e-9)
    values = iter([5.0, 5.0 - 1e-12, 1.0])

    def step(value, state):
        new = next(values)
        return [new], new, state + 1

    out = ascend(10.0, 0, step, cfg, sign=-1.0)
    assert out.converged is True
    assert out.history == [10.0, 5.0, 5.0 - 1e-12]
    assert out.value == 5.0 - 1e-12 and out.payload == 2
    # a gain equal to obj_tol is not below it: the budget runs out instead
    out = ascend(10.0, 0, lambda value, state: ([value - 2.0], value - 2.0, state),
                 SeeSawConfig(max_iters=3, obj_tol=2.0), sign=-1.0)
    assert out.history == [10.0, 8.0, 6.0, 4.0] and out.converged is False


def test_ascend_zero_budget_is_unconverged():
    out = ascend(3.0, None, lambda value, state: ([value + 1], value + 1, state),
                 SeeSawConfig(max_iters=0))
    assert out.history == [3.0]
    assert out.converged is False


def test_searched_estimates_report_one_log_per_restart():
    rng = RandomConfig(seed=40).generator()
    op = BipartiteOperator((3, 3), complex_gaussian(rng, (9, 9)))
    phi = maps.MapRepr.from_choi(BipartiteOperator((2, 3), random_hermitian(6, rng)))
    cfg = SeeSawConfig(restarts=3, max_iters=25, rng=RandomConfig(seed=41))
    estimates = [norms.sk_norm(op, 2, cfg), norms.omin_norm(op, 1, cfg),
                 norms.min_order_norm(op, 2, cfg), maps.idk_op_norm(phi, 2, cfg),
                 maps.hermitian_trace_norm(phi, 2, cfg)]
    for est in estimates:
        assert est.restarts_used == len(est.history) == cfg.restarts
        assert est.iterations == sum(len(h) - 1 for h in est.history)
