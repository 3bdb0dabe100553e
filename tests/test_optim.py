import numpy as np
import pytest

from schmidt_norms import cones, maps, norms, optim
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
    eps = 1e-6
    for coef, u, w in terms:
        def f(vv):
            return float(np.real(coef * (u.conj() @ compress_tensor(t4, vv) @ w)))

        g = _frame_gradient(_gradient_layouts(t4), v, (coef, u, w))
        for _ in range(5):
            d = complex_gaussian(rng, (n, k))
            fd = (f(v + eps * d) - f(v - eps * d)) / (2 * eps)
            analytic = float(np.real(np.sum(g.conj() * d)))
            assert abs(fd - analytic) < 1e-6 * max(1.0, abs(fd))


def test_hermitian_single_vector_gradient_is_the_two_product_sum():
    # exactly Hermitian t4 and one vector object as u and w: one product,
    # scaled by 2 Re(coef), equals the general two-product sum
    rng = _rng(9)
    for m, n, k in ((2, 3, 1), (3, 3, 2), (4, 4, 3)):
        t4 = random_hermitian(m * n, rng).reshape(m, n, m, n)
        layouts = _gradient_layouts(t4)
        assert layouts[2] is True
        general = layouts[:2] + (False,)
        v = random_isometry(n, k, rng)
        for coef in (1.0 + 0.0j, -1.0 + 0.0j, complex_gaussian(rng, ())):
            u = complex_gaussian(rng, (k * m,))
            term = (coef, u, u)
            g = _frame_gradient(layouts, v, term)
            assert np.max(np.abs(g - _frame_gradient(general, v, term))) < 1e-14
            assert np.max(np.abs(g - _frame_gradient(layouts, v, (coef, u, u.copy())))) < 1e-14
    assert _gradient_layouts(complex_gaussian(rng, (2, 3, 2, 3)))[2] is False


def test_frame_gradient_non_hermitian_unit_coefficient_matches_fd():
    # a non-Hermitian t4 with one vector object and coefficient exactly
    # 1+0j (the numerical-radius objective at theta = 0) keeps both products
    rng = _rng(10)
    m, n, k = 2, 3, 2
    t4 = complex_gaussian(rng, (m, n, m, n))
    v = random_isometry(n, k, rng)
    u = complex_gaussian(rng, (k * m,))
    coef = 1.0 + 0.0j

    def f(vv):
        return float(np.real(coef * (u.conj() @ compress_tensor(t4, vv) @ u)))

    g = _frame_gradient(_gradient_layouts(t4), v, (coef, u, u))
    eps = 1e-6
    for _ in range(5):
        d = complex_gaussian(rng, (n, k))
        fd = (f(v + eps * d) - f(v - eps * d)) / (2 * eps)
        analytic = float(np.real(np.sum(g.conj() * d)))
        assert abs(fd - analytic) < 1e-6 * max(1.0, abs(fd))


def test_frame_objective_value_is_its_term_form():
    # each objective's value is Re(coef u^dagger C w) of the term it returns,
    # so the ascent climbs the value the gradient term differentiates; the
    # eigh-based objectives take Hermitian compressions only
    rng = _rng(11)
    general = (norms._opnorm_objective, norms._numrad_objective)
    hermitian = general + (norms._hermitian_objective, cones._neg_mineig_objective)
    for d in (1, 2, 4, 6):
        for shift in (-3.0, 0.0, 3.0):
            h = random_hermitian(d, rng) + shift * np.eye(d)
            c = complex_gaussian(rng, (d, d))
            for objective, mat in ([(f, h) for f in hermitian]
                                   + [(f, c) for f in general]):
                val, (coef, u, w) = objective(mat)
                assert abs(val - np.real(coef * (u.conj() @ mat @ w))) < 1e-12


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
        return float(vals[-1]), (1.0, top, top)

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


def test_run_restarts_ties_go_to_the_first_restart():
    cfg = SeeSawConfig(restarts=5, rng=RandomConfig(seed=7))
    best, outs = run_restarts(
        lambda idx, rng: RestartOutcome(1.5, idx, [1.5], True), cfg)
    assert best.payload == 0 and best is outs[0]


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


def test_projected_step_screen_rejects_without_evaluating():
    # a trial the screen puts at or below the value is halved away with no
    # evaluation; the first one it passes is evaluated and accepted
    evaluated, screened = [], []

    def evaluate(x):
        evaluated.append(x[0])
        return float(x[0] - x[0] ** 2), None

    def screen(x, data):  # a lower bound on the value
        screened.append(x[0])
        return float(x[0] - x[0] ** 2) - 0.05

    step = projected_step(evaluate, lambda x, data: np.ones(1), lambda x: x,
                          2.0, 1e-14, screen)
    new, (x, _) = step(0.0, (np.zeros(1), None))
    assert screened == [2.0, 1.0, 0.5] and evaluated == [0.5]
    assert new == 0.25 and x[0] == 0.5
    # the screen passes a trial that evaluate still refuses: no step
    step = projected_step(lambda x: (-1.0, None), lambda x, data: np.ones(1),
                          lambda x: x, 1.0, 1e-14, lambda x, data: 1.0)
    assert step(0.0, (np.zeros(1), None)) is None


def _quadratic_search(a, b, eta):
    """projected_step on f(x) = b.x - x.A x / 2 with the identity retraction,
    and the (step start, trial point) pairs it evaluates."""
    trials, start = [], [None]

    def evaluate(x):
        trials.append((start[0], x))
        return float(b @ x - x @ a @ x / 2.0), None

    def direction(x, data):
        start[0] = x
        return b - a @ x

    return projected_step(evaluate, direction, lambda x: x, eta, 1e-14), trials


def test_projected_step_first_trial_is_the_bb_length():
    # on a concave quadratic the gradient is b - A x, so y = g - g_prev =
    # -A s, and the second step first tries the long Barzilai-Borwein length
    # |g| <s,s> / |<s,y>| along the unit gradient
    a, b = np.diag([2.0, 5.0]), np.array([1.0, 1.0])
    step, trials = _quadratic_search(a, b, 0.25)
    x0 = np.zeros(2)
    value, (x1, _) = step(0.0, (x0, None))
    assert np.allclose(x1, 0.25 * b / np.linalg.norm(b), atol=1e-15, rtol=0)
    step(value, (x1, None))
    g0, g1 = b - a @ x0, b - a @ x1
    s = x1 - x0
    t = np.linalg.norm(g1) * (s @ s) / abs(s @ (g1 - g0))
    assert 0.1 < t < 0.25  # neither the first step nor the cap
    assert trials[1][0] is x1
    assert np.allclose(trials[1][1], x1 + t * g1 / np.linalg.norm(g1),
                       atol=1e-15, rtol=0)
    # a linear objective has y = 0: every step first tries the caller's eta
    step, trials = _quadratic_search(np.zeros((2, 2)), b, 0.25)
    ascend(0.0, (x0, None), step, SeeSawConfig(max_iters=4))
    lengths = [np.linalg.norm(x - x_start) for x_start, x in trials]
    assert np.allclose(lengths, [0.25] * 4, atol=1e-15, rtol=0)


def test_projected_step_trial_lengths_are_capped_at_one():
    # under low curvature the BB length, about |g| / lambda, runs far above
    # 1; the cap keeps every trial at t <= 1, the premise of _retract
    a, b = np.diag([0.02, 0.05]), np.array([1.0, 1.0])
    step, trials = _quadratic_search(a, b, 0.25)
    out = ascend(0.0, (np.zeros(2), None), step, SeeSawConfig(max_iters=30))
    assert np.all(np.diff(out.history) > 0) and len(out.history) == 31
    lengths = np.array([np.linalg.norm(x - x_start) for x_start, x in trials])
    assert lengths.max() <= 1.0 + 1e-12  # rounding in x - x_start
    assert np.sum(np.abs(lengths - 1.0) < 1e-12) >= 20


def test_bb_steps_cut_trial_frames_per_step(monkeypatch):
    """Counted, not timed: the trial frames a k_block_positivity search
    compresses per step (start frames and accepted steps), on one fixed
    search at (3,3), k = 2, 5 restarts.  Measured on this search: 1.175
    with the Barzilai-Borwein first trial, 2.139 with the rule it replaced
    (first trial 1.5 times the last accepted step, capped at 1)."""
    calls = [0]
    compress = optim.compress_tensor

    def counted(t4, v):
        calls[0] += 1
        return compress(t4, v)

    monkeypatch.setattr(optim, "compress_tensor", counted)
    op = BipartiteOperator((3, 3), random_hermitian(9, _rng(0)))
    cfg = SeeSawConfig(restarts=5, max_iters=100, rng=RandomConfig(seed=100))
    verdict = cones.k_block_positivity(op, 2, cfg)
    assert calls[0] / (verdict.restarts_used + verdict.iterations) < 1.5


def test_ascend_stops_converged_on_small_gain():
    # a minimum searched as the ascent of negated values, as in
    # k_block_positivity
    cfg = SeeSawConfig(max_iters=10, obj_tol=1e-9)
    values = iter([-5.0, -(5.0 - 1e-12), -1.0])

    def step(value, state):
        return next(values), state + 1

    out = ascend(-10.0, 0, step, cfg)
    assert out.converged is True
    assert out.history == [-10.0, -5.0, -(5.0 - 1e-12)]
    assert out.value == -(5.0 - 1e-12) and out.payload == 2
    # a gain equal to obj_tol is not below it: the budget runs out instead
    out = ascend(-10.0, 0, lambda value, state: (value + 2.0, state),
                 SeeSawConfig(max_iters=3, obj_tol=2.0))
    assert out.history == [-10.0, -8.0, -6.0, -4.0] and out.converged is False


def test_ascend_zero_budget_is_unconverged():
    out = ascend(3.0, None, lambda value, state: (value + 1, state),
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
