import hashlib

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
    ascend_rows,
    compress_tensor,
    frame_ascent,
    lift_from_frame,
    run_restarts,
    sphere_ascent,
)
from schmidt_norms.rand import (
    RandomConfig,
    _qr_phase_fixed,
    complex_gaussian,
    random_hermitian,
    random_isometry,
    random_unit_vector,
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
    # non-integer budgets fail here, not later inside numpy
    for field, bad in (("restarts", 2.0), ("restarts", True), ("max_iters", 10.0),
                       ("max_iters", np.float64(3)), ("max_iters", False)):
        with pytest.raises(ValueError, match=field):
            SeeSawConfig(**{field: bad})
    SeeSawConfig(restarts=1, max_iters=0, obj_tol=0.0)  # smallest valid budget
    SeeSawConfig(restarts=np.int64(2), max_iters=np.int32(5))


def _scripted_rows(script):
    """An ascend_rows step that plays script[r][i] as row r's i-th new value,
    None for no move; the state rows are (restart index, steps taken), so a
    row stepped after it stopped runs off its script."""
    def step(value, state):
        idx, taken = state
        vals = [script[r][i] for r, i in zip(idx.tolist(), taken.tolist())]
        moved = np.array([v is not None for v in vals])
        new = np.array([np.nan if v is None else v for v in vals])
        return new, (idx, taken + 1), moved
    return step


def _run_rows(start, script, cfg):
    rows = len(start)
    return ascend_rows(np.array(start), (np.arange(rows), np.zeros(rows, dtype=int)),
                       _scripted_rows(script), cfg)


_X3 = random_hermitian(3, _rng(17))
_ONE = np.ones(1, dtype=complex)


def _rayleigh(c):
    """Re<v|X|v> at m = k = 1, whose ascent direction at the unit vector v is
    the tangent 2 (X v - v <v|X|v>)."""
    return float(c[0, 0].real), (1.0 + 0.0j, _ONE, _ONE)


def _scripted(values):
    """An objective that plays ``values`` in order, one per solved frame,
    each with a new term of _rayleigh's; returns it and its terms."""
    values, terms = iter(values), []

    def objective(c, warm=None):
        terms.append((1.0 + 0.0j, _ONE, _ONE))
        return next(values), terms[-1]

    return objective, terms


def _recorded_frame_ascent(monkeypatch, objective, cfg, screen=None, frozen=False):
    """frame_ascent on X = _X3 at m = k = 1, where frames are unit vectors of
    C^3; ``frozen`` retracts every trial to its step's start.  Returns the
    outcome, the step starts and every trial as (step start, V + t G/|G|),
    the latter read off the retraction."""
    starts, trials = [], []
    gradient, retract = optim._frame_gradient, optim._retract

    def recorded_gradient(layouts, v, term):
        starts.append(v)
        return gradient(layouts, v, term)

    def recorded_retract(a):
        trials.append((starts[-1], a))
        return starts[-1].copy() if frozen else retract(a)

    monkeypatch.setattr(optim, "_frame_gradient", recorded_gradient)
    monkeypatch.setattr(optim, "_retract", recorded_retract)
    out = frame_ascent(_X3.reshape(1, 3, 1, 3), 1, _rng(14), objective, cfg, screen)
    return out, starts, trials


def _lengths(trials):
    return np.array([np.linalg.norm(a - v) for v, a in trials])


def test_ascend_stops_converged_when_no_move(monkeypatch):
    cfg = SeeSawConfig(max_iters=10)
    # every trial falls: one line search of 6 trials, no step
    objective, terms = _scripted([2.0] + [1.0] * 6)
    out, starts, trials = _recorded_frame_ascent(monkeypatch, objective, cfg)
    assert out.converged is True
    assert out.history == [2.0] and out.value == 2.0
    assert out.payload[0] is starts[0] and out.payload[1] is terms[0]
    assert len(trials) == 6
    # stacked: each row stops at its own first non-move, and a tie between
    # rows 0 and 2 goes to row 0
    best, outs = _run_rows([0.0, 3.0, 4.0], [[1.0, 5.0, None], [None], [5.0, None]], cfg)
    assert [o.history for o in outs] == [[0.0, 1.0, 5.0], [3.0], [4.0, 5.0]]
    assert all(o.converged for o in outs)
    assert [int(o.payload[1]) for o in outs] == [2, 0, 1]
    assert best is outs[0] and best.value == 5.0
    # a tangent shorter than the frame ascent's grad_tol is "no move" too:
    # a zero coefficient makes it exactly 0, and no trial frame is made
    out, starts, trials = _recorded_frame_ascent(
        monkeypatch, lambda c: (1.0, (0.0j, _ONE, _ONE)), cfg)
    assert out.converged is True and out.history == [1.0] and trials == []


def test_frame_ascent_screen_rejects_without_evaluating(monkeypatch):
    # a trial that the screen puts at or below the value (0) is halved away
    # with no evaluation; the first trial that passes the screen and has a
    # higher value is accepted
    screened = []

    def screen_by(bounds):
        def screen(c, term):
            screened.append(c)
            return bounds[min(len(screened), len(bounds)) - 1], None
        return screen

    cfg = SeeSawConfig(max_iters=1)
    objective, terms = _scripted([0.0, 0.25])
    out, starts, trials = _recorded_frame_ascent(
        monkeypatch, objective, cfg, screen_by([-1.0, 0.0, 1.0]))
    assert len(screened) == 3 and len(terms) == 2
    assert np.allclose(_lengths(trials), [0.25, 0.125, 0.0625], atol=1e-15, rtol=0)
    assert out.history == [0.0, 0.25] and out.payload[1] is terms[1]
    # a screen that always rejects: 6 halvings from 0.25, no step
    screened.clear()
    objective, terms = _scripted([0.0])
    out, starts, trials = _recorded_frame_ascent(monkeypatch, objective, cfg,
                                                 screen_by([0.0]))
    assert len(screened) == 6 and len(terms) == 1 and out.history == [0.0]
    assert np.allclose(_lengths(trials), 0.25 / 2.0 ** np.arange(6), atol=1e-15, rtol=0)
    # a trial that passes the screen but whose value does not rise: no step
    objective, terms = _scripted([0.0] + [-1.0] * 6)
    out, starts, trials = _recorded_frame_ascent(monkeypatch, objective, cfg,
                                                 screen_by([np.inf]))
    assert len(terms) == 7 and out.history == [0.0] and out.converged


def test_frame_ascent_compresses_each_trial_frame_once(monkeypatch):
    # a screen that puts every trial at or below the value: one restart
    # solves the objective once (its start), screens the 6 trials of its one
    # line search, compresses 7 frames (start and trials) and logs no step
    counts = {"objective": 0, "screen": 0, "compress": 0}
    compress = optim.compress_tensor

    def counted_compress(t4, v):
        counts["compress"] += 1
        return compress(t4, v)

    def objective(c):
        counts["objective"] += 1
        vals, vecs = np.linalg.eigh(c)
        return float(vals[-1]), (1.0 + 0.0j, vecs[:, -1], vecs[:, -1])

    def screen(c, term):
        counts["screen"] += 1
        return -np.inf, None

    monkeypatch.setattr(optim, "compress_tensor", counted_compress)
    t4 = random_hermitian(9, _rng(3)).reshape(3, 3, 3, 3)
    out = frame_ascent(t4, 2, _rng(4), objective, SeeSawConfig(max_iters=10),
                       screen)
    assert counts == {"objective": 1, "screen": 6, "compress": 7}
    assert len(out.history) == 1 and out.converged


def test_frame_ascent_first_trial_is_the_bb_length(monkeypatch):
    # with g = 2 (X v - v <v|X|v>) the tangent of Re<v|X|v>, a restart's
    # first step first tries 0.25 along the unit tangent, and its second
    # step the long Barzilai-Borwein length |g| <s,s> / |Re<s,y>|
    out, starts, trials = _recorded_frame_ascent(monkeypatch, _rayleigh,
                                                 SeeSawConfig(max_iters=2))
    v0, v1 = starts
    g0, g1 = (2.0 * (_X3 @ v - v * (v.conj().T @ _X3 @ v).real) for v in starts)
    assert trials[0][0] is v0 and trials[1][0] is v1
    assert np.allclose(trials[0][1], v0 + 0.25 * g0 / np.linalg.norm(g0),
                       atol=1e-15, rtol=0)
    s, y = v1 - v0, g1 - g0
    t = np.linalg.norm(g1) * np.vdot(s, s).real / abs(np.vdot(s, y).real)
    assert 0.1 < t < 0.25  # neither the first step nor the cap
    assert np.allclose(trials[1][1], v1 + t * g1 / np.linalg.norm(g1),
                       atol=1e-15, rtol=0)
    # frames retracted back to the step's start have s = 0, so Re<s,y> = 0:
    # every step first tries 0.25
    objective, terms = _scripted([0.0, 1.0, 2.0, 3.0, 4.0])
    out, starts, trials = _recorded_frame_ascent(
        monkeypatch, objective, SeeSawConfig(max_iters=4), frozen=True)
    assert out.history == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert np.allclose(_lengths(trials), [0.25] * 4, atol=1e-15, rtol=0)


def test_frame_ascent_trial_lengths_are_capped_at_one(monkeypatch):
    # along the rotation field v -> A v, A anti-Hermitian, the tangent
    # changes by y = A s with Re<s, A s> = 0 up to rounding, so the BB length
    # runs far above 1; the cap keeps every trial at t <= 1, the premise of
    # _retract
    a = 1j * _X3
    monkeypatch.setattr(optim, "_frame_gradient", lambda layouts, v, term: a @ v)
    objective, terms = _scripted(np.arange(31.0).tolist())
    out, starts, trials = _recorded_frame_ascent(monkeypatch, objective,
                                                 SeeSawConfig(max_iters=30))
    assert np.all(np.diff(out.history) > 0) and len(out.history) == 31
    lengths = _lengths(trials)
    assert lengths.max() <= 1.0 + 1e-12  # rounding in V + t G/|G| - V
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
    assert calls[0] / (verdict.search.restarts_used + verdict.search.iterations) < 1.5


def test_ascend_stops_converged_on_small_gain(monkeypatch):
    # a minimum searched as the ascent of negated values, as in
    # k_block_positivity
    cfg = SeeSawConfig(max_iters=10, obj_tol=1e-9)
    objective, terms = _scripted([-10.0, -5.0, -(5.0 - 1e-12), -1.0])
    out, starts, trials = _recorded_frame_ascent(monkeypatch, objective, cfg)
    assert out.converged is True
    assert out.history == [-10.0, -5.0, -(5.0 - 1e-12)]
    assert out.value == -(5.0 - 1e-12) and out.payload[1] is terms[2]
    # a gain equal to obj_tol is not below it: the budget runs out instead
    objective, terms = _scripted([-10.0, -8.0, -6.0, -4.0, -2.0])
    out, starts, trials = _recorded_frame_ascent(
        monkeypatch, objective, SeeSawConfig(max_iters=3, obj_tol=2.0))
    assert out.history == [-10.0, -8.0, -6.0, -4.0] and out.converged is False
    # stacked: row 1 stops on a small gain at step 2, row 2 on a fall at
    # step 1 (a step's value is taken even when lower), row 0 at the budget
    best, outs = _run_rows([-10.0, -10.0, -3.0],
                           [[-8.0, -6.0, -4.0], [-8.0, -7.0], [-3.5]],
                           SeeSawConfig(max_iters=3, obj_tol=2.0))
    assert [o.history for o in outs] == [[-10.0, -8.0, -6.0, -4.0],
                                         [-10.0, -8.0, -7.0], [-3.0, -3.5]]
    assert [o.converged for o in outs] == [False, True, True]
    assert best is outs[2] and best.value == -3.5


def test_ascend_zero_budget_is_unconverged(monkeypatch):
    objective, terms = _scripted([3.0, 4.0])
    out, starts, trials = _recorded_frame_ascent(monkeypatch, objective,
                                                 SeeSawConfig(max_iters=0))
    assert out.history == [3.0] and trials == []
    assert out.converged is False
    best, outs = _run_rows([3.0, 1.0, 3.0], [[], [], []], SeeSawConfig(max_iters=0))
    assert [o.history for o in outs] == [[3.0], [1.0], [3.0]]
    assert not any(o.converged for o in outs) and best is outs[0]


def _sphere_row(evaluate_one, direction_one, x, cfg):
    """The reference for one row of the sphere ascent: the documented line
    search and stop rule, one restart at a time.  Returns (point, history,
    converged)."""
    value, data = evaluate_one(x)
    history, prev = [value], None
    for _ in range(cfg.max_iters):
        g = direction_one(x, data)
        gnorm = np.sqrt(np.vdot(g, g).real)
        if gnorm < 1e-14:
            return x, history, True
        t = 0.5  # the first step's length, and where Re<s,y> = 0
        if prev is not None:
            s, y = x - prev[0], g - prev[1]
            sy = abs(np.vdot(s, y).real)
            if sy > 0.0:
                t = min(1.0, gnorm * np.vdot(s, s).real / sy)
        prev = x, g
        for _ in range(6):  # the first trial and 5 halvings
            trial = x + t * g / gnorm
            trial = trial / np.linalg.norm(trial)
            new, new_data = evaluate_one(trial)
            if new > value:
                break
            t /= 2.0
        else:
            return x, history, True
        history.append(new)
        gain, value, x, data = new - value, new, trial, new_data
        if gain < cfg.obj_tol:
            return x, history, True
    return x, history, False


def test_sphere_ascent_rows_follow_the_serial_line_search():
    # reference: each row alone through the plain loop of _sphere_row;
    # f(u) = Re<u|A u> + |<b|u>|^2 on the unit sphere of C^5
    rng = _rng(12)
    a, b = random_hermitian(5, rng), complex_gaussian(rng, 5)

    def evaluate(u):  # stacked rows
        au, bu = u @ a.T, u @ b.conj()
        return np.einsum("ij,ij->i", u.conj(), au).real + np.abs(bu) ** 2, (au, bu)

    def direction(u, data):
        au, bu = data
        g = 2.0 * au + 2.0 * bu[:, None] * b
        return g - u * np.einsum("ij,ij->i", u.conj(), g)[:, None]

    def evaluate_one(u):
        val, (au, bu) = evaluate(u[None])
        return float(val[0]), (au[0], bu[0])

    def direction_one(u, data):
        return direction(u[None], tuple(d[None] for d in data))[0]

    starts = np.array([random_unit_vector(5, rng) for _ in range(4)])
    cfg = SeeSawConfig(max_iters=60, obj_tol=1e-12)
    best, outs = sphere_ascent(evaluate, direction, starts, cfg)
    for x, out in zip(starts, outs):
        ref_x, ref_history, ref_converged = _sphere_row(evaluate_one, direction_one,
                                                        x, cfg)
        assert len(out.history) == len(ref_history) > 3
        assert np.allclose(out.history, ref_history, atol=1e-12, rtol=0)
        assert out.converged == ref_converged
        assert np.allclose(out.payload[0], ref_x, atol=1e-10, rtol=0)
    assert best is max(outs, key=lambda o: o.value)


def test_searched_estimates_report_one_log_per_restart():
    rng = RandomConfig(seed=40).generator()
    op = BipartiteOperator((3, 3), complex_gaussian(rng, (9, 9)))
    phi = maps.MapRepr.from_choi(BipartiteOperator((2, 3), random_hermitian(6, rng)))
    cfg = SeeSawConfig(restarts=3, max_iters=25, rng=RandomConfig(seed=41))
    herm = BipartiteOperator((3, 3), random_hermitian(9, rng))
    results = [norms.sk_norm(op, 2, cfg), norms.omin_norm(op, 1, cfg),
               norms.min_order_norm(op, 2, cfg), maps.idk_op_norm(phi, 2, cfg),
               maps.hermitian_trace_norm(phi, 2, cfg),
               cones.k_block_positivity(herm, 2, cfg)]
    for result in results:
        record = result.search
        assert record.restarts_used == len(record.history) == cfg.restarts
        assert record.iterations == sum(len(h) - 1 for h in record.history)


def test_block_positivity_verdict_reports_whether_its_search_converged():
    op = BipartiteOperator((3, 3), random_hermitian(9, _rng(0)))
    for max_iters, converged in ((1, False), (200, True)):
        cfg = SeeSawConfig(restarts=2, max_iters=max_iters, rng=RandomConfig(seed=100))
        verdict = cones.k_block_positivity(op, 2, cfg)
        assert verdict.search.converged is converged
        assert verdict.search.restarts_used == 2


def _history_digest(history):
    return hashlib.sha256(np.concatenate(
        [np.asarray(h, dtype=float) for h in history]).tobytes()).hexdigest()[:16]


def test_frame_searches_keep_the_values():
    # exact values, log lengths and a digest of every logged value, recorded
    # before the frame ascent's stop rule and line search became one loop:
    # k_block_positivity, the non-Hermitian min_order_norm through the 2 x 2
    # closed-form screen (m k = 2) and through the eigh screen and warm start
    # (m k = 6), and omin_norm
    cfg = SeeSawConfig(restarts=3, max_iters=40, rng=RandomConfig(seed=50))
    searches = [
        (cones.k_block_positivity(
            BipartiteOperator((3, 3), random_hermitian(9, _rng(51))), 2, cfg),
         "min_value", -4.9524277773852745, [27, 24, 25], "d6a4805d90fd83b3"),
        (norms.min_order_norm(
            BipartiteOperator((2, 3), complex_gaussian(_rng(52), (6, 6))), 1, cfg),
         "value", 3.7440251509600397, [12, 12, 26], "d6377aa722a74465"),
        (norms.min_order_norm(
            BipartiteOperator((3, 3), complex_gaussian(_rng(53), (9, 9))), 2, cfg),
         "value", 6.032398210683538, [11, 10, 11], "74b05db10cbca03e"),
        (norms.omin_norm(
            BipartiteOperator((3, 3), complex_gaussian(_rng(54), (9, 9))), 1, cfg),
         "value", 5.280704580325731, [12, 12, 12], "726e31b7cdff3908"),
    ]
    for result, attr, value, lengths, digest in searches:
        assert getattr(result, attr) == value
        assert [len(h) for h in result.search.history] == lengths
        assert _history_digest(result.search.history) == digest
        assert result.search.converged
