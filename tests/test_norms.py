import numpy as np
import pytest

from schmidt_norms import fixtures, maps, norms, optim
from schmidt_norms.cones import k_block_positivity
from schmidt_norms.linalg import (
    BipartiteOperator,
    Frame,
    _numerical_radius_attain,
    min_eig_hermitian,
    operator_norm,
    tensor,
)
from schmidt_norms.norms import (
    SeeSawConfig,
    _hermitian_objective,
    _numrad_objective,
    _numrad_screen,
    block_positive_decomposition,
    compress,
    dec_norm_value,
    max_order_norm_upper,
    maxk_space_norm_bounds,
    min_order_norm,
    omin_norm,
    sk_norm,
)
from schmidt_norms.optim import SearchRecord
from schmidt_norms.oracle import OracleConfig, brute_block_min, brute_min_order
from schmidt_norms.rand import (
    RandomConfig,
    complex_gaussian,
    random_isometry,
    random_unitary,
)


def _cfg(seed, restarts=8, max_iters=120):
    return SeeSawConfig(restarts=restarts, max_iters=max_iters,
                        rng=RandomConfig(seed=seed))


def _random_op(dims, rng):
    d = dims[0] * dims[1]
    return BipartiteOperator(dims=dims, mat=complex_gaussian(rng, (d, d)))


def test_sk_of_entangled_projector():
    # rank-one projector onto the n-dim maximally entangled vector: value k/n
    n = 3
    phi = fixtures.maximally_entangled(n)
    proj = BipartiteOperator(dims=(n, n), mat=np.outer(phi.amplitudes,
                                                       phi.amplitudes.conj()))
    for k in (1, 2, 3):
        est = sk_norm(proj, k, _cfg(0))
        assert est.value == pytest.approx(k / n, abs=1e-6)


def test_sk_full_k_is_operator_norm():
    rng = RandomConfig(seed=1).generator()
    for _ in range(10):
        op = _random_op((2, 3), rng)
        est = sk_norm(op, 2, _cfg(2, restarts=1))
        assert est.direction == "exact"
        assert est.search == SearchRecord()
        assert est.value == pytest.approx(operator_norm(op.mat), abs=1e-10)


def test_sk_monotone_in_k_and_ceiling():
    rng = RandomConfig(seed=3).generator()
    for _ in range(5):
        op = _random_op((3, 3), rng)
        vals = [sk_norm(op, k, _cfg(4)).value for k in (1, 2, 3)]
        assert vals[0] <= vals[1] + 1e-8
        assert vals[1] <= vals[2] + 1e-8
        ceiling = operator_norm(op.mat)
        for v in vals:
            assert v <= ceiling + 1e-10


def test_sk_local_unitary_invariance():
    rng = RandomConfig(seed=5).generator()
    op = _random_op((2, 3), rng)
    base = sk_norm(op, 1, _cfg(6, restarts=12)).value
    for _ in range(3):
        u1, u2 = random_unitary(2, rng), random_unitary(3, rng)
        v1, v2 = random_unitary(2, rng), random_unitary(3, rng)
        rotated = BipartiteOperator(
            dims=(2, 3), mat=tensor(u1, u2) @ op.mat @ tensor(v1, v2))
        val = sk_norm(rotated, 1, _cfg(6, restarts=12)).value
        assert val == pytest.approx(base, abs=2e-6)


def test_sk_history_nondecreasing():
    rng = RandomConfig(seed=7).generator()
    op = _random_op((3, 3), rng)
    est = sk_norm(op, 2, _cfg(8))
    assert len(est.search.history) == 8
    for hist in est.search.history:
        assert np.all(np.diff(np.asarray(hist)) >= 0)


def test_sk_history_logs_one_value_per_step():
    # iterations counts see-saw steps, as for every other estimator
    op = _random_op((3, 3), RandomConfig(seed=7).generator())
    for max_iters in (1, 3, 10):
        est = sk_norm(op, 1, _cfg(8, max_iters=max_iters))
        assert all(len(h) <= max_iters + 1 for h in est.search.history)
        assert est.search.iterations <= max_iters * est.search.restarts_used


def test_sk_witness_attains_value():
    rng = RandomConfig(seed=9).generator()
    op = _random_op((3, 3), rng)
    est = sk_norm(op, 1, _cfg(10))
    v, w = est.witness.vectors
    attained = abs(v.amplitudes.conj() @ op.mat @ w.amplitudes)
    assert attained == pytest.approx(est.value, abs=1e-9)


def test_compress_identity_frame_is_permutation():
    rng = RandomConfig(seed=11).generator()
    op = _random_op((2, 3), rng)
    c = compress(op, Frame(vectors=np.eye(3)))
    assert operator_norm(c) == pytest.approx(operator_norm(op.mat), abs=1e-10)
    assert np.trace(c) == pytest.approx(np.trace(op.mat), abs=1e-10)


def test_compress_rank_one_frame_entries():
    op = fixtures.example51(3)
    e0 = np.zeros((1, 3))
    e0[0, 0] = 1.0
    c = compress(op, Frame(vectors=e0))
    want = op.blocks()[:, 0, :, 0]
    assert np.max(np.abs(c - want)) < 1e-12


def test_omin_between_minorder_and_sk():
    rng = RandomConfig(seed=12).generator()
    for _ in range(5):
        op = _random_op((2, 3), rng)
        k = 1 + int(rng.integers(2))
        mo = min_order_norm(op, k, _cfg(13)).value
        om = omin_norm(op, k, _cfg(13)).value
        sk = sk_norm(op, k, _cfg(13)).value
        assert mo <= om + 1e-6
        assert om <= sk + 1e-6
        assert om <= 2 * mo + 1e-6


def test_hierarchy_with_dec_and_upper():
    rng = RandomConfig(seed=14).generator()
    for _ in range(3):
        op = _random_op((2, 3), rng)
        k = 2
        cfg = _cfg(15, restarts=6)
        mo = min_order_norm(op, k, cfg).value
        om = omin_norm(op, k, cfg).value
        parts = block_positive_decomposition(op, k, cfg)
        dec = dec_norm_value(op, parts, k, cfg).value
        upper = max_order_norm_upper(op, k, cfg).value
        assert mo <= om + 1e-6
        assert om <= dec + 1e-6
        assert dec <= upper + 1e-6
    # k = n: the order norm of the part sum is solved once, with no restarts
    op = fixtures.example51(3)
    cfg = _cfg(15, restarts=5)
    dec = dec_norm_value(op, block_positive_decomposition(op, 3, cfg), 3, cfg)
    assert dec.search == SearchRecord()
    assert min_order_norm(op, 3, cfg).value <= dec.value + 1e-6
    assert dec.value <= max_order_norm_upper(op, 3, cfg).value + 1e-6


def _partial_transpose(mat, dims):
    m, n = dims
    return np.einsum("iajb->ibja", mat.reshape(m, n, m, n)).reshape(m * n, m * n)


def _sides(h, dims, k):
    """Closed-form (lower, upper) on <v|h|v> over Schmidt rank <= k: each side
    is the tighter of the eigenvalue bound and the partial-transpose bound
    with weights (k+1)/2 and (k-1)/2."""
    ev = np.linalg.eigvalsh(h)
    eg = np.linalg.eigvalsh(_partial_transpose(h, dims))
    a, b = (k + 1) / 2, (k - 1) / 2
    return (max(ev[0], a * eg[0] - b * eg[-1]),
            min(ev[-1], a * eg[-1] - b * eg[0]))


def _radius(h, dims, k):
    lower, upper = _sides(h, dims, k)
    return max(upper, -lower)


def _hermitian_parts(mat):
    return (mat + mat.conj().T) / 2, (mat - mat.conj().T) / 2j


def test_upper_is_closed_form_with_no_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("search called")

    monkeypatch.setattr(norms, "min_order_norm", forbidden)
    monkeypatch.setattr(norms, "k_block_positivity", forbidden)
    op = _random_op((2, 3), RandomConfig(seed=16).generator())
    for k in (1, 2):
        est = max_order_norm_upper(op, k, _cfg(15, restarts=5))
        assert est.direction == "upper" and est.witness is None
        assert est.search == SearchRecord()
        closed = sum(_radius(h, (2, 3), k) for h in _hermitian_parts(op.mat))
        assert est.value == pytest.approx(closed, abs=1e-12)


def test_upper_attains_k_over_n_on_entangled_projector():
    # ||P|| = 1 but P^Gamma = SWAP / 3, so k ||P^Gamma|| = k/3 is the exact
    # order norm: dropping the factor k or the partial transpose breaks it
    phi = fixtures.maximally_entangled(3).amplitudes
    proj = BipartiteOperator((3, 3), np.outer(phi, phi.conj()))
    for k in (1, 2, 3):
        assert max_order_norm_upper(proj, k).value == pytest.approx(k / 3, abs=1e-12)
        mo = min_order_norm(proj, k, _cfg(45, restarts=4)).value
        assert mo == pytest.approx(k / 3, abs=1e-12)


def test_upper_bounds_brute_force_and_dec():
    rng = RandomConfig(seed=46).generator()
    ocfg = OracleConfig(samples=2000, polish_steps=60, rng=RandomConfig(seed=47))
    cfg = _cfg(48, restarts=3, max_iters=60)
    for dims in ((2, 2), (2, 3), (3, 3), (3, 4)):
        op = _random_op(dims, rng)
        for k in range(1, min(dims) + 1):
            upper = max_order_norm_upper(op, k).value
            assert upper >= brute_min_order(op, k, ocfg)
            parts = block_positive_decomposition(op, k, cfg)
            assert upper >= dec_norm_value(op, parts, k, cfg).value - 1e-6


def test_proved_radius_bounds_brute_force():
    # soundness of the one-sided closed form on random Hermitian operators,
    # side by side: the sampled order norm never exceeds the radius, and the
    # sampled minimum never falls below the lower side.  The perturbed
    # entangled projectors make the partial-transpose side the active one
    rng = RandomConfig(seed=51).generator()
    ocfg = OracleConfig(samples=1000, polish_steps=40, rng=RandomConfig(seed=52))
    phi = fixtures.maximally_entangled(3).amplitudes
    proj = np.outer(phi, phi.conj())
    cases = [_random_hermitian(dims, rng, shift)
             for dims in ((2, 2), (2, 3), (3, 3), (3, 4))
             for shift in (-1.0, 0.0, 1.0)]
    cases += [BipartiteOperator((3, 3), sign * proj
                                + 0.01 * _random_hermitian((3, 3), rng).mat)
              for sign in (1.0, -1.0)]
    for op in cases:
        dims = op.dims
        for k in range(1, min(dims) + 1):
            lower, upper = norms._schmidt_range(op.mat, dims, k)
            assert max(upper, -lower) >= brute_min_order(op, k, ocfg) - 1e-12
            assert lower <= brute_block_min(op, k, ocfg) + 1e-12
            assert (lower, upper) == pytest.approx(_sides(op.mat, dims, k), abs=1e-12)


def test_one_sided_upper_between_dec_and_two_sided_bound():
    # on the criterion-5 stream the one-sided upper never exceeds the
    # two-sided sum_H min(||H||, k ||H^Gamma||), and the canonical dec,
    # which is the same proved radius plus its 1e-8 shifts, stays within
    # 1e-6 of it
    rng = RandomConfig(seed=501).generator()
    cfg = _cfg(502, restarts=5, max_iters=100)
    for _ in range(100):
        op = _random_op((2, 3), rng)
        for k in (1, 2):
            upper = max_order_norm_upper(op, k, cfg).value
            two_sided = sum(min(operator_norm(h),
                                k * operator_norm(_partial_transpose(h, (2, 3))))
                            for h in _hermitian_parts(op.mat))
            assert upper <= two_sided + 1e-12
            parts = block_positive_decomposition(op, k, cfg)
            assert upper >= dec_norm_value(op, parts, k, cfg).value - 1e-6


def test_upper_covers_example51_order_norm():
    # the proved order norm of criterion 1 is min(k/3, 1/2)
    for k in (1, 2, 3):
        upper = max_order_norm_upper(fixtures.example51(3), k).value
        assert upper >= min(k / 3, 0.5)


def test_hermitian_minorder_equals_omin():
    # on Hermitian operators every compression is Hermitian, so the
    # numerical radius equals the operator norm
    rng = RandomConfig(seed=16).generator()
    a = complex_gaussian(rng, (6, 6))
    op = BipartiteOperator(dims=(2, 3), mat=(a + a.conj().T) / 2)
    mo = min_order_norm(op, 2, _cfg(17)).value
    om = omin_norm(op, 2, _cfg(17)).value
    assert mo == pytest.approx(om, abs=1e-6)


def test_minorder_full_k_is_numerical_radius():
    # k = min(m, n) leaves one vector unconstrained: no restarts, no frame.
    # Criterion-5 instance 1 (k = m = 2 < n = 3) stalled at 4.718776 against
    # 5.018903 with 5 restarts while its vacuous constraint was searched.
    from schmidt_norms.linalg import numerical_radius
    rng = RandomConfig(seed=18).generator()
    op33 = _random_op((3, 3), rng)
    gen5 = RandomConfig(seed=501).generator()
    c5 = [_random_op((2, 3), gen5) for _ in range(2)]
    for op, k, cfg in ((op33, 3, _cfg(19, restarts=1)),
                       (c5[1], 2, _cfg(502, restarts=5, max_iters=100))):
        est = min_order_norm(op, k, cfg)
        assert est.value == pytest.approx(numerical_radius(op.mat), abs=1e-8)
        assert est.search == SearchRecord() and est.witness.frame is None
    # omin at k = n: the frame spans C^n, so the value is the operator norm
    est = omin_norm(op33, 3, _cfg(19, restarts=1))
    assert est.value == pytest.approx(operator_norm(op33.mat), abs=1e-12)
    assert est.search == SearchRecord() and est.witness.frame is None


def _random_hermitian(dims, rng, shift=0.0):
    d = dims[0] * dims[1]
    a = complex_gaussian(rng, (d, d))
    return BipartiteOperator(dims=dims, mat=(a + a.conj().T) / 2 + shift * np.eye(d))


def test_hermitian_objective_is_spectral_radius():
    # a negative shift makes the bottom eigenvalue win, a positive one the top
    rng = RandomConfig(seed=40).generator()
    for d in (2, 3, 4, 6, 9):
        for shift in (-3.0, -0.5, 0.0, 0.5, 3.0):
            c = _random_hermitian((1, d), rng, shift).mat
            evals = np.linalg.eigvalsh(c)
            val, (coef, u, w) = _hermitian_objective(c)
            assert val == pytest.approx(np.max(np.abs(evals)), abs=1e-12)
            assert val >= _numerical_radius_attain(c, 32, 1e-8)[0] - 1e-12
            top_wins = evals[-1] >= -evals[0]
            assert coef == (1.0 if top_wins else -1.0)
            assert np.array_equal(u, w)
            assert np.real(coef * (u.conj() @ c @ u)) == pytest.approx(val, abs=1e-12)


def test_hermitian_minorder_full_k_is_spectral_radius():
    # k = min(m, n), also k = m < n: one eigh of X solves it exactly
    rng = RandomConfig(seed=41).generator()
    for dims in ((2, 2), (3, 2), (3, 3), (2, 3), (3, 4)):
        for shift in (-2.0, 2.0):
            op = _random_hermitian(dims, rng, shift)
            est = min_order_norm(op, min(dims), _cfg(42, restarts=1))
            radius = np.max(np.abs(np.linalg.eigvalsh(op.mat)))
            assert est.value == pytest.approx(radius, abs=1e-12)
            assert est.search == SearchRecord() and est.witness.frame is None


def test_hermitian_routes_skip_numerical_radius(monkeypatch):
    # the three routes that solve only Hermitian parts, and min_order_norm on
    # Hermitian input, must not reach the angle search of the numerical radius
    def forbidden(*args, **kwargs):
        raise AssertionError("angle-search numerical radius called")

    monkeypatch.setattr(norms, "_numerical_radius_attain", forbidden)
    rng = RandomConfig(seed=43).generator()
    herm = _random_hermitian((2, 3), rng)
    op = _random_op((2, 3), rng)
    cfg = _cfg(44, restarts=2, max_iters=40)
    assert min_order_norm(herm, 1, cfg).value > 0
    for x in (herm, op):
        parts = block_positive_decomposition(x, 1, cfg)
        assert dec_norm_value(x, parts, 1, cfg).value > 0
        assert max_order_norm_upper(x, 1, cfg).value > 0
    with pytest.raises(AssertionError, match="angle-search"):
        min_order_norm(op, 1, cfg)


def _eigh_per_evaluation(monkeypatch, search):
    """eigh calls over compress_tensor calls while ``search()`` runs."""
    counts = {"eigh": 0, "compress": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(optim, "compress_tensor",
                        counted("compress", optim.compress_tensor))
    search()
    monkeypatch.undo()
    assert counts["compress"] > 0
    return counts["eigh"] / counts["compress"]


def test_lapack_calls_per_frame_evaluation(monkeypatch):
    # the LAPACK cost of one frame-ascent evaluation, counted, not timed: a
    # non-Hermitian radius on 2 x 2 compressions is solved in closed form
    # with no eigh; on 6 x 6 ones the screen takes one eigh, which the
    # Newton steps of a passing trial reuse; the Hermitian route and k-block
    # positivity take exactly one
    rng = RandomConfig(seed=45).generator()
    op = _random_op((2, 3), rng)
    herm = _random_hermitian((2, 3), rng)
    op33 = _random_op((3, 3), rng)
    cfg = _cfg(46, restarts=2, max_iters=60)
    assert _eigh_per_evaluation(monkeypatch, lambda: min_order_norm(op, 1, cfg)) == 0
    assert _eigh_per_evaluation(monkeypatch, lambda: min_order_norm(op33, 2, cfg)) <= 2.0
    assert _eigh_per_evaluation(monkeypatch, lambda: min_order_norm(herm, 1, cfg)) == 1
    assert _eigh_per_evaluation(monkeypatch, lambda: k_block_positivity(herm, 1, cfg)) == 1


def test_numrad_screen_is_a_lower_bound_exact_at_its_term():
    # the screen at any angle is at most the numerical radius, and at the
    # objective's own term it is the objective's value; a rank-one example51
    # compression covers the rank-deficient case
    rng = RandomConfig(seed=51).generator()
    cs = [complex_gaussian(rng, (d, d)) for d in range(1, 9) for _ in range(5)]
    frame = Frame(vectors=random_isometry(3, 2, rng).T.copy())
    cs.append(compress(fixtures.example51(3), frame))
    assert np.linalg.matrix_rank(cs[-1]) == 1
    for c in cs:
        val, term = _numrad_objective(c)
        assert _numrad_screen(c, term)[0] == pytest.approx(val, abs=1e-12)
        for coef in np.exp(2j * np.pi * rng.random(20)):
            assert _numrad_screen(c, (coef, None, None))[0] <= val + 1e-12


def test_numrad_warm_pair_shares_the_screen_eigh(monkeypatch):
    # the screen's warm start is its one eigh: `_numrad_objective(c, warm)`
    # gives `_numrad_objective(c)`'s value, and takes fewer eigh calls when
    # the screen's angle lies in the grid winner's bracket (the incumbent's
    # and a nearby one), the same number at the opposite angle
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(1)
        return eigh(a, *args, **kwargs)

    rng = RandomConfig(seed=54).generator()
    for d in range(3, 9):
        c = complex_gaussian(rng, (d, d))
        val, term = _numrad_objective(c)
        for coef, inside in ((term[0], True), (term[0] * np.exp(0.05j), True),
                             (-term[0], False)):
            bound, warm = _numrad_screen(c, (coef, None, None))
            assert warm[1][-1] == bound
            monkeypatch.setattr(np.linalg, "eigh", counted)
            counts = []
            for args in ((c, warm), (c,)):
                calls.clear()
                assert _numrad_objective(*args)[0] == pytest.approx(val, abs=1e-12)
                counts.append(len(calls))
            monkeypatch.undo()
            assert counts[0] < counts[1] if inside else counts[0] == counts[1]


def test_numerical_radius_runs_at_starts_and_accepted_steps(monkeypatch):
    # counted, not timed: the screen rejects trial frames before their angle
    # search, so non-Hermitian min_order_norm runs it once per start frame
    # and once per accepted step, while more frames are compressed than that
    counts = {"radius": 0, "compress": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(norms, "_numerical_radius_attain",
                        counted("radius", _numerical_radius_attain))
    monkeypatch.setattr(optim, "compress_tensor",
                        counted("compress", optim.compress_tensor))
    rng = RandomConfig(seed=52).generator()
    for dims, k in (((2, 3), 1), ((3, 3), 2)):
        counts.update(radius=0, compress=0)
        est = min_order_norm(_random_op(dims, rng), k, _cfg(53, restarts=3))
        assert counts["radius"] == est.search.restarts_used + est.search.iterations
        assert counts["compress"] > counts["radius"]


def test_screened_minorder_matches_unscreened_search():
    # quality guard: the screened search against the unscreened frame search
    # with the same objective and seeds, on the first 20 operators that
    # criterion 5 runs at k = 1 (its even-indexed draws) and on (3,3)
    # operators at k = 2
    cfg = _cfg(502, restarts=5, max_iters=100)
    c5 = RandomConfig(seed=501).generator()
    gen = RandomConfig(seed=503).generator()
    cases = ([(_random_op((2, 3), c5), 1) for _ in range(40)][::2]
             + [(_random_op((3, 3), gen), 2) for _ in range(5)])
    for op, k in cases:
        _, (wit,), _ = optim.frame_search(op, k, _numrad_objective, cfg)
        old = abs(wit.amplitudes.conj() @ op.mat @ wit.amplitudes)
        assert min_order_norm(op, k, cfg).value == pytest.approx(old, abs=1e-6)


def test_minorder_criterion5_instance16_reaches_its_maximum():
    """Criterion-5 instance 16 at k = 1 (generator seed 501, config seed 502,
    5 restarts, 100 iterations): with the Barzilai-Borwein first trial of
    the line search, min_order_norm reaches 3.10296 there.  The 1.5x/halve
    step rule before it stalled at 3.05682 on the same budget."""
    c5 = RandomConfig(seed=501).generator()
    op = [_random_op((2, 3), c5) for _ in range(17)][16]
    est = min_order_norm(op, 1, _cfg(502, restarts=5, max_iters=100))
    assert est.value == pytest.approx(3.10296, abs=1e-4)


def test_lapack_qr_once_per_restart(monkeypatch):
    # counted, not timed: the frame ascent retracts its trial steps without
    # LAPACK, so QR runs once per restart, for the Haar start frame
    rng = RandomConfig(seed=47).generator()
    op = _random_op((3, 3), rng)
    cfg = _cfg(48, restarts=3, max_iters=60)
    shapes = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    est = omin_norm(op, 2, cfg)
    monkeypatch.undo()
    assert est.search.restarts_used == 3 and est.search.iterations > 3
    assert shapes == [(3, 2)] * 3


def test_frame_searches_bit_identical_in_process():
    # equal seed, equal result to the bit: values, witnesses, frames and
    # logs of the k = 2 frame searches on (3,3)
    rng = RandomConfig(seed=49).generator()
    op = _random_op((3, 3), rng)
    herm = _random_hermitian((3, 3), rng)
    cfg = _cfg(50, restarts=3, max_iters=60)

    def norm_bits(est):
        return (est.value, est.search,
                est.witness.frame.vectors.tobytes(),
                [s.amplitudes.tobytes() for s in est.witness.vectors])

    def verdict_bits(ver):
        return (ver.status, ver.min_value, ver.search,
                ver.frame.vectors.tobytes(), ver.witness_vector.amplitudes.tobytes())

    for bits, search in ((norm_bits, lambda: omin_norm(op, 2, cfg)),
                         (norm_bits, lambda: min_order_norm(op, 2, cfg)),
                         (verdict_bits, lambda: k_block_positivity(herm, 2, cfg))):
        assert bits(search()) == bits(search())


def test_stacked_searches_bit_identical_and_rows_independent():
    # equal seed, equal result to the bit for the searches that stack their
    # restarts: values, logs, witnesses and attaining inputs.  A row depends
    # on its own stream only: the first 2 restarts of a 5-restart search log
    # what a 2-restart search logs
    rng = RandomConfig(seed=51).generator()
    op = _random_op((3, 3), rng)
    phi = maps.MapRepr.from_choi(_random_hermitian((3, 3), rng))
    assert not phi.is_cp()

    def bits(est):
        att = getattr(est, "attaining_input", None)
        arrays = ([s.amplitudes for s in est.witness.vectors] if att is None
                  else [getattr(att, "amplitudes", att)])
        return (est.value, est.search,
                [a.tobytes() for a in arrays])

    five, two = _cfg(52, restarts=5, max_iters=60), _cfg(52, restarts=2, max_iters=60)
    for search in (lambda cfg: sk_norm(op, 2, cfg),
                   lambda cfg: maps.idk_op_norm(phi, 2, cfg),
                   lambda cfg: maps.hermitian_trace_norm(phi, 2, cfg)):
        assert bits(search(five)) == bits(search(five))
        logs, alone = search(five).search.history[:2], search(two).search.history
        assert [len(h) for h in logs] == [len(h) for h in alone]
        assert sum(len(h) - 1 for h in alone) > 10
        for h, ref in zip(logs, alone):
            assert np.allclose(h, ref, atol=1e-12, rtol=0)


def test_block_positive_decomposition_reconstructs():
    rng = RandomConfig(seed=20).generator()
    op = _random_op((2, 3), rng)
    parts = block_positive_decomposition(op, 2, _cfg(21, restarts=6))
    total = sum(lam * p.mat for lam, p in parts)
    assert np.max(np.abs(total - op.mat)) < 1e-9
    for _, p in parts:
        assert min_eig_hermitian(p.mat) > -np.inf  # parts are Hermitian
        assert np.max(np.abs(p.mat - p.mat.conj().T)) < 1e-10


def test_dec_norm_rejects_bad_decomposition():
    op = fixtures.example51(3)
    bad = [(1.0, BipartiteOperator(dims=(3, 3), mat=np.eye(9)))]
    with pytest.raises(ValueError):
        dec_norm_value(op, bad, 2, _cfg(22, restarts=2))


def _counted(monkeypatch, name):
    """Count the calls of ``norms.<name>`` from now on; returns the list of
    call arguments."""
    calls = []
    fn = getattr(norms, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(norms, name, wrapper)
    return calls


def test_dec_norm_reuses_decomposition_evidence(monkeypatch):
    # the canonical parts are k-block positive by the closed form alone (its
    # lower side is >= 0, also at k - 1, where the bound is tighter), so
    # dec_norm_value runs no k_block_positivity search on them or on bare
    # copies of them
    rng = RandomConfig(seed=24).generator()
    cfg = _cfg(25, restarts=3, max_iters=60)
    for dims, k in (((2, 3), 1), ((3, 3), 2)):
        op = _random_op(dims, rng)
        parts = block_positive_decomposition(op, k, cfg)
        assert len(parts) == 4
        for _, p in parts:
            assert type(p) is BipartiteOperator
            for kk in range(max(k - 1, 1), k + 1):
                assert _sides(p.mat, dims, kk)[0] >= 0
        calls = _counted(monkeypatch, "k_block_positivity")
        dec = dec_norm_value(op, parts, k, cfg)
        bare = [(lam, BipartiteOperator(p.dims, p.mat.copy())) for lam, p in parts]
        assert dec_norm_value(op, bare, k, cfg).value == dec.value
        if k > 1:
            dec_norm_value(op, parts, k - 1, cfg)
        assert calls == []
        monkeypatch.undo()


def test_dec_norm_refutes_non_block_positive_part(monkeypatch):
    # SWAP reconstructs itself but is not 2-block positive: an antisymmetric
    # vector such as (|01> - |10>)/sqrt 2 gives -1.  The closed form cannot
    # prove the part (its lower side is -1), so the search runs and refutes it.
    swap = fixtures.swap_operator(3)
    cfg = _cfg(26, restarts=3, max_iters=60)
    assert _sides(swap.mat, (3, 3), 2)[0] == pytest.approx(-1.0, abs=1e-12)
    calls = _counted(monkeypatch, "k_block_positivity")
    with pytest.raises(ValueError, match="refuted"):
        dec_norm_value(swap, [(1.0, swap)], 2, cfg)
    assert len(calls) == 1
    verdict = k_block_positivity(swap, 2, cfg)
    assert verdict.min_value == pytest.approx(-1.0, abs=1e-9)


def test_dec_norm_closed_form_on_multiples_of_identity(monkeypatch):
    # the canonical parts sum (with |lambda| weights) to (t1 + t2) I, whose
    # order norm is t1 + t2: no search, the zero-work metadata, and the
    # value the order-norm search of the sum reaches
    rng = RandomConfig(seed=27).generator()
    cfg = _cfg(28, restarts=3, max_iters=60)
    for dims, k in [((2, 3), 1)] * 3 + [((3, 3), 2)] * 3:
        op = _random_op(dims, rng)
        parts = block_positive_decomposition(op, k, cfg)
        abs_sum = BipartiteOperator(dims, sum(abs(lam) * p.mat for lam, p in parts))
        searched = min_order_norm(abs_sum, k, cfg).value
        calls = _counted(monkeypatch, "min_order_norm")
        dec = dec_norm_value(op, parts, k, cfg)
        monkeypatch.undo()
        assert calls == []
        assert dec.value == pytest.approx(searched, abs=1e-13)
        assert dec.direction == "upper" and dec.witness is None
        assert dec.search == SearchRecord()
    # a sum that is not a multiple of I is searched: a positive operator
    a = complex_gaussian(rng, (6, 6))
    pos = BipartiteOperator((2, 3), a @ a.conj().T)
    calls = _counted(monkeypatch, "min_order_norm")
    dec = dec_norm_value(pos, [(1.0, pos)], 1, cfg)
    assert len(calls) == 1 and dec.search.restarts_used == 3


def test_decomposition_and_dec_bit_identical_in_process():
    # equal input, equal bytes: part coefficients and matrices, and the dec
    # value
    rng = RandomConfig(seed=29).generator()
    op = _random_op((3, 3), rng)
    cfg = _cfg(30, restarts=3, max_iters=60)

    def bits():
        parts = block_positive_decomposition(op, 2, cfg)
        dec = dec_norm_value(op, parts, 2, cfg)
        return (np.float64(dec.value).tobytes(),
                [(complex(lam), p.mat.tobytes()) for lam, p in parts])

    assert bits() == bits()


def test_maxk_space_bounds_reject_non_finite_operator():
    # an inf entry used to reach LAPACK and come back as (nan, nan)
    mat = complex_gaussian(RandomConfig(seed=24).generator(), (6, 6))
    mat[1, 3] = np.inf
    with pytest.raises(ValueError, match="mat has a non-finite entry"):
        maxk_space_norm_bounds(BipartiteOperator(dims=(2, 3), mat=mat), 1)


def test_maxk_space_bounds_sandwich():
    # every k < m, including n < k < m at (4, 2), k = 3
    rng = RandomConfig(seed=23).generator()
    cases = [((2, 3), 1), ((3, 3), 1), ((3, 3), 2), ((4, 2), 3)]
    for dims, k in cases:
        for op in (_random_op(dims, rng), _random_hermitian(dims, rng)):
            lower, upper = maxk_space_norm_bounds(op, k)
            assert lower.direction == "lower"
            assert upper.direction == "upper"
            base = operator_norm(op.mat)
            assert base - 1e-12 <= lower.value <= upper.value + 1e-12
            x_gamma = _partial_transpose(op.mat, dims)
            closed = max(base, operator_norm(x_gamma) / min(k, dims[1]))
            assert lower.value == pytest.approx(closed, abs=1e-12)
            for est in (lower, upper):
                assert est.search == SearchRecord()


def test_maxk_space_swap_closed_form():
    # ||SWAP|| = 1 but ||SWAP^Gamma|| = n (n times the entangled projector):
    # the rescaled transpose meets the band upper bound at k = 1
    for n in (2, 3, 4):
        lower, upper = maxk_space_norm_bounds(fixtures.swap_operator(n), 1)
        assert lower.value == pytest.approx(n, abs=1e-12)
        assert upper.value == pytest.approx(n, abs=1e-12)
    lower, upper = maxk_space_norm_bounds(fixtures.swap_operator(3), 2)
    assert lower.value == pytest.approx(1.5, abs=1e-12)
    assert upper.value == pytest.approx(2.0, abs=1e-12)


def test_maxk_space_full_k_exact():
    rng = RandomConfig(seed=25).generator()
    op = _random_op((2, 3), rng)
    lower, upper = maxk_space_norm_bounds(op, 2)
    assert lower.direction == "exact" and upper.direction == "exact"
    assert lower.value == pytest.approx(operator_norm(op.mat), abs=1e-10)
    assert upper.value == pytest.approx(lower.value, abs=1e-12)
    assert lower.search == SearchRecord()


def test_k_validation():
    op = fixtures.example51(3)
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            sk_norm(op, bad, _cfg(27, restarts=1))
        with pytest.raises(ValueError):
            omin_norm(op, bad, _cfg(27, restarts=1))
    # norms and cones share one check, whose message names the dims plainly
    op23 = BipartiteOperator((2, 3), np.eye(6))
    for fn in (sk_norm, k_block_positivity):
        with pytest.raises(ValueError, match=r"dims \(2, 3\)"):
            fn(op23, 3, _cfg(27, restarts=1))
