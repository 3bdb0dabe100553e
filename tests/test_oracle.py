import tracemalloc

import numpy as np
import pytest

from schmidt_norms import fixtures
from schmidt_norms.cones import reduction_witness
from schmidt_norms.linalg import BipartiteOperator, operator_norm
from schmidt_norms.maps import MapRepr, apply, identity_map, transpose_map
from schmidt_norms.norms import SeeSawConfig, sk_norm
from schmidt_norms.oracle import (
    _SAMPLE_BLOCK,
    OracleConfig,
    _cgauss,
    _frame_compressions,
    _gram_schmidt,
    _outer,
    _pairings,
    _phase_fixed_qr,
    _polish,
    _sample_matmul,
    _top_singular_values,
    brute_block_min,
    brute_idk_norm,
    brute_min_order,
    brute_omin,
    brute_sk_norm,
)
from schmidt_norms.rand import RandomConfig, complex_gaussian, random_cptp


def _ocfg(seed, samples=4000, polish=120):
    return OracleConfig(samples=samples, polish_steps=polish,
                        rng=RandomConfig(seed=seed))


def test_brute_sk_identity():
    op = BipartiteOperator(dims=(2, 2), mat=np.eye(4))
    assert brute_sk_norm(op, 1, _ocfg(0)) == pytest.approx(1.0, abs=1e-4)


def test_brute_sk_entangled_projector():
    phi = fixtures.maximally_entangled(2)
    proj = BipartiteOperator(dims=(2, 2), mat=np.outer(phi.amplitudes,
                                                       phi.amplitudes.conj()))
    assert brute_sk_norm(proj, 1, _ocfg(1)) == pytest.approx(0.5, abs=1e-3)


def test_brute_sk_cross_validates_seesaw():
    rng = RandomConfig(seed=2).generator()
    cfg = SeeSawConfig(restarts=10, rng=RandomConfig(seed=3))
    for trial in range(50):
        d = complex_gaussian(rng, (4, 4))
        op = BipartiteOperator(dims=(2, 2), mat=d)
        k = 1
        brute = brute_sk_norm(op, k, _ocfg(100 + trial, samples=2000, polish=80))
        seesaw = sk_norm(op, k, cfg).value
        assert brute == pytest.approx(seesaw, abs=1e-3)


def test_brute_block_min_psd():
    rng = RandomConfig(seed=6).generator()
    a = complex_gaussian(rng, (4, 4))
    op = BipartiteOperator(dims=(2, 2), mat=a @ a.conj().T)
    assert brute_block_min(op, 1, _ocfg(7)) >= -1e-6


def test_brute_block_min_swap_and_witness():
    swap = fixtures.swap_operator(2)
    assert brute_block_min(swap, 2, _ocfg(8)) == pytest.approx(-1.0, abs=1e-4)
    w = reduction_witness(2, 1)
    assert abs(brute_block_min(w, 1, _ocfg(9))) < 1e-4


def test_brute_block_min_rejects_non_hermitian():
    mat = np.eye(4, dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(ValueError):
        brute_block_min(BipartiteOperator(dims=(2, 2), mat=mat), 1, _ocfg(10))


def test_brute_min_order_and_omin_on_shifted_projector():
    # |phi><psi| fixture: omin attains k/n at every frame; both estimators
    # must find their closed-form optima
    op = fixtures.example51(3)
    assert brute_omin(op, 1, _ocfg(11)) == pytest.approx(1.0 / 3, abs=1e-3)
    assert brute_min_order(op, 3, _ocfg(12)) == pytest.approx(0.5, abs=1e-3)


def test_brute_idk_identity_and_transpose():
    assert brute_idk_norm(identity_map(2), 2, _ocfg(13, samples=2000)) == \
        pytest.approx(1.0, abs=1e-6)
    assert brute_idk_norm(transpose_map(2), 2, _ocfg(14, samples=2000)) == \
        pytest.approx(2.0, abs=1e-3)


def test_brute_idk_cp_map():
    rng = RandomConfig(seed=15).generator()
    for _ in range(5):
        phi = MapRepr.from_choi(random_cptp(2, 2, rng))
        want = operator_norm(apply(phi, np.eye(2)))
        got = brute_idk_norm(phi, 2, _ocfg(16, samples=2000))
        assert got == pytest.approx(want, abs=1e-3)


def test_oracle_reproducibility():
    rng = RandomConfig(seed=17).generator()
    op = BipartiteOperator(dims=(2, 3), mat=complex_gaussian(rng, (6, 6)))
    herm = BipartiteOperator(dims=(2, 3), mat=(op.mat + op.mat.conj().T) / 2)
    phi = MapRepr.from_choi(BipartiteOperator((2, 3), complex_gaussian(rng, (6, 6))))
    calls = [(brute_sk_norm, op), (brute_min_order, op), (brute_block_min, herm),
             (brute_omin, op), (brute_idk_norm, phi)]
    for brute, target in calls:
        a = brute(target, 2, _ocfg(18, samples=1000, polish=50))
        b = brute(target, 2, _ocfg(18, samples=1000, polish=50))
        assert a == b, brute.__name__


def test_oracle_config_validation():
    for bad in (dict(samples=0), dict(polish_steps=-5)):
        with pytest.raises(ValueError):
            OracleConfig(**bad)
    # non-integer budgets fail here, not later inside numpy
    for field, bad in (("samples", 1e3), ("samples", True), ("samples", np.float64(100)),
                       ("polish_steps", 2.0), ("polish_steps", False)):
        with pytest.raises(ValueError, match=field):
            OracleConfig(**{field: bad})
    OracleConfig(polish_steps=0)
    OracleConfig(samples=np.int64(100), polish_steps=np.int32(3))


def _parity_operator(dims=(3, 4), seed=19):
    d = dims[0] * dims[1]
    x = BipartiteOperator(dims, complex_gaussian(RandomConfig(seed=seed).generator(),
                                                 (d, d)))
    return x, BipartiteOperator(dims, (x.mat + x.mat.conj().T) / 2)


# Values of the loop that re-evaluated the current state at every polish
# step: carrying the accepted candidates' evaluation moves them only by
# rounding, so a carried record out of step with its parameters shows here.
@pytest.mark.parametrize("polish, want", [
    (0, [3.2595974404201744, 3.4498609097823834, -3.2413402441843497,
         5.784575381271656, 5.664393139503435]),
    (30, [7.57184537569381, 5.5831178890870135, -5.445952255730033,
          6.642028124586818, 6.392979790206213])], ids=["polish0", "polish30"])
def test_polished_values_match_reference(polish, want):
    x, h = _parity_operator()
    cfg = OracleConfig(samples=600, polish_steps=polish, rng=RandomConfig(seed=20))
    got = [brute_sk_norm(x, 2, cfg), brute_min_order(x, 2, cfg),
           brute_block_min(h, 2, cfg), brute_omin(x, 2, cfg)]
    choi = BipartiteOperator((2, 3), complex_gaussian(RandomConfig(seed=21).generator(),
                                                      (6, 6)))
    got.append(brute_idk_norm(MapRepr.from_choi(choi), 2,
                              OracleConfig(samples=600, polish_steps=polish,
                                           rng=RandomConfig(seed=22))))
    assert np.allclose(got, want, rtol=0, atol=1e-12)


# Values of the samples-first layout that preceded the samples-last one, at
# k = 1 and at m > n, where the chained gradient takes the transpose the
# other way round.
@pytest.mark.parametrize("dims, seed, k, polish, want", [
    ((3, 4), 19, 1, 0, [3.420795630621797, 3.589172529271844, -3.3566415742570177]),
    ((3, 4), 19, 1, 30, [5.960267800884892, 4.58362062286968, -4.58172749575357]),
    ((4, 3), 28, 2, 0, [3.7480138626584765, 3.607599907679579, -3.4410705295106534]),
    ((4, 3), 28, 2, 30, [7.9848451670131935, 5.7963307513729605, -5.440786827383211])],
    ids=["3x4-k1-polish0", "3x4-k1-polish30", "4x3-k2-polish0", "4x3-k2-polish30"])
def test_polished_values_match_reference_shapes(dims, seed, k, polish, want):
    x, h = _parity_operator(dims, seed)
    cfg = OracleConfig(samples=600, polish_steps=polish, rng=RandomConfig(seed=20))
    got = [brute_sk_norm(x, k, cfg), brute_min_order(x, k, cfg), brute_block_min(h, k, cfg)]
    assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m, n, k", [(3, 4, 2), (4, 4, 2), (2, 3, 1), (2, 2, 2)])
def test_frame_compressions_match_dense(m, n, k):
    rng = RandomConfig(seed=23).generator()
    x = BipartiteOperator((m, n), complex_gaussian(rng, (m * n, m * n)))
    frames = np.linalg.qr(complex_gaussian(rng, (5, n, k)))[0]
    xt = x.blocks().transpose(1, 0, 2, 3).reshape(n, m * m * n)
    got = _frame_compressions(xt, frames, m)
    for v, c in zip(frames, got):
        w = np.kron(np.eye(m), v)
        assert np.allclose(c, w.conj().T @ x.mat @ w, rtol=0, atol=1e-12)


def test_blocked_pairings_match_einsum():
    # factor draws on both sides of two block boundaries, paired against the
    # unit vectors built for all samples at once
    rng = RandomConfig(seed=26).generator()
    count = 2 * _SAMPLE_BLOCK + 3
    v, w = ((complex_gaussian(rng, (count, 2, 2)),
             complex_gaussian(rng, (count, 3, 2))) for _ in range(2))
    xm = complex_gaussian(rng, (6, 6))

    def unit(f):  # the normalised u = A B^T of every sample, sample axis last
        u = _outer(*(np.moveaxis(d, 0, -1) for d in f))
        return u / np.linalg.norm(u, axis=0)

    want = np.einsum("is,ij,js->s", unit(v).conj(), xm, unit(w))
    assert np.allclose(_pairings(xm, *v, *w), want, rtol=0, atol=1e-12)
    want = np.einsum("is,ij,js->s", unit(v).conj(), xm, unit(v))
    assert np.allclose(_pairings(xm, *v), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 3, 1), (3, 4, 2), (4, 2, 3)])
def test_sample_matmul_matches_matmul(shape):
    rng = RandomConfig(seed=27).generator()
    m, j, k = shape
    x, y = complex_gaussian(rng, (m, j, 7)), complex_gaussian(rng, (j, k, 7))

    def want(a, b):  # stacked matmul with the sample axis moved first and back
        return np.moveaxis(np.moveaxis(a, -1, 0) @ np.moveaxis(b, -1, 0), 0, -1)

    assert np.allclose(_sample_matmul(x, y), want(x, y), rtol=0, atol=1e-12)
    # strided views, as the callers pass them: a transposed factor, and
    # factors whose sample axis is a transposed samples-first draw
    xt = x.transpose(1, 0, 2)
    assert np.allclose(_sample_matmul(xt, x), want(xt, x), rtol=0, atol=1e-12)
    xs = complex_gaussian(rng, (7, m, j)).transpose(1, 2, 0)
    ys = complex_gaussian(rng, (7, k, j)).transpose(2, 1, 0)
    assert np.allclose(_sample_matmul(xs, ys), want(xs, ys), rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("brute", [brute_sk_norm, brute_min_order, brute_block_min,
                                   brute_omin])
def test_brutes_reject_out_of_range_k(brute, k):
    op = fixtures.swap_operator(3)
    with pytest.raises(ValueError, match="out of range"):
        brute(op, k, _ocfg(24, samples=100, polish=1))


def test_brute_idk_rejects_k_below_1():
    with pytest.raises(ValueError):
        brute_idk_norm(identity_map(2), 0, _ocfg(25, samples=100, polish=1))


def _orthonormality_error(q):
    return np.max(np.abs(q.conj().transpose(0, 2, 1) @ q - np.eye(q.shape[2])))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gram_schmidt_is_the_phase_fixed_qr(k):
    z = complex_gaussian(RandomConfig(seed=29).generator(), (40, 4, k))
    q = _gram_schmidt(z)
    assert _orthonormality_error(q) < 1e-12
    assert np.max(np.abs(q - _phase_fixed_qr(z))) < 1e-12


@pytest.mark.filterwarnings("error")
def test_gram_schmidt_keeps_nearly_dependent_columns_orthonormal():
    rng = RandomConfig(seed=30).generator()
    z = complex_gaussian(rng, (8, 4, 2))
    z[:, :, 1] = z[:, :, 0] + 1e-6 * complex_gaussian(rng, (8, 4))
    assert np.all(np.linalg.cond(z) > 5e5)  # 0.9e6 to 4.5e6
    # one Gram-Schmidt pass loses about cond * eps, 6e-10 here; the second
    # brings the loss back to rounding
    assert _orthonormality_error(_gram_schmidt(z)) < 1e-14


@pytest.mark.filterwarnings("error")
def test_top_singular_values_match_svd():
    rng = RandomConfig(seed=31).generator()
    for d in (1, 3, 6, 8):
        c = complex_gaussian(rng, (20, d, d))
        want = np.linalg.svd(c, compute_uv=False)[:, 0]
        assert np.allclose(_top_singular_values(c), want, rtol=1e-12, atol=0)
    u, w = complex_gaussian(rng, (6,)), complex_gaussian(rng, (6,))
    got = _top_singular_values(np.stack([np.zeros((6, 6)), np.outer(u, w.conj())]))
    assert got[0] == 0.0
    assert got[1] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(w), rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_cgauss_is_the_complex_draw_bit_for_bit():
    a, b = RandomConfig(seed=32).generator(), RandomConfig(seed=32).generator()
    z = b.standard_normal((5, 3, 2, 2))
    want = z[..., 0] + 1j * z[..., 1]
    assert _cgauss(a, (5, 3, 2)).tobytes() == want.tobytes()
    assert a.standard_normal() == b.standard_normal()  # the same draws consumed


def _freezing_case():
    """Ascent on -|x - c|^2 - |y - e|^2 per sample.  y starts at its optimum
    everywhere and x in sample 0, so those are frozen from the first step
    while the rest still move."""
    rng = RandomConfig(seed=33).generator()
    c, e = complex_gaussian(rng, (2, 5)), complex_gaussian(rng, (3, 5))
    x = complex_gaussian(rng, (2, 5))
    x[:, 0] = c[:, 0]

    def evaluate(p):
        dx, dy = p["x"] - c, p["y"] - e
        value = -(np.abs(dx) ** 2).sum(0) - (np.abs(dy) ** 2).sum(0)
        return value, {"x": -dx, "y": -dy}
    return evaluate, {"x": x, "y": e.copy()}


def test_polish_stops_once_every_candidate_is_frozen():
    evaluate, params = _freezing_case()
    calls = []

    def counted(p):
        calls.append(1)
        return evaluate(p)

    budget = 2000
    got = _polish(counted, params, budget, np.greater)
    assert 10 < len(calls) < budget + 1  # stopped early, but not at once

    # the same loop with the stop taken out
    values, grads = evaluate(params)
    steps = np.full(values.shape, 0.1)
    for _ in range(budget):
        cand = {name: p + steps * grads[name] for name, p in params.items()}
        cand_values, cand_grads = evaluate(cand)
        mask = cand_values > values
        params = {name: np.where(mask, cand[name], p) for name, p in params.items()}
        grads = {name: np.where(mask, cand_grads[name], g) for name, g in grads.items()}
        values = np.where(mask, cand_values, values)
        steps = np.where(mask, steps * 1.3, steps * 0.5)
    assert got.tobytes() == values.tobytes()


# Values of the loop without the early stop; every one of these pools
# freezes before step 400 (after 143, 306 and 320 steps).
def test_polished_values_on_a_freezing_pool():
    op = fixtures.example51(3)
    herm = BipartiteOperator(op.dims, (op.mat + op.mat.conj().T) / 2)
    cfg = OracleConfig(samples=1000, polish_steps=400, rng=RandomConfig(seed=5))
    assert brute_sk_norm(op, 1, cfg) == 0.33333333333333365
    assert brute_min_order(op, 1, cfg) == 0.33333333333333365
    assert brute_block_min(herm, 1, cfg) == -0.2500000000000002


# Values of the layout that built every sample's m*n vector before pairing,
# on a pool that does not freeze within its 30 steps.
def test_blocked_sampling_keeps_the_values():
    x, h = _parity_operator(seed=34)
    cfg = OracleConfig(samples=2 * _SAMPLE_BLOCK + 3, polish_steps=30,
                       rng=RandomConfig(seed=35))
    assert brute_sk_norm(x, 2, cfg) == 7.761272476799699
    assert brute_min_order(x, 2, cfg) == 6.427977426944642
    assert brute_block_min(h, 2, cfg) == -5.652672926792356


@pytest.mark.parametrize("brute, pairs, slack_mib", [
    (brute_sk_norm, 2, 12), (brute_min_order, 1, 8), (brute_block_min, 1, 8)])
def test_sampling_stage_holds_only_the_draws(brute, pairs, slack_mib):
    # 100 000 samples at (6, 6): an (m*n, samples) complex array alone is
    # 55 MiB, the (A, B) draws are 18 MiB per pair
    x, h = _parity_operator((6, 6), seed=36)
    cfg = OracleConfig(samples=100_000, polish_steps=0, rng=RandomConfig(seed=37))
    draw_bytes = pairs * cfg.samples * (6 + 6) * 1 * 16
    tracemalloc.start()
    try:
        brute(h if brute is brute_block_min else x, 1, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - draw_bytes <= slack_mib * 2 ** 20
