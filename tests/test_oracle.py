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
    _frame_compressions,
    _pairings,
    _row_matmul,
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


def test_brute_sk_curve_nondecreasing():
    rng = RandomConfig(seed=4).generator()
    op = BipartiteOperator(dims=(2, 3), mat=complex_gaussian(rng, (6, 6)))
    _, curve = brute_sk_norm(op, 1, _ocfg(5), return_curve=True)
    assert np.all(np.diff(curve) >= 0)


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
    a = brute_sk_norm(op, 2, _ocfg(18, samples=1000, polish=50))
    b = brute_sk_norm(op, 2, _ocfg(18, samples=1000, polish=50))
    assert a == b


def test_oracle_config_validation():
    for bad in (dict(samples=0), dict(polish_steps=-5), dict(pool=0)):
        with pytest.raises(ValueError):
            OracleConfig(**bad)
    OracleConfig(polish_steps=0, pool=1)


def _parity_operator():
    x = BipartiteOperator((3, 4), complex_gaussian(RandomConfig(seed=19).generator(),
                                                   (12, 12)))
    return x, BipartiteOperator((3, 4), (x.mat + x.mat.conj().T) / 2)


# Values of the loop that re-evaluated the current state at every polish
# step: carrying the accepted candidates' evaluation moves them only by
# rounding, so a carried record out of step with its parameters shows here.
@pytest.mark.parametrize("polish, want", [
    (0, [3.2595974404201744, 3.4498609097823834, -3.2413402441843497,
         5.784575381271656, 5.664393139503435]),
    (30, [7.543574981213134, 5.582128245568654, -5.445952255730033,
          6.642028124586818, 6.392979790206213])], ids=["polish0", "polish30"])
def test_polished_values_match_reference(polish, want):
    x, h = _parity_operator()
    cfg = OracleConfig(samples=600, polish_steps=polish, pool=24,
                       rng=RandomConfig(seed=20))
    got = [brute_sk_norm(x, 2, cfg), brute_min_order(x, 2, cfg),
           brute_block_min(h, 2, cfg), brute_omin(x, 2, cfg)]
    choi = BipartiteOperator((2, 3), complex_gaussian(RandomConfig(seed=21).generator(),
                                                      (6, 6)))
    got.append(brute_idk_norm(MapRepr.from_choi(choi), 2,
                              OracleConfig(samples=600, polish_steps=polish,
                                           rng=RandomConfig(seed=22))))
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
    # rows on both sides of two block boundaries
    rng = RandomConfig(seed=26).generator()
    count = 2 * _SAMPLE_BLOCK + 3
    v, w = complex_gaussian(rng, (count, 6)), complex_gaussian(rng, (count, 6))
    xm = complex_gaussian(rng, (6, 6))
    want = np.einsum("si,ij,sj->s", v.conj(), xm, w)
    assert np.allclose(_pairings(v, xm, w), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 3, 1), (3, 4, 2), (4, 2, 3)])
def test_row_matmul_matches_matmul(shape):
    rng = RandomConfig(seed=27).generator()
    m, j, k = shape
    x, y = complex_gaussian(rng, (7, m, j)), complex_gaussian(rng, (7, j, k))
    assert np.allclose(_row_matmul(x, y), x @ y, rtol=0, atol=1e-12)
    xt = x.transpose(0, 2, 1)  # a strided view, as the callers pass them
    assert np.allclose(_row_matmul(xt, x), xt @ x, rtol=0, atol=1e-12)


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
