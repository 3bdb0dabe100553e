import numpy as np
import pytest

from schmidt_norms import fixtures
from schmidt_norms.cones import (
    SchmidtEnsemble,
    k_block_positivity,
    random_schmidt_ensemble,
    reduction_witness,
    sn_upper_verify,
    witness_check,
)
from schmidt_norms.linalg import (
    BipartiteOperator,
    PureState,
    min_eig_hermitian,
    schmidt_rank,
)
from schmidt_norms.optim import SearchRecord, SeeSawConfig
from schmidt_norms.rand import RandomConfig, complex_gaussian, random_sr_k_vector


def _cfg(seed, restarts=8, max_iters=120):
    return SeeSawConfig(restarts=restarts, max_iters=max_iters,
                        rng=RandomConfig(seed=seed))


def _random_psd(dims, rng):
    d = dims[0] * dims[1]
    a = complex_gaussian(rng, (d, d))
    return BipartiteOperator(dims=dims, mat=a @ a.conj().T)


def test_psd_is_heuristically_positive():
    rng = RandomConfig(seed=0).generator()
    for _ in range(5):
        op = _random_psd((2, 3), rng)
        verdict = k_block_positivity(op, 1, _cfg(1))
        assert verdict.status == "heuristically-positive"
        assert verdict.min_value >= -1e-9


def test_swap_block_positivity():
    for n in (2, 3):
        swap = fixtures.swap_operator(n)
        v1 = k_block_positivity(swap, 1, _cfg(2))
        assert v1.status == "heuristically-positive"
        assert v1.min_value >= -1e-8
        v2 = k_block_positivity(swap, 2, _cfg(3))
        assert v2.status == "refuted"
        assert v2.min_value == pytest.approx(-1.0, abs=1e-6)
        # the witness must certify the refutation on its own
        w = v2.witness_vector
        assert schmidt_rank(w) <= 2
        attained = np.real(w.amplitudes.conj() @ swap.mat @ w.amplitudes)
        assert attained == pytest.approx(v2.min_value, abs=1e-9)


def test_best_restart_is_the_smallest_minimum():
    # the search ascends -lambda_min, so the best restart must be the one
    # whose minimum is smallest; the short budget keeps the restarts apart
    rng = RandomConfig(seed=42).generator()
    a = complex_gaussian(rng, (9, 9))
    op = BipartiteOperator(dims=(3, 3), mat=(a + a.conj().T) / 2)
    cfg = _cfg(43, restarts=6, max_iters=4)
    singles = [k_block_positivity(op, 1, SeeSawConfig(
        restarts=1, max_iters=cfg.max_iters, rng=cfg.rng.stream(r))).min_value
        for r in range(cfg.restarts)]
    assert max(singles) - min(singles) > 1e-3
    assert k_block_positivity(op, 1, cfg).min_value == min(singles)


def test_full_k_agrees_with_min_eig():
    rng = RandomConfig(seed=4).generator()
    for _ in range(10):
        a = complex_gaussian(rng, (6, 6))
        op = BipartiteOperator(dims=(2, 3), mat=(a + a.conj().T) / 2)
        verdict = k_block_positivity(op, 2, _cfg(5, restarts=1))
        assert verdict.min_value == pytest.approx(min_eig_hermitian(op.mat),
                                                  abs=1e-6)
        assert verdict.search == SearchRecord() and verdict.frame is None


def test_cone_nesting():
    # refuted at k stays refuted at k+1 with a value no larger
    rng = RandomConfig(seed=6).generator()
    refuted = 0
    for _ in range(10):
        a = complex_gaussian(rng, (9, 9))
        op = BipartiteOperator(dims=(3, 3), mat=(a + a.conj().T) / 2)
        v1 = k_block_positivity(op, 1, _cfg(7))
        v2 = k_block_positivity(op, 2, _cfg(7))
        if v1.status == "refuted":
            refuted += 1
            assert v2.status == "refuted"
            assert v2.min_value <= v1.min_value + 1e-8
    assert refuted > 0


def test_non_hermitian_rejected():
    mat = np.eye(4, dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(ValueError):
        k_block_positivity(BipartiteOperator(dims=(2, 2), mat=mat), 1, _cfg(8))


def test_reduction_witness_values():
    # at n = k the witness is PSD
    w = reduction_witness(3, 3)
    assert min_eig_hermitian(w.mat) >= -1e-12
    # at k = 1 it is block positive with minimum ~0 and 2-refutable at -1
    w = reduction_witness(3, 1)
    v1 = k_block_positivity(w, 1, _cfg(9, restarts=12))
    assert v1.status == "heuristically-positive"
    assert abs(v1.min_value) < 1e-6
    v2 = k_block_positivity(w, 2, _cfg(10))
    assert v2.status == "refuted"
    assert v2.min_value == pytest.approx(-1.0, abs=1e-6)


def test_schmidt_ensemble_validation():
    rng = RandomConfig(seed=11).generator()
    good = random_schmidt_ensemble((2, 3), 2, 4, rng)
    assert sum(w for w, _ in good.terms) == pytest.approx(1.0, abs=1e-9)
    st = random_sr_k_vector((2, 3), 1, rng)
    with pytest.raises(ValueError):
        SchmidtEnsemble(terms=((0.5, st),), k=1)  # weights do not sum to 1
    ent = fixtures.maximally_entangled(3)
    with pytest.raises(ValueError):
        SchmidtEnsemble(terms=((1.0, ent),), k=1)  # rank above k


def test_schmidt_ensemble_rejects_k_below_1():
    st = PureState(dims=(2, 2), amplitudes=np.array([1.0, 0, 0, 0]))
    with pytest.raises(ValueError, match="k must be >= 1"):
        SchmidtEnsemble(terms=((1.0, st),), k=0)


def test_sn_upper_verify_product_state():
    st = PureState(dims=(2, 2), amplitudes=np.array([1.0, 0, 0, 0]))
    rho = BipartiteOperator(dims=(2, 2),
                            mat=np.outer(st.amplitudes, st.amplitudes.conj()))
    ens = SchmidtEnsemble(terms=((1.0, st),), k=1)
    assert sn_upper_verify(rho, ens)


def test_sn_upper_verify_maximally_mixed():
    ens = fixtures.basis_product_ensemble(2, 3)
    rho = BipartiteOperator(dims=(2, 3), mat=np.eye(6) / 6.0)
    assert sn_upper_verify(rho, ens)


def test_sn_upper_verify_mismatch_is_false():
    ens = fixtures.basis_product_ensemble(2, 2)
    rho = BipartiteOperator(dims=(2, 2), mat=np.diag([0.7, 0.1, 0.1, 0.1]))
    assert not sn_upper_verify(rho, ens)


def test_witness_check_identity_no_detection():
    rng = RandomConfig(seed=12).generator()
    ens = random_schmidt_ensemble((3, 3), 2, 5, rng)
    rho = ens.density()
    eye = BipartiteOperator(dims=(3, 3), mat=np.eye(9))
    cert = witness_check(eye, rho, 2, _cfg(13))
    assert cert.pairing == pytest.approx(1.0, abs=1e-9)
    assert not cert.valid


def test_witness_check_isotropic_thresholds():
    w = reduction_witness(3, 2)
    cert = witness_check(w, fixtures.isotropic(0.9, 3), 2, _cfg(14))
    assert cert.pairing == pytest.approx(-0.35, abs=1e-9)
    assert cert.valid
    cert = witness_check(w, fixtures.isotropic(0.6, 3), 2, _cfg(15))
    assert cert.pairing == pytest.approx(0.1, abs=1e-9)
    assert not cert.valid


def test_witness_check_scale_invariant_validity():
    w = reduction_witness(3, 2)
    rho = fixtures.isotropic(0.9, 3)
    base = witness_check(w, rho, 2, _cfg(16))
    for scale in (0.5, 3.0):
        scaled = BipartiteOperator(dims=w.dims, mat=scale * w.mat)
        cert = witness_check(scaled, rho, 2, _cfg(16))
        assert cert.valid == base.valid
        assert cert.pairing == pytest.approx(scale * base.pairing, abs=1e-9)


def test_witness_validity_needs_converged_evidence():
    # a mixture witness W = 0.8 reduction_witness(3, 2) + 0.2 P (P > 0)
    # pairs to -0.0553 with isotropic(0.95, 3); its block-positivity search
    # stops unconverged after one step per restart, and then the
    # certificate is not valid
    g = complex_gaussian(RandomConfig(seed=5).generator(), (9, 9))
    w = BipartiteOperator((3, 3), 0.8 * reduction_witness(3, 2).mat
                          + 0.2 * g @ g.conj().T / 9)
    rho = fixtures.isotropic(0.95, 3)
    for max_iters, valid in ((1, False), (200, True)):
        cert = witness_check(w, rho, 2, _cfg(3, restarts=3, max_iters=max_iters))
        assert cert.pairing == pytest.approx(-0.0553, abs=1e-4)
        assert cert.block_pos_evidence.status == "heuristically-positive"
        assert cert.block_pos_evidence.search.converged is valid
        assert cert.valid is valid


def test_duality_pairing_sample():
    # witnesses from the reduction family against same-k ensembles
    rng = RandomConfig(seed=17).generator()
    for _ in range(20):
        k = 1 + int(rng.integers(2))
        w = reduction_witness(3, k)
        ens = random_schmidt_ensemble((3, 3), k, 4, rng)
        pairing = float(np.trace(w.mat @ ens.density().mat).real)
        assert pairing >= -1e-8


def test_witness_check_rejects_non_state():
    w = reduction_witness(3, 2)
    not_psd = BipartiteOperator(dims=(3, 3), mat=np.diag([2.0] + [-1.0 / 8] * 8))
    with pytest.raises(ValueError):
        witness_check(w, not_psd, 2, _cfg(18, restarts=1))


def test_each_call_checks_the_operators_hermiticity_once(hermiticity_checks):
    w, rho = reduction_witness(3, 2), fixtures.isotropic(0.9, 3)
    k_block_positivity(w, 2, _cfg(15, restarts=2))
    assert hermiticity_checks(w.mat) == 1
    hermiticity_checks.clear()
    witness_check(w, rho, 2, _cfg(15, restarts=2))
    assert hermiticity_checks(w.mat) == 1


def test_witness_check_takes_one_spectrum_of_the_state(monkeypatch):
    # the state check's eigvalsh; the block-positivity search takes eigh only
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cert = witness_check(reduction_witness(3, 2), fixtures.isotropic(0.9, 3), 2,
                         _cfg(14, restarts=2))
    assert calls == [(9, 9)]
    assert cert.pairing == pytest.approx(-0.35, abs=1e-9)
