import numpy as np
import pytest

from schmidt_norms import fixtures, maps
from schmidt_norms.cones import SchmidtEnsemble, reduction_witness
from schmidt_norms.linalg import BipartiteOperator, PureState, operator_norm, trace_norm
from schmidt_norms.maps import (
    MapRepr,
    apply,
    depolarizing_map,
    detection_map,
    hermitian_trace_norm,
    identity_map,
    idk_apply,
    idk_op_norm,
    idk_pairing_matrix,
    k_peb_certify,
    k_peb_refute,
    k_positivity,
    reduction_map,
    sn_contraction_test,
    transpose_map,
)
from schmidt_norms.optim import SearchRecord, SeeSawConfig
from schmidt_norms.rand import RandomConfig, complex_gaussian, random_cptp, random_hermitian


def _cfg(seed, restarts=8, max_iters=120):
    return SeeSawConfig(restarts=restarts, max_iters=max_iters,
                        rng=RandomConfig(seed=seed))


def _random_hp_map(r, n, rng):
    # Hermiticity-preserving: any Hermitian Choi works
    mat = random_hermitian(r * n, rng)
    return MapRepr.from_choi(BipartiteOperator(dims=(r, n), mat=mat))


def test_apply_identity_and_transpose():
    idm = identity_map(3)
    x = complex_gaussian(RandomConfig(seed=0).generator(), (3, 3))
    assert np.max(np.abs(apply(idm, x) - x)) < 1e-12
    t = transpose_map(2)
    e01 = np.zeros((2, 2))
    e01[0, 1] = 1.0
    assert np.max(np.abs(apply(t, e01) - e01.T)) < 1e-12


def test_kraus_choi_consistency():
    rng = RandomConfig(seed=1).generator()
    kraus = [complex_gaussian(rng, (3, 2)) for _ in range(3)]
    phi = MapRepr.from_kraus(kraus, in_dim=2, out_dim=3)
    x = complex_gaussian(rng, (2, 2))
    direct = sum(a @ x @ a.conj().T for a in kraus)
    assert np.max(np.abs(apply(phi, x) - direct)) < 1e-12


def test_choi_round_trip():
    rng = RandomConfig(seed=2).generator()
    for _ in range(100):
        choi = random_cptp(2, 3, rng)
        phi = MapRepr.from_choi(choi)
        rebuilt = MapRepr.from_callable(lambda x: apply(phi, x), in_dim=2, out_dim=3)
        assert np.max(np.abs(rebuilt.choi.mat - choi.mat)) < 1e-12


def test_map_predicates():
    assert identity_map(2).is_cp()
    assert identity_map(2).is_trace_preserving()
    t = transpose_map(3)
    assert t.is_hermiticity_preserving()
    assert not t.is_cp()
    assert t.is_trace_preserving()


def test_is_cp_checks_hermiticity_once(monkeypatch):
    # counted: on a CPTP map, idk_op_norm runs one Hermiticity check (in
    # is_cp) and hermitian_trace_norm two (its own and is_cp's)
    from schmidt_norms import linalg
    calls = []

    def counted(fn):
        def wrapper(x):
            calls.append(1)
            return fn(x)
        return wrapper

    rng = RandomConfig(seed=60).generator()
    phi = MapRepr.from_choi(random_cptp(3, 3, rng))
    assert phi.is_trace_preserving()
    monkeypatch.setattr(linalg, "is_hermitian", counted(linalg.is_hermitian))
    monkeypatch.setattr(maps, "is_hermitian", counted(maps.is_hermitian))
    for norm, checks in ((idk_op_norm, 1), (hermitian_trace_norm, 2)):
        calls.clear()
        assert norm(phi, 2, _cfg(61)).direction == "exact"
        assert len(calls) <= checks
    # a Choi matrix that is not Hermitian is not CP, after one check
    calls.clear()
    skew = MapRepr.from_choi(BipartiteOperator((2, 2), complex_gaussian(rng, (4, 4))))
    assert not skew.is_cp() and len(calls) == 1


def test_k_positivity_transpose():
    t = transpose_map(3)
    v1 = k_positivity(t, 1, _cfg(3))
    assert v1.status == "heuristically-positive"
    v2 = k_positivity(t, 2, _cfg(4))
    assert v2.status == "refuted"


def test_k_positivity_cp_map():
    rng = RandomConfig(seed=5).generator()
    phi = MapRepr.from_choi(random_cptp(3, 3, rng))
    for k in (1, 2, 3):
        assert k_positivity(phi, k, _cfg(6)).status == "heuristically-positive"


def test_reduction_family_threshold():
    for k in (1, 2):
        low = k_positivity(reduction_map(3, 1.0 / k - 0.05), k, _cfg(7))
        high = k_positivity(reduction_map(3, 1.0 / k + 0.05), k, _cfg(8))
        assert low.status == "heuristically-positive"
        assert high.status == "refuted"
        # min SR-k Choi expectation is 1 - pk
        assert high.min_value == pytest.approx(1.0 - (1.0 / k + 0.05) * k, abs=1e-6)


def test_k_peb_depolarizing_certify():
    omega = depolarizing_map(3)
    ens = fixtures.basis_product_ensemble(3, 3)
    assert k_peb_certify(omega, ens)


def test_k_peb_identity_refute_and_certify():
    idm = identity_map(3)
    cert = k_peb_refute(idm, 2, _cfg(9))
    assert cert.pairing == pytest.approx(-0.5, abs=1e-9)
    assert cert.valid
    phi = fixtures.maximally_entangled(3)
    full = SchmidtEnsemble(terms=((1.0, phi),), k=3)
    assert k_peb_certify(idm, full)


def test_k_peb_refute_pairs_with_the_reduction_witness():
    # one formula: on a square CP map the refutation's witness is
    # reduction_witness(n, k), bit for bit
    rng = RandomConfig(seed=13).generator()
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 3)):
        for phi in (depolarizing_map(n), _random_kraus_map(n, n, rng)):
            cert = k_peb_refute(phi, k, _cfg(12, restarts=1))
            assert np.array_equal(cert.W.mat, reduction_witness(n, k).mat)


def test_k_peb_refute_takes_one_spectrum_of_the_choi_matrix(monkeypatch):
    # the CP check's eigvalsh of J also gives the spectrum of J / Tr J
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cert = k_peb_refute(identity_map(3), 2, _cfg(9, restarts=1))
    assert calls == [(9, 9)]
    assert cert.pairing == pytest.approx(-0.5, abs=1e-9)


def test_k_peb_certify_takes_one_spectrum_of_the_choi_matrix(monkeypatch):
    # the CP check's eigvalsh of J also checks J / Tr J as a state, which the
    # ensemble then reconstructs
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert k_peb_certify(depolarizing_map(3), fixtures.basis_product_ensemble(3, 3))
    assert calls == [(9, 9)]


@pytest.mark.parametrize("skew, message", [(0.0, "positive semidefinite"),
                                            (1e-11, "Hermitian")])
def test_k_peb_refute_rejects_a_tiny_trace_choi_matrix_that_is_no_state(skew, message):
    # J = 1e-9 (2|00><00| - |11><11|) (+ a skew part below HERM_TOL) passes
    # is_cp, but J / Tr J has eigenvalue -1 (and a skew part of 0.01)
    mat = 1e-9 * np.diag([2.0, 0.0, 0.0, -1.0]).astype(complex)
    mat[0, 1], mat[1, 0] = skew, -skew
    phi = MapRepr.from_choi(BipartiteOperator((2, 2), mat))
    assert phi.is_cp()
    with pytest.raises(ValueError, match="state must be " + message):
        k_peb_refute(phi, 1, _cfg(10, restarts=1))


def test_k_peb_requires_cp():
    with pytest.raises(ValueError):
        k_peb_refute(transpose_map(2), 1, _cfg(10, restarts=1))


def test_idk_identity_map():
    est = idk_op_norm(identity_map(3), 2, _cfg(11, restarts=4))
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.direction == "exact"


def test_idk_transpose_values():
    t = transpose_map(3)
    for k in (1, 2, 3):
        est = idk_op_norm(t, k, _cfg(12, restarts=6))
        assert est.value == pytest.approx(float(k), abs=1e-4)
        assert est.direction == "lower"


def test_idk_cp_map_attains_phi_of_identity():
    rng = RandomConfig(seed=13).generator()
    for _ in range(10):
        phi = MapRepr.from_choi(random_cptp(3, 3, rng))
        est = idk_op_norm(phi, 2, _cfg(14, restarts=4))
        assert est.value == pytest.approx(operator_norm(apply(phi, np.eye(3))),
                                          abs=1e-6)


def test_idk_monotone_and_cb_ceiling():
    rng = RandomConfig(seed=15).generator()
    for _ in range(5):
        phi = _random_hp_map(3, 3, rng)
        vals = [idk_op_norm(phi, k, _cfg(16, restarts=6)).value for k in (1, 2, 3)]
        assert vals[0] <= vals[1] + 1e-6
        assert vals[1] <= vals[2] + 1e-6


def test_htn_cptp_is_one():
    rng = RandomConfig(seed=17).generator()
    for _ in range(5):
        phi = MapRepr.from_choi(random_cptp(3, 3, rng))
        for k in (1, 2):
            est = hermitian_trace_norm(phi, k, _cfg(18, restarts=4))
            assert est.value == pytest.approx(1.0, abs=1e-9)


def test_htn_homogeneity_and_transpose():
    two_id = MapRepr.from_choi(BipartiteOperator(
        dims=(2, 2), mat=2.0 * identity_map(2).choi.mat))
    est = hermitian_trace_norm(two_id, 1, _cfg(19, restarts=4))
    assert est.value == pytest.approx(2.0, abs=1e-9)
    est = hermitian_trace_norm(transpose_map(3), 1, _cfg(20, restarts=4))
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_htn_monotone_in_k():
    rng = RandomConfig(seed=21).generator()
    for _ in range(3):
        phi = _random_hp_map(3, 3, rng)
        v1 = hermitian_trace_norm(phi, 1, _cfg(22, restarts=6)).value
        v2 = hermitian_trace_norm(phi, 2, _cfg(22, restarts=6)).value
        assert v1 <= v2 + 1e-6


def test_htn_attaining_input_reproduces_value():
    rng = RandomConfig(seed=23).generator()
    phi = _random_hp_map(3, 3, rng)
    est = hermitian_trace_norm(phi, 2, _cfg(24, restarts=6))
    u = est.attaining_input.amplitudes
    proj = np.outer(u, u.conj())
    assert trace_norm(idk_apply(phi, proj, 2)) == pytest.approx(est.value,
                                                                abs=1e-8)


def _random_kraus_map(r, n, rng, terms=2):
    # completely positive, and not trace preserving: Tr_out J != I
    return MapRepr.from_kraus([complex_gaussian(rng, (n, r)) for _ in range(terms)], r, n)


def test_idk_kernels_match_einsum():
    rng = RandomConfig(seed=35).generator()
    for r, n in ((2, 3), (3, 2), (3, 3)):
        phi = _random_hp_map(r, n, rng)
        j4 = phi.j4()
        for k in (1, 2, 3):
            x = complex_gaussian(rng, (k * r, k * r))
            want = np.einsum("piqj,iajb->paqb", x.reshape(k, r, k, r), j4)
            assert np.max(np.abs(idk_apply(phi, x, k) - want.reshape(k * n, k * n))) < 1e-13
            v = complex_gaussian(rng, (k * n,))
            w = complex_gaussian(rng, (k * n,))
            y = idk_pairing_matrix(phi, v, w, k)
            want = np.einsum("pa,iajb,qb->qjpi", v.reshape(k, n).conj(), j4, w.reshape(k, n))
            assert np.max(np.abs(y - want.reshape(k * r, k * r))) < 1e-13
            # the defining identity <v|(id_k (x) Phi)(X)|w> = Tr(X Y)
            assert abs(v.conj() @ idk_apply(phi, x, k) @ w - np.trace(x @ y)) < 1e-12


def _searched(monkeypatch, norm, phi, k, cfg):
    """``norm`` run as a search, with the map's complete positivity hidden."""
    monkeypatch.setattr(MapRepr, "is_cp", lambda self, tol=0.0: False)
    try:
        return norm(phi, k, cfg)
    finally:
        monkeypatch.undo()


def test_cp_map_norms_take_the_closed_forms(monkeypatch):
    # ||id_k (x) Phi|| = ||Phi(I)|| (Russo-Dye) and ||id_k (x) Phi||_tr^H =
    # lambda_max(Tr_out J): never below a 20-restart search (up to rounding)
    # and within 1e-9 of it, attained by the reported input, with no work
    rng = RandomConfig(seed=36).generator()
    cfg = _cfg(37, restarts=20, max_iters=200)
    for r, n in ((3, 3), (2, 3), (3, 2)):
        phi = _random_kraus_map(r, n, rng)
        assert phi.is_cp() and not phi.is_trace_preserving()
        for k in (1, 2):
            for norm in (idk_op_norm, hermitian_trace_norm):
                est = norm(phi, k, cfg)
                searched = _searched(monkeypatch, norm, phi, k, cfg)
                assert searched.direction == "lower"
                assert searched.search.restarts_used == 20
                assert est.value >= searched.value - 1e-12
                assert est.value - searched.value <= 1e-9
                assert est.direction == "exact"
                assert est.search == SearchRecord()
            x = idk_op_norm(phi, k, cfg).attaining_input
            assert operator_norm(x) <= 1.0 + 1e-12
            assert operator_norm(idk_apply(phi, x, k)) == pytest.approx(
                operator_norm(apply(phi, np.eye(r))), abs=1e-12)
            est = hermitian_trace_norm(phi, k, cfg)
            u = est.attaining_input.amplitudes
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12
            assert trace_norm(idk_apply(phi, np.outer(u, u.conj()), k)) == pytest.approx(
                est.value, abs=1e-12)
            red = np.einsum("iaja->ij", phi.j4())
            assert est.value == pytest.approx(np.linalg.eigvalsh(red)[-1], abs=1e-12)
            assert abs(est.value - 1.0) > 1e-2


def test_htn_one_eigh_per_evaluation_and_no_search_on_cp(monkeypatch):
    # counted, not timed: each trial point of the stacked sphere ascent takes
    # one eigh row (value and sign matrix) and no SVD; CP maps run no search.
    # A call on a stack counts its leading dimension, one row per point.
    counts = {"eigh": 0, "svd": 0, "idk_apply": 0}

    def counted(name, fn, pos):
        def wrapper(*args, **kwargs):
            a = np.asarray(args[pos])
            counts[name] += a.shape[0] if a.ndim == 3 else 1
            return fn(*args, **kwargs)
        return wrapper

    rng = RandomConfig(seed=38).generator()
    phi = _random_hp_map(3, 3, rng)
    assert not phi.is_cp()
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh, 0))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd, 0))
    monkeypatch.setattr(maps, "idk_apply", counted("idk_apply", maps.idk_apply, 1))
    est = hermitian_trace_norm(phi, 2, _cfg(39, restarts=3, max_iters=60))
    assert est.search.iterations > 3
    assert counts["idk_apply"] > est.search.iterations
    assert counts["eigh"] == counts["idk_apply"] and counts["svd"] == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("search run on a CP map")

    for engine in ("ascend_rows", "sphere_ascent"):
        monkeypatch.setattr(maps, engine, forbidden)
    cp = _random_kraus_map(3, 3, rng)
    for k in (1, 2):
        hermitian_trace_norm(cp, k, _cfg(39))
        idk_op_norm(cp, k, _cfg(39))


def test_detection_map_trivial_inputs():
    zero = MapRepr.from_choi(BipartiteOperator(dims=(3, 3),
                                               mat=np.zeros((9, 9))))
    det = detection_map(zero, _cfg(25, restarts=2))
    assert det.in_dim == 3 and det.out_dim == 6
    assert det.is_cp() and det.is_trace_preserving()

    half_omega = MapRepr.from_choi(BipartiteOperator(
        dims=(3, 3), mat=0.5 * depolarizing_map(3).choi.mat))
    det = detection_map(half_omega, _cfg(26, restarts=2))
    assert det.is_cp() and det.is_trace_preserving()


def test_detection_map_trace_preserving_general():
    rng = RandomConfig(seed=27).generator()
    for _ in range(5):
        psi = _random_hp_map(3, 3, rng)
        det = detection_map(psi, _cfg(28, restarts=4))
        assert det.is_hermiticity_preserving()
        assert det.is_trace_preserving()


def test_detection_pipeline_isotropic():
    red = reduction_map(3, 0.5)  # 2-positive member of the reduction family
    cfg = _cfg(29, restarts=8)
    det = detection_map(red, cfg)
    hot = sn_contraction_test(fixtures.isotropic(0.9, 3), det, 2, cfg)
    assert hot.detected
    assert hot.sn_lower_bound == 3
    cold = sn_contraction_test(fixtures.isotropic(0.6, 3), det, 2, cfg)
    assert not cold.detected


def test_contraction_test_separable_never_detected():
    rng = RandomConfig(seed=30).generator()
    cfg = _cfg(31, restarts=6)
    det = detection_map(reduction_map(3, 0.5), cfg)
    mixed = BipartiteOperator(dims=(3, 3), mat=np.eye(9) / 9.0)
    assert not sn_contraction_test(mixed, det, 2, cfg).detected
    st = fixtures.basis_product_ensemble(3, 3).density()
    assert not sn_contraction_test(st, det, 2, cfg).detected


def test_contraction_test_precondition_enforced():
    # a map that is only 1-positive fails the k = 2 norm precondition
    cfg = _cfg(32, restarts=6)
    det = detection_map(transpose_map(3), cfg)
    rho = fixtures.isotropic(0.9, 3)
    with pytest.raises(ValueError):
        sn_contraction_test(rho, det, 2, cfg)
    # and passes it at k = 1
    res = sn_contraction_test(rho, det, 1, cfg)
    assert res.detected


@pytest.mark.parametrize("k", [0, -3])
def test_contraction_test_rejects_bad_k_with_a_bound(k):
    # with a certified bound no norm search runs to reject a bad k; k = -3
    # used to report a detection with SN >= -2
    det = detection_map(reduction_map(3, 0.5), _cfg(29, restarts=2))
    with pytest.raises(ValueError, match="k must be >= 1"):
        sn_contraction_test(fixtures.isotropic(0.9, 3), det, k, norm_bound=1.0)


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), -5.0])
def test_contraction_test_rejects_bad_norm_bound(bound):
    # such a bound used to skip the precondition: the transpose, which fails
    # it at k = 2, then reported a detection
    det = detection_map(transpose_map(3), _cfg(32, restarts=2))
    with pytest.raises(ValueError, match="norm_bound"):
        sn_contraction_test(fixtures.isotropic(0.9, 3), det, 2, norm_bound=bound)


def test_stabilization_sample():
    # SR-k-bounded inputs at a larger ancilla never beat the k-level value
    rng = RandomConfig(seed=33).generator()
    from schmidt_norms.rand import random_sr_k_vector
    for trial in range(3):
        phi = _random_hp_map(3, 3, rng)
        for k in (1, 2):
            level = idk_op_norm(phi, k, _cfg(34, restarts=6)).value
            m = k + 2
            for _ in range(50):
                v = random_sr_k_vector((m, 3), k, rng).amplitudes
                w = random_sr_k_vector((m, 3), k, rng).amplitudes
                x = complex_gaussian(rng, (m * 3, m * 3))
                x = x / operator_norm(x)
                val = abs(v.conj() @ idk_apply(phi, x, m) @ w)
                assert val <= level + 1e-6
