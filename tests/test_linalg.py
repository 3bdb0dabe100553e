import warnings

import numpy as np
import pytest

from schmidt_norms.linalg import (
    BipartiteOperator,
    Frame,
    PureState,
    _numerical_radius_attain,
    dagger,
    is_hermitian,
    min_eig_hermitian,
    numerical_radius,
    operator_norm,
    schmidt_decompose,
    schmidt_rank,
    tensor,
    trace_norm,
    truncate_schmidt,
)
from schmidt_norms.rand import (
    RandomConfig,
    complex_gaussian,
    random_sr_k_vector,
    random_unit_vector,
    random_unitary,
)


def _rng(seed):
    return RandomConfig(seed=seed).generator()


def test_bipartite_operator_shape_validation():
    with pytest.raises(ValueError):
        BipartiteOperator(dims=(2, 3), mat=np.eye(5))
    op = BipartiteOperator(dims=(2, 3), mat=np.eye(6))
    assert op.m == 2 and op.n == 3
    assert op.blocks().shape == (2, 3, 2, 3)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        mat = np.eye(6, dtype=complex)
        mat[2, 4] = bad
        with pytest.raises(ValueError, match="mat has a non-finite entry"):
            BipartiteOperator(dims=(2, 3), mat=mat)


def test_blocks_index_convention():
    # X[(i,a),(j,b)] with flat index i*n + j on a rank-1 marker
    mat = np.zeros((6, 6))
    mat[1 * 3 + 2, 0 * 3 + 1] = 1.0
    op = BipartiteOperator(dims=(2, 3), mat=mat)
    t = op.blocks()
    assert t[1, 2, 0, 1] == 1.0
    assert np.count_nonzero(t) == 1


def test_pure_state_normalization_check():
    with pytest.raises(ValueError):
        PureState(dims=(2, 2), amplitudes=np.array([1.0, 1.0, 0, 0]))
    st = PureState(dims=(2, 2), amplitudes=np.array([1.0, 1.0, 0, 0]) / np.sqrt(2))
    assert st.matrix_form().shape == (2, 2)
    # a NaN norm would pass the unit check
    for bad in (np.nan, np.inf, complex(np.nan, 0.0)):
        with pytest.raises(ValueError, match="amplitudes has a non-finite entry"):
            PureState(dims=(2, 2), amplitudes=np.array([1.0, 0, 0, bad]))


def test_pure_state_rejects_non_positive_dims():
    # (-1) * (-1) = 1 would otherwise match a one-amplitude vector
    for dims in ((-1, -1), (0, 3), (2, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            PureState(dims=dims, amplitudes=np.array([1.0]))


def test_tensor_and_dagger():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [1, 0]], dtype=complex)
    assert np.allclose(tensor(a, b), np.kron(a, b))
    assert np.allclose(dagger(a @ b), dagger(b) @ dagger(a))


def test_is_hermitian():
    rng = _rng(0)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    assert is_hermitian(h)
    assert not is_hermitian(h + 1e-6 * 1j * np.eye(4))


def test_norms_on_known_matrices():
    d = np.diag([3.0, -2.0, 1.0])
    assert operator_norm(d) == pytest.approx(3.0, abs=1e-12)
    assert trace_norm(d) == pytest.approx(6.0, abs=1e-12)
    assert min_eig_hermitian(d) == pytest.approx(-2.0, abs=1e-12)


def test_operator_norm_unitary_invariance():
    rng = _rng(1)
    for _ in range(20):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = random_unitary(4, rng)
        v = random_unitary(4, rng)
        assert abs(operator_norm(u @ x @ v) - operator_norm(x)) < 1e-10


def test_numerical_radius_examples():
    # normal matrices: radius equals spectral radius
    assert numerical_radius(np.diag([1.0, -2.0, 0.5])) == pytest.approx(2.0, abs=1e-10)
    # 2x2 nilpotent Jordan block: field of values is the disk of radius 1/2
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert numerical_radius(j) == pytest.approx(0.5, abs=1e-10)


def test_numerical_radius_bounds_operator_norm():
    rng = _rng(2)
    for _ in range(20):
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        w = numerical_radius(x)
        nrm = operator_norm(x)
        assert nrm / 2 - 1e-9 <= w <= nrm + 1e-9


def test_numerical_radius_rejects_bad_theta_tol():
    x = np.array([[1.0, 2.0], [0.0, 1.0]])
    for tol in (0.0, -1e-8, np.inf, np.nan):
        for fn in (numerical_radius, _numerical_radius_attain):
            with pytest.raises(ValueError, match="theta_tol"):
                fn(x, 64, tol)


def test_numerical_radius_rejects_bad_grid_points():
    x = np.array([[1.0, 2.0], [0.0, 1.0]])
    for grid in (0, -3):
        for fn in (numerical_radius, _numerical_radius_attain):
            with pytest.raises(ValueError, match="grid_points"):
                fn(x, grid, 1e-8)


def test_numerical_radius_rejects_non_finite_input():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        x = np.array([[1.0, 2.0], [0.0, bad]], dtype=complex)
        for fn in (numerical_radius, _numerical_radius_attain):
            with pytest.raises(ValueError, match="finite"):
                fn(x, 8, 1e-8)


def test_numerical_radius_matches_dense_reference():
    # reference: a 4096-angle scan refined the same way; its plain scan
    # maximum is a brute-force lower bound that the refinement must reach
    rng = _rng(40)
    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    for trial in range(32):
        d = 2 + trial % 8
        x = complex_gaussian(rng, (d, d))
        ref = _numerical_radius_attain(x, 4096, 1e-12)[0]
        phases = np.exp(1j * thetas)[:, None, None]
        scan = np.linalg.eigvalsh((phases * x + phases.conj() * x.conj().T) / 2.0)
        assert ref >= np.max(scan[:, -1]) - 1e-12
        assert abs(numerical_radius(x) - ref) <= 1e-10


def test_numerical_radius_grid_one_batched_eigvalsh(monkeypatch):
    # Re(e^{i(theta + pi)} x) = -Re(e^{i theta} x): an even grid batches half
    # its angles into the one eigvalsh call, an odd grid all of them
    rng = _rng(42)
    x = complex_gaussian(rng, (4, 4))
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    even, odd = (_numerical_radius_attain(x, grid, 1e-12)[0] for grid in (32, 33))
    monkeypatch.undo()
    assert shapes == [(16, 4, 4), (33, 4, 4)]
    thetas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    phases = np.exp(1j * thetas)[:, None, None]
    scan = np.linalg.eigvalsh((phases * x + phases.conj() * x.conj().T) / 2.0)[:, -1]
    assert even >= np.max(scan) - 1e-12
    assert abs(even - odd) < 1e-10


def test_numerical_radius_attainer():
    # the value is lambda_max(Re(e^{i theta} x)) and |<v|x|v>| at the
    # returned angle and unit vector, for the objective's 32-point, 1e-8 setting too
    rng = _rng(41)
    for trial in range(60):
        d = 2 + trial % 8
        x = complex_gaussian(rng, (d, d))
        for grid, tol in ((64, 1e-12), (32, 1e-8)):
            val, theta, vec = _numerical_radius_attain(x, grid, tol)
            h = (np.exp(1j * theta) * x + np.exp(-1j * theta) * x.conj().T) / 2.0
            assert abs(val - np.linalg.eigvalsh(h)[-1]) <= 1e-12
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
            assert abs(abs(vec.conj() @ x @ vec) - val) <= 1e-12


def test_numerical_radius_degenerate_inputs():
    rng = _rng(42)
    u = random_unitary(4, rng)
    eigs = np.array([1.0, -2.5j, 1.5 + 1.5j, 0.3])
    a = complex_gaussian(rng, (3, 3))
    cases = [
        (np.diag([1.0, -2.0, 0.5]), 2.0),
        (np.diag([1.0, 2.0j, -1.5]), 2.0),
        (u @ np.diag(eigs) @ u.conj().T, np.max(np.abs(eigs))),   # normal
        (np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5),                # Jordan block
        (np.zeros((3, 3)), 0.0),
        (np.array([[3.0 - 4.0j]]), 5.0),                           # 1 x 1
        (2.0j * np.eye(3), 2.0),                                   # all repeated
        (np.kron(np.eye(2), a), numerical_radius(a)),              # repeated top
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, want in cases:
            val, theta, vec = _numerical_radius_attain(x, 64, 1e-12)
            assert val == pytest.approx(want, abs=1e-10)
            assert abs(abs(vec.conj() @ x @ vec) - val) <= 1e-10
            assert numerical_radius(x, 32, 1e-8) == pytest.approx(want, abs=1e-10)


def test_schmidt_decompose_reconstructs():
    rng = _rng(3)
    for trial in range(1000):
        m = 2 + trial % 3
        n = 2 + (trial // 3) % 3
        vec = random_unit_vector(m * n, rng)
        st = PureState(dims=(m, n), amplitudes=vec)
        dec = schmidt_decompose(st)
        assert np.max(np.abs(dec.reconstruct() - vec)) < 1e-9
        assert np.all(np.diff(dec.coeffs) <= 1e-12)


def test_schmidt_rank_of_constructed_states():
    rng = _rng(4)
    for k in (1, 2, 3):
        st = random_sr_k_vector((3, 4), k, rng)
        assert schmidt_rank(st) <= k
    phi = PureState(dims=(3, 3), amplitudes=np.eye(3).reshape(-1) / np.sqrt(3))
    assert schmidt_rank(phi) == 3


def test_truncate_schmidt_is_best_approximation():
    # Eckart-Young: truncation overlap beats random SR-<=k challengers
    rng = _rng(5)
    for _ in range(10):
        st = PureState(dims=(3, 3), amplitudes=random_unit_vector(9, rng))
        for k in (1, 2):
            tr = truncate_schmidt(st, k)
            assert schmidt_rank(tr) <= k
            base = abs(np.vdot(tr.amplitudes, st.amplitudes))
            for _ in range(100):
                w = random_sr_k_vector((3, 3), k, rng)
                assert abs(np.vdot(w.amplitudes, st.amplitudes)) <= base + 1e-12


def test_truncate_full_rank_is_identity():
    rng = _rng(6)
    st = PureState(dims=(2, 3), amplitudes=random_unit_vector(6, rng))
    tr = truncate_schmidt(st, 2)
    assert np.max(np.abs(tr.amplitudes - st.amplitudes)) < 1e-12


def test_frame_orthonormality_validation():
    good = np.eye(3)[:2]
    Frame(vectors=good)
    with pytest.raises(ValueError):
        Frame(vectors=np.array([[1.0, 0, 0], [1.0, 0, 0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="vectors has a non-finite entry"):
            Frame(vectors=np.array([[1.0, 0, 0], [0, 1.0, bad]]))


def test_random_reproducibility():
    a = random_unit_vector(6, _rng(7))
    b = random_unit_vector(6, _rng(7))
    assert np.array_equal(a, b)
    u1 = random_unitary(4, _rng(8))
    u2 = random_unitary(4, _rng(8))
    assert np.array_equal(u1, u2)
