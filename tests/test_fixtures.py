import numpy as np
import pytest

from schmidt_norms import fixtures
from schmidt_norms.linalg import min_eig_hermitian, schmidt_rank


def test_maximally_entangled_and_shifted_are_orthogonal():
    for n in (2, 3, 4):
        phi = fixtures.maximally_entangled(n)
        psi = fixtures.shifted_entangled(n)
        assert schmidt_rank(phi) == n
        assert schmidt_rank(psi) == n
        assert abs(np.vdot(phi.amplitudes, psi.amplitudes)) < 1e-12


def test_example51_is_rank_one():
    op = fixtures.example51(3)
    assert np.linalg.matrix_rank(op.mat) == 1
    assert np.max(np.abs(op.mat @ op.mat)) < 1e-12  # nilpotent: psi ⟂ phi


def test_swap_operator_involution():
    for n in (2, 3):
        s = fixtures.swap_operator(n).mat
        assert np.array_equal(s, s.T)
        assert np.max(np.abs(s @ s - np.eye(n * n))) < 1e-12


def test_isotropic_is_state():
    for f in (0.0, 0.6, 0.9, 1.0):
        rho = fixtures.isotropic(f, 3)
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
        assert min_eig_hermitian(rho.mat) >= -1e-12
    with pytest.raises(ValueError):
        fixtures.isotropic(1.5, 3)


def test_isotropic_needs_n_at_least_2():
    # at n = 1 the normalization n^2 - 1 is zero
    for n in (1, 0):
        with pytest.raises(ValueError, match="n >= 2"):
            fixtures.isotropic(0.5, n)


def test_example51_needs_n_at_least_2():
    # at n = 1 the shifted vector equals the maximally entangled one
    for n in (1, 0):
        with pytest.raises(ValueError, match="n >= 2"):
            fixtures.shifted_entangled(n)
        with pytest.raises(ValueError, match="n >= 2"):
            fixtures.example51(n)


def test_basis_product_ensemble_is_maximally_mixed():
    ens = fixtures.basis_product_ensemble(2, 3)
    assert ens.k == 1
    assert np.max(np.abs(ens.density().mat - np.eye(6) / 6.0)) < 1e-12
