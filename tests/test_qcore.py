import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catlink import qcore as qc


class TestAnnihilation:
    def test_two_level(self):
        a = qc.annihilation(2)
        assert np.allclose(a, [[0, 1], [0, 0]])

    def test_superdiagonal_entry(self):
        a = qc.annihilation(3)
        assert a[1, 2] == pytest.approx(math.sqrt(2))

    def test_number_operator_eigenvalue(self):
        a = qc.annihilation(5)
        n = a.conj().T @ a
        val = qc.expectation(n, qc.fock_state(2, 5))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            qc.annihilation(1)

    def test_commutator_on_truncated_block(self):
        dim = 12
        a = qc.annihilation(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        block = comm[: dim - 1, : dim - 1]
        assert np.max(np.abs(block - np.eye(dim - 1))) < 1e-12


class TestCoherentState:
    def test_vacuum(self):
        assert np.allclose(qc.coherent_state(0, 8), qc.fock_state(0, 8))

    def test_mean_field(self):
        alpha = math.sqrt(2)
        cs = qc.coherent_state(alpha, 20)
        assert qc.expectation(qc.annihilation(20), cs) == pytest.approx(alpha, abs=1e-8)

    def test_opposite_overlap(self):
        alpha = math.sqrt(2)
        plus = qc.coherent_state(alpha, 20)
        minus = qc.coherent_state(-alpha, 20)
        overlap = np.vdot(plus, minus)
        assert overlap == pytest.approx(math.exp(-2 * abs(alpha) ** 2), abs=1e-8)

    def test_eigenstate_of_squared_annihilation(self):
        # (a^2 - alpha^2)|+-alpha> = 0 up to truncation error; the residual
        # is set by the top two Fock amplitudes (about 5e-6 at dim 20,
        # below 1e-8 from dim 28)
        alpha = math.sqrt(2)
        for dim, bound in ((20, 1e-5), (28, 1e-8)):
            a = qc.annihilation(dim)
            op = a @ a - alpha**2 * qc.identity(dim)
            for sign in (1, -1):
                vec = op @ qc.coherent_state(sign * alpha, dim)
                assert np.linalg.norm(vec) < bound

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.1, max_value=2.2),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_normalized(self, mag, phase):
        cs = qc.coherent_state(mag * np.exp(1j * phase), 24)
        assert abs(np.linalg.norm(cs) - 1.0) < 1e-10


class TestCatState:
    def test_even_alpha_zero_is_vacuum(self):
        cat = qc.cat_state(0, "even", 10)
        assert np.allclose(cat, qc.fock_state(0, 10))

    def test_odd_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            qc.cat_state(0, "odd", 10)

    def test_opposite_parity_orthogonal(self):
        alpha = math.sqrt(2)
        plus = qc.cat_state(alpha, "even", 20)
        minus = qc.cat_state(alpha, "odd", 20)
        assert abs(np.vdot(plus, minus)) < 1e-10

    def test_even_cat_has_even_support(self):
        cat = qc.cat_state(math.sqrt(2), "even", 20)
        odd_weight = np.sum(np.abs(cat[1::2]) ** 2)
        assert odd_weight < 1e-10

    @pytest.mark.parametrize("parity, other", [("even", slice(1, None, 2)),
                                               ("odd", slice(0, None, 2))])
    def test_other_parity_exactly_zero(self, parity, other):
        # the GRAPE propagation keeps only the parity sectors a state touches
        cat = qc.cat_state(math.sqrt(2), parity, 30)
        assert np.all(cat[other] == 0)

    @pytest.mark.parametrize("alpha", [0.5, math.sqrt(2), 2.0])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_normalization(self, alpha, parity):
        cat = qc.cat_state(alpha, parity, 24)
        assert abs(np.linalg.norm(cat) - 1.0) < 1e-10


class TestTensorAndPartialTrace:
    def test_identity_tensor_identity(self):
        eye = qc.tensor([qc.identity(2), qc.identity(3)])
        assert eye.shape == (6, 6)
        assert np.allclose(eye, np.eye(6))

    def test_commuting_factors(self):
        a2, a3 = qc.annihilation(2), qc.annihilation(3)
        left = qc.tensor([a2, qc.identity(3)]) @ qc.tensor([qc.identity(2), a3])
        right = qc.tensor([a2, a3])
        assert np.allclose(left, right)

    def test_mixed_kinds_rejected(self):
        pure = qc.fock_state(0, 2)
        mixed = qc.to_density_matrix(qc.fock_state(0, 2))
        for parts in ([pure, mixed], [pure, qc.identity(2)]):
            with pytest.raises(ValueError, match="vectors with matrices"):
                qc.tensor(parts)

    def test_product_state_factor_recovery(self):
        s1 = qc.fock_state(1, 2)
        s2 = qc.coherent_state(0.4, 6)
        rho = qc.to_density_matrix(qc.tensor([s1, s2]))
        red = qc.partial_trace(rho, [1], (2, 6))
        assert np.allclose(red, qc.to_density_matrix(s2), atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        red = qc.partial_trace(bell, [0], (2, 2))
        assert np.allclose(red, np.eye(2) / 2, atol=1e-12)
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-10)

    def test_empty_keep_rejected(self):
        rho = qc.to_density_matrix(qc.fock_state(0, 2))
        with pytest.raises(ValueError):
            qc.partial_trace(rho, [], (2,))

    @pytest.mark.parametrize("dims", [(2, 3), (3,), (2, 2, 2)])
    def test_dims_must_match_state(self, dims):
        rho = qc.to_density_matrix(qc.fock_state(0, 4))
        with pytest.raises(ValueError, match="does not match dims"):
            qc.partial_trace(rho, [0], dims)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=1))
    def test_left_inverse_on_products(self, i, j, k):
        parts = [qc.fock_state(i, 2), qc.fock_state(j, 3), qc.fock_state(k, 2)]
        rho = qc.to_density_matrix(qc.tensor(parts))
        for idx, part in enumerate(parts):
            red = qc.partial_trace(rho, [idx], (2, 3, 2))
            assert np.allclose(red, qc.to_density_matrix(part), atol=1e-12)


class TestFidelityAndParity:
    def test_self_fidelity(self):
        psi = qc.coherent_state(1.0, 12)
        assert qc.state_fidelity(qc.to_density_matrix(psi), psi) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        assert qc.state_fidelity(qc.fock_state(0, 4), qc.fock_state(1, 4)) == 0.0

    def test_equal_mixture(self):
        rho = np.eye(2) / 2
        assert qc.state_fidelity(rho, qc.fock_state(0, 2)) == pytest.approx(0.5)

    def test_mixed_target_rejected(self):
        rho = qc.to_density_matrix(qc.fock_state(0, 2))
        with pytest.raises(ValueError, match="must be pure"):
            qc.state_fidelity(rho, rho)

    @pytest.mark.parametrize("state", [qc.fock_state(0, 3),
                                       qc.to_density_matrix(qc.fock_state(0, 3))])
    def test_length_mismatch_rejected(self, state):
        with pytest.raises(ValueError, match="does not match target"):
            qc.state_fidelity(state, qc.fock_state(0, 2))

    def test_parity_even_cat(self):
        cat = qc.cat_state(math.sqrt(2), "even", 20)
        assert qc.parity_expectation(cat) == pytest.approx(1.0, abs=1e-8)

    def test_parity_single_photon(self):
        assert qc.parity_expectation(qc.fock_state(1, 4)) == pytest.approx(-1.0)

    def test_parity_coherent_state(self):
        alpha = math.sqrt(2)
        cs = qc.coherent_state(alpha, 24)
        assert qc.parity_expectation(cs) == pytest.approx(
            math.exp(-2 * abs(alpha) ** 2), abs=1e-6)

    def test_expectation_rejects_mismatched_operator(self):
        with pytest.raises(ValueError, match="shape"):
            qc.expectation(qc.number_operator(3), qc.fock_state(0, 4))

