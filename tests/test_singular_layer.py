"""Eigenchannel decomposition of the transmittance matrix."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcqkd.singular_layer import (
    EigenDecomposition,
    TransmittanceMatrix,
    load_matrix_csv,
    reconstruct,
    svd_decompose,
)
from oracles import charpoly_eigs


def random_matrix(k_out, k_in, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(k_out, k_in)) + 1j * rng.normal(size=(k_out, k_in))
    return TransmittanceMatrix(m)


class TestTransmittanceMatrix:
    def test_shape_properties(self):
        m = random_matrix(4, 2, seed=0)
        assert m.k_out == 4
        assert m.k_in == 2
        assert min(m.entries.shape) == 2

    def test_more_senders_than_receivers_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            TransmittanceMatrix(rng.normal(size=(2, 4)).astype(complex))

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            TransmittanceMatrix(bad)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TransmittanceMatrix(np.zeros((0, 0), dtype=complex))


class TestDecompose:
    def test_identity(self):
        d = svd_decompose(TransmittanceMatrix(np.eye(2, dtype=complex)))
        assert_allclose(d.lambdas, [1.0, 1.0])

    def test_diagonal(self):
        d = svd_decompose(TransmittanceMatrix(np.diag([3.0, 1.0]).astype(complex)))
        assert_allclose(d.lambdas, [3.0, 1.0])

    def test_descending_order(self):
        d = svd_decompose(random_matrix(5, 3, seed=3))
        assert np.all(np.diff(d.lambdas) <= 0)

    def test_lambda_squared_matches_charpoly_oracle(self):
        m = random_matrix(4, 2, seed=7)
        d = svd_decompose(m)
        # eigenvalues of F F^H: k_in nonzero ones plus k_out - k_in zeros
        oracle = charpoly_eigs(m.entries)[: m.k_in]
        assert_allclose(np.sort(d.lambdas**2), np.sort(oracle), atol=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_spectral_sum_is_trace(self, seed):
        m = random_matrix(4, 4, seed=seed)
        d = svd_decompose(m)
        trace = np.trace(m.entries @ m.entries.conj().T).real
        assert abs(np.sum(d.lambdas**2) - trace) / trace < 1e-10

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2), (6, 4), (8, 8)])
    def test_factor_unitarity(self, shape):
        """The thin factorisation: u2 is K_out x K_in with orthonormal
        columns, and f1_inv is a K_in x K_in unitary."""
        d = svd_decompose(random_matrix(*shape, seed=shape[0] * 10 + shape[1]))
        k_out, k_in = shape
        assert d.u2.shape == (k_out, k_in)
        assert_allclose(d.u2.conj().T @ d.u2, np.eye(k_in), atol=1e-10)
        assert_allclose(d.f1_inv @ d.f1_inv.conj().T, np.eye(k_in), atol=1e-10)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (4, 4), (6, 3)])
    def test_eigenchannel_rates_sum_to_the_log_det_rate(self, shape):
        """sum_i log2(1 + (snr/K_in) lambda_i^2) = log2 det(I + (snr/K_in) F^dagger F)."""
        m = random_matrix(*shape, seed=41 + shape[0])
        snr = 7.0
        lambdas = svd_decompose(m).lambdas
        gram = np.eye(m.k_in) + (snr / m.k_in) * (m.entries.conj().T @ m.entries)
        sign, logdet = np.linalg.slogdet(gram)
        assert sign == pytest.approx(1.0)
        rate = np.sum(np.log2(1.0 + (snr / m.k_in) * lambdas**2))
        assert rate == pytest.approx(logdet / np.log(2.0), rel=1e-12)

    def test_tall_single_input_matrix_stays_thin(self):
        """K_in = 1: the one singular value is the column norm, and no
        K_out x K_out factor (3000 x 3000 complex, 137 MiB) is built."""
        rng = np.random.default_rng(43)
        column = rng.normal(size=3000) + 1j * rng.normal(size=3000)
        m = TransmittanceMatrix(column.reshape(-1, 1))
        tracemalloc.start()
        try:
            d = svd_decompose(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert d.u2.shape == (3000, 1)
        exact = math.sqrt(math.fsum(abs(f) ** 2 for f in column.tolist()))
        assert d.lambdas[0] == pytest.approx(exact, rel=1e-12)

    def test_constructed_low_rank(self):
        # build a rank-2 4x4 matrix from two rank-one terms
        rng = np.random.default_rng(17)
        a = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        b = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        m = a @ a.conj().T + b @ b.conj().T
        d = svd_decompose(TransmittanceMatrix(m))
        assert np.count_nonzero(d.lambdas > 1e-8) == 2


class TestReconstruct:
    def test_identity_round_trip(self):
        m = TransmittanceMatrix(np.eye(3, dtype=complex))
        r = reconstruct(svd_decompose(m))
        assert_allclose(r.entries, m.entries, atol=1e-12)

    def test_zero_lambdas_give_zero_matrix(self):
        d = svd_decompose(TransmittanceMatrix(np.zeros((3, 2), dtype=complex)))
        assert_allclose(reconstruct(d).entries, 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_round_trip(self, seed):
        m = random_matrix(3, 3, seed=100 + seed)
        r = reconstruct(svd_decompose(m))
        err = np.linalg.norm(r.entries - m.entries) / np.linalg.norm(m.entries)
        assert err < 1e-10

    @pytest.mark.parametrize("shape", [(2, 1), (4, 2), (5, 5), (8, 6)])
    def test_rectangular_round_trip(self, shape):
        m = random_matrix(*shape, seed=shape[0] + 31 * shape[1])
        r = reconstruct(svd_decompose(m))
        err = np.linalg.norm(r.entries - m.entries) / np.linalg.norm(m.entries)
        assert err < 1e-10


class TestEigenDecompositionType:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            EigenDecomposition(
                np.eye(2, dtype=complex),
                np.array([1.0, 2.0]),  # ascending: invalid
                np.eye(2, dtype=complex),
            )

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            EigenDecomposition(
                np.eye(2, dtype=complex),
                np.array([1.0, -0.5]),
                np.eye(2, dtype=complex),
            )

    def test_non_unitary_factor_rejected(self):
        with pytest.raises(ValueError):
            EigenDecomposition(
                2 * np.eye(2, dtype=complex),
                np.array([1.0, 0.5]),
                np.eye(2, dtype=complex),
            )

    @pytest.mark.parametrize("k_in", [64, 8])
    def test_unitary_perturbed_by_1e_9_rejected(self, k_in):
        d = svd_decompose(random_matrix(64, k_in, seed=11))
        EigenDecomposition(d.u2, d.lambdas, d.f1_inv)
        u2 = d.u2.copy()
        # column 5 grows by 1e-9 relative: its Gram diagonal moves by 2e-9
        u2[:, 5] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="u2 does not have orthonormal columns"):
            EigenDecomposition(u2, d.lambdas, d.f1_inv)

    @pytest.mark.parametrize(
        "u2, lam, message",
        [
            (np.eye(2), math.nan, "singular values must be finite"),
            (np.eye(2), math.inf, "singular values must be finite"),
            (np.full((2, 2), np.nan), 1.0,
             "u2 does not have orthonormal columns (max deviation nan)"),
        ],
    )
    def test_non_finite_values_rejected(self, u2, lam, message):
        with pytest.raises(ValueError) as excinfo:
            EigenDecomposition(u2, np.array([lam, 0.5]), np.eye(2))
        assert str(excinfo.value) == message

    def test_an_overflowing_svd_is_rejected(self):
        # finite entries whose largest singular value overflows to inf
        with pytest.raises(ValueError, match="^singular values must be finite$"):
            svd_decompose(TransmittanceMatrix(np.full((2, 2), 1e308, complex)))

    def test_full_u2_rejected(self):
        """u2 holds one column per eigenchannel, not a K_out x K_out unitary."""
        with pytest.raises(ValueError, match="one value per eigenchannel"):
            EigenDecomposition(
                np.eye(3, dtype=complex), np.array([1.0, 0.5]), np.eye(2, dtype=complex)
            )


class TestMatrixCsv:
    def test_load(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1:0,0.5:0.1\n0:0.2,0.8:0\n0.1:0,0:0.3\n")
        m = load_matrix_csv(p)
        assert m.k_out == 3 and m.k_in == 2
        assert m.entries[0, 1] == complex(0.5, 0.1)
        assert m.entries[2, 1] == complex(0.0, 0.3)

    def test_whitespace_around_each_part_is_skipped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(" 1 : 2 ,\t3:4 \n5:0,6:0\n")
        assert load_matrix_csv(p).entries.tolist() == [[1 + 2j, 3 + 4j], [5, 6]]

    def test_bad_cell_reports_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1:0\n0.5\n")
        with pytest.raises(ValueError, match=r":2:"):
            load_matrix_csv(p)

    @pytest.mark.parametrize("cell", ["nan:0", "1:inf", "-inf:-inf", "1e309:0"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        p = tmp_path / "m.csv"
        p.write_text(f"1:0,2:0\n# comment\n1:0,{cell}\n")
        with pytest.raises(ValueError) as excinfo:
            load_matrix_csv(p)
        assert str(excinfo.value) == f"{p}:3: matrix entries must be finite, got {cell!r}"

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1:0,2:0\n1:0\n")
        with pytest.raises(ValueError):
            load_matrix_csv(p)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TransmittanceMatrix(np.zeros(3)), ValueError,
         "entries must be a two-dimensional matrix"),
    ],
)
def test_single_fault_error_type_and_message(call, error, message):
    """Each input with one fault raises exactly this type and message."""
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
