"""Association-scheme structure and the eigenvalue certificate.

Frozen sphere sizes and eigenvalue tables for small orders, the five scheme
axioms checked exactly, and the measured eigenspace dimensions against the
doubled-shape tableau counts.
"""

from fractions import Fraction

import numpy as np
import pytest

from matchconn.checks import PUBLISHED
from matchconn.exactalg import CapacityError, ValidationError
from matchconn.matchings import build_M, enumerate_matchings, union_cycle_type
from matchconn.scheme import (
    _class_arrays,
    certify_spectrum,
    eigenvalue_eta,
    sphere_size,
    spectrum_primes,
    verify_scheme_axioms,
)
from matchconn.tableaux import (
    Partition,
    covers,
    double_factorial,
    f_lambda,
    partitions,
)

# (eta, multiplicity) per partition, in enumeration order
SPECTRUM_TABLE = {
    1: ((1, 1),),
    2: ((2, 1), (-1, 2)),
    3: PUBLISHED["spectrum_n_3"],
    4: PUBLISHED["spectrum_n_4"],
    5: ((384, 1), (-48, 35), (-8, 90), (16, 225), (4, 252), (-12, 300), (24, 42)),
}

SPHERE_ROWS = {2: (2, 1), 3: (8, 6, 1), 4: PUBLISHED["sphere_sizes_n_4"]}


class TestSphereSizes:
    def test_frozen_rows(self):
        for n, row in SPHERE_ROWS.items():
            assert tuple(sphere_size(n, lam) for lam in partitions(n)) == row

    def test_rows_sum_to_all_matchings(self):
        for n in range(1, 6):
            total = sum(sphere_size(n, lam) for lam in partitions(n))
            assert total == double_factorial(2 * n - 1)

    def test_wrong_size_partition_rejected(self):
        with pytest.raises(ValidationError):
            sphere_size(3, Partition((2, 2)))

    def test_identity_class_is_a_singleton(self):
        for n in range(1, 6):
            assert sphere_size(n, Partition((1,) * n)) == 1


class TestClassMatrices:
    # class arrays are indexed by enumerate_matchings(2 * n) both ways

    def test_identity_class_is_the_identity_matrix(self):
        for n in (2, 3):
            arr = _class_arrays(n)[Partition((1,) * n)]
            assert np.array_equal(arr, np.eye(len(enumerate_matchings(2 * n))))

    def test_single_cycle_class_is_the_connectivity_matrix(self):
        # the link between the scheme picture and the counting picture
        for n in (2, 3):
            arr = _class_arrays(n)[Partition((n,))]
            M = build_M(2 * n)
            assert M.row_labels == M.col_labels == enumerate_matchings(2 * n)
            assert np.array_equal(arr, M.numpy())

    def test_order_four_matrix_is_all_ones_minus_identity(self):
        M = build_M(4)
        for i in range(3):
            for j in range(3):
                assert M[i, j] == (0 if i == j else 1)

    def test_row_sums_equal_sphere_sizes(self):
        for n in (2, 3):
            for lam, arr in _class_arrays(n).items():
                assert set(arr.sum(axis=1).tolist()) == {sphere_size(n, lam)}

    def test_order_cap(self):
        with pytest.raises(CapacityError):
            _class_arrays(6)


def reference_class_arrays(n):
    """The class arrays as one union_cycle_type call per pair of matchings."""
    ms = enumerate_matchings(2 * n)
    size = len(ms)
    out = {lam: np.zeros((size, size), dtype=np.int8) for lam in partitions(n)}
    for i, a in enumerate(ms):
        for j in range(i, size):
            arr = out[Partition(union_cycle_type(a, ms[j]).parts)]
            arr[i, j] = 1
            arr[j, i] = 1
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_arrays_match_the_pair_loop(n):
    got, want = _class_arrays(n), reference_class_arrays(n)
    assert list(got) == list(want) == partitions(n)
    for lam in want:
        assert got[lam].dtype == np.int8
        assert np.array_equal(got[lam], want[lam]), lam


class TestSchemeAxioms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_axioms_hold(self, n):
        assert verify_scheme_axioms(n) == []

    def test_capacity(self):
        with pytest.raises(CapacityError):
            verify_scheme_axioms(6)


class TestEigenvalues:
    def test_frozen_tables(self):
        for n, table in SPECTRUM_TABLE.items():
            got = tuple(
                (eigenvalue_eta(n, lam), f_lambda(lam.double()))
                for lam in partitions(n)
            )
            assert got == table

    def test_top_eigenvalue_is_the_degree(self):
        # regular graph: the one-part class eigenvalue equals its row sum
        for n in range(1, 6):
            one_part = Partition((n,))
            assert eigenvalue_eta(n, one_part) == sphere_size(n, one_part)

    def test_zero_exactly_on_shapes_containing_the_block(self):
        block = Partition((2, 2, 2))
        for n in range(1, 9):
            for lam in partitions(n):
                assert (eigenvalue_eta(n, lam) == 0) == covers(lam, block)

    def test_omega_frozen_row(self):
        # each eigenvalue over the single-cycle sphere size
        degree = sphere_size(4, Partition((4,)))
        got = [Fraction(eigenvalue_eta(4, lam), degree) for lam in partitions(4)]
        F = Fraction
        assert got == [F(1), F(-1, 6), F(-1, 24), F(1, 12), F(-1, 8)]

    def test_wrong_size_rejected(self):
        with pytest.raises(ValidationError):
            eigenvalue_eta(2, Partition((3,)))


class TestSpectrumCertificate:
    def test_order_four(self):
        lines, ok = certify_spectrum(2)
        assert ok
        got = [(l.lam.parts, l.eta, l.multiplicity, l.nullity_measured, l.ok) for l in lines]
        assert got == [((2,), 2, 1, 1, True), ((1, 1), -1, 2, 2, True)]

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_measured_nullities_match_multiplicities(self, n):
        lines, ok = certify_spectrum(n)
        assert ok
        for line in lines:
            assert line.nullity_measured == line.multiplicity
            assert line.ok

    def test_capacity(self):
        with pytest.raises(CapacityError):
            certify_spectrum(6)


class TestSpectrumPrimes:
    def test_frozen_for_order_ten(self):
        assert spectrum_primes(5) == [53, 59]

    def test_distinct_residues_guaranteed(self):
        for n in range(1, 6):
            for p in spectrum_primes(n, count=3):
                assert p > 50
                residues = {eigenvalue_eta(n, lam) % p for lam in partitions(n)}
                assert len(residues) == len(partitions(n))
