"""Partition combinatorics: hook counts against chain enumeration, frozen
rank-formula values, and the containment filter behind them.

The hook-length route to tableau counts is cross-checked with a plain
corner-stripping enumerator, and the noncover filter with a direct
third-part oracle, so the rank formula rests on two independent legs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchconn.checks import PUBLISHED
from matchconn.exactalg import ValidationError, rank
from matchconn.matchings import build_M
from matchconn.tableaux import (
    DominoHookRow,
    Partition,
    bipartite_rank_check,
    catalan,
    covers,
    domino_hook_report,
    double_factorial,
    f_lambda,
    hook_lengths,
    noncover_partitions,
    partitions,
    rational_rank_formula,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def enumerate_syt(lam):
    """Count standard tableaux by plain backtracking (independent of hooks).

    Recursively strips removable corners, counting maximal chains in the
    Young lattice from lambda down to the empty shape. No memoization, so
    this really enumerates one chain per tableau; keep n at 10 or below.
    """
    if lam.n > 10:
        raise ValidationError(f"backtracking oracle capped at n=10, got {lam.n}")

    def rec(shape):
        if not shape:
            return 1
        total = 0
        for i in range(len(shape)):
            if i == len(shape) - 1 or shape[i] > shape[i + 1]:
                if shape[i] == 1:
                    reduced = shape[:i]
                else:
                    reduced = shape[:i] + (shape[i] - 1,) + shape[i + 1 :]
                total += rec(reduced)
        return total

    return rec(lam.parts)


def random_partition(rng: random.Random, max_n: int = 9) -> Partition:
    n = rng.randint(0, max_n)
    opts = partitions(n)
    return opts[rng.randrange(len(opts))]


partition_st = st.builds(
    lambda seed: random_partition(random.Random(seed)), st.integers(0, 10**6)
)


class TestPartitionBasics:
    def test_counts_match_the_partition_numbers(self):
        for n, want in enumerate(PARTITION_COUNTS):
            assert len(partitions(n)) == want

    def test_reverse_lexicographic_endpoints(self):
        for n in range(1, 9):
            ps = partitions(n)
            assert ps[0] == Partition((n,))
            assert ps[-1] == Partition((1,) * n)

    def test_all_distinct_and_sum_to_n(self):
        for n in range(9):
            ps = partitions(n)
            assert len(set(ps)) == len(ps)
            assert all(p.n == n for p in ps)

    def test_nonpositive_part_rejected(self):
        with pytest.raises(ValidationError):
            Partition((3, 0))

    def test_increasing_parts_rejected(self):
        with pytest.raises(ValidationError):
            Partition((2, 3))

    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            partitions(-1)

    def test_text_form(self):
        assert Partition((3, 2, 2)).text() == "3+2+2"
        assert Partition(()).text() == ""
        assert str(Partition(())) == "()"

    def test_double_doubles_every_part(self):
        assert Partition((3, 1)).double() == Partition((6, 2))
        assert Partition(()).double() == Partition(())

    def test_transpose_frozen_example(self):
        assert Partition((4, 2, 1)).transpose() == Partition((3, 2, 1, 1))

    @given(partition_st)
    def test_transpose_is_an_involution(self, lam):
        assert lam.transpose().transpose() == lam

    def test_multiplicities(self):
        assert Partition((3, 2, 2, 1)).multiplicities() == {3: 1, 2: 2, 1: 1}


def cells(lam: Partition) -> set[tuple[int, int]]:
    return {
        (r, c)
        for r in range(1, lam.length() + 1)
        for c in range(1, lam.parts[r - 1] + 1)
    }


class TestCovers:
    @given(partition_st, partition_st)
    def test_agrees_with_cell_containment(self, lam, mu):
        assert covers(lam, mu) == (cells(mu) <= cells(lam))

    @given(partition_st)
    def test_reflexive(self, lam):
        assert covers(lam, lam)


class TestHooksAndTableaux:
    def test_hooks_frozen_example(self):
        assert hook_lengths(Partition((3, 2))) == {
            (1, 1): 4,
            (1, 2): 3,
            (1, 3): 1,
            (2, 1): 2,
            (2, 2): 1,
        }

    @given(partition_st)
    def test_corner_cells_have_hook_one(self, lam):
        hooks = hook_lengths(lam)
        for r in range(1, lam.length() + 1):
            row = lam.parts[r - 1]
            below = lam.parts[r] if r < lam.length() else 0
            if row > below:
                assert hooks[(r, row)] == 1

    @given(partition_st)
    def test_transpose_preserves_the_hook_multiset(self, lam):
        assert sorted(hook_lengths(lam).values()) == sorted(
            hook_lengths(lam.transpose()).values()
        )

    def test_single_row_and_column_shapes(self):
        for n in range(1, 8):
            assert f_lambda(Partition((n,))) == 1
            assert f_lambda(Partition((1,) * n)) == 1

    def test_two_row_rectangles_give_catalan(self):
        for k in range(1, 7):
            assert f_lambda(Partition((k, k))) == catalan(k)

    @settings(deadline=None)
    @given(partition_st)
    def test_transpose_invariance(self, lam):
        assert f_lambda(lam) == f_lambda(lam.transpose())

    def test_hook_formula_vs_chain_enumeration(self):
        # backtracking over corner-stripping chains never touches hooks
        for n in range(0, 9):
            for lam in partitions(n):
                assert enumerate_syt(lam) == f_lambda(lam), lam

    def test_enumeration_capped(self):
        with pytest.raises(ValidationError):
            enumerate_syt(Partition((11,)))

    def test_squared_counts_sum_to_factorial(self):
        from math import factorial

        for n in range(0, 9):
            assert sum(f_lambda(lam) ** 2 for lam in partitions(n)) == factorial(n)


class TestRankFormula:
    def test_frozen_values(self):
        published = PUBLISHED["rank_formula_by_n"]
        assert {n: rational_rank_formula(n) for n in published} == published
        assert [rational_rank_formula(n) for n in (0, 1, 7)] == [1, 1, 114114]

    def test_doubled_shapes_sum_to_the_double_factorial(self):
        for n in range(0, 8):
            total = sum(f_lambda(lam.double()) for lam in partitions(n))
            assert total == double_factorial(2 * n - 1)

    def test_noncover_filter_first_bites_at_six(self):
        # below six rows*columns cannot hold a 2x3 block, so the filtered
        # and unfiltered sums agree; at six exactly one shape drops out
        for n in range(0, 6):
            assert rational_rank_formula(n) == double_factorial(2 * n - 1)
        gap = double_factorial(11) - rational_rank_formula(6)
        assert gap == f_lambda(Partition((4, 4, 4))) == 462

    def test_formula_matches_measured_rank_small(self):
        for n in (2, 3):
            assert rational_rank_formula(n) == rank(build_M(2 * n))

    def test_noncover_against_third_part_oracle(self):
        for n in range(0, 13):
            expect = [
                lam
                for lam in partitions(n)
                if lam.length() < 3 or lam.parts[2] < 2
            ]
            assert noncover_partitions(n) == expect

    def test_noncover_count_at_six(self):
        assert len(noncover_partitions(6)) == 10
        assert Partition((2, 2, 2)) not in noncover_partitions(6)


class TestBipartiteCheck:
    def test_frozen_values_agree(self):
        assert bipartite_rank_check(2) == (2, 2)
        assert bipartite_rank_check(3) == (6, 6)
        assert bipartite_rank_check(4) == (20, 20)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            bipartite_rank_check(1)
        with pytest.raises(ValidationError):
            bipartite_rank_check(6)


def test_catalan_recurrence():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(7):
        assert catalan(n + 1) == sum(catalan(i) * catalan(n - i) for i in range(n + 1))


def test_double_factorial_values():
    assert [double_factorial(2 * n - 1) for n in range(7)] == [
        1,
        1,
        3,
        15,
        105,
        945,
        10395,
    ]
    assert double_factorial(0) == 1
    assert double_factorial(-5) == 1


class TestDominoHookReport:
    def test_frozen_rows(self):
        # three columns reported side by side; the first two track each
        # other loosely and neither equals the third, which is the point
        assert domino_hook_report(2) == DominoHookRow(2, 2, 2, 3)
        assert domino_hook_report(3) == DominoHookRow(3, 5, 10, 15)
        assert domino_hook_report(4) == DominoHookRow(4, 28, 70, 105)
        assert domino_hook_report(5) == DominoHookRow(5, 294, 588, 945)
        assert domino_hook_report(6) == DominoHookRow(6, 2904, 5544, 9933)

    def test_columns_stay_distinct(self):
        # the literal-shape sum genuinely undershoots the full formula,
        # so no test may ever collapse the columns into one route
        for n in range(3, 7):
            row = domino_hook_report(n)
            assert row.literal_sum < row.noncover_sum
            assert row.catalan_product < row.noncover_sum

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            domino_hook_report(1)
