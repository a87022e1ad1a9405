"""Acceptance criteria, one test per criterion.

Criterion N runs the N-th certification suite of ``matchconn.checks``, the
same lines ``matchconn verify`` prints, and passes when every line passed
and the suite finished inside the criterion's wall-clock budget, where it
has one. Each test reports a single pass/fail line through the ``verdict``
fixture (rendered together at the end of the run).

Criteria 3 and 4 have an expensive order-12 tier that only runs under
``--large`` (or MATCHCONN_LARGE=1). Its ranks are computed before the clock
starts, so the budget times the same work with and without the tier.
Without the flag the verdict notes that the tier was skipped.
"""

from __future__ import annotations

import time

from matchconn import checks


def _criterion(verdict, num, title, suite, budget=None, large=None):
    """Run one suite and record its verdict; ``large`` is None for suites
    without an order-12 tier."""
    if large:
        checks.order_12_ranks()
    t0 = time.perf_counter()
    lines = checks.run_suite(suite, large=bool(large))
    elapsed = time.perf_counter() - t0
    failed = [line.render() for line in lines if not line.ok]
    detail = f"{len(lines) - len(failed)}/{len(lines)} [{suite}] checks passed, {elapsed:.1f}s"
    if budget is not None:
        detail += f" of {budget:g}s"
    if large is False:
        detail += "; order-12 tier skipped"
    detail += "".join(f"; {line}" for line in failed)
    ok = bool(lines) and not failed and (budget is None or elapsed < budget)
    verdict(num, title, ok, detail)


def test_criterion_01_order_six_determinant(verdict):
    _criterion(verdict, 1, "det of order-6 matrix is -2^17", "determinant", budget=1)


def test_criterion_02_mod_two_rank_ladder(verdict):
    _criterion(verdict, 2, "mod-2 ranks are powers of two", "rank-mod-2", budget=10)


def test_criterion_03_small_prime_ranks(verdict, large_tier):
    _criterion(
        verdict, 3, "prime-field ranks match published table", "rank-mod-p",
        budget=30, large=large_tier,
    )


def test_criterion_04_rational_rank_formula(verdict, large_tier):
    _criterion(
        verdict, 4, "rational ranks match hook-length formula", "rank-formula",
        budget=300, large=large_tier,
    )


def test_criterion_05_spectrum_certificates(verdict):
    _criterion(verdict, 5, "eigenvalue table certified with multiplicities", "spectrum")


def test_criterion_06_bipartite_block_ranks(verdict):
    _criterion(verdict, 6, "bipartite block ranks are central binomials", "bipartite", budget=60)


def test_criterion_07_association_scheme_axioms(verdict):
    _criterion(verdict, 7, "class matrices form an association scheme", "scheme")


def test_criterion_08_tensor_amplification(verdict):
    _criterion(verdict, 8, "product-graph block is the Kronecker square", "tensor", budget=120)


def test_criterion_09_fingerprint_matrix_ranks(verdict):
    _criterion(verdict, 9, "combine-matrix ranks match binomial sum", "fingerprint-rank")


def test_criterion_10_fingerprint_gadgets(verdict):
    _criterion(verdict, 10, "gadgets realize prescribed spectra exactly", "gadgets", budget=300)


def test_criterion_11_label_gadget_closures(verdict):
    _criterion(verdict, 11, "label gadget admits only its two port pairs", "label-gadget")


def test_criterion_12_reduction_corpus(verdict):
    _criterion(verdict, 12, "compiled graphs count models mod p", "reduction", budget=1800)


def test_criterion_13_pairwise_gluings(verdict):
    _criterion(verdict, 13, "pairwise gluings reproduce combine matrix", "glue")


def test_criterion_14_rank_lower_bound_chain(verdict):
    _criterion(verdict, 14, "rank dominates catalan product and 4^n/n^3", "catalan")
