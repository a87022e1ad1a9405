"""The certification suites fail when the kernels they call are wrong.

``verify`` and the acceptance tests read the same suites, so a suite that
passes whatever its kernels return would hide a bug from both.
"""

import pytest

from matchconn import checks
from matchconn.cli import main


def _value_off_by_one(real):
    return lambda matrix: real(matrix) + 1


def _residue_off_by_one(real):
    def count(*args, **kwargs):
        out = real(*args, **kwargs)
        out.value = (out.value + 1) % out.modulus
        return out

    return count


@pytest.mark.parametrize(
    "kernel,wrong,suite",
    [
        ("rank", _value_off_by_one, "rank-mod-2"),
        ("det", _value_off_by_one, "determinant"),
        ("count_hc_pathdp", _residue_off_by_one, "reduction"),
    ],
)
def test_an_off_by_one_kernel_fails_its_suite(monkeypatch, capsys, kernel, wrong, suite):
    monkeypatch.setattr(checks, kernel, wrong(getattr(checks, kernel)))
    assert main(["verify", suite]) == 1
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert lines and all(line.startswith(f"FAIL [{suite}] ") for line in lines)



def test_the_order_12_ranks_are_built_once_for_both_suites(monkeypatch):
    # Order 8 stands in for orders 10 and 12, whose ranks take seconds and
    # minutes; the lines fail, but only the number of builds is asserted.
    real = checks.build_M
    built = []

    def build(k, large=False):
        built.append(k)
        return real(min(k, 8))

    monkeypatch.setattr(checks, "build_M", build)
    checks.order_12_ranks.cache_clear()
    try:
        lines = checks.run_suite("rank-mod-p", large=True)
        lines += checks.run_suite("rank-formula", large=True)
    finally:
        checks.order_12_ranks.cache_clear()
    assert built.count(12) == 1
    assert [line.name for line in lines if "12" in line.name or "n=6" in line.name] == [
        "order 12 mod 3", "order 12 mod 5", "order 12 mod 7",
        "n=6 certified through the mod-7 rank",
    ]
