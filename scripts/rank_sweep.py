#!/usr/bin/env python3
"""Sweep connectivity-matrix ranks over a grid of orders and fields.

Typical runs:

    python scripts/rank_sweep.py
    python scripts/rank_sweep.py --orders 2 4 6 8 10 --mods 2 3 5 7 11 13
    python scripts/rank_sweep.py --large --mods 3 5 7 --no-rational

Order 12 needs --large (a 10395-dimensional matrix; one rank of M_12 mod 3
took 34 s and 582 MB peak memory on a shared 2-core VM).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from matchconn.exactalg import PrimeField, rank
from matchconn.matchings import build_M
from matchconn.tableaux import rational_rank_formula


@dataclass
class SweepConfig:
    orders: tuple[int, ...] = (2, 4, 6, 8, 10)
    mods: tuple[int, ...] = (2, 3, 5, 7)
    rational: bool = True
    large: bool = False
    timings: bool = field(default=False)

    def check(self) -> None:
        for k in self.orders:
            if k % 2 or k < 0:
                raise SystemExit(f"orders must be even and nonnegative, got {k}")
            if k >= 12 and not self.large:
                raise SystemExit(f"order {k} needs --large")


def parse_args(argv: list[str] | None) -> SweepConfig:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--orders", type=int, nargs="+", default=None)
    ap.add_argument("--mods", type=int, nargs="+", default=[2, 3, 5, 7])
    ap.add_argument("--no-rational", dest="rational", action="store_false")
    ap.add_argument("--large", action="store_true")
    ap.add_argument("--timings", action="store_true")
    ns = ap.parse_args(argv)
    orders = ns.orders
    if orders is None:
        orders = [2, 4, 6, 8, 10] + ([12] if ns.large else [])
    cfg = SweepConfig(
        orders=tuple(orders),
        mods=tuple(ns.mods),
        rational=ns.rational,
        large=ns.large,
        timings=ns.timings,
    )
    cfg.check()
    return cfg


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(argv)
    cols = [f"mod {p}" for p in cfg.mods] + (["rational", "formula"] if cfg.rational else [])
    print(f"{'order':>6} {'dim':>6} " + " ".join(f"{c:>9}" for c in cols))
    for k in cfg.orders:
        t0 = time.perf_counter()
        M = build_M(k, large=cfg.large)
        cells = []
        for p in cfg.mods:
            cells.append(str(rank(M.with_field(PrimeField(p)))))
        if cfg.rational:
            if k >= 12:
                # Bareiss at this size is out of reach; print the formula
                # value and leave the measured column blank.
                cells.append("-")
            else:
                cells.append(str(rank(M)))
            cells.append(str(rational_rank_formula(k // 2)))
        line = f"{k:>6} {M.nrows:>6} " + " ".join(f"{c:>9}" for c in cells)
        if cfg.timings:
            line += f"   ({time.perf_counter() - t0:.1f}s)"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
