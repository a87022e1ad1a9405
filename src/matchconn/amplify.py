"""Kronecker self-similarity inside big matchings connectivity matrices.

Take t stacked copies of the complete graph on B vertices and patch them
into a ring: copy i keeps all its clique edges, and every vertex of copy i
except the first gains an edge to the first vertex of copy i+1 (indices
wrap). Perfect matchings of this product graph restrict nicely: from a set
I of matchings of one copy, the plain family takes disjoint unions across
copies, and the detoured family reroutes, in each copy, the edge at the
first vertex through the patch into the next copy. The connectivity matrix
entries between the two families factor as the t-fold Kronecker power of
the base family's connectivity pattern, which is how low-order rank data
amplifies to high order.

Each block of the big matrix is one matchings.union_table of the two
families, so only the needed entries are computed, never the full order-tB
matrix (at order 12 a 10395^2 array).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exactalg import (
    RATIONALS,
    CapacityError,
    ExactMatrix,
    PrimeField,
    ValidationError,
    kronecker,
    rank,
)
from .graphs import AnnotatedGraph, edge_key
from .matchings import (
    Matching,
    build_M,
    enumerate_matchings,
    matching_count,
    union_table,
)

__all__ = [
    "ProductGraph",
    "build_product_graph",
    "tensor_matchings",
    "verify_tensor_identity",
    "TensorCheck",
    "mod_rank_report",
    "ModRankRow",
    "MAX_TENSOR_FAMILY",
    "MAX_TENSOR_COPIES",
]


@dataclass
class ProductGraph:
    copies: int
    base_size: int
    graph: AnnotatedGraph
    patch_edges: list[tuple[int, int]]

    def vertex(self, copy: int, j: int) -> int:
        """Stable id of vertex j (1-based) in copy i (1-based): (i-1)*B + j."""
        return (copy - 1) * self.base_size + j


# Largest tensor family verify_tensor_identity accepts. Its blocks are
# family^2 union tables: on a 2-core x86-64 VM, (B, t) = (10, 1) with 945
# members takes 0.17 s, (4, 6) with 729 takes 0.37 s, and the next shape,
# (4, 7) with 2187, would take 1.7 s.
MAX_TENSOR_FAMILY = 1000
# Largest number of copies. A one-member family (B = 2, or a one-matching
# base) never meets MAX_TENSOR_FAMILY, but the product graph and its members
# still grow with t: verify_tensor_identity(2, t) takes 0.08 s at t = 1,000
# and 0.7 s at t = 10,000. Every family of two or more members stops at
# t = 9 already.
MAX_TENSOR_COPIES = 1000


def _check_product_shape(base_size: int, copies: int, base_count: int = 0) -> None:
    """Reject a bad shape, more than MAX_TENSOR_COPIES copies, and a family of
    base_count^copies members over MAX_TENSOR_FAMILY."""
    if base_size < 2 or copies < 1:
        raise ValidationError("need base size >= 2 and at least one copy")
    if copies > MAX_TENSOR_COPIES:
        raise CapacityError(
            f"a product of {copies} copies exceeds the ceiling {MAX_TENSOR_COPIES}"
        )
    if base_count > 1 and base_count**copies > MAX_TENSOR_FAMILY:
        raise CapacityError(
            f"tensor family of {base_count}^{copies} members exceeds the "
            f"ceiling {MAX_TENSOR_FAMILY}"
        )


def build_product_graph(base_size: int, copies: int) -> ProductGraph:
    """t copies of K_B in a ring; patch edges j -> next copy's vertex 1, j != 1."""
    _check_product_shape(base_size, copies)
    n = copies * base_size
    starts = range(0, n, base_size)  # vertex j of the copy at s is s + j
    edges = [e for s in starts for e in itertools.combinations(range(s + 1, s + base_size + 1), 2)]
    # a single copy's patch edges lie inside its K_B already
    patch_edges = sorted(
        edge_key(s + j, (s + base_size) % n + 1) for s in starts for j in range(2, base_size + 1)
    ) if copies > 1 else []
    graph = AnnotatedGraph.from_edges(range(1, n + 1), edges + patch_edges)
    return ProductGraph(copies, base_size, graph, patch_edges)


def _shift(m: Matching, offset: int) -> list[tuple[int, int]]:
    return [(u + offset, v + offset) for u, v in m.pairs]


def tensor_matchings(base: list[Matching], copies: int, detoured: bool) -> list[Matching]:
    """The plain (disjoint union) or detoured tensor family's members.

    The base matchings must all be perfect matchings of {1..B}. Detoured:
    in copy i the pair (1, r) of the chosen base matching loses its edge at
    vertex 1 and instead connects r to vertex 1 of copy i+1 (wrapping), so
    every member stays a perfect matching of the product graph using one
    patch edge per copy. Members follow the lexicographic order of index
    tuples (last index fastest): member sum(a_i * |base|^(t-i)) is the tuple
    (a_1, ..., a_t).
    """
    if not base:
        raise ValidationError("empty base family")
    B = len(base[0].vertices())
    if any(m.vertices() != tuple(range(1, B + 1)) for m in base):
        raise ValidationError("base matchings must all cover {1..B}")
    pg = build_product_graph(B, copies)
    members = []
    for combo in itertools.product(range(len(base)), repeat=copies):
        pairs: list[tuple[int, int]] = []
        if not detoured:
            for i, a in enumerate(combo, start=1):
                pairs.extend(_shift(base[a], (i - 1) * B))
        else:
            for i, a in enumerate(combo, start=1):
                m = base[a]
                partner = m.partner()
                r = partner[1]
                nxt = i % copies + 1
                for u, v in m.pairs:
                    if 1 in (u, v):
                        continue
                    pairs.append((u + (i - 1) * B, v + (i - 1) * B))
                pairs.append((pg.vertex(i, r), pg.vertex(nxt, 1)))
        member = Matching.from_pairs(pairs)
        for u, v in member.pairs:
            if not pg.graph.has_edge(u, v):
                raise AssertionError(f"member uses non-edge {u}-{v} of the product graph")
        members.append(member)
    return members


@dataclass
class TensorCheck:
    base_size: int
    copies: int
    family_size: int
    identity_holds: bool
    base_matrix: ExactMatrix
    big_block: ExactMatrix
    kron_power: ExactMatrix


def verify_tensor_identity(
    base_size: int, copies: int, base: list[Matching] | None = None
) -> TensorCheck:
    """Compare the plain-vs-detoured block against the Kronecker power.

    Default base family: all matchings of {1..B}. The block of the order
    t*B connectivity matrix at rows = plain family, cols = detoured family
    must equal the t-fold Kronecker power of the base family's own
    connectivity matrix (and the plain-vs-plain block is zero for t >= 2,
    since unions decompose per copy).
    """
    if base is None:
        # counted before anything is enumerated; an odd size is refused by
        # the shape check or by enumerate_matchings
        count = matching_count(base_size) if base_size % 2 == 0 else 0
    elif any(m.vertices() != tuple(range(1, base_size + 1)) for m in base):
        raise ValidationError(f"base matchings must all cover {{1..{base_size}}}")
    else:
        count = len(base)
    _check_product_shape(base_size, copies, count)
    if base is None:
        base = enumerate_matchings(base_size)
    plain = tensor_matchings(base, copies, detoured=False)
    detoured = tensor_matchings(base, copies, detoured=True)
    F = ExactMatrix(RATIONALS, union_table(base, base), base, base)
    big_arr = union_table(plain, detoured)
    big = ExactMatrix(RATIONALS, big_arr, plain, detoured)
    power = F
    for _ in range(copies - 1):
        power = kronecker(power, F)
    holds = np.array_equal(big.numpy(), power.numpy())
    if copies >= 2:
        # unions of two plain members split into per-copy components, so the
        # plain-vs-plain block must vanish identically
        holds = holds and not union_table(plain, plain).any()
    return TensorCheck(
        base_size=base_size,
        copies=copies,
        family_size=len(plain),
        identity_holds=bool(holds),
        base_matrix=F,
        big_block=big,
        kron_power=power,
    )


@dataclass(frozen=True)
class ModRankRow:
    order: int
    dimension: int
    rank_mod_p: int
    rank_root: float


def mod_rank_report(p: int, large: bool = False) -> list[ModRankRow]:
    """Rank of the connectivity matrices mod p for orders 4..10 (12 if large).

    rank_root is rank^(1/order), the per-boundary-vertex growth base that
    the amplification argument turns into asymptotic lower bounds.
    """
    orders = [4, 6, 8, 10] + ([12] if large else [])
    out = []
    for k in orders:
        M = build_M(k, large=large).with_field(PrimeField(p))
        r = rank(M)
        out.append(
            ModRankRow(
                order=k,
                dimension=M.nrows,
                rank_mod_p=r,
                rank_root=round(r ** (1.0 / k), 6),
            )
        )
    return out
