"""Ring-of-cliques product graphs and the Kronecker block identity."""

import pytest

from matchconn.amplify import (
    MAX_TENSOR_COPIES,
    MAX_TENSOR_FAMILY,
    _check_product_shape,
    build_product_graph,
    mod_rank_report,
    tensor_matchings,
    verify_tensor_identity,
)
from matchconn.checks import PUBLISHED
from matchconn.exactalg import CapacityError, ValidationError, rank
from matchconn.matchings import Matching, enumerate_matchings, is_single_cycle


def test_product_graph_shape():
    pg = build_product_graph(4, 3)
    assert len(pg.graph.vertices) == 12
    # three 6-edge cliques plus three vertices patching into each next copy
    assert len(pg.graph.edges) == 3 * 6 + 3 * 3
    assert len(pg.patch_edges) == 9
    assert pg.patch_edges == sorted(pg.patch_edges)
    assert pg.vertex(1, 1) == 1
    assert pg.vertex(2, 1) == 5
    assert pg.vertex(3, 4) == 12


def test_patch_edges_leave_every_non_first_vertex():
    pg = build_product_graph(5, 2)
    firsts = {pg.vertex(i, 1) for i in (1, 2)}
    for u, v in pg.patch_edges:
        assert (u in firsts) != (v in firsts)
    assert len(pg.patch_edges) == 2 * 4


def test_single_copy_needs_no_patches():
    # the wrap-around lands inside the same clique, so nothing is added
    pg = build_product_graph(4, 1)
    assert pg.patch_edges == []
    assert len(pg.graph.edges) == 6


def test_product_graph_validation():
    with pytest.raises(ValidationError):
        build_product_graph(1, 2)
    with pytest.raises(ValidationError):
        build_product_graph(4, 0)


@pytest.mark.parametrize("base_size,copies", [(0, 2), (1, 2), (4, 0)])
def test_tensor_identity_rejects_the_shapes_the_product_graph_rejects(base_size, copies):
    with pytest.raises(ValidationError, match="need base size >= 2"):
        verify_tensor_identity(base_size, copies)


@pytest.mark.parametrize("base_size,copies", [(6, 3), (4, 7), (8, 2), (12, 1), (4, 10**9)])
def test_tensor_identity_refuses_families_over_the_ceiling(base_size, copies):
    with pytest.raises(CapacityError, match="exceeds the ceiling"):
        verify_tensor_identity(base_size, copies)


@pytest.mark.parametrize("base_size", [2, 4])
def test_product_refuses_copies_over_the_ceiling(base_size):
    # at B = 2 the family has one member for every t, so only this ceiling
    # stops a huge t
    _check_product_shape(base_size, MAX_TENSOR_COPIES)
    for copies in (MAX_TENSOR_COPIES + 1, 10**9):
        with pytest.raises(CapacityError, match="copies exceeds the ceiling"):
            build_product_graph(base_size, copies)
        with pytest.raises(CapacityError, match="copies exceeds the ceiling"):
            verify_tensor_identity(base_size, copies)


def test_tensor_family_ceiling_keeps_the_certified_shapes():
    # (6, 2) is the shape `verify tensor` and the benchmark run
    for base_size, copies in [(6, 2), (4, 6), (10, 1), (2, 50)]:
        count = len(enumerate_matchings(base_size))
        assert count**copies <= MAX_TENSOR_FAMILY
        _check_product_shape(base_size, copies, count)
    # a small explicit base is measured by its own size
    chk = verify_tensor_identity(4, 7, base=enumerate_matchings(4)[:1])
    assert chk.family_size == 1 and chk.identity_holds


class TestTensorFamilies:
    def test_plain_members_are_shifted_disjoint_unions(self):
        base = enumerate_matchings(4)
        members = tensor_matchings(base, 2, detoured=False)
        assert len(members) == 9
        # member ordering: last copy index moves fastest
        for a in range(3):
            for b in range(3):
                member = members[3 * a + b]
                left = tuple(p for p in member.pairs if p[1] <= 4)
                right = tuple((u - 4, v - 4) for u, v in member.pairs if u > 4)
                assert left == base[a].pairs
                assert right == base[b].pairs

    def test_detoured_members_use_one_patch_edge_per_copy(self):
        base = enumerate_matchings(4)
        pg = build_product_graph(4, 3)
        members = tensor_matchings(base, 3, detoured=True)
        assert len(members) == 27
        patches = set(pg.patch_edges)
        for member in members:
            used = [p for p in member.pairs if p in patches]
            assert len(used) == 3
            assert sorted(member.vertices()) == list(range(1, 13))

    def test_validation(self):
        with pytest.raises(ValidationError):
            tensor_matchings([], 2, detoured=False)
        with pytest.raises(ValidationError):
            tensor_matchings([Matching(((2, 3),))], 2, detoured=False)
        with pytest.raises(ValidationError):
            tensor_matchings(
                [Matching(((1, 2),)), Matching(((1, 2), (3, 4)))], 2, detoured=False
            )


class TestKroneckerIdentity:
    @pytest.mark.parametrize("base_size,copies", [(4, 2), (4, 3), (6, 2)])
    def test_block_equals_kronecker_power(self, base_size, copies):
        chk = verify_tensor_identity(base_size, copies)
        assert chk.identity_holds
        assert chk.family_size == len(enumerate_matchings(base_size)) ** copies
        assert chk.big_block.numpy().shape == chk.kron_power.numpy().shape

    @pytest.mark.parametrize("base_size,copies", [(4, 2), (6, 2)])
    def test_block_is_the_pairwise_predicate(self, base_size, copies):
        chk = verify_tensor_identity(base_size, copies)
        base = enumerate_matchings(base_size)
        plain = tensor_matchings(base, copies, detoured=False)
        detoured = tensor_matchings(base, copies, detoured=True)
        assert chk.big_block.row_labels == plain
        assert chk.big_block.col_labels == detoured
        want = [[int(is_single_cycle(a, b)) for b in detoured] for a in plain]
        assert chk.big_block.numpy().tolist() == want
        want_f = [[int(is_single_cycle(a, b)) for b in base] for a in base]
        assert chk.base_matrix.numpy().tolist() == want_f

    def test_plain_pairs_never_close_one_cycle(self):
        members = tensor_matchings(enumerate_matchings(4), 2, detoured=False)
        for a in members:
            for b in members:
                assert not is_single_cycle(a, b)

    def test_block_rank_is_the_base_rank_power(self):
        chk = verify_tensor_identity(4, 2)
        assert rank(chk.base_matrix) == 3
        assert rank(chk.big_block) == 9

    def test_base_must_cover_the_named_size(self):
        # a B = 4 family reported as B = 6 used to pass as a B = 6 identity
        with pytest.raises(ValidationError, match="cover"):
            verify_tensor_identity(6, 2, base=enumerate_matchings(4))
        stray = Matching(((2, 5), (3, 4)))
        with pytest.raises(ValidationError, match="cover"):
            verify_tensor_identity(4, 2, base=[*enumerate_matchings(4), stray])

    def test_sub_family_identity(self):
        # the identity holds for any base family, not just the full one
        base = enumerate_matchings(4)[:2]
        chk = verify_tensor_identity(4, 2, base=base)
        assert chk.identity_holds
        assert chk.family_size == 4


class TestModRankReport:
    def test_mod_five_rows(self):
        rows = mod_rank_report(5)
        assert [(r.order, r.dimension, r.rank_mod_p) for r in rows] == [
            (4, 3, 3),
            (6, 15, 15),
            (8, 105, 105),
            (10, 945, PUBLISHED["ranks_order_10_mod_p"][5]),
        ]
        assert [r.rank_root for r in rows] == [
            1.316074,
            1.570418,
            1.789158,
            1.984007,
        ]

    def test_mod_two_rows_drop_hard(self):
        rows = mod_rank_report(2)
        published = PUBLISHED["ranks_mod_2"]
        assert [(r.order, r.rank_mod_p) for r in rows] == [
            (k, published[k]) for k in (4, 6, 8, 10)
        ]

    def test_rank_root_monotone_in_order(self):
        for p in (2, 5):
            roots = [r.rank_root for r in mod_rank_report(p)]
            assert roots == sorted(roots)
