"""The decomposition maps and their inverses, checked against a diagram-level
oracle that strips rim hooks by hand."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from abacore import (
    CoreData,
    GeneralizedCore,
    boundary_nodes,
    core_data,
    count_nodes_by_residue,
    e_core_partition,
    generalized_core,
    in_closed_domain,
    in_strict_domain,
    is_core,
    is_core_nodewise,
    level_rank_transpose,
    tau_e,
    tau_e_inverse,
    tau_l,
    tau_l_inverse,
)
from abacore.partitions import mp_size, multipartitions_of, partitions_of, size
from abacore.quotients import _empty_label, _row_tally, _runner_counts

import oracle

partition = st.integers(0, 10).flatmap(
    lambda n: st.sampled_from([p for p in partitions_of(n)])
)


@st.composite
def charged_mp(draw, max_level=3, max_size=7):
    l = draw(st.integers(1, max_level))
    mp = tuple(
        draw(
            st.integers(0, max_size).flatmap(
                lambda n: st.sampled_from([p for p in partitions_of(n)])
            )
        )
        for _ in range(l)
    )
    charges = tuple(draw(st.integers(-3, 3)) for _ in range(l))
    e = draw(st.integers(2, 4))
    return mp, charges, e


def test_tau_e_example():
    assert tau_e((6, 3, 2, 1, 1), 0, 3) == (((), (2,), (1,)), (0, -1, 1))
    assert tau_e_inverse(((2, 1), (2,), (2, 1, 1)), (0, 1, -1)) == (
        (8, 5, 5, 2, 2, 2, 2, 1, 1, 1),
        0,
    )


def test_tau_e_single_column_is_not_a_row():
    # the runner-0 bead of (1) at m=0 sits above a gap: the quotient
    # component is a column, not a row
    assert tau_e_inverse(((1,), ()), (0, 0)) == ((1, 1), 0)


def test_tau_e_charges_sum_to_m():
    for p in partitions_of(6):
        for m in (-2, 0, 3):
            for e in (2, 3):
                q, s = tau_e(p, m, e)
                assert len(q) == len(s) == e
                assert sum(s) == m


def test_core_against_rim_hook_stripping():
    for n in range(11):
        for p in partitions_of(n):
            for e in (2, 3, 4):
                assert e_core_partition(p, e) == oracle.e_core_by_stripping(p, e)


def test_stripping_order_does_not_matter():
    for n in range(9):
        for p in partitions_of(n):
            assert len(oracle.cores_every_order(p, 3)) == 1


def test_weight_counts_hooks_divisible_by_e():
    for n in range(11):
        for p in partitions_of(n):
            for e in (2, 3, 4):
                w = core_data(p, 0, e).weight
                assert w == sum(1 for h in oracle.hook_lengths(p) if h % e == 0)


def test_core_data_fields():
    c = core_data((6, 3, 2, 1, 1), 0, 3)
    assert c == CoreData((0, -1, 1), (3, 1), 3)
    q, s = tau_e((6, 3, 2, 1, 1), 0, 3)
    assert c.core_multicharge == s
    assert c.weight == mp_size(q)


@given(partition, st.integers(-3, 3), st.integers(2, 4))
def test_tau_e_round_trip(p, m, e):
    q, s = tau_e(p, m, e)
    assert tau_e_inverse(q, s) == (p, m)
    assert size(p) == size(e_core_partition(p, e)) + e * mp_size(q)


@given(partition, st.integers(-3, 3), st.integers(2, 4), st.integers(1, 3))
def test_tau_l_round_trip(p, m, e, l):
    mp, charges = tau_l(p, m, e, l)
    assert len(mp) == len(charges) == l
    assert sum(charges) == m
    assert tau_l_inverse(mp, charges, e) == (p, m)


def test_tau_l_examples():
    assert tau_l((6, 3, 2, 1, 1), 0, 3, 2) == (((3, 1), (2, 1)), (0, 0))
    # level 1 splits nothing
    assert tau_l((4, 2), 1, 3, 1) == (((4, 2),), (1,))


def test_transpose_example():
    assert level_rank_transpose(((3, 1), (2, 1)), (0, 0), 3) == (
        ((), (2,), (1,)),
        (0, -1, 1),
    )


@given(charged_mp())
def test_transpose_agrees_with_composite_route(data):
    mp, charges, e = data
    p, m = tau_l_inverse(mp, charges, e)
    assert level_rank_transpose(mp, charges, e) == tau_e(p, m, e)


def _one(symbols):
    """(p, m) of a partition-view (mp, charges) pair."""
    (p,), (m,) = symbols
    return p, m


def test_maps_match_the_view_reference():
    # the five maps share one kernel, so the independent route is the
    # reference that places each beta-number by the (c, d, k) table
    ref = oracle.relabel_by_definition
    for n in range(9):
        for p in partitions_of(n):
            for m in range(-3, 4):
                for e in (2, 3, 4):
                    quotient, s_e = ref((p,), (m,), e, 1, "partition", "rank")
                    assert tau_e(p, m, e) == (quotient, s_e)
                    assert tau_e_inverse(quotient, s_e) == _one(
                        ref(quotient, s_e, e, 1, "rank", "partition")
                    )
                    for l in (1, 2, 3):
                        mp, charges = ref((p,), (m,), e, l, "partition", "level")
                        assert tau_l(p, m, e, l) == (mp, charges)
                        assert tau_l_inverse(mp, charges, e) == _one(
                            ref(mp, charges, e, l, "level", "partition")
                        )
    for mp, charges, e in oracle.closed_domain_grid():
        l = len(mp)
        want = _one(ref(mp, charges, e, l, "level", "partition"))
        assert tau_l_inverse(mp, charges, e) == want
        mp_e, s_e = ref(mp, charges, e, l, "level", "rank")
        assert level_rank_transpose(mp, charges, e) == (mp_e, s_e)
        want = _one(ref(mp_e, s_e, e, 1, "rank", "partition"))
        assert tau_e_inverse(mp_e, s_e) == want


@given(partition, st.integers(-3, 3), st.integers(2, 4), st.integers(1, 3))
def test_size_identity(p, m, e, l):
    # |p| splits into the empty-quotient part of the level charges, the
    # size of the splitting, and e per residue-0 node of the splitting
    mp, charges = tau_l(p, m, e, l)
    kappa = tau_l_inverse(((),) * l, charges, e)[0]
    n0 = count_nodes_by_residue(mp, charges, e)[0]
    assert size(p) == size(kappa) + mp_size(mp) + e * (l - 1) * n0


def test_generalized_core_example():
    g = generalized_core(((3, 1), (2, 1)), (0, 0), 3)
    assert g == GeneralizedCore(((1,), (2,)), (-1, 1), 3)


@given(charged_mp(max_level=2, max_size=5))
def test_generalized_core_is_idempotent(data):
    mp, charges, e = data
    charges = tuple(sorted(charges))
    if charges[-1] - charges[0] > e:
        charges = (charges[0],) * len(charges)
    g = generalized_core(mp, charges, e)
    again = generalized_core(g.core_mp, g.core_charges, e)
    assert again == GeneralizedCore(g.core_mp, g.core_charges, 0)
    assert is_core(g.core_mp, g.core_charges, e)


@given(charged_mp(max_level=2, max_size=5))
def test_weight_is_the_transpose_size(data):
    mp, charges, e = data
    charges = tuple(sorted(charges))
    if charges[-1] - charges[0] > e:
        charges = (charges[0],) * len(charges)
    g = generalized_core(mp, charges, e)
    assert g.weight == mp_size(level_rank_transpose(mp, charges, e)[0])
    assert g.weight == oracle.fayers_weight(mp, charges, e)


def test_generalized_core_matches_the_move_oracle_exhaustively():
    # the closed form against elementary moves (two move orders) and the
    # residue-count weight, on every small closed-domain case
    last = lambda moves: moves[-1]
    for mp, charges, e in oracle.closed_domain_grid():
        g = generalized_core(mp, charges, e)
        assert g == oracle.generalized_core_by_moves(mp, charges, e)
        assert g == oracle.generalized_core_by_moves(mp, charges, e, pick=last)
        assert g.weight == oracle.fayers_weight(mp, charges, e)


def test_core_routes_agree_small():
    for e in (2, 3):
        for charges in ((0,), (0, 0), (0, 1), (-1, 1)):
            if not in_closed_domain(charges, e):
                continue
            for n in range(7):
                for mp in multipartitions_of(n, len(charges)):
                    assert is_core(mp, charges, e) == is_core_nodewise(mp, charges, e)


def test_core_has_no_split_residue():
    # a core never carries an addable and a removable node of one residue;
    # the converse fails (a single 3-row at charge 0, e=2, is no 2-core)
    for n in range(7):
        for mp in multipartitions_of(n, 2):
            if is_core(mp, (0, 1), 3):
                for i in range(3):
                    add, rem = boundary_nodes(mp, (0, 1), 3, i)
                    assert not (add and rem)
    assert not is_core(((3,),), (0,), 2)
    add, rem = boundary_nodes(((3,),), (0,), 2, 1)
    assert add and not rem


def test_domain_predicates():
    assert in_closed_domain((0, 2), 2)
    assert not in_strict_domain((0, 2), 2)
    assert in_strict_domain((0, 1), 2)
    assert not in_closed_domain((1, 0), 5)


def test_out_of_domain_charges_are_rejected():
    with pytest.raises(ValueError):
        generalized_core(((1,), ()), (3, 0), 2)
    # the operations test validated charges with their own comparison;
    # it must reject exactly what the public predicate rejects
    for l in (1, 2, 3):
        for charges in itertools.product(range(-3, 4), repeat=l):
            for e in (2, 3, 4):
                empty = ((),) * l
                if in_closed_domain(charges, e):
                    assert generalized_core(empty, charges, e).weight == 0
                else:
                    with pytest.raises(ValueError, match="^charges not in fundamental domain$"):
                        generalized_core(empty, charges, e)


def test_modulus_validation():
    with pytest.raises(ValueError):
        tau_e((2, 1), 0, 1)
    with pytest.raises(ValueError):
        tau_l((2, 1), 0, 2, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tau_e((2.7, 1), 0, 3),
        lambda: generalized_core(((2,), (1,)), (0, 1.9), 3),
        lambda: level_rank_transpose(((2,), (1,)), (0, 1), 3.5),
        lambda: tau_e((2, 1), True, 3),
        lambda: tau_l((2, 1), 0, 3, True),
        lambda: tau_e_inverse(((True,), ()), (0, 0)),
    ],
)
def test_non_integers_are_rejected_not_truncated(call):
    with pytest.raises(ValueError, match="expected an integer"):
        call()


def test_range_messages_are_kept():
    with pytest.raises(ValueError, match="^the modulus e must be at least 2$"):
        tau_e((2, 1), 0, 1)
    with pytest.raises(ValueError, match="^the level l must be at least 1$"):
        tau_l((2, 1), 0, 2, 0)


@pytest.mark.parametrize("predicate", [in_closed_domain, in_strict_domain])
def test_domain_predicates_reject_empty_charges(predicate):
    with pytest.raises(ValueError):
        predicate((), 2)


@pytest.mark.parametrize("predicate", [in_closed_domain, in_strict_domain])
@pytest.mark.parametrize("e", [2.5, True, "x", 1])
def test_domain_predicates_check_the_modulus(predicate, e):
    with pytest.raises(ValueError):
        predicate((0, 1), e)


def test_row_tallies_sum_to_the_runner_counts():
    # the empty symbol's label plus one _row_tally per component
    for mp, charges, e in oracle.bead_grid(**oracle.LABEL_GRID):
        l = len(mp)
        counts, total = _empty_label(charges, e, l)
        counts = list(counts)
        for p, s in zip(mp, charges):
            changes, rise = _row_tally(p, s, e)
            counts = [a + b for a, b in zip(counts, changes)]
            total += l * rise
        weight = total - sum(n * (n - 1) // 2 for n in counts)
        assert _runner_counts(mp, charges, e, l) == (tuple(counts), weight), (mp, charges, e)
