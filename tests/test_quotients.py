"""The decomposition maps and their inverses, checked against a diagram-level
oracle that strips rim hooks by hand."""

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from abacore import (
    CoreData,
    GeneralizedCore,
    Symbol,
    boundary_nodes,
    core_data,
    duality_transport,
    e_core_partition,
    generalized_core,
    in_closed_domain,
    in_strict_domain,
    is_core,
    is_core_nodewise,
    level_rank_transpose,
    psi,
    render_abacus,
    tau_e,
    tau_e_inverse,
    tau_l,
    tau_l_inverse,
)
from abacore.partitions import mp_size, multipartitions_of, partitions_of, size
from abacore.quotients import _empty_label, _row_tally, _rows, _runner_counts

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


def _wide_case(seed):
    """A seeded charged multipartition, l <= 5 and e <= 6, with 40-80 rows in
    each nonempty component and charges up to 10^3 apart, mostly off the
    fundamental domain and often below zero.  A component is empty one time
    in four; at seed 0 all of them are."""
    rng = random.Random(seed)
    e, l = rng.randint(2, 6), rng.randint(1, 5)
    mp = tuple(
        ()
        if not seed or rng.random() < 0.25
        else tuple(sorted((rng.randint(1, 60) for _ in range(rng.randint(40, 80))), reverse=True))
        for _ in range(l)
    )
    return mp, tuple(rng.randint(-1000, 1000) for _ in range(l)), e, l


def _sparse_case(seed):
    """A seeded charged multipartition, l <= 4 and e <= 5, with 1-8 rows in
    each nonempty component, about half of their parts between 10 and 10^5,
    and one more part above 10^5 in one component: the common rows hold long
    runs of empty blocks, which quotients._rows cuts.  Charges are within 50
    of zero."""
    rng = random.Random(seed)
    e, l = rng.randint(2, 5), rng.randint(1, 4)
    mp = [
        tuple(
            sorted(
                (
                    rng.randint(1, 9) if rng.random() < 0.5 else rng.randint(10, 10**5)
                    for _ in range(k)
                ),
                reverse=True,
            )
        )
        for k in (rng.randint(1, 8) if not j or rng.random() < 0.75 else 0 for j in range(l))
    ]
    j = rng.randrange(l)
    mp[j] = (10**5 + rng.randint(1, 10**3), *mp[j])
    return tuple(mp), tuple(rng.randint(-50, 50) for _ in range(l)), e, l


def _check_maps(mp, charges, e, l):
    """The five maps from and to (mp, charges) against the view reference."""
    ref = oracle.relabel_by_definition
    mp_e, s_e = ref(mp, charges, e, l, "level", "rank")
    assert level_rank_transpose(mp, charges, e) == (mp_e, s_e)
    p, m = _one(ref(mp, charges, e, l, "level", "partition"))
    assert tau_l_inverse(mp, charges, e) == (p, m)
    assert tau_l(p, m, e, l) == ref((p,), (m,), e, l, "partition", "level")
    assert tau_e(p, m, e) == ref((p,), (m,), e, 1, "partition", "rank")
    assert tau_e_inverse(mp_e, s_e) == _one(ref(mp_e, s_e, e, 1, "rank", "partition"))
    if l > 1:
        # the components as an l-quotient
        assert tau_e_inverse(mp, charges) == _one(ref(mp, charges, l, 1, "rank", "partition"))


def _check_round_trips(mp, charges, e, l):
    p, m = tau_l_inverse(mp, charges, e)
    assert tau_l(p, m, e, l) == (mp, charges)
    assert tau_e_inverse(*tau_e(p, m, e)) == (p, m)
    if l > 1:
        assert tau_e(*tau_e_inverse(mp, charges), l) == (mp, charges)


@pytest.mark.parametrize("seed", range(16))
def test_maps_match_the_view_reference_on_wide_spans(seed):
    # the common rows reach from the lowest bottom to the highest bead of all
    # components, rounded to whole periods, far past each component's beads
    _check_maps(*_wide_case(seed))


@pytest.mark.parametrize("seed", range(16))
def test_round_trips_on_wide_spans(seed):
    _check_round_trips(*_wide_case(seed))


@pytest.mark.parametrize("seed", range(16))
def test_maps_match_the_view_reference_on_cut_rows(seed):
    mp, charges, e, l = _sparse_case(seed)
    assert _rows(mp, charges, e)[2] and _rows(mp, charges, e * l)[2]  # the rows are cut
    _check_maps(mp, charges, e, l)


@pytest.mark.parametrize("seed", range(16))
def test_round_trips_on_cut_rows(seed):
    _check_round_trips(*_sparse_case(seed))


@pytest.mark.parametrize("seed", range(16))
def test_is_core_matches_the_nodewise_test_on_cut_rows(seed):
    # at closed-domain charges; the nested-set test shifts X_0 by one block
    mp, _, e, l = _sparse_case(seed)
    low = random.Random(seed).randint(-50, 50)
    for charges in {tuple(sorted(low + (j * k) % (e + 1) for j in range(l))) for k in range(e + 1)}:
        assert _rows(mp, charges, e)[2]
        assert is_core(mp, charges, e) == is_core_nodewise(mp, charges, e)
        core = generalized_core(mp, charges, e)
        assert is_core(core.core_mp, core.core_charges, e)


_LARGE_PART_CALLS = {
    "tau_e": lambda n: tau_e((n, 1), 0, 2),
    "tau_l": lambda n: tau_l((n, n, 2), -1, 3, 2),
    "tau_e_inverse": lambda n: tau_e_inverse(((n,), (), (1,)), (0, 5, -5)),
    "tau_l_inverse": lambda n: tau_l_inverse(((n, 3), (n,)), (0, 1), 2),
    "level_rank_transpose": lambda n: level_rank_transpose(((n,), (2, 1)), (0, 1), 3),
    "generalized_core": lambda n: generalized_core(((n,), (n, 1)), (0, 1), 2),
    "is_core": lambda n: is_core(((n,), (1,)), (0, 2), 2),
    "psi": lambda n: psi(((n,), (5, 1)), (0, 1), "s1 t s0", 2),
    "duality_transport": lambda n: [
        duality_transport(i, ((n, 2), (1,)), (0, 1), 3) for i in range(3)
    ],
    "render_abacus": lambda n: render_abacus([Symbol((n, 1), 0)], (n - 5, n + 5)),
}


@pytest.mark.parametrize("name", sorted(_LARGE_PART_CALLS))
def test_one_large_part_costs_no_more_than_its_beads(name):
    # a part of size n puts a bead n positions above the rest; rows over
    # every position would take n bytes, and ten seconds at n = 10^9
    call = _LARGE_PART_CALLS[name]
    tracemalloc.start()
    try:
        call(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak
    start = time.perf_counter()
    call(10**9)
    assert time.perf_counter() - start < 1.0


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


def _wide_case(seed):
    """A seeded charged multipartition, l <= 5 and e <= 6, with 40-80 rows in
    each nonempty component and charges up to 10^3 apart, mostly off the
    fundamental domain and often below zero.  A component is empty one time
    in four; at seed 0 all of them are."""
    rng = random.Random(seed)
    e, l = rng.randint(2, 6), rng.randint(1, 5)
    mp = tuple(
        ()
        if not seed or rng.random() < 0.25
        else tuple(sorted((rng.randint(1, 60) for _ in range(rng.randint(40, 80))), reverse=True))
        for _ in range(l)
    )
    return mp, tuple(rng.randint(-1000, 1000) for _ in range(l)), e, l


@pytest.mark.parametrize("seed", range(16))
def test_maps_match_the_view_reference_on_wide_spans(seed):
    # the common rows reach from the lowest bottom to the highest bead of all
    # components, rounded to whole periods, far past each component's beads
    ref = oracle.relabel_by_definition
    mp, charges, e, l = _wide_case(seed)
    mp_e, s_e = ref(mp, charges, e, l, "level", "rank")
    assert level_rank_transpose(mp, charges, e) == (mp_e, s_e)
    p, m = _one(ref(mp, charges, e, l, "level", "partition"))
    assert tau_l_inverse(mp, charges, e) == (p, m)
    assert tau_l(p, m, e, l) == ref((p,), (m,), e, l, "partition", "level")
    assert tau_e(p, m, e) == ref((p,), (m,), e, 1, "partition", "rank")
    assert tau_e_inverse(mp_e, s_e) == _one(ref(mp_e, s_e, e, 1, "rank", "partition"))
    if l > 1:
        # the components as an l-quotient
        assert tau_e_inverse(mp, charges) == _one(ref(mp, charges, l, 1, "rank", "partition"))


@pytest.mark.parametrize("seed", range(16))
def test_round_trips_on_wide_spans(seed):
    mp, charges, e, l = _wide_case(seed)
    p, m = tau_l_inverse(mp, charges, e)
    assert tau_l(p, m, e, l) == (mp, charges)
    assert tau_e_inverse(*tau_e(p, m, e)) == (p, m)
    if l > 1:
        assert tau_e(*tau_e_inverse(mp, charges), l) == (mp, charges)


@given(partition, st.integers(-3, 3), st.integers(2, 4), st.integers(1, 3))
def test_size_identity(p, m, e, l):
    # |p| splits into the empty-quotient part of the level charges, the
    # size of the splitting, and e per residue-0 node of the splitting
    mp, charges = tau_l(p, m, e, l)
    kappa = tau_l_inverse(((),) * l, charges, e)[0]
    n0 = oracle.count_nodes_by_residue(mp, charges, e)[0]
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
