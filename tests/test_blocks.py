"""Block labels, their orbit structure, and the Uglov crystal sets."""

import itertools
import operator

import pytest

import abacore.blocks
from abacore import (
    BlockId,
    act_charge_e,
    block_action,
    block_id,
    blocks_of,
    f_tilde,
    generalized_core,
    in_closed_domain,
    is_scopes,
    is_scopes_exhaustive,
    level_multicharge,
    orbit_equivalent,
    reachable_multicharges,
    realize_multicharge,
    sigma_ordinary,
    tau_e,
    tau_e_inverse,
    tau_l,
    tau_l_inverse,
    uglov_set,
)
from abacore.partitions import mp_size, multipartitions_of, partitions_of

import oracle

# all bipartitions of 4 at charges (0, 1), e = 4, sorted into blocks
BLOCKS_4 = {
    ((1, 0, 0, 0), 2): {
        ((), (1, 1, 1, 1)), ((), (2, 1, 1)), ((), (3, 1)), ((), (4,)),
        ((1,), (3,)), ((1, 1), (2,)), ((1, 1, 1), (1,)), ((1, 1, 1, 1), ()),
        ((2, 1, 1), ()), ((3, 1), ()), ((4,), ()),
    },
    ((0, 1, 1, -1), 1): {((), (2, 2)), ((2,), (2,)), ((3,), (1,))},
    ((2, 1, -1, -1), 1): {((1,), (1, 1, 1)), ((1, 1), (1, 1)), ((2, 2), ())},
    ((2, 0, 1, -2), 0): {((1,), (2, 1))},
    ((0, 2, -1, 0), 0): {((2, 1), (1,))},
    ((1, 2, 0, -2), 0): {((2,), (1, 1))},
}

UGLOV_4 = {
    ((), (4,)), ((1,), (2, 1)), ((1,), (3,)), ((1, 1), (1, 1)),
    ((1, 1), (2,)), ((2,), (1, 1)), ((2,), (2,)), ((2, 1), (1,)),
    ((2, 1, 1), ()), ((2, 2), ()), ((3,), (1,)), ((3, 1), ()), ((4,), ()),
}


def test_block_id_example():
    b = block_id(((2, 1), (1,)), (0, 1), 4)
    assert b == BlockId((0, 2, -1, 0), 0, 4, 2, 1)


def test_block_id_matches_the_long_route_exhaustively():
    for mp, charges, e in oracle.closed_domain_grid():
        p, m = tau_l_inverse(mp, charges, e)
        quotient, s_e = tau_e(p, m, e)
        want = BlockId(s_e, mp_size(quotient), e, len(mp), m)
        assert block_id(mp, charges, e) == want
        core = generalized_core(mp, charges, e)
        assert core.core_charges == level_multicharge(s_e, e, len(mp))


def test_block_label_matches_the_relabel_route_exhaustively():
    for mp, charges, e in oracle.bead_grid(**oracle.LABEL_GRID):
        assert block_id(mp, charges, e) == oracle.block_label_by_relabel(mp, charges, e)


def test_blocks_of_example():
    got = blocks_of(4, (0, 1), 4)
    assert {
        (b.core_multicharge, b.weight): set(members) for b, members in got.items()
    } == BLOCKS_4
    for b, members in got.items():
        assert (b.e, b.l, b.m) == (4, 2, 1)
        assert members == tuple(sorted(members))


def test_blocks_of_matches_the_label_oracle_exhaustively():
    # whole dicts in order, so the block order and the member order count;
    # every closed-domain pattern with l <= 3, e <= 4 and n <= 6, 5, 4 by level
    checked = 0
    for charges, e, n in oracle.shifted_grid(**oracle.BLOCKS_GRID):
        got = blocks_of(n, charges, e)
        assert list(got.items()) == list(oracle.blocks_of_by_labels(n, charges, e).items()), (
            n, charges, e)
        checked += 1
    assert checked == 496


def test_blocks_of_charges_moved_by_e_raise_every_runner_charge_by_l():
    # a charge moved by e keeps its residue, so its grouping comes from the
    # same cache; every component's empty runner counts rise by one
    for charges, e, n in [((0, 1), 4, 6), ((-1, 0, 2), 3, 5), ((2,), 2, 7), ((-3, -3), 2, 5)]:
        l, moved = len(charges), tuple(c + e for c in charges)
        got, base = blocks_of(n, moved, e), blocks_of(n, charges, e)
        assert list(got.values()) == list(base.values()), (charges, e, n)
        assert list(got) == [
            BlockId(tuple(s + l for s in b.core_multicharge), b.weight, e, l, b.m + l * e)
            for b in base
        ], (charges, e, n)


@pytest.mark.parametrize(
    "pattern, v",
    [((0,), (2,)), ((0, 0), (0, 1)), ((0, 0), (-1, 0)), ((0, 1), (1, 0)),
     ((0, 0, 0), (0, 0, 1)), ((0, 0, 1), (0, 1, 0)), ((0, 0, 0), (-1, -1, 0))],
)
def test_blocks_of_translated_components_keep_the_members(pattern, v):
    # moving component j by e * v_j keeps its residue, so the grouping is the
    # one cached at the untranslated charges: every runner count of the empty
    # component j rises by v_j, so every core charge by sum(v), and the
    # weights all move by one constant
    for e in (2, 3, 4):
        for a in (0, 1, -2):
            charges = tuple(a + e * p for p in pattern)
            moved = tuple(s + e * k for s, k in zip(charges, v))
            assert in_closed_domain(charges, e) and in_closed_domain(moved, e)
            for n in range(6):
                base, got = blocks_of(n, charges, e), blocks_of(n, moved, e)
                assert list(got.values()) == list(base.values()), (charges, moved, e, n)
                assert [b.core_multicharge for b in got] == [
                    tuple(s + sum(v) for s in b.core_multicharge) for b in base]
                assert len({b.weight - c.weight for b, c in zip(got, base)}) == 1
                assert {(b.e, b.l, b.m) for b in got} == {(e, len(v), sum(moved))}


def test_blocks_of_keeps_the_groups_of_each_residue_tuple_apart():
    # equal n and e, other residues: neither call may be served the other's groups
    abacore.blocks._block_groups.cache_clear()
    for n in (2, 4, 6):
        for charges, e in [((0, 1), 3), ((0, 2), 3), ((0, 0, 1), 2), ((0, 1, 1), 2)]:
            want = oracle.blocks_of_by_labels(n, charges, e)
            assert list(blocks_of(n, charges, e).items()) == list(want.items()), (n, charges, e)


def test_blocks_of_returns_a_fresh_dict_every_call():
    first = blocks_of(5, (0, 1), 3)
    want = list(first.items())
    first[next(iter(first))] = ()
    first.popitem()
    assert list(blocks_of(5, (0, 1), 3).items()) == want


@pytest.mark.parametrize("order", ["small-first", "large-first"])
def test_blocks_of_agrees_across_sizes_that_share_residues(order):
    # the packed columns depend on n through the digit width, so calls at
    # different widths must not share a column, whichever comes first
    abacore.blocks._packed.cache_clear()
    abacore.blocks._block_groups.cache_clear()
    cases = [(n, charges, e) for e in (2, 3) for charges in ((0, 1), (e - 1, e))
             for n in (1, 2, 5, 8)]
    for n, charges, e in cases if order == "small-first" else cases[::-1]:
        want = oracle.blocks_of_by_labels(n, charges, e)
        assert list(blocks_of(n, charges, e).items()) == list(want.items()), (n, charges, e)


def test_packed_columns_are_a_bounded_cache():
    for cached in (abacore.blocks._packed, abacore.blocks._block_groups):
        assert cached.cache_info().maxsize is not None, cached


def test_blocks_partition_everything():
    for e in (2, 3):
        for n in range(6):
            got = blocks_of(n, (0, 1), e)
            union = [mp for members in got.values() for mp in members]
            assert sorted(union) == sorted(multipartitions_of(n, 2))
            for b, members in got.items():
                for mp in members:
                    assert block_id(mp, (0, 1), e) == b


def test_same_block_means_same_residue_counts():
    for e in (2, 3):
        for n in range(6):
            mps = list(multipartitions_of(n, 2))
            for a, b in itertools.combinations(mps, 2):
                same_block = block_id(a, (0, 1), e) == block_id(b, (0, 1), e)
                same_counts = oracle.count_nodes_by_residue(a, (0, 1), e) == (
                    oracle.count_nodes_by_residue(b, (0, 1), e)
                )
                assert same_block == same_counts


def test_uglov_set_small():
    assert uglov_set((0, 1), 4, 0) == {((), ())}
    assert uglov_set((0, 1), 4, 2) == {
        ((), (2,)), ((1,), (1,)), ((1, 1), ()), ((2,), ()),
    }


def test_uglov_set_printed_example():
    assert uglov_set((0, 1), 4, 4) == UGLOV_4


def test_uglov_set_matches_the_crystal_exhaustively():
    # in and out of the closed domain: outside it, uglov_set goes through psi
    checked = 0
    for e in (2, 3, 4):
        for l in (1, 2, 3):
            top = 4 if l < 3 else 3
            for charges in itertools.product(range(-3, 4), repeat=l):
                layers = oracle.uglov_set_by_crystal(charges, e, top)
                for n, layer in enumerate(layers):
                    assert uglov_set(charges, e, n) == layer, (charges, e, n)
                    checked += 1
    assert checked == 4956


def test_uglov_set_matches_the_crystal_at_wide_charges():
    # gaps far above 2n are narrowed before the walk into the domain
    for e in (2, 3):
        for l in (2, 3):
            for charges in itertools.product((-11, -1, 0, 3, 14), repeat=l):
                layers = oracle.uglov_set_by_crystal(charges, e, 4)
                for n, layer in enumerate(layers):
                    assert uglov_set(charges, e, n) == layer, (charges, e, n)


def test_uglov_set_matches_the_filter_exhaustively():
    # every closed-domain pattern from 0 up to spread e, l <= 4, e <= 5
    checked = 0
    for charges, e, n in oracle.flotw_grid(**oracle.FLOTW_GRID):
        want = oracle.uglov_set_by_filter(charges, e, n)
        assert uglov_set(charges, e, n) == want, (charges, e, n)
        checked += 1
    assert checked == 1135


def test_uglov_set_at_level_one_is_the_e_regular_partitions():
    # a part repeated e times breaks (b); at l = 1 nothing else can
    for e in range(2, 6):
        for n in range(14):
            regular = {
                (p,) for p in oracle.partitions_of(n) if all(p.count(k) < e for k in p)
            }
            assert uglov_set((0,), e, n) == regular, (e, n)


def test_uglov_members_connect_downward():
    for e in (2, 3):
        for charges in ((0,), (0, 1), (1, 2)):
            for n in range(1, 6):
                below = uglov_set(charges, e, n - 1)
                for mp in uglov_set(charges, e, n):
                    drops = [f_tilde(i, mp, charges, e) for i in range(e)]
                    assert any(d in below for d in drops if d is not None)


def test_modular_members_of_the_printed_blocks():
    got = blocks_of(4, (0, 1), 4)
    modular = {
        (b.core_multicharge, b.weight): set(members) & UGLOV_4
        for b, members in got.items()
    }
    assert modular[((1, 0, 0, 0), 2)] == {
        ((4,), ()), ((3, 1), ()), ((1,), (3,)), ((1, 1), (2,)),
        ((2, 1, 1), ()), ((), (4,)),
    }
    assert modular[((0, 1, 1, -1), 1)] == {((3,), (1,)), ((2,), (2,))}
    assert modular[((2, 1, -1, -1), 1)] == {((2, 2), ()), ((1, 1), (1, 1))}
    assert modular[((2, 0, 1, -2), 0)] == {((1,), (2, 1))}


def test_block_action_example():
    b = BlockId((0, 1, 1, -1), 1, 4, 2, 1)
    img = block_action("t", b, 2)
    assert img == BlockId((1, 0, 1, 1), 1, 4, 2, 3)
    assert block_action("T", img, 2) == b


def test_block_action_commutes_with_sigma():
    for e in (2, 3):
        for charges in ((0, 1), (0, 0)):
            for n in range(5):
                for mp in multipartitions_of(n, 2):
                    b = block_id(mp, charges, e)
                    for i in range(e):
                        out = sigma_ordinary(i, mp, charges, e)
                        ob = block_id(out, charges, e)
                        assert ob.core_multicharge == act_charge_e(
                            "s%d" % i, b.core_multicharge, 2
                        )
                        assert ob.weight == b.weight


def test_orbit_equivalence_examples():
    a = BlockId((0, 1, 1, -1), 1, 4, 2, 1)
    assert orbit_equivalent(a, a, 2)
    assert orbit_equivalent(a, BlockId((1, 0, 1, -1), 1, 4, 2, 1), 2)
    assert orbit_equivalent(a, block_action("s2", a, 2), 2)
    assert not orbit_equivalent(a, BlockId((1, 2, 0, -2), 1, 4, 2, 1), 2)
    assert not orbit_equivalent(a, BlockId((0, 1, 1, -1), 2, 4, 2, 1), 2)


def test_orbit_equivalence_matches_the_search_oracle_exhaustively():
    count = 0
    for b1, b2, l in oracle.orbit_pairs(**oracle.ORBIT_GRID):
        got = orbit_equivalent(b1, b2, l)
        assert got == oracle.orbit_equivalent_by_search(b1, b2, l), (b1, b2, l)
        count += got
    assert 0 < count < 12132  # both answers occur on the grid's 12132 pairs


def test_orbit_equivalence_needs_one_context():
    a = BlockId((0, 1, 1, -1), 1, 4, 2, 1)
    with pytest.raises(ValueError):
        orbit_equivalent(a, BlockId((1, 0, 1, 1), 1, 4, 2, 3), 2)


def test_scopes_examples():
    b = BlockId((0, 1, 1, -1), 1, 4, 2, 1)
    assert is_scopes(b, 1, 2)
    assert not is_scopes(b, 2, 2)


def test_scopes_routes_agree_small():
    seen = set()
    for charges in ((0,), (0, 1)):
        for n in range(6):
            for mp in multipartitions_of(n, len(charges)):
                b = block_id(mp, charges, 2)
                if b.weight > 3 or b in seen:
                    continue
                seen.add(b)
                for i in range(2):
                    assert is_scopes(b, i, len(charges)) == is_scopes_exhaustive(
                        b, i, len(charges)
                    )


def test_scopes_routes_match_the_diagram_exhaustively():
    for e in (2, 3, 4):
        for core in itertools.product(range(-2, 3), repeat=e):
            for w in range(4):
                b = BlockId(core, w, e, 1, sum(core))
                for i in range(e):
                    want = oracle.is_scopes_by_diagram(b, i)
                    assert is_scopes_exhaustive(b, i, 1) == want, (b, i)
                    assert is_scopes(b, i, 1) == want, (b, i)


def test_realize_example():
    assert realize_multicharge((0, 0), (-1, 1), 3) == ((), (1,))


def _closed_tuples(l, e, charges):
    return [
        s for s in itertools.product(charges, repeat=l)
        if list(s) == sorted(s) and s[-1] <= s[0] + e
    ]


def test_realize_leaves_a_bead_to_move_in_every_bucket():
    # the bucket charged 0 used to start empty at the bottom row, so the
    # greedy never moved in it and returned [[], [], [4, 2]] (size 6)
    witness = realize_multicharge((0, 0, 3), (1, 1, 1), 3)
    assert mp_size(witness) == 3
    assert generalized_core(witness, (0, 0, 3), 3).core_charges == (1, 1, 1)


def test_realize_witness_size_is_invariant_under_whole_row_shifts():
    # adding e*q to every start and target charge moves the abacus by whole
    # rows, so the smallest witness keeps its size
    for e in (2, 3, 4):
        for l in (1, 2, 3):
            domain = _closed_tuples(l, e, range(-3, 4))
            for start, target in itertools.product(domain, domain):
                if sum(start) != sum(target):
                    continue
                size = mp_size(realize_multicharge(start, target, e))
                for q in (-1, 1):
                    moved = [tuple(c + e * q for c in s) for s in (start, target)]
                    assert mp_size(realize_multicharge(*moved, e)) == size, (start, target, e, q)


def test_realize_witness_is_smallest():
    # against enumeration, on closed-domain charges of sum -1, 0 and 1
    for e in (2, 3, 4):
        for l in (1, 2, 3):
            domain = [s for s in _closed_tuples(l, e, range(-e - 2, e + 3)) if abs(sum(s)) <= 1]
            for start, target in itertools.product(domain, domain):
                if sum(start) != sum(target):
                    continue
                size = mp_size(realize_multicharge(start, target, e))
                smaller = (
                    mp
                    for n in range(size)
                    for mp in multipartitions_of(n, l)
                    if generalized_core(mp, start, e).core_charges == target
                )
                assert next(smaller, None) is None, (start, target, e)


def test_realize_has_the_greedy_oracle_sizes():
    # on the grid above, against the bead mover the DP replaced; the witness
    # must meet its post-condition too
    for e in (2, 3, 4):
        for l in (1, 2, 3):
            domain = [s for s in _closed_tuples(l, e, range(-e - 2, e + 3)) if abs(sum(s)) <= 1]
            for start, target in itertools.product(domain, domain):
                if sum(start) != sum(target):
                    continue
                witness = realize_multicharge(start, target, e)
                assert generalized_core(witness, start, e).core_charges == target
                greedy = oracle.realize_by_greedy(start, target, e)
                assert mp_size(witness) == mp_size(greedy), (start, target, e)


@pytest.mark.parametrize(
    "start, target, e, witness",
    [
        # the realize answers in the cli-mix part of bench/golden.json
        ((-2, -1, 0), (-1, -1, -1), 2, ((), (), (1,))),
        ((-1, -1, 1), (-2, -1, 2), 4, ((), (), (1, 1, 1))),
        ((-1, -1), (-3, 1), 4, ((), (2, 2))),
        ((-2,), (-2,), 3, ((),)),
        # the cli-mix pools' answers whose tie oracle.realize_by_greedy broke otherwise
        ((1, 1, 1), (-1, 2, 2), 3, ((), (1,), (1, 1))),
        ((-2, 1, 2), (-1, -1, 3), 4, ((), (2,), (1, 1, 1))),
        ((-1, -1, 0), (-2, -2, 2), 4, ((), (1,), (2, 2))),
        ((-2, -2, 1), (-1, -1, -1), 4, ((), (1,), (2, 2))),
        ((1, 4, 4), (3, 3, 3), 4, ((), (2,), (3,))),
        ((-2, -2, 1), (-3, 0, 0), 4, ((), (1,), (3,))),
    ],
)
def test_realize_breaks_ties_by_component_sizes_then_changes(start, target, e, witness):
    assert realize_multicharge(start, target, e) == witness


def test_core_offers_are_the_e_cores_by_size():
    # the closed-form sizes and runner-count changes against tau_e of every
    # partition with an empty e-quotient
    for e in (2, 3, 4):
        for r in range(e):
            empty = tau_e((), r, e)[1]
            want = sorted(
                (n, tuple(map(operator.sub, tau_e(p, r, e)[1], empty)))
                for n in range(9)
                for p in partitions_of(n)
                if not any(tau_e(p, r, e)[0])
            )
            assert abacore.blocks._core_offers(r, e, 8) == want, (r, e)


def test_least_cores_keeps_the_least_key_of_every_change():
    # the DP against the least (size, component sizes, component changes)
    # over every tuple of e-cores
    for e in (2, 3):
        for start in ((0,), (0, 0), (0, 1), (-1, 0, 0), (0, 0, e)):
            for bound in range(6):
                want = {}
                for cores in itertools.product(*(
                        abacore.blocks._core_offers(s % e, e, bound) for s in start)):
                    sizes, xs = zip(*cores)
                    if sum(sizes) <= bound:
                        v = tuple(map(sum, zip(*xs)))
                        want[v] = min(want.get(v, (bound + 1,)), (sum(sizes), sizes, xs))
                assert abacore.blocks._least_cores(start, e, bound) == want, (start, e, bound)


def test_realize_takes_the_next_bound_from_the_least_total_seen(monkeypatch):
    # these witnesses have size 5 and a prefix of size 2, so a total of 5 is
    # seen at bound 2 and the search ends at bound 5, where doubling went on to
    # 8; a next bound that does not rise would repeat forever
    bounds, real = [], abacore.blocks._least_cores

    def recorded(start, e, bound):
        bounds.append(bound)
        if len(bounds) > 8:
            raise RuntimeError(f"the bounds do not rise: {bounds}")
        return real(start, e, bound)

    monkeypatch.setattr(abacore.blocks, "_least_cores", recorded)
    for start, target in [((1, 4, 4), (3, 3, 3)), ((-2, 1, 2), (-1, -1, 3))]:
        bounds.clear()
        assert mp_size(realize_multicharge(start, target, 4)) == 5
        assert bounds == [1, 2, 4, 5], (start, target)


def test_realize_rejects_unreachable_targets():
    with pytest.raises(ValueError):
        realize_multicharge((0, 0), (0, 1), 3)  # wrong sum
    with pytest.raises(ValueError):
        realize_multicharge((0, 0), (-5, 5), 3)  # spread too wide


def test_realize_checks_its_witness(monkeypatch):
    # the guard on the returned value must survive python -O
    real_core = abacore.blocks.generalized_core

    def wrong_core(mp, charges, e):
        g = real_core(mp, charges, e)
        return g._replace(core_charges=tuple(reversed(g.core_charges)))

    monkeypatch.setattr(abacore.blocks, "generalized_core", wrong_core)
    with pytest.raises(RuntimeError):
        realize_multicharge((0, 0), (-1, 1), 3)


def test_realize_checks_its_runner_targets(monkeypatch):
    # the count check before the move loop must survive python -O
    real_label = abacore.blocks._empty_label

    def off_by_one(charges, e, l):
        counts, total = real_label(charges, e, l)
        return (counts[0] + 1,) + counts[1:], total

    monkeypatch.setattr(abacore.blocks, "_empty_label", off_by_one)
    with pytest.raises(RuntimeError, match="runner targets"):
        realize_multicharge((0, 0), (-1, 1), 3)


def test_reachable_example():
    assert reachable_multicharges((0, 0), 3, 2) == {(-1, 1), (0, 0)}


def test_reachable_matches_the_enumeration_oracle(monkeypatch):
    # bounds 0-6 on every closed-domain pattern with l <= 3 and e <= 4
    cases = list(oracle.shifted_grid(**oracle.REACH_GRID))
    for charges, e, bound in cases:
        want = oracle.reachable_by_enumeration(charges, e, bound)
        assert reachable_multicharges(charges, e, bound) == want, (charges, e, bound)
    # level_multicharge can hide a runner-charge tuple the DP missed behind
    # another of its orbit, so check the runner charges themselves too
    monkeypatch.setattr(abacore.blocks, "_level_multicharge", lambda s_e, l: s_e)
    for charges, e, bound in cases:
        want = oracle.runner_charges_by_enumeration(charges, e, bound)
        assert reachable_multicharges(charges, e, bound) == want, (charges, e, bound)
    assert len(cases) == 644


def test_reachable_stays_in_domain():
    for e in (2, 3):
        for start in ((0, 0), (0, 1), (-1, 1)):
            small = reachable_multicharges(start, e, 2)
            big = reachable_multicharges(start, e, 4)
            assert small <= big
            for s in big:
                assert in_closed_domain(s, e)
                assert sum(s) == sum(start)


def test_level_multicharge_example():
    # matches the core charges of the generalized-core example
    assert level_multicharge((0, -1, 1), 3, 2) == (-1, 1)


def test_level_multicharge_is_reflection_invariant():
    for s_e in ((0, -1, 1), (1, 1, 0), (2, 0, -1)):
        base = level_multicharge(s_e, 3, 2)
        for i in range(3):
            img = act_charge_e("s%d" % i, s_e, 2)
            assert level_multicharge(img, 3, 2) == base


def test_level_multicharge_matches_the_two_map_route():
    # the closed form against carrying the core through tau_e_inverse, tau_l
    for e in (2, 3, 4):
        for l in (1, 2, 3, 4):
            for s_e in itertools.product(range(-3, 4), repeat=e):
                p, m = tau_e_inverse(((),) * e, s_e)
                assert level_multicharge(s_e, e, l) == tau_l(p, m, e, l)[1]


@pytest.mark.parametrize(
    "call",
    [
        lambda: uglov_set((0, 1), 2, -2),
        lambda: blocks_of(-1, (0, 1), 2),
        lambda: reachable_multicharges((0, 1), 2, -1),
    ],
)
def test_negative_sizes_are_rejected(call):
    with pytest.raises(ValueError, match="nonnegative"):
        call()


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize(
    "charges, e, message",
    [
        ((0, 1), 1, "the modulus e must be at least 2"),
        ((0, 5), 1, "the modulus e must be at least 2"),  # the modulus is checked first
        ((0, 5), 2, "charges not in fundamental domain"),
        ((), 2, "a charge tuple needs at least one entry"),
    ],
)
def test_blocks_of_keeps_its_errors(n, charges, e, message):
    with pytest.raises(ValueError) as info:
        blocks_of(n, charges, e)
    assert str(info.value) == message


BAD_BLOCKS = [
    BlockId((0, 1, 2), -5, 3, 2, 3),  # negative weight
    BlockId((0, 1, 1, -1), 1, 1, 2, 1),  # modulus below 2
    BlockId((0, 1, 1), 1, 4, 2, 2),  # e = 4 but three core charges
    BlockId((0, 1, 1, -1), 1, 4, 2, 5),  # m is not the core charge sum
    BlockId((0, 1, 1, -1), 1, 4, 3, 1),  # labelled at level 3, used at 2
    ((0, 1, 1, -1), 1, 4, 2, 1),  # the fields of a good label in a plain tuple
]


@pytest.mark.parametrize("b", BAD_BLOCKS)
@pytest.mark.parametrize(
    "call",
    [
        lambda b: is_scopes(b, 1, 2),
        lambda b: is_scopes_exhaustive(b, 1, 2),
        lambda b: block_action("t", b, 2),
        lambda b: orbit_equivalent(b, b, 2),
        lambda b: orbit_equivalent(BlockId((0, 1, 1, -1), 1, 4, 2, 1), b, 2),
    ],
)
def test_inconsistent_block_labels_are_rejected(call, b):
    with pytest.raises(ValueError):
        call(b)


@pytest.mark.parametrize("l", [0, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda b, l: is_scopes(b, 1, l),
        lambda b, l: is_scopes_exhaustive(b, 1, l),
        lambda b, l: block_action("t", b, l),
        lambda b, l: orbit_equivalent(b, b, l),  # the weights agree
        lambda b, l: orbit_equivalent(b, b._replace(weight=1), l),  # they differ
    ],
)
def test_levels_below_one_are_rejected(call, l):
    # the label carries the same level, so only the level check can refuse it
    with pytest.raises(ValueError, match="the level l must be at least 1"):
        call(BlockId((0, 0), 0, 2, l, 0), l)


def test_block_labels_may_leave_the_domain():
    b = BlockId((5, -3, 0, 0), 0, 4, 2, 2)
    assert is_scopes(b, 1, 2) is False
    assert block_action("s1", b, 2) == BlockId((-3, 5, 0, 0), 0, 4, 2, 2)
