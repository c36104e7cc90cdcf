import pytest
from hypothesis import given, strategies as st

import abacore as ab
from abacore import Symbol, beta_set, partition_of_symbol, partitions_of, render_abacus, shift_symbol
from abacore.partitions import (
    _regular_partitions,
    as_partition,
    compositions_of,
    mp_size,
    multipartitions_of,
    size,
)

import oracle

partitions = st.integers(0, 10).flatmap(
    lambda n: st.sampled_from([p for p in partitions_of(n)])
)


def test_partition_counts():
    # p(0) .. p(14)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]
    for n, want in enumerate(expected):
        assert sum(1 for _ in partitions_of(n)) == want


def test_partitions_are_partitions():
    for n in range(11):
        for p in partitions_of(n):
            assert sum(p) == n
            assert all(a >= b for a, b in zip(p, p[1:]))
            assert all(x > 0 for x in p)


def test_partitions_keep_their_order():
    # largest first part first, against the recursive reference
    for n in range(16):
        for max_part in range(-1, n + 2):
            want = list(oracle.partitions_of(n, max(max_part, 0) if n else max_part))
            assert list(partitions_of(n, max_part)) == want, (n, max_part)


def test_partitions_do_not_recurse_per_part():
    assert list(partitions_of(3000, 1)) == [(1,) * 3000]
    assert next(partitions_of(10**6)) == (10**6,)
    assert next(partitions_of(3001, 2)) == (2,) * 1500 + (1,)


def test_multipartition_counts():
    # level-l count is the convolution of p(n)
    p = [sum(1 for _ in partitions_of(n)) for n in range(9)]
    for n in range(9):
        assert sum(1 for _ in multipartitions_of(n, 1)) == p[n]
        want = sum(p[k] * p[n - k] for k in range(n + 1))
        assert sum(1 for _ in multipartitions_of(n, 2)) == want


@pytest.mark.parametrize("l", [0, -1])
def test_multipartitions_need_a_component(l):
    with pytest.raises(ValueError, match="at least 1"):
        list(multipartitions_of(2, l))


@pytest.mark.parametrize(
    "call",
    [
        lambda: partitions_of(-3),
        lambda: multipartitions_of(-1, 2),
        lambda: compositions_of(-1, 1),
    ],
)
def test_negative_sizes_are_rejected(call):
    with pytest.raises(ValueError, match="nonnegative"):
        list(call())


@pytest.mark.parametrize("max_part", [2.5, True])
def test_largest_part_must_be_an_int(max_part):
    with pytest.raises(ValueError, match="expected an integer"):
        partitions_of(3, max_part)


def test_as_partition_rejects_junk():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, -1))
    assert as_partition([3, 1, 0, 0]) == (3, 1)


def test_beta_set_example():
    assert beta_set((4, 3, 2, 2), 5, 6) == (-1, 0, 3, 4, 6, 8)


def test_beta_set_window_must_cover_rows():
    with pytest.raises(ValueError):
        beta_set((2, 1), 0, 1)


def test_partition_of_symbol_validation():
    with pytest.raises(ValueError):
        partition_of_symbol((3, 3), 0)
    with pytest.raises(ValueError):
        partition_of_symbol((0, 1), 5)


@given(partitions, st.integers(-4, 4), st.integers(0, 3))
def test_beta_round_trip(p, m, extra):
    rows = len(p) + extra
    w = beta_set(p, m, rows)
    assert len(w) == rows
    assert all(a < b for a, b in zip(w, w[1:]))
    assert partition_of_symbol(w, m) == p


@given(partitions, st.integers(-3, 3), st.integers(-3, 3))
def test_shift_symbol_moves_the_window(p, m, r):
    s = Symbol(p, m)
    t = shift_symbol(s, r)
    assert t.partition == p and t.charge == m + r
    rows = len(p) + 1
    assert t.window(rows) == tuple(b + r for b in s.window(rows))


def _runner_line(sym, lo, hi):
    """The abacus line of sym over [lo, hi], read off its rows."""
    p, m = sym
    beads = oracle.beads_above(p, m, min(lo, m - len(p)))
    return "".join("X" if j in beads else "." for j in range(lo, hi + 1))


def test_render_abacus_lines_are_the_beads_in_the_window():
    # lo below, at and above m - len(p), where the symbol's full tail starts;
    # the second runner is drawn on top
    other = Symbol((2,), 1)
    for n in range(6):
        for p in partitions_of(n):
            for m in range(-3, 4):
                sym = Symbol(p, m)
                for lo in range(m - len(p) - 3, m - len(p) + 4):
                    for hi in (lo, lo + 2, lo + 9):
                        _, *lines = render_abacus([sym, other], (lo, hi)).split("\n")
                        assert lines == [_runner_line(other, lo, hi), _runner_line(sym, lo, hi)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: render_abacus([Symbol((1,), 0)], (1,)),  # was IndexError
        lambda: render_abacus([Symbol((1,), 0)], (1, 3, 5)),  # the 5 was ignored
        lambda: render_abacus([((1,),)], (0, 3)),  # a symbol without its charge
        lambda: shift_symbol(((1,),), 1),
    ],
    ids=["short-window", "long-window", "render-bare-partition", "shift-bare-partition"],
)
def test_malformed_windows_and_symbols_are_value_errors(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ab.tau_e(None, 0, 3),
        lambda: ab.tau_e(5, 0, 3),
        lambda: ab.block_id(None, (0,), 3),
        lambda: ab.block_id(((1,), None), (0, 0), 3),
        lambda: ab.act_charge_e("t", None, 2),
        lambda: ab.blocks_of(2, None, 3),
        lambda: ab.partition_of_symbol(None, 0),
        lambda: ab.render_abacus(None, (0, 3)),
        lambda: ab.uglov_set(None, 2, 3),
        lambda: ab.level_multicharge(None, 2, 2),
        lambda: ab.reachable_multicharges(None, 2, 1),
    ],
    ids=[
        "tau_e-none", "tau_e-int", "block_id-none", "block_id-none-component",
        "act_charge_e-none", "blocks_of-none", "partition_of_symbol-none",
        "render_abacus-none", "uglov_set-none", "level_multicharge-none",
        "reachable_multicharges-none",
    ],
)
def test_non_iterable_arguments_are_value_errors(call):
    # each of these raised TypeError: 'NoneType' object is not iterable
    with pytest.raises(ValueError):
        call()


def test_regular_partition_lists_are_the_e_regular_partitions_fewest_rows_first():
    # uglov_set draws its components from these lists and stops a scan at
    # the first one too long, so both the members and the order matter
    for e in range(2, 6):
        for n in range(14):
            got = _regular_partitions(n, e)
            assert sorted(got) == sorted(
                p for p in oracle.partitions_of(n) if all(p.count(k) < e for k in p)
            ), (n, e)
            assert [len(p) for p in got] == sorted(len(p) for p in got), (n, e)


def test_sizes():
    assert size(()) == 0
    assert size((4, 2, 1)) == 7
    assert mp_size(((3, 1), (), (2,))) == 6


def test_conjugate_oracle_agrees_with_hooks():
    # first-column hook lengths of p are the parts of p plus staircase offsets;
    # checked indirectly: hook multiset is conjugation invariant
    for n in range(9):
        for p in partitions_of(n):
            q = oracle.conjugate(p)
            assert oracle.conjugate(q) == p
            assert oracle.hook_lengths(q) == oracle.hook_lengths(p)
