import inspect

import pytest
from hypothesis import given, strategies as st

import abacore as ab
from abacore import BlockId, Symbol, beta_set, partition_of_symbol, partitions_of, render_abacus
from abacore.partitions import (
    _regular_partitions,
    as_partition,
    compositions_of,
    mp_size,
    multipartitions_of,
    size,
)

import oracle
from test_nodes import _BOUNDARY

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
def test_shifting_the_charge_shifts_the_window(p, m, r):
    rows = len(p) + 1
    assert beta_set(p, m + r, rows) == tuple(b + r for b in beta_set(p, m, rows))


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
    ],
    ids=["short-window", "long-window", "render-bare-partition"],
)
def test_malformed_windows_and_symbols_are_value_errors(call):
    with pytest.raises(ValueError):
        call()


_LABEL = BlockId((0, 0), 1, 2, 1, 0)
# id -> a call with None where a sequence, a label or an int belongs; an id
# starts with the name of the function it calls
_NON_ITERABLE = {
    "tau_e-none": lambda: ab.tau_e(None, 0, 3),
    "tau_e-int": lambda: ab.tau_e(5, 0, 3),
    "block_id-none": lambda: ab.block_id(None, (0,), 3),
    "block_id-none-component": lambda: ab.block_id(((1,), None), (0, 0), 3),
    "act_charge_e-none": lambda: ab.act_charge_e("t", None, 2),
    "blocks_of-none": lambda: ab.blocks_of(2, None, 3),
    "partition_of_symbol-none": lambda: ab.partition_of_symbol(None, 0),
    "render_abacus-none": lambda: ab.render_abacus(None, (0, 3)),
    "uglov_set-none": lambda: ab.uglov_set(None, 2, 3),
    "level_multicharge-none": lambda: ab.level_multicharge(None, 2, 2),
    "reachable_multicharges-none": lambda: ab.reachable_multicharges(None, 2, 1),
    "act_charge_l-none": lambda: ab.act_charge_l(None, "t", 2),
    "beta_set-none": lambda: ab.beta_set(None, 0, 2),
    "block_action-none": lambda: ab.block_action("t", None, 1),
    "boundary_nodes-none": lambda: ab.boundary_nodes(None, (0,), 3, 0),
    "core_data-none": lambda: ab.core_data(None, 0, 3),
    "duality_transport-none": lambda: ab.duality_transport(0, None, (0,), 3),
    "e_core_partition-none": lambda: ab.e_core_partition(None, 3),
    "e_tilde-none": lambda: ab.e_tilde(0, None, (0,), 3),
    "f_tilde-none": lambda: ab.f_tilde(0, None, (0,), 3),
    "generalized_core-none": lambda: ab.generalized_core(None, (0,), 3),
    "i_signature-none": lambda: ab.i_signature(None, (0,), 3, 0),
    "in_closed_domain-none": lambda: ab.in_closed_domain(None, 3),
    "in_strict_domain-none": lambda: ab.in_strict_domain(None, 3),
    "is_core-none": lambda: ab.is_core(None, (0,), 3),
    "is_core_nodewise-none": lambda: ab.is_core_nodewise(None, (0,), 3),
    "is_scopes-none": lambda: ab.is_scopes(None, 0, 1),
    "is_scopes_exhaustive-none": lambda: ab.is_scopes_exhaustive(None, 0, 1),
    "level_rank_transpose-none": lambda: ab.level_rank_transpose(None, (0,), 3),
    "multipartitions_of-none": lambda: next(ab.multipartitions_of(None, 2)),
    "orbit_equivalent-none": lambda: ab.orbit_equivalent(None, _LABEL, 1),
    "pair_symbols-none": lambda: ab.pair_symbols(None, (1,)),
    "partitions_of-none": lambda: ab.partitions_of(None),
    "psi-none": lambda: ab.psi(None, (0,), "t", 3),
    "realize_multicharge-none": lambda: ab.realize_multicharge(None, (0,), 3),
    "sigma_ordinary-none": lambda: ab.sigma_ordinary(0, None, (0,), 3),
    "sigma_star-none": lambda: ab.sigma_star(0, None, (0,), 3),
    "tau_e_inverse-none": lambda: ab.tau_e_inverse(None, (0, 0)),
    "tau_l-none": lambda: ab.tau_l(None, 0, 3, 2),
    "tau_l_inverse-none": lambda: ab.tau_l_inverse(None, (0,), 3),
}


@pytest.mark.parametrize("call", _NON_ITERABLE.values(), ids=_NON_ITERABLE)
def test_non_iterable_arguments_are_value_errors(call):
    with pytest.raises(ValueError):
        call()


def test_every_public_function_has_a_bad_input_row():
    # the exported classes are plain NamedTuples, which check nothing
    functions = {name for name in ab.__all__ if inspect.isfunction(getattr(ab, name))}
    rows = {case.split("-")[0] for case in _NON_ITERABLE} | set(_BOUNDARY)
    assert functions - rows == set()


# name -> (function, arguments it accepts, positions of its counts): a count
# past sys.maxsize cannot size a list or a range
_COUNTS = {
    "beta_set": (ab.beta_set, ((2, 1), 0, 3), (2,)),
    "block_id": (ab.block_id, (((1,), (1,)), (0, 1), 3), (2,)),
    "blocks_of": (ab.blocks_of, (2, (0, 1), 3), (2,)),
    "generalized_core": (ab.generalized_core, (((1,), (1,)), (0, 1), 3), (2,)),
    "is_core": (ab.is_core, (((1,), (1,)), (0, 1), 3), (2,)),
    "is_core_nodewise": (ab.is_core_nodewise, (((1,), (1,)), (0, 1), 3), (2,)),
    "duality_transport": (ab.duality_transport, (0, ((1,), (1,)), (0, 1), 3), (3,)),
    "realize_multicharge": (ab.realize_multicharge, ((0, 1), (0, 1), 3), (2,)),
    "reachable_multicharges": (ab.reachable_multicharges, ((0, 1), 3, 2), (1,)),
    "multipartitions_of": (ab.multipartitions_of, (2, 2), (0, 1)),
    "core_data": (ab.core_data, ((2, 1), 0, 3), (2,)),
    "tau_e": (ab.tau_e, ((2, 1), 0, 3), (2,)),
    "tau_l": (ab.tau_l, ((2, 1), 0, 3, 2), (2, 3)),
    "tau_l_inverse": (ab.tau_l_inverse, (((1,), (1,)), (0, 1), 3), (2,)),
    "level_rank_transpose": (ab.level_rank_transpose, (((1,), (1,)), (0, 1), 3), (2,)),
    "level_multicharge": (ab.level_multicharge, ((0, 1, 2), 3, 2), (1, 2)),
    "uglov_set": (ab.uglov_set, ((0, 1), 3, 2), (1,)),
    "render_abacus": (lambda hi: render_abacus([Symbol((1,), 0)], (0, hi)), (3,), (0,)),
}


@pytest.mark.parametrize(
    "name, pos",
    [pytest.param(name, pos, id=f"{name}-{pos}")
     for name, (_, _, positions) in _COUNTS.items() for pos in positions],
)
def test_counts_past_sys_maxsize_are_value_errors(name, pos):
    func, args, _ = _COUNTS[name]
    func(*args)
    with pytest.raises(ValueError, match="sys.maxsize"):
        out = func(*args[:pos], 10**20, *args[pos + 1:])
        if inspect.isgenerator(out):
            next(out)


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
