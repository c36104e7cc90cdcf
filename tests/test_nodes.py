import random
import re

import pytest
from hypothesis import given, strategies as st

from abacore import (
    BlockId,
    Node,
    boundary_nodes,
    content,
    duality_transport,
    e_tilde,
    f_tilde,
    i_signature,
    is_scopes,
    is_scopes_exhaustive,
    parse_word,
    residue,
    sigma_ordinary,
    sigma_star,
)
from abacore.partitions import partitions_of

import oracle

partition = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from([p for p in partitions_of(n)])
)


@st.composite
def charged_mp(draw, max_level=3):
    l = draw(st.integers(1, max_level))
    mp = tuple(draw(partition) for _ in range(l))
    charges = tuple(draw(st.integers(-3, 3)) for _ in range(l))
    e = draw(st.integers(2, 4))
    return mp, charges, e


def test_content_and_residue():
    n = Node(2, 5, 1)
    assert content(n, (0, -1)) == 5 - 2 - 1
    assert residue(n, (0, -1), 3) == 2 % 3
    # residues are normalized even for very negative contents
    assert residue(Node(9, 1, 0), (0,), 4) == (1 - 9) % 4


def test_boundary_nodes_filter_and_order():
    mp = ((2, 1), (1,))
    charges = (0, 2)
    for i in range(3):
        add, rem = boundary_nodes(mp, charges, 3, i)
        for n in add + rem:
            assert residue(n, charges, 3) == i
        for seq in (add, rem):
            keys = [(content(n, charges), -n.comp) for n in seq]
            assert keys == sorted(keys)


def test_boundary_nodes_rejects_bad_residue():
    with pytest.raises(ValueError):
        boundary_nodes(((1,),), (0,), 3, 3)


BLOCK = BlockId((0, 1, -1), 0, 3, 1, 0)
RESIDUE_ENTRIES = [
    lambda i: boundary_nodes(((2, 1),), (0,), 3, i),
    lambda i: sigma_ordinary(i, ((1,),), (0,), 3),
    lambda i: sigma_star(i, ((1,),), (0,), 3),
    lambda i: duality_transport(i, ((1,),), (0,), 3),
    lambda i: is_scopes(BLOCK, i, 1),
    lambda i: is_scopes_exhaustive(BLOCK, i, 1),
]


@pytest.mark.parametrize("call", RESIDUE_ENTRIES)
@pytest.mark.parametrize("i", [1.0, True, 0.5])
def test_residue_must_be_an_int(call, i):
    with pytest.raises(ValueError, match="^expected an integer"):
        call(i)


@pytest.mark.parametrize("call", RESIDUE_ENTRIES)
@pytest.mark.parametrize("i", [-1, 3])
def test_residue_range_message_is_kept(call, i):
    with pytest.raises(ValueError, match="^residue out of range$"):
        call(i)


def test_signature_example():
    sig = i_signature(((2, 2), (2,)), (3, 4), 4, 1)
    assert sig.word == "ARA"
    assert sig.reduced_word == "A"
    assert sig.good_addable == Node(3, 1, 0)
    assert sig.good_removable is None
    add, rem = boundary_nodes(((2, 2), (2,)), (3, 4), 4, 1)
    assert add == [Node(3, 1, 0), Node(1, 3, 0)]
    assert rem == [Node(1, 2, 1)]


def test_signature_matches_the_cell_route_exhaustively():
    for mp, charges, e in oracle.bead_grid(**oracle.CRYSTAL_GRID):
        for i in range(e):
            sig = i_signature(mp, charges, e, i)
            letters = oracle.letters_by_cells(mp, charges, e, i)
            assert sig.letters == tuple(letters)
            assert sig.reduced == tuple(oracle.reduce_letters(letters))


@given(charged_mp())
def test_reduced_word_shape(data):
    mp, charges, e = data
    for i in range(e):
        sig = i_signature(mp, charges, e, i)
        word, reduced = sig.word, sig.reduced_word
        assert re.fullmatch(r"A*R*", reduced)
        # the reduced word is what is left after deleting adjacent RA pairs
        while "RA" in word:
            word = word.replace("RA", "", 1)
        assert word == reduced


@given(charged_mp())
def test_crystal_operators_are_partial_inverses(data):
    mp, charges, e = data
    for i in range(e):
        up = e_tilde(i, mp, charges, e)
        if up is not None:
            assert f_tilde(i, up, charges, e) == mp
        down = f_tilde(i, mp, charges, e)
        if down is not None:
            assert e_tilde(i, down, charges, e) == mp


def _long_signature_case(seed):
    """A multipartition with 20-60 removable i-nodes, several per component:
    row a of component j ends at c + a + e*d_a with c = i - s_j (mod e) and d
    strictly decreasing, so every row ends in a removable i-node."""
    rng = random.Random(seed)
    e, l = rng.randint(2, 5), rng.randint(1, 3)
    i, k = rng.randrange(e), rng.randint(20, 60)
    charges = tuple(rng.randint(-4, 4) for _ in range(l))
    mp = []
    for s in charges:
        c, d, parts = (i - s) % e, 0, []
        for a in range(k // l, 0, -1):
            d += rng.randint(1, 2)
            parts.append(c + a + e * d)
        mp.append(tuple(reversed(parts)))
    return tuple(mp), charges, e, i


@pytest.mark.parametrize("seed", range(12))
def test_long_signatures_match_the_cell_route(seed):
    # sigma_star removes many R's of one component in one pass, and on its
    # image adds as many A's back
    mp, charges, e, i = _long_signature_case(seed)
    assert len(oracle.letters_by_cells(mp, charges, e, i)) >= 20
    for mp in (mp, sigma_star(i, mp, charges, e)):
        letters = oracle.letters_by_cells(mp, charges, e, i)
        reduced = oracle.reduce_letters(letters)
        sig = i_signature(mp, charges, e, i)
        assert sig.letters == tuple(letters) and sig.reduced == tuple(reduced)
        assert sigma_star(i, mp, charges, e) == oracle.sigma_star_by_moves(i, mp, charges, e)
        toggled = oracle.sigma_ordinary_by_cells(i, mp, charges, e)
        assert sigma_ordinary(i, mp, charges, e) == toggled
        rem = [node for x, node in reduced if x == "R"][:1]
        add = [node for x, node in reduced if x == "A"][-1:]
        assert f_tilde(i, mp, charges, e) == (oracle.move_node(mp, *rem, -1) if rem else None)
        assert e_tilde(i, mp, charges, e) == (oracle.move_node(mp, *add, 1) if add else None)


@given(charged_mp())
def test_residue_counts(data):
    mp, charges, e = data
    counts = oracle.count_nodes_by_residue(mp, charges, e)
    assert len(counts) == e
    assert sum(counts) == sum(sum(p) for p in mp)
    brute = [0] * e
    for c, p in enumerate(mp):
        for (r, col) in oracle.cells(p):
            brute[(col - r + charges[c]) % e] += 1
    assert counts == tuple(brute)


_BAD_NODES = [None, (1, 3, 0), Node(1.5, 3, 0), Node(1, 3, 2), Node(1, 3, -1)]
_BAD_CHARGES = [None, 2, "x", (0.5, 1)]
# name -> (function, arguments it accepts, {argument position: values it must refuse})
_BOUNDARY = {
    "parse_word": (parse_word, ("s1 t", 2), {0: [None, 5, ["s1", 2]],
                                            1: [2.5, "2", None, True]}),
    "content": (content, (Node(1, 3, 0), (0, 1)), {0: _BAD_NODES, 1: _BAD_CHARGES}),
    "residue": (residue, (Node(1, 3, 0), (0, 1), 3),
                {0: _BAD_NODES, 1: _BAD_CHARGES, 2: [None, "3", 2.5, 1, True]}),
}


@pytest.mark.parametrize(
    "name, pos, bad",
    [pytest.param(name, pos, bad, id=f"{name}-{pos}-{bad!r}".replace(" ", ""))
     for name, (_, _, table) in _BOUNDARY.items()
     for pos, values in table.items() for bad in values],
)
def test_node_and_word_helpers_refuse_bad_input_with_value_errors(name, pos, bad):
    func, args, _ = _BOUNDARY[name]
    func(*args)
    with pytest.raises(ValueError):
        func(*args[:pos], bad, *args[pos + 1:])
