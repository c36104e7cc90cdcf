import itertools

import pytest
from hypothesis import given, strategies as st

import abacore.actions
from abacore import (
    act_charge_e,
    act_charge_l,
    duality_transport,
    in_strict_domain,
    pair_symbols,
    parse_word,
    psi,
    sigma_ordinary,
    sigma_star,
    uglov_set,
)
from abacore.partitions import multipartitions_of, partitions_of

import oracle

charge_tuple = st.integers(1, 4).flatmap(
    lambda r: st.tuples(*([st.integers(-5, 5)] * r))
)
windows = st.sets(st.integers(0, 7), max_size=8).map(lambda s: tuple(sorted(s)))


def test_parse_word_accepts_strings_and_sequences():
    assert parse_word("s1 t T", 3) == ("s1", "t", "T")
    assert parse_word(["s0", "t"], 2) == ("s0", "t")
    assert parse_word("", 2) == ()


def test_parse_word_rejects_bad_tokens():
    with pytest.raises(ValueError):
        parse_word("s3", 3)
    with pytest.raises(ValueError):
        parse_word("u", 2)


def test_parse_word_returns_canonical_tokens():
    assert parse_word("s00 s01 t", 3) == ("s0", "s1", "t")
    assert psi(((1,), (1,)), (0, 1), "s00", 3) == psi(((1,), (1,)), (0, 1), "s0", 3)


@pytest.mark.parametrize("word", [[1], None, "s\u0661", "s\u00b9"])
def test_parse_word_rejects_non_ascii_and_non_string_tokens(word):
    # Arabic-Indic one and superscript one pass str.isdigit; ints and None
    # are not tokens at all
    with pytest.raises(ValueError):
        act_charge_l((0, 1), word, 3)


def test_parse_word_keeps_the_rank_message():
    with pytest.raises(ValueError, match="^rank mismatch$"):
        act_charge_l((0, 1), "s\u0661", 3)


def test_left_action_examples():
    assert act_charge_e("t", (0, -1, 1), 2) == (3, 0, -1)
    assert act_charge_e("s0", (0, -1, 1), 2) == (3, -1, -2)
    assert act_charge_e("s1", (0, -1, 1), 2) == (-1, 0, 1)


def test_right_action_examples():
    assert act_charge_l((0, 1), "t", 4) == (1, 4)
    assert act_charge_l((0, 1), "s1", 4) == (1, 0)
    assert act_charge_l((0, 1), "T", 4) == (-3, 0)


def test_left_action_composes_right_to_left():
    s = (0, -1, 1)
    assert act_charge_e("s1 t", s, 2) == act_charge_e("s1", act_charge_e("t", s, 2), 2)


def test_right_action_composes_left_to_right():
    s = (0, -1, 1)
    assert act_charge_l(s, "t s1", 2) == act_charge_l(act_charge_l(s, "t", 2), "s1", 2)


def test_left_action_matches_the_letter_oracle_exhaustively():
    for rank in range(1, 5):
        tokens = ["t", "T"] + ["s%d" % c for c in range(rank)]
        for s in itertools.product(range(-3, 4), repeat=rank):
            for l in (1, 2, 3, 5):
                for tok in tokens:
                    assert act_charge_e(tok, s, l) == oracle.act_charge_e_by_letters(tok, s, l)


@given(charge_tuple, st.integers(1, 3))
def test_left_action_relations(s, l):
    e = len(s)
    assert act_charge_e("t T", s, l) == s
    assert act_charge_e("T t", s, l) == s
    for c in range(e):
        tok = "s%d" % c
        assert act_charge_e([tok, tok], s, l) == s
        # conjugating by t raises the reflection index by one
        up = "s%d" % ((c + 1) % e)
        assert act_charge_e([up, "t"], s, l) == act_charge_e(["t", tok], s, l)
    for c in range(1, e - 1):
        a, b = "s%d" % c, "s%d" % (c + 1)
        assert act_charge_e([a, b, a], s, l) == act_charge_e([b, a, b], s, l)


@given(charge_tuple, st.integers(2, 4))
def test_right_action_relations(s, e):
    rank = len(s)
    assert act_charge_l(s, "t T", e) == s
    assert act_charge_l(s, "T t", e) == s
    for c in range(rank):
        tok = "s%d" % c
        assert act_charge_l(s, [tok, tok], e) == s
        down = "s%d" % ((c - 1) % rank)
        assert act_charge_l(s, [tok, "t"], e) == act_charge_l(s, ["t", down], e)


@given(charge_tuple, st.integers(1, 3))
def test_reflections_preserve_the_charge_sum(s, l):
    for c in range(len(s)):
        assert sum(act_charge_e("s%d" % c, s, l)) == sum(s)
    assert sum(act_charge_e("t", s, l)) == sum(s) + l


def test_rank_one_actions():
    assert act_charge_e("s0", (4,), 3) == (4,)
    assert act_charge_e("t", (4,), 3) == (7,)
    assert act_charge_l((4,), "s0", 3) == (4,)
    assert act_charge_l((4,), "t", 3) == (7,)


def test_sigma_example():
    assert sigma_ordinary(2, ((3, 2, 1, 1),), (0,), 3) == ((2, 2, 2, 1, 1),)


def test_sigma_toggles_the_boundary():
    # against the diagram route, which shares no code with the row edits
    for e in (2, 3):
        for charges in ((0,), (0, 1), (-1, 1)):
            for n in range(6):
                for mp in multipartitions_of(n, len(charges)):
                    for i in range(e):
                        want = oracle.sigma_ordinary_by_cells(i, mp, charges, e)
                        assert sigma_ordinary(i, mp, charges, e) == want


@given(
    st.integers(2, 4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.data(),
)
def test_sigma_is_an_involution(e, charges, data):
    charges = tuple(charges)
    mp = tuple(
        data.draw(
            st.integers(0, 6).flatmap(
                lambda n: st.sampled_from([p for p in partitions_of(n)])
            )
        )
        for _ in charges
    )
    for i in range(e):
        out = sigma_ordinary(i, mp, charges, e)
        assert sigma_ordinary(i, out, charges, e) == mp


def test_sigma_star_example():
    assert sigma_star(1, ((2, 2), (2,)), (3, 4), 4) == ((2, 2, 1), (2,))


def test_sigma_star_involution_on_uglov_members():
    for e in (2, 3):
        for charges in ((0,), (0, 1), (1, 2)):
            if not in_strict_domain(charges, e):
                continue
            for n in range(6):
                for mp in uglov_set(charges, e, n):
                    for i in range(e):
                        out = sigma_star(i, mp, charges, e)
                        assert sigma_star(i, out, charges, e) == mp


def test_sigma_star_matches_the_move_oracle_exhaustively():
    grids = oracle.closed_domain_grid(), oracle.bead_grid(**oracle.CRYSTAL_GRID)
    for mp, charges, e in itertools.chain(*grids):
        for i in range(e):
            assert sigma_star(i, mp, charges, e) == oracle.sigma_star_by_moves(
                i, mp, charges, e
            )


def test_transport_matches_the_transpose_route_exhaustively():
    for mp, charges, e in oracle.bead_grid(**oracle.CRYSTAL_GRID):
        for i, want in enumerate(oracle.transports_by_transpose(mp, charges, e)):
            assert duality_transport(i, mp, charges, e) == want


def test_transport_checks_the_level_charges(monkeypatch):
    # the guard on the returned value must survive python -O; the return
    # path is the one rank -> level _move, here with its bottom shifted
    real_move = abacore.actions._move

    def drifting_move(*args):
        windows, bottom = real_move(*args)
        return windows, bottom + 1

    monkeypatch.setattr(abacore.actions, "_move", drifting_move)
    with pytest.raises(RuntimeError):
        duality_transport(1, ((1,), ()), (0, 1), 2)


def test_transport_matches_sigma_star():
    for n in range(6):
        for mp in uglov_set((0, 1), 2, n):
            for i in range(2):
                assert duality_transport(i, mp, (0, 1), 2) == sigma_star(
                    i, mp, (0, 1), 2
                )


@given(windows, windows)
def test_pair_symbols_involution(X, Y):
    Xp, Yp = pair_symbols(X, Y)
    assert len(Xp) == len(Y) and len(Yp) == len(X)
    assert sorted(Xp + Yp) == sorted(X + Y)
    assert pair_symbols(Xp, Yp) == (X, Y)


def test_pair_symbols_rejects_a_non_sequence():
    with pytest.raises(ValueError):
        pair_symbols(None, (1,))


def test_pair_symbols_matches_the_claiming_oracle_exhaustively():
    # every strictly increasing X, Y within [-4, 4] of at most 5 entries
    symbols = [c for k in range(6) for c in itertools.combinations(range(-4, 5), k)]
    for X in symbols:
        for Y in symbols:
            assert pair_symbols(X, Y) == oracle.pair_symbols_by_claiming(X, Y)


def test_psi_is_charge_equivariant():
    for e in (2, 3):
        for charges in itertools.product(range(-2, 3), repeat=2):
            for word in ("t", "T", "s0", "s1", "s1 t"):
                mp = ((2, 1), (1,))
                out_mp, out_charges = psi(mp, charges, word, e)
                assert out_charges == act_charge_l(charges, word, e)


def test_psi_transports_uglov_sets():
    for e in (2, 3):
        for charges in ((0, 0), (-1, 1), (0, 1)):
            for word in ("s0", "s1"):
                target = act_charge_l(charges, word, e)
                for n in range(6):
                    src = uglov_set(charges, e, n)
                    image = {psi(mp, charges, word, e)[0] for mp in src}
                    assert image == uglov_set(target, e, n)


@pytest.mark.parametrize(
    "call", [lambda: act_charge_e("t", (), 2), lambda: act_charge_l((), "t", 2)]
)
def test_charge_actions_reject_empty_tuples(call):
    with pytest.raises(ValueError):
        call()
