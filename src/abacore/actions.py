"""Extended affine symmetric group actions, symbol pairing, and the crystal
machinery on top of it.

Group words are sequences of tokens: "s0", "s1", ... for the generators
sigma_0, sigma_1, ..., "t" for tau and "T" for tau inverse.  The same word
type acts on two sides:

* on the left on e-tuples (rank e, parameter l), letters applied right to
  left;
* on the right on l-tuples (rank l, parameter e), letters applied left to
  right.

sigma_c for 1 <= c <= rank-1 swaps coordinates c-1 and c; sigma_0 is the
wrapped swap with a +-parameter shift, equal to tau^-1 sigma_1 tau.  At
rank 1 the group degenerates to the powers of tau and sigma_0 acts as the
identity.

The two sides are one rule: the left action of a word w with parameter l
is the right action of w^-1 (the word reversed, t and T swapped) with
parameter -l.  Likewise duality_transport is psi of s_i with the shift -l,
run on two runners of the transpose, and pair_symbols with |X| > |Y| is the
|X| <= |Y| case on (-Y, -X), negated back.
sigma_ordinary and sigma_star edit rows: each letter of the i-signature,
read off the rows (nodes._letters), lengthens or shortens one row, and one
pass applies them all (nodes._grow).  duality_transport stays on bead rows
(quotients._rows), an independent route to sigma_star.
"""

from bisect import bisect_right
from itertools import compress

from .nodes import _checked_residue, _grow, _letters, _reduce
from .partitions import _as_int, _as_ints, _charge_tuple, _checked
from .quotients import _rows, _symbols


def parse_word(word, rank):
    """Normalize a group word to a tuple of canonical tokens: "t", "T" and
    "s%d" for an index of ASCII digits below rank."""
    rank = _as_int(rank)
    try:
        word = tuple(word.split() if isinstance(word, str) else word)
    except TypeError:
        raise ValueError(f"not a group word: {word!r}") from None
    out = []
    for tok in word:
        if not isinstance(tok, str):
            raise ValueError(f"not a group word token: {tok!r}")
        if tok in ("t", "T"):
            out.append(tok)
        elif tok[:1] == "s" and tok[1:].isascii() and tok[1:].isdigit() and int(tok[1:]) < rank:
            out.append("s%d" % int(tok[1:]))
        else:
            raise ValueError("rank mismatch")
    return tuple(out)


def _letter_right(s, tok, e):
    if tok == "t":
        return s[1:] + (s[0] + e,)
    if tok == "T":
        return (s[-1] - e,) + s[:-1]
    c = int(tok[1:])
    if c > 0:
        return s[: c - 1] + (s[c], s[c - 1]) + s[c + 1 :]
    if len(s) == 1:
        return s
    return (s[-1] - e,) + s[1:-1] + (s[0] + e,)


def act_charge_e(word, s, l):
    """Left action on e-tuples with parameter l: the right action of the
    inverse word with parameter -l."""
    s, l = _charge_tuple(s), _as_int(l)
    word = parse_word(word, len(s))
    for tok in reversed(word):
        s = _letter_right(s, {"t": "T", "T": "t"}.get(tok, tok), -l)
    return s


def act_charge_l(s, word, e):
    """Right action on l-tuples with parameter e; letters applied left to right."""
    s, e = _charge_tuple(s), _as_int(e)
    word = parse_word(word, len(s))
    for tok in word:
        s = _letter_right(s, tok, e)
    return s


def pair_symbols(X, Y):
    """The basic two-symbol pairing; swaps the window sizes.

    With |X| <= |Y|: each x, smallest first, claims the largest remaining
    y <= x, or failing that the largest remaining y.  The unclaimed y's
    migrate into the new X (so |X'| = |Y|), the claimed ones form the new
    Y.  With |X| > |Y| the mirror rule applies, the rule above on (-Y, -X)
    negated back: each y, largest first, claims the smallest remaining
    x >= y, else the smallest remaining; the unclaimed x's migrate into the
    new Y.  Applying the procedure twice gives back the input.  The
    two-branch claiming loop is the test oracle pair_symbols_by_claiming in
    tests/oracle.py.

    Read on beta-sets over a common window bottom, a value only in X is an
    addable node, a value only in Y a removable one, and the migrating
    values are exactly the unclaimed letters of the i-signature after the
    claimed ones cancel, which is what makes the transported action agree
    with the crystal one.
    """
    X, Y = _as_ints(X), _as_ints(Y)
    for seq in (X, Y):
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise ValueError("symbol entries must be strictly increasing")
    return _pair(X, Y)


def _pair(X, Y):
    """pair_symbols of strictly increasing X and Y."""
    if len(X) > len(Y):
        neg_y, neg_x = _pair(_negated(Y), _negated(X))
        return _negated(neg_x), _negated(neg_y)
    avail = list(Y)
    claimed = [avail.pop(bisect_right(avail, x) - 1) for x in X]
    return tuple(sorted([*X, *avail])), tuple(sorted(claimed))


def _negated(seq):
    return tuple(-v for v in reversed(seq))


def _pair_rows(x, y):
    """_pair of the beads of two rows of one length, as two such rows."""
    rows = bytearray(len(x)), bytearray(len(x))
    for row, beads in zip(rows, _pair(*(list(compress(range(len(x)), r)) for r in (x, y)))):
        for b in beads:
            row[b] = 1
    return rows


def _pair_components(mp, charges, c):
    """Replace components (c-1, c) by their pairing; their charges swap."""
    rows, bottom, cuts = _rows(mp[c - 1 : c + 1], charges[c - 1 : c + 1])
    pair, pair_charges = _symbols(_pair_rows(*rows), bottom, cuts)
    return mp[: c - 1] + pair + mp[c + 1 :], charges[: c - 1] + pair_charges + charges[c + 1 :]


def psi(mp, charges, word, e):
    """The component-level bijection lifting the right charge action.

    tau rotates components one step down with the wrapped charge raised by
    e; sigma_c pairs components (c-1, c); sigma_0 is carried through the
    conjugation tau^-1 sigma_1 tau.  The output charges always equal the
    right action on the input charges.
    """
    mp, charges, e = _checked(mp, charges, e)
    return _psi(mp, charges, parse_word(word, len(mp)), e)


def _psi(mp, charges, word, shift):
    """psi of validated input; the wrapped charge moves by shift (e on the
    level side, -l on the runner side)."""
    for tok in word:
        if tok == "t":
            mp = mp[1:] + (mp[0],)
            charges = charges[1:] + (charges[0] + shift,)
        elif tok == "T":
            mp = (mp[-1],) + mp[:-1]
            charges = (charges[-1] - shift,) + charges[:-1]
        elif tok == "s0":
            if len(mp) > 1:
                mp, charges = _psi(mp, charges, ("T", "s1", "t"), shift)
        else:
            mp, charges = _pair_components(mp, charges, int(tok[1:]))
    return mp, charges


def sigma_ordinary(i, mp, charges, e):
    """Toggle every addable and every removable i-node at once: every letter
    of the i-signature, an A adding its node and an R removing its node.

    On each component's abacus that swaps positions x and x + 1 for every
    x = i - 1 (mod e), so the toggled diagram is again a partition.
    """
    mp, charges, e, i = _checked_residue(mp, charges, e, i)
    return _grow(mp, _letters(mp, charges, e, i))


def sigma_star(i, mp, charges, e):
    """The crystal-side involution: swap the reduced signature's letter counts.

    The reduced i-signature reads A^a R^r.  Removing the good removable
    (leftmost surviving R) turns that letter into an A and leaves every
    other letter and cancellation in place, and adding the good addable
    (rightmost surviving A) works the same way.  So one signature gives all
    moves: remove its first r - a surviving R's, or add its last a - r
    surviving A's, each lengthening or shortening one row, all in one pass.
    The test oracle sigma_star_by_moves in tests/oracle.py rebuilds the
    signature from the diagram cells after every move instead.  Meant for
    multipartitions reachable from the empty one by good-node additions;
    there it is an involution and preserves the block weight.
    """
    mp, charges, e, i = _checked_residue(mp, charges, e, i)
    reduced = _reduce(_letters(mp, charges, e, i))
    a = sum(1 for letter in reduced if letter[2] == "A")
    r = len(reduced) - a
    return _grow(mp, reduced[min(a, r) : max(a, r)])


def duality_transport(i, mp, charges, e):
    """sigma_star computed on the other side of the level-rank transpose.

    Apply psi of s_i with the shift -l to the transpose: pair runners i-1 and
    i, read out of the level rows (runner c holds d + l*k when component
    l-1-d holds c + e*k), l strided slices each, and written back; no other
    runner moves.  s_0 = T s_1 t pairs runner e-1 raised by l with runner 0;
    as pairing commutes with translation, pair runner e-1 with runner 0
    lowered by l and raise the second result by l, on rows padded by e.
    Pairing only compares beads, so it commutes with the rows' cuts, which
    keep the shift by l exact.  Test oracle: transports_by_transpose in
    tests/oracle.py.
    """
    mp, charges, e, i = _checked_residue(mp, charges, e, i)
    l = len(mp)
    rows, bottom, cuts = _rows(mp, charges, e, 0 if i else e)
    levels, a, size = rows[::-1], (i - 1) % e, len(rows[0]) // e * l
    x, y = bytearray(size), bytearray(size)
    for d, row in enumerate(levels):
        x[d::l], y[d::l] = row[a::e], row[i::e]
    lift = 0 if i else l
    x, y = _pair_rows(x, y[lift:] + bytes(lift))
    y = b"\1" * lift + y[: len(y) - lift]
    for d, row in enumerate(levels):
        row[a::e], row[i::e] = x[d::l], y[d::l]
    new_mp, new_charges = _symbols(rows, bottom, cuts)
    if new_charges != charges:
        raise RuntimeError("duality transport changed the level charges")
    return new_mp
