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
parameter -l.  Likewise the runner-side transport in duality_transport is
psi with the shift -l, and pair_symbols with |X| > |Y| is the |X| <= |Y|
case on (-Y, -X), negated back.
"""

from bisect import bisect_right

from .nodes import add_node, i_signature, remove_node
from .partitions import (
    _as_int,
    _as_ints,
    _charge_tuple,
    _check_residue,
    as_charges,
    as_multipartition,
    check_modulus,
)
from .quotients import _relabel, _symbols, _windows, level_rank_transpose


def parse_word(word, rank):
    """Normalize a group word to a tuple of tokens, checking sigma indices."""
    if isinstance(word, str):
        word = word.split()
    word = tuple(word)
    for tok in word:
        if tok in ("t", "T"):
            continue
        if tok.startswith("s") and tok[1:].isdigit() and int(tok[1:]) < rank:
            continue
        raise ValueError("rank mismatch")
    return word


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
    return tuple(sorted(X + tuple(avail))), tuple(sorted(claimed))


def _negated(seq):
    return tuple(-v for v in reversed(seq))


def _pair_components(mp, charges, c):
    """Replace components (c-1, c) by their pairing; their charges swap."""
    (X, Y), bottom = _windows(mp[c - 1 : c + 1], charges[c - 1 : c + 1])
    pair, pair_charges = _symbols(_pair(X, Y), bottom)
    return (
        mp[: c - 1] + pair + mp[c + 1 :],
        charges[: c - 1] + pair_charges + charges[c + 1 :],
    )


def psi(mp, charges, word, e):
    """The component-level bijection lifting the right charge action.

    tau rotates components one step down with the wrapped charge raised by
    e; sigma_c pairs components (c-1, c); sigma_0 is carried through the
    conjugation tau^-1 sigma_1 tau.  The output charges always equal the
    right action on the input charges.
    """
    mp = as_multipartition(mp)
    charges = as_charges(charges, len(mp))
    e = check_modulus(e)
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
    """Toggle every addable and every removable i-node at once.

    On each component's abacus that swaps positions x and x + 1 for every
    x = i - 1 (mod e).  With the charges shifted by 1 - i, these pairs start
    on multiples of e, and so does the common window bottom.
    """
    mp = as_multipartition(mp)
    charges = as_charges(charges, len(mp))
    e = check_modulus(e)
    i = _check_residue(i, e)
    step = (1, -1) + (0,) * (e - 2)
    windows, bottom = _windows(mp, [s + 1 - i for s in charges], e)
    return _symbols([[y + step[y % e] for y in w] for w in windows], bottom)[0]


def sigma_star(i, mp, charges, e):
    """The crystal-side involution: swap the reduced signature's letter counts.

    The reduced i-signature reads A^a R^r.  Removing the good removable
    (leftmost surviving R) turns that letter into an A and leaves every
    other letter and cancellation in place, and adding the good addable
    (rightmost surviving A) works the same way.  So one signature gives all
    moves: remove its first r - a surviving R's, or add its last a - r
    surviving A's.  The test oracle sigma_star_by_moves in tests/oracle.py
    rebuilds the signature after every move instead.  Meant for
    multipartitions reachable from the empty one by good-node additions;
    there it is an involution and preserves the block weight.
    """
    mp = as_multipartition(mp)
    charges = as_charges(charges, len(mp))
    e = check_modulus(e)
    sig = i_signature(mp, charges, e, i)
    a = sum(1 for letter, _ in sig.reduced if letter == "A")
    r = len(sig.reduced) - a
    for letter, node in sig.reduced[min(a, r) : max(a, r)]:
        mp = remove_node(mp, node) if letter == "R" else add_node(mp, node)
    return mp


def duality_transport(i, mp, charges, e):
    """sigma_star computed on the other side of the level-rank transpose.

    Carry the multipartition to its transposed e-symbol, apply psi of s_i
    there with the shift -l (so s_0 rotates the top runner down with charge
    +l, pairs runners (0, 1) and rotates back), and relabel the runners back
    onto the level abacus.
    """
    mp = as_multipartition(mp)
    l = len(mp)
    charges = as_charges(charges, l)
    e = check_modulus(e)
    i = _check_residue(i, e)
    mp_e, s_e = level_rank_transpose(mp, charges, e)
    mp_e, s_e = _psi(mp_e, s_e, ("s%d" % i,), -l)
    new_mp, new_charges = _symbols(*_relabel(mp_e, s_e, e, l, "rank", "level"))
    if new_charges != charges:
        raise RuntimeError("duality transport changed the level charges")
    return new_mp
