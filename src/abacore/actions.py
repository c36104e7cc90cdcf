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
"""

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


def _swap(s, c):
    s = list(s)
    s[c - 1], s[c] = s[c], s[c - 1]
    return tuple(s)


def _letter_left(tok, s, l):
    e = len(s)
    if tok == "t":
        return (s[-1] + l,) + s[:-1]
    if tok == "T":
        return s[1:] + (s[0] - l,)
    c = int(tok[1:])
    if c == 0:
        if e == 1:
            return s
        return (s[-1] + l,) + s[1:-1] + (s[0] - l,)
    return _swap(s, c)


def _letter_right(s, tok, e):
    l = len(s)
    if tok == "t":
        return s[1:] + (s[0] + e,)
    if tok == "T":
        return (s[-1] - e,) + s[:-1]
    c = int(tok[1:])
    if c == 0:
        if l == 1:
            return s
        return (s[-1] - e,) + s[1:-1] + (s[0] + e,)
    return _swap(s, c)


def act_charge_e(word, s, l):
    """Left action on e-tuples with parameter l; letters applied right to left."""
    s, l = _charge_tuple(s), _as_int(l)
    word = parse_word(word, len(s))
    for tok in reversed(word):
        s = _letter_left(tok, s, l)
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
    Y.  With |X| > |Y| the mirror rule applies: each y, largest first,
    claims the smallest remaining x >= y, else the smallest remaining; the
    unclaimed x's migrate into the new Y.  Applying the procedure twice
    gives back the input.

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
    if len(X) <= len(Y):
        avail = list(Y)
        claimed = []
        for x in X:
            pick = None
            for idx in range(len(avail) - 1, -1, -1):
                if avail[idx] <= x:
                    pick = idx
                    break
            if pick is None:
                pick = len(avail) - 1
            claimed.append(avail.pop(pick))
        return tuple(sorted(list(X) + avail)), tuple(sorted(claimed))
    avail = list(X)
    claimed = []
    for y in reversed(Y):
        pick = None
        for idx in range(len(avail)):
            if avail[idx] >= y:
                pick = idx
                break
        if pick is None:
            pick = 0
        claimed.append(avail.pop(pick))
    return tuple(sorted(claimed)), tuple(sorted(list(Y) + avail))


def _pair_components(mp, charges, c):
    """Replace components (c-1, c) by their pairing; their charges swap."""
    (X, Y), bottom = _windows(mp[c - 1 : c + 1], charges[c - 1 : c + 1])
    pair, pair_charges = _symbols(pair_symbols(X, Y), bottom)
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
    l = len(mp)
    charges = as_charges(charges, l)
    e = check_modulus(e)
    word = parse_word(word, l)
    for tok in word:
        if tok == "t":
            mp = mp[1:] + (mp[0],)
            charges = charges[1:] + (charges[0] + e,)
        elif tok == "T":
            mp = (mp[-1],) + mp[:-1]
            charges = (charges[-1] - e,) + charges[:-1]
        elif tok == "s0":
            if l > 1:
                mp, charges = psi(mp, charges, ("T", "s1", "t"), e)
        else:
            mp, charges = _pair_components(mp, charges, int(tok[1:]))
    return mp, charges


def sigma_ordinary(i, mp, charges, e):
    """Toggle every addable and every removable i-node at once."""
    mp = as_multipartition(mp)
    charges = as_charges(charges, len(mp))
    e = check_modulus(e)
    i = _check_residue(i, e)
    out = []
    for c, p in enumerate(mp):
        rows = list(p) + [0]
        new_rows = []
        for a, cur in enumerate(rows, start=1):
            above = rows[a - 2] if a >= 2 else None
            below = rows[a] if a < len(rows) else 0
            length = cur
            if (above is None or above > cur) and (cur + 1 - a + charges[c]) % e == i:
                length = cur + 1  # addable i-node in this row
            elif cur > below and (cur - a + charges[c]) % e == i:
                length = cur - 1  # removable i-node in this row
            new_rows.append(length)
        while new_rows and new_rows[-1] == 0:
            new_rows.pop()
        out.append(tuple(new_rows))
    return as_multipartition(out)


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

    Carry the multipartition to its transposed e-symbol, pair the runners
    (i-1, i) there (for i = 0: rotate the top runner down with charge +l,
    pair runners (0, 1), rotate back with charge -l), and relabel the
    runners back onto the level abacus.
    """
    mp = as_multipartition(mp)
    l = len(mp)
    charges = as_charges(charges, l)
    e = check_modulus(e)
    i = _check_residue(i, e)
    mp_e, s_e = level_rank_transpose(mp, charges, e)
    if i >= 1:
        mp_e, s_e = _pair_components(mp_e, s_e, i)
    else:
        rot = (mp_e[-1],) + mp_e[:-1]
        rot_s = (s_e[-1] + l,) + s_e[:-1]
        rot, rot_s = _pair_components(rot, rot_s, 1)
        mp_e = rot[1:] + (rot[0],)
        s_e = rot_s[1:] + (rot_s[0] - l,)
    new_mp, new_charges = _symbols(*_relabel(mp_e, s_e, e, l, "rank", "level"))
    if new_charges != charges:
        raise RuntimeError("duality transport changed the level charges")
    return new_mp
