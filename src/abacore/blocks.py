"""Blocks of charged multipartitions and the group action on them.

A block is labeled by the charge tuple of the e-core of the underlying partition and the
quotient weight, read off the rows in closed form (quotients._runner_counts); two
charged multipartitions lie in the same block exactly when those agree.  A label sums one
row tally per component (quotients._row_tally), alike for charges equal mod e, so a
translation by e keeps the blocks: blocks_of groups members once per residue tuple and
reads labels per call off packed sums.  A tally depends only on the e-core, so one DP over
tuples of e-cores (_least_cores) gives reachable_multicharges and realize_multicharge.
The extended affine symmetric group acts on block labels through the core charges, and
its orbits are classified by an invariant computed on the level-l side.
"""

import operator
from functools import lru_cache
from typing import NamedTuple

from .actions import _letter_right, _psi, act_charge_e
from .partitions import (
    _as_int,
    _as_ints,
    _beta_window,
    _charge_tuple,
    _check_residue,
    _checked,
    _regular_partitions,
    as_charges,
    check_level,
    check_modulus,
    multipartitions_of,
    partition_list,
)
from .quotients import (
    _core_partition,
    _empty_label,
    _in_domain,
    _require_domain,
    _row_tally,
    _runner_counts,
    generalized_core,
)


class BlockId(NamedTuple):
    core_multicharge: tuple
    weight: int
    e: int
    l: int
    m: int


def block_id(mp, charges, e):
    """Label the block of a charged multipartition.

    The label is the e-symbol charge tuple of the e-core of the underlying
    partition, plus the e-quotient size (which equals the generalized core
    weight).  Both are read off the rows by _runner_counts, as the runner
    charges s_e and the size |mp_e| of the level-rank transpose.
    """
    mp, charges, e = _checked(mp, charges, e)
    l = len(mp)
    _require_domain(charges, e)
    return BlockId(*_runner_counts(mp, charges, e, l), e, l, sum(charges))


def blocks_of(n, charges, e):
    """Group all multipartitions of total size n into blocks.

    Returns a dict from BlockId to the members in lexicographic order, the blocks
    ordered by (weight, core charge tuple).  The runner-count changes D of a member's
    row tallies fix its label: the runner charges are the empty ones plus D, the weight
    the empty total plus l*(n - sum of c*D_c)/e less (sum of s_e^2 - m)/2 (_runner_counts;
    e divides, as e times a row's rise is its part less new % e - old % e).  Moving s_j by
    e keeps Q_j = q^(s_j) and adds one bead to each runner of the empty component j, so D
    depends on the charges only mod e: members are grouped once per (n, residues, e)
    (_block_groups), labels read per call.  Test oracle: blocks_of_by_labels.
    """
    n = _as_int(n, 0, "the size n must be nonnegative")
    charges = _charge_tuple(charges)
    e = check_modulus(e)
    _require_domain(charges, e)
    l = len(charges)
    (counts, total), labels, m = _empty_label(charges, e, l), [], sum(charges)
    for d, x in _block_groups(n, tuple(s % e for s in charges), e):
        s_e = tuple(map(operator.add, counts, d))
        w = total + l * (n - sum(map(operator.mul, range(e), d))) // e
        labels.append((w - (sum(map(operator.mul, s_e, s_e)) - m) // 2, s_e, x))
    return {BlockId(s_e, w, e, l, m): x for w, s_e, x in sorted(labels)}


def uglov_set(charges, e, n):
    """Multipartitions of size n reachable from the empty one by good nodes.

    At closed-domain charges s these are the FLOTW multipartitions (Foda,
    Leclerc, Okado, Thibon and Welsh, Adv. Math. 141 (1999); Geck and
    Jacon (2011), ch. 6), with lam^(j)_r = 0 past the last row:
    (a) lam^(j)_r >= lam^(j+1)_{r + s_{j+1} - s_j} for j < l - 1 and
    lam^(l-1)_r >= lam^(0)_{r + e + s_0 - s_{l-1}}, for every r >= 1;
    (b) for each k > 0 the residues k - r + s_j of the rows r of length k
    miss some residue mod e.  They are built, not filtered: a part repeated
    e times has e consecutive residues, against (b), so chains of e-regular
    components are grown within the size budget n, each checked by (a)
    against the one before, and full chains by the wrap condition and (b).
    The work follows the chains that meet (a), not the multipartitions of
    n (_flotw).  Other charges are narrowed (the nodes of sizes below n
    order alike across any gap above 2n, so each such gap shrinks to the
    least one of its residue mod e), sorted with s_c and lifted with t into
    the domain (each t cuts their distance to the top by e), and the set
    there goes back by psi of the inverse word, which commutes with the
    crystal operators.  Test oracles: uglov_set_by_crystal and
    uglov_set_by_filter in tests/oracle.py.
    """
    s = _charge_tuple(charges)
    e = check_modulus(e)
    n = _as_int(n, 0, "the size n must be nonnegative")
    order, narrow = sorted(range(len(s)), key=s.__getitem__), list(s)
    for a, b in zip(order, order[1:]):
        gap = s[b] - s[a]
        narrow[b] = narrow[a] + min(gap, 2 * n + 1 + (gap - 2 * n - 1) % e)
    s, back = tuple(narrow), ()
    while not _in_domain(s, e):
        c = next((c for c in range(1, len(s)) if s[c - 1] > s[c]), 0)
        s = _letter_right(s, "s%d" % c if c else "t", e)
        back = ("s%d" % c if c else "T",) + back
    members = _flotw(s, e, n)
    return frozenset(_psi(mp, s, back, e)[0] for mp in members) if back else frozenset(members)


def _flotw(s, e, n):
    """uglov_set at closed-domain charges s.  Components come fewest rows
    first, so one too long for (a) ends the scan; component 0 is checked
    against an empty one at gap n, which bounds nothing.  (b) builds its
    residue set only when some row length occurs e times or more."""
    l, lt, wrap, out, stack = len(s), operator.lt, e + s[0] - s[-1], [], [((), n)]
    while stack:
        mp, rest = stack.pop()
        j = len(mp)
        p, d = (mp[-1], s[j] - s[j - 1]) if j else ((), n)
        most = len(p) + d
        for m in range(rest + 1) if j < l - 1 else (rest,):
            for q in _regular_partitions(m, e):
                if len(q) > most:
                    break
                if j and any(map(lt, p, q[d:])):
                    continue
                if j < l - 1:
                    stack.append((mp + (q,), rest - m))
                    continue
                mp_q = mp + (q,)
                if len(mp_q[0]) > len(q) + wrap or any(map(lt, q, mp_q[0][wrap:])):
                    continue
                lengths = sum(mp_q, ())
                if len(lengths) >= e and max(map(lengths.count, lengths)) >= e:
                    rows = {(k, (k - r + s[i]) % e) for i, c in enumerate(mp_q)
                            for r, k in enumerate(c, 1)}
                    lengths = [k for k, _ in rows]
                    if max(map(lengths.count, lengths)) >= e:
                        continue
                out.append(mp_q)
    return out


def is_scopes(b, i, l):
    """Charge-gap test: no member of the block has an addable i-node.

    For i >= 1 the condition is s_i - s_{i-1} >= w.  For i = 0 the wrapped
    difference needs one unit more: s_0 - s_{e-1} >= w + 1.  The cheapest
    member with an addable i-node raises a runner-(i-1) bead to value v and
    opens a runner-i hole next to it, which costs s_i - s_{i-1} + 1 moves;
    in the wrapped case the hole sits one value above the bead, so one move
    comes for free and the cost is s_0 - s_{e-1}, whatever the level.
    """
    s, w, e = _check_block(b, l)
    i = _check_residue(i, e)
    return s[i] - s[i - 1] >= w + (i == 0)  # s[-1] is s_{e-1}


def is_scopes_exhaustive(b, i, l):
    """Brute-force route: look for an addable i-node in every member of the block.

    Members come from their e-quotients (size-w e-multipartitions at the
    core charges) as charged partitions, which have the addable residues of
    their level-l forms: an addable i-node is a bead x on runner i-1 facing
    no bead x on runner i (i = 0: x on runner e-1, x+1 on runner 0), both
    read down to one below the lower flush bottom.  The diagram route is
    the test oracle is_scopes_by_diagram in tests/oracle.py.
    """
    s, w, e = _check_block(b, l)
    i = _check_residue(i, e)
    a, step = (i - 1, 0) if i else (e - 1, 1)
    for quotient in multipartitions_of(w, e):
        p, q = quotient[a], quotient[i]
        bottom = min(s[a] - len(p), s[i] - len(q)) - 1
        beads = set(_beta_window(q, s[i], s[i] - bottom))
        if any(x + step not in beads for x in _beta_window(p, s[a], s[a] - bottom)):
            return False
    return True


def _as_block(b):
    if not isinstance(b, BlockId):
        raise ValueError(f"not a block label: {b!r}")
    return b


def _check_block(b, l):
    """Core charges (in the domain or not), weight and modulus of a label used at level l."""
    e = check_modulus(_as_block(b).e)
    s = as_charges(b.core_multicharge, e)
    w = _as_int(b.weight, 0, "the block weight must be nonnegative")
    if b.m != sum(s):
        raise ValueError("the block charge m must be the sum of its core charges")
    if b.l != check_level(l):
        raise ValueError("context mismatch")
    return s, w, e


def block_action(word, b, l):
    """Act on the block label through the core charges; the weight rides along."""
    s, w, e = _check_block(b, l)
    s = act_charge_e(word, s, l)
    return BlockId(s, w, e, l, sum(s))


def level_multicharge(s_e, e, l):
    """The level-l charge tuple attached to an e-core charge tuple.

    The level charges of the core with runner charges s_e: component j
    fills runner c below (s_e[c] + j) // l (see generalized_core).
    Constant on orbits of the index-preserving generators, and separates
    them.
    """
    s_e = as_charges(s_e, check_modulus(e))
    return _level_multicharge(s_e, check_level(l))


def _level_multicharge(s_e, l):
    """level_multicharge of validated runner charges and level."""
    return tuple(sum((s + j) // l for s in s_e) for j in range(l))


def orbit_equivalent(b1, b2, l):
    """Whether two block labels lie in one orbit of the sigma generators.
    Test oracle: orbit_equivalent_by_search in tests/oracle.py."""
    b1, b2 = _as_block(b1), _as_block(b2)
    if (b1.e, b1.l, b1.m) != (b2.e, b2.l, b2.m):
        raise ValueError("context mismatch")
    s1, w1, e = _check_block(b1, l)
    s2, w2, _ = _check_block(b2, l)
    return w1 == w2 and _level_multicharge(s1, l) == _level_multicharge(s2, l)


def realize_multicharge(start, target, e):
    """Build a multipartition charged at `start` whose core charges are `target`.

    The witness has the runner charges of the empty multipartition at `target`, and is
    the least with them: they are the start's plus one change per component, which
    depends only on its e-core, the unique least partition with that change (removing a
    rim e-hook keeps it), so the least are tuples of e-cores.  _least_cores, exact up to
    its bound, runs over all components but the last, whose change is the one left and
    fixes its e-core, so it is looked up.  From bound 1, a bound b with no witness gives
    way to the least of 2b, the least total seen (its prefix fits that bound) and the
    size of the whole change put into one component, which reaches it.  Ties go to the
    least component sizes, then changes.  No smaller witness has these core charges
    (enumerated in tests/test_blocks.py).  RuntimeError when the change does not sum to
    0 or is not reached, or the witness misses.
    """
    start = _charge_tuple(start)
    target = _as_ints(target)
    e = check_modulus(e)
    _require_domain(start, e)
    if len(target) != len(start) or sum(target) != sum(start) or not _in_domain(target, e):
        raise ValueError("unreachable multicharge")
    empties = [_empty_label((s,), e, 1)[0] for s in start]
    need = tuple(map(operator.sub, _empty_label(target, e, len(start))[0], map(sum, zip(*empties))))
    cap = min(sum(_core_cost((c - s) % e, x, e) for c, x in enumerate(need)) for s in start)
    last, b = {x: k for k, x in _core_offers(start[-1] % e, e, cap)}, min(1, cap)
    while True:
        best = min([(size + last[x], sizes + (last[x],), xs + (x,))
                    for u, (size, sizes, xs) in _least_cores(start[:-1], e, b).items()
                    if (x := tuple(map(operator.sub, need, u))) in last], default=(cap + 1,))
        if best[0] <= b or b == cap:
            break
        b = min(2 * b, best[0], cap)
    if sum(need) or best[0] > b:
        raise RuntimeError("realize: the runner targets are not reached")
    witness = tuple(_core_partition(tuple(map(operator.add, s_e, x))) if any(x) else ()
                    for s_e, x in zip(empties, best[2]))
    if generalized_core(witness, start, e).core_charges != target:
        raise RuntimeError("realized witness misses the target multicharge")
    return witness


def reachable_multicharges(start, e, bound):
    """Core charges of every multipartition of size at most `bound`, from the
    changes _least_cores reaches.  Test oracle: reachable_by_enumeration."""
    start = _charge_tuple(start)
    bound = _as_int(bound, 0, "the size bound must be nonnegative")
    e = check_modulus(e)
    _require_domain(start, e)
    base = _empty_label(start, e, len(start))[0]
    return frozenset(_level_multicharge(tuple(map(operator.add, base, u)), len(start))
                     for u in _least_cores(start, e, bound))


def _core_cost(a, x, e):
    """Nodes added by x beads onto (x < 0: off) a runner whose first hole is a above."""
    return a * x + e * x * (x - 1) // 2


@lru_cache(maxsize=256)
def _core_offers(r, e, bound):
    """(size, runner-count change) of each e-core of size at most bound at a charge
    r mod e, by size; a runner's cost is never negative, so each is cut on its own."""
    offers = [(0, ())]
    for c in range(e):
        costs = [(y, f) for y in range(-bound - 1, bound + 2)
                 if (f := _core_cost((c - r) % e, y, e)) <= bound]
        offers = [(k + f, x + (y,)) for k, x in offers for y, f in costs if k + f <= bound]
    return sorted(o for o in offers if not sum(o[1]))


@lru_cache(maxsize=64)
def _block_groups(n, residues, e):
    """(D, members) of each block of the multipartitions of n at charges of these residues
    mod e; the cache pins at most 64 groupings.  Changes are packed once per component
    (_packed), change c times 2**(width*c), so a member costs one addition.  Digit c sums
    to a change in [-n, n] (n rows move one bead each), so with n added and 2**width > 2n
    digits never carry, equal sums mean equal D, and digit c masked, less n, is D_c.
    Components walk their partitions in increasing tuple order, so members come sorted."""
    width = (2 * n).bit_length()
    members = [((), n, n * sum(1 << width * c for c in range(e)))]  # (mp, size left, D + n)
    for r in residues[:-1]:
        column = sorted((p, k, t) for k in range(n + 1) for p, t in _packed(r, k, e, width))
        members = [(mp + (p,), rest - k, u + t)
                   for mp, rest, u in members for p, k, t in column if k <= rest]
    groups = {}
    for mp, rest, u in members:
        for p, t in reversed(_packed(residues[-1], rest, e, width)):
            groups.setdefault(u + t, []).append(mp + (p,))
    return tuple((tuple((u >> width * c & (1 << width) - 1) - n for c in range(e)), tuple(x))
                 for u, x in groups.items())


@lru_cache(maxsize=256)
def _packed(r, k, e, width):
    """Each partition of k and its runner-count changes at a charge r mod e, packed."""
    return tuple((p, sum(x << width * c for c, x in enumerate(_row_tally(p, r, e)[0])))
                 for p in partition_list(k))


def _least_cores(start, e, bound):
    """Each runner-count change at start within the bound, with its least key (size,
    component sizes, component changes) over tuples of e-cores.  Extending keys by one
    component keeps their order, so keeping the least per partial sum is exact."""
    reach = {(0,) * e: (0, (), ())}
    for s in start:
        step = {}
        for u, (size, sizes, xs) in reach.items():
            for k, x in _core_offers(s % e, e, bound):
                if size + k > bound:
                    break
                v = tuple(map(operator.add, u, x))
                key = (size + k, sizes + (k,), xs + (x,))
                if v not in step or key < step[v]:
                    step[v] = key
        reach = step
    return reach
