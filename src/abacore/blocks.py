"""Blocks of charged multipartitions and the group action on them.

A block is labeled by the charge tuple of the e-core of the underlying
partition together with the quotient weight; two charged multipartitions
lie in the same block exactly when those agree.  The extended affine
symmetric group acts on block labels through its action on the core
charges, and orbits of that action are classified by an invariant computed
on the level-l side.
"""

from functools import lru_cache
from typing import NamedTuple

from .actions import act_charge_e
from .nodes import boundary_nodes, e_tilde
from .partitions import (
    _as_int,
    _as_ints,
    _charge_tuple,
    _check_residue,
    as_charges,
    as_multipartition,
    check_modulus,
    mp_size,
    multipartitions_of,
)
from .quotients import (
    _relabel,
    _require_domain,
    _symbols,
    _transpose_weight,
    generalized_core,
    in_closed_domain,
    tau_e_inverse,
    tau_l,
)


class BlockId(NamedTuple):
    core_multicharge: tuple
    weight: int
    e: int
    l: int
    m: int


def _sort_key(b):
    return (b.weight, b.core_multicharge)


def block_id(mp, charges, e):
    """Label the block of a charged multipartition.

    The label is the e-symbol charge tuple of the e-core of the underlying
    partition, plus the e-quotient size (which equals the generalized core
    weight).  Both are read off one pass of the level-rank transpose, with
    no partition built: the runner counts give s_e, the bead sums |mp_e|.
    """
    mp = as_multipartition(mp)
    l = len(mp)
    charges = as_charges(charges, l)
    e = check_modulus(e)
    _require_domain(charges, e)
    runners, rbottom = _relabel(mp, charges, e, l, "level", "rank")
    s_e = tuple(rbottom + len(r) for r in runners)
    return BlockId(s_e, _transpose_weight(runners, rbottom), e, l, sum(charges))


def blocks_of(n, charges, e):
    """Group all multipartitions of total size n into blocks.

    Returns a dict from BlockId to the sorted tuple of members, with the
    blocks ordered by (weight, core charge tuple).
    """
    n = _as_int(n, 0, "the size n must be nonnegative")
    charges = _charge_tuple(charges)
    l = len(charges)
    groups = {}
    for mp in multipartitions_of(n, l):
        groups.setdefault(block_id(mp, charges, e), []).append(mp)
    return {
        b: tuple(sorted(groups[b])) for b in sorted(groups, key=_sort_key)
    }


@lru_cache(maxsize=None)
def uglov_set(charges, e, n):
    """Multipartitions of size n reachable from the empty one by good nodes.

    Layered construction: the empty multipartition at size zero, then every
    image of a layer under the node-adding crystal operators.
    """
    charges = _charge_tuple(charges)
    e = check_modulus(e)
    n = _as_int(n, 0, "the size n must be nonnegative")
    if n == 0:
        return frozenset({((),) * len(charges)})
    out = set()
    for mp in uglov_set(charges, e, n - 1):
        for i in range(e):
            image = e_tilde(i, mp, charges, e)
            if image is not None:
                out.add(image)
    return frozenset(out)


def is_scopes(b, i, l):
    """Charge-gap test: no member of the block has an addable i-node.

    For i >= 1 the condition is s_i - s_{i-1} >= w.  For i = 0 the wrapped
    difference needs one unit more: s_0 - s_{e-1} >= w + 1.  The cheapest
    member with an addable i-node raises a runner-(i-1) bead to value v and
    opens a runner-i hole next to it, which costs s_i - s_{i-1} + 1 moves;
    in the wrapped case the hole sits one value above the bead, so one move
    comes for free and the cost is s_0 - s_{e-1}.  (Both w + e and w + l
    readings of the adjustment fail against the brute-force path; w + 1 is
    what it confirms, and it does not depend on the level.)
    """
    s, w, e = _check_block(b, l)
    i = _check_residue(i, e)
    if i == 0:
        return s[0] - s[e - 1] >= w + 1
    return s[i] - s[i - 1] >= w


def is_scopes_exhaustive(b, i, l):
    """Brute-force route: check every member of the block for addable i-nodes.

    Members are enumerated through their e-quotients (all e-multipartitions
    of size w at the block's core charges) and the addable-node check runs
    on the underlying charged partition, which carries the same addable
    residues as its level-l counterpart.
    """
    s_e, w, e = _check_block(b, l)
    i = _check_residue(i, e)
    core_p, core_m = tau_e_inverse(((),) * e, s_e)
    core_size = mp_size(tau_l(core_p, core_m, e, l)[0])
    for quotient in multipartitions_of(w, e):
        p, m = tau_e_inverse(quotient, s_e)
        member = tau_l(p, m, e, l)[0]
        assert mp_size(member) <= core_size + e * l * w
        addable, _ = boundary_nodes((p,), (m,), e, i)
        if addable:
            return False
    return True


def _check_block(b, l):
    """Core charges (anywhere, not only in the domain), weight and modulus
    of a block label used at level l."""
    e = check_modulus(b.e)
    s = as_charges(b.core_multicharge, e)
    w = _as_int(b.weight, 0, "the block weight must be nonnegative")
    if b.m != sum(s):
        raise ValueError("the block charge m must be the sum of its core charges")
    if b.l != l:
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
    l = _as_int(l, 1, "the level l must be at least 1")
    return tuple(sum((s + j) // l for s in s_e) for j in range(l))


def orbit_equivalent(b1, b2, l):
    """Whether two block labels lie in one orbit of the sigma generators."""
    if (b1.e, b1.l, b1.m) != (b2.e, b2.l, b2.m):
        raise ValueError("context mismatch")
    s1, w1, e = _check_block(b1, l)
    s2, w2, _ = _check_block(b2, l)
    return w1 == w2 and level_multicharge(s1, e, l) == level_multicharge(s2, e, l)


def realize_multicharge(start, target, e):
    """Build a multipartition charged at `start` whose core charges are `target`.

    The witness is assembled directly on the doubly indexed abacus.  Core
    charges of a configuration depend only on its bead counts per e-runner,
    level charges only on the counts per level bucket, so it suffices to
    deform the empty configuration at `start` until its runner counts match
    those of the target core while the bucket counts never change.  Each
    step moves one bead from an overfull runner to an underfull one inside
    a single bucket, choosing the cheapest such move, and drops the count
    distance to the target by exactly two; termination is asserted through
    that strictly decreasing distance.  The post-condition is re-checked
    through generalized_core before returning.
    """
    start = _charge_tuple(start)
    l = len(start)
    target = _as_ints(target)
    e = check_modulus(e)
    _require_domain(start, e)
    if len(target) != l or sum(target) != sum(start) or not in_closed_domain(target, e):
        raise ValueError("unreachable multicharge")

    runners, rbottom = _relabel(((),) * l, target, e, l, "level", "rank")
    runner_charges = tuple(rbottom + len(r) for r in runners)
    bottom = e * min((0,) + runner_charges + start)
    need = [t - l * (bottom // e) for t in runner_charges]
    buckets = [set(range(bottom, start[l - 1 - d])) for d in range(l)]
    counts = [0] * e
    for vals in buckets:
        for v in vals:
            counts[v % e] += 1
    assert sum(counts) == sum(need) and min(need) >= 0

    while counts != need:
        gap = sum(abs(a - b) for a, b in zip(counts, need))
        c = next(q for q in range(e) if counts[q] > need[q])
        cp = next(q for q in range(e) if counts[q] < need[q])
        best = None
        for d, vals in enumerate(buckets):
            ours = [v for v in vals if v % e == c]
            if not ours:
                continue
            out = max(ours)
            add = bottom + (cp - bottom) % e
            while add in vals:
                add += e
            if best is None or add - out < best[0]:
                best = (add - out, d, out, add)
        _, d, out, add = best
        buckets[d].remove(out)
        buckets[d].add(add)
        counts[c] -= 1
        counts[cp] += 1
        assert sum(abs(a - b) for a, b in zip(counts, need)) == gap - 2

    witness = _symbols(buckets[::-1], bottom)[0]
    if generalized_core(witness, start, e).core_charges != target:
        raise RuntimeError("realized witness misses the target multicharge")
    return witness


def reachable_multicharges(start, e, bound):
    """Core charge tuples of every multipartition of size at most `bound`."""
    start = _charge_tuple(start)
    l = len(start)
    out = set()
    for n in range(_as_int(bound, 0, "the size bound must be nonnegative") + 1):
        for mp in multipartitions_of(n, l):
            out.add(generalized_core(mp, start, e).core_charges)
    return frozenset(out)
