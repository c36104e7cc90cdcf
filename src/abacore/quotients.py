"""Quotient maps, the level-rank transpose, and generalized cores.

Three decompositions of a charged partition's beta-set drive everything:

* runner split (tau_e): beta = j + e*k puts value k on runner j; the e
  runner symbols are the e-quotient, their charges the core multicharge.
* level split (tau_l): beta = c + e*d + e*l*k, with c in 0..e-1 and d in
  0..l-1, puts value c + e*k into bucket d; component j of the output reads
  bucket l-1-j.  Level 1 is the identity.
* rectangle rotation (level_rank_transpose): a bead at position x on
  component j of an l-symbol moves to position (l-1-j) + l*(x // e) on
  runner x % e of an e-symbol.  This is the runner split of the level
  split's inverse, computed without reassembling the big partition.

The generalized core and its weight are closed forms on that rotation,
read in one pass over the beads; no elementary move is simulated (the
move-by-move fixed point is the test oracle generalized_core_by_moves in
tests/oracle.py).

All windows track beads down to an explicit bottom position; charges are
recovered as bottom + bead count, which keeps every map exact on finite
data.  Negative positions use floor division and mathematical mod, so the
finite windows agree with the infinite trivial tails.
"""

from typing import NamedTuple

from .partitions import (
    _beta_window,
    _partition_of_window,
    as_charges,
    as_multipartition,
    as_partition,
    beta_set,
    check_modulus,
    mp_size,
    partition_of_symbol,
)


class CoreData(NamedTuple):
    core_multicharge: tuple
    core_partition: tuple
    weight: int


class GeneralizedCore(NamedTuple):
    core_mp: tuple
    core_charges: tuple
    weight: int


def _aligned_rows(min_rows, m, step):
    """A window height >= min_rows + step whose bottom m - rows is a multiple of step."""
    rows = min_rows + step
    rows += (m - rows) % step
    return rows


def tau_e(p, m, e):
    """Split (p, m) into its e-quotient and e-core multicharge."""
    p, m, e = as_partition(p), int(m), check_modulus(e)
    return _tau_e_window(p, m, e, _aligned_rows(len(p), m, e))


def _tau_e_window(p, m, e, rows):
    # rows must satisfy rows >= len(p) and e | (m - rows)
    bottom = m - rows
    assert bottom % e == 0
    q = bottom // e
    runners = [[] for _ in range(e)]
    for b in beta_set(p, m, rows):
        runners[b % e].append((b - b % e) // e)
    charges = tuple(q + len(r) for r in runners)
    quotient = tuple(
        partition_of_symbol(tuple(r), s) for r, s in zip(runners, charges)
    )
    return quotient, charges


def tau_e_inverse(quotient, s_e):
    """Rebuild (p, m) from an e-quotient and its multicharge; m = sum(s_e)."""
    quotient = as_multipartition(quotient)
    e = check_modulus(len(quotient))
    s_e = as_charges(s_e, e)
    bottom = min(s - len(c) for s, c in zip(s_e, quotient))
    betas = []
    for j, (c, s) in enumerate(zip(quotient, s_e)):
        betas.extend(j + e * k for k in beta_set(c, s, s - bottom))
    m = sum(s_e)
    return partition_of_symbol(tuple(sorted(betas)), m), m


def e_core_partition(p, e):
    """The partition left after emptying every runner; independent of the charge."""
    return _flush_partition(tau_e(p, 0, e)[1], int(e))


def core_data(p, m, e):
    """Core multicharge, core partition and weight of a charged partition."""
    quotient, charges = tau_e(p, m, e)
    return CoreData(charges, e_core_partition(p, e), mp_size(quotient))


def tau_l(p, m, e, l):
    """The level-l splitting of (p, m) into an l-multipartition with charges."""
    p, m, e, l = as_partition(p), int(m), check_modulus(e), int(l)
    if l < 1:
        raise ValueError("the level l must be at least 1")
    return _tau_l_window(p, m, e, l, _aligned_rows(len(p), m, e * l))


def _tau_l_window(p, m, e, l, rows):
    bottom = m - rows
    assert bottom % (e * l) == 0
    vbottom = e * (bottom // (e * l))  # every bucket is full below this value
    buckets = [[] for _ in range(l)]
    for b in beta_set(p, m, rows):
        c = b % e
        rest = (b - c) // e
        buckets[rest % l].append(c + e * ((rest - rest % l) // l))
    charges = tuple(vbottom + len(buckets[l - 1 - j]) for j in range(l))
    mp = tuple(
        partition_of_symbol(tuple(sorted(buckets[l - 1 - j])), charges[j])
        for j in range(l)
    )
    return mp, charges


def tau_l_inverse(mp, charges, e):
    """Rebuild (p, m) from a level-l splitting; m = sum(charges)."""
    mp = as_multipartition(mp)
    l = len(mp)
    charges = as_charges(charges, l)
    e = check_modulus(e)
    betas = []
    for d, values in enumerate(_bucket_windows(mp, charges, e)[0]):
        for v in values:
            c = v % e
            betas.append(c + e * d + e * l * ((v - c) // e))
    m = sum(charges)
    return partition_of_symbol(tuple(sorted(betas)), m), m


def _bucket_windows(mp, charges, e):
    """Bead values of each bucket (bucket d = component l-1-d), plus the
    common value bottom, a multiple of e below which all buckets are full."""
    l = len(mp)
    raw = min(s - len(c) for s, c in zip(charges, mp))
    vbottom = e * (raw // e)  # round down to a multiple of e
    buckets = []
    for d in range(l):
        j = l - 1 - d
        buckets.append(_beta_window(mp[j], charges[j], charges[j] - vbottom))
    return buckets, vbottom


def level_rank_transpose(mp, charges, e):
    """Rotate the l-abacus into an e-abacus, bead by bead.

    A bead at value v in bucket d goes to runner v % e at position
    d + l * (v // e).  Agrees with tau_e of tau_l_inverse; implemented
    directly so the two routes can check each other.
    """
    mp = as_multipartition(mp)
    charges = as_charges(charges, len(mp))
    e = check_modulus(e)
    runners, rbottom = _rotate(mp, charges, e)
    s_e = tuple(rbottom + len(r) for r in runners)
    mp_e = tuple(_partition_of_window(sorted(r), s) for r, s in zip(runners, s_e))
    return mp_e, s_e


def _rotate(mp, charges, e):
    """The transpose as raw bead positions: the positions on each e-runner
    and the bottom below which every runner is full.  Inputs must already
    be validated."""
    l = len(mp)
    buckets, vbottom = _bucket_windows(mp, charges, e)
    rbottom = l * (vbottom // e)
    runners = [[] for _ in range(e)]
    for d, values in enumerate(buckets):
        for v in values:
            c = v % e
            runners[c].append(d + l * ((v - c) // e))
    return runners, rbottom


def _transpose_weight(runners, rbottom):
    """|mp_e| of rotated runners: bead sums minus each runner's flush sum."""
    return sum(sum(r) - len(r) * (2 * rbottom + len(r) - 1) // 2 for r in runners)


def in_closed_domain(charges, e):
    """Weakly increasing charges whose spread is at most e."""
    return all(a <= b for a, b in zip(charges, charges[1:])) and (
        charges[-1] - charges[0] <= e
    )


def in_strict_domain(charges, e):
    """Weakly increasing charges whose spread is strictly less than e."""
    return all(a <= b for a, b in zip(charges, charges[1:])) and (
        charges[-1] - charges[0] < e
    )


def _require_domain(charges, e):
    if not in_closed_domain(charges, e):
        raise ValueError("charges not in fundamental domain")


def generalized_core(mp, charges, e):
    """Generalized core and weight, read off the level-rank transpose.

    An elementary operation (lift a bead one component up if that slot is
    free, wrapping from the top component to the bottom one e positions to
    the left) moves one bead one position down its own runner of the
    transpose.  Every order of moves therefore ends at the empty e-quotient
    at the runner charges s_e after |mp_e| moves: the weight is |mp_e|, from
    bead sums, and the core is the inverse transpose of the flush runners.
    Position x on runner c returns to bucket x % l at value c + e*(x // l),
    so component j (bucket l-1-j) fills runner c of its own abacus below
    (s_e[c] + j) // l, and the core charges are level_multicharge(s_e, e, l).
    The test oracle generalized_core_by_moves in tests/oracle.py simulates
    the moves instead.
    """
    mp = as_multipartition(mp)
    l = len(mp)
    charges = as_charges(charges, l)
    e = check_modulus(e)
    _require_domain(charges, e)
    runners, rbottom = _rotate(mp, charges, e)
    s_e = [rbottom + len(r) for r in runners]
    heights = [[(s + j) // l for s in s_e] for j in range(l)]
    return GeneralizedCore(
        tuple(_flush_partition(h, e) for h in heights),
        tuple(sum(h) for h in heights),
        _transpose_weight(runners, rbottom),
    )


def _flush_partition(heights, e):
    """The partition whose beta-set fills runner c below position heights[c]."""
    betas = [
        c + e * k
        for k in range(min(heights), max(heights))
        for c in range(e)
        if k < heights[c]
    ]
    return _partition_of_window(betas, sum(heights))


def is_core(mp, charges, e):
    """Nested-symbol test: X_0 within X_1 within ... within X_0 shifted by e."""
    mp = as_multipartition(mp)
    charges = as_charges(charges, len(mp))
    e = check_modulus(e)
    _require_domain(charges, e)
    bottom = min(s - len(c) for s, c in zip(charges, mp))
    tracked = [set(beta_set(c, s, s - bottom)) for c, s in zip(mp, charges)]
    for a, b in zip(tracked, tracked[1:]):
        if not a <= b:
            return False
    return all(x - e < bottom or x - e in tracked[0] for x in tracked[-1])


def is_core_nodewise(mp, charges, e):
    """Boundary-node test through the transpose.

    An elementary operation on the level abacus is the removal of one
    removable node of the transposed e-partition, so the pair is a core
    exactly when the transpose has no removable node left, i.e. is empty.
    The residue form of the test (no residue carries both an addable and a
    removable node of the multipartition itself) follows from this but does
    not imply it: ((3,),) at charge (0,) with e = 2 has addable residue 1
    and removable residue 0 only, yet carries a 2-hook.
    """
    mp = as_multipartition(mp)
    charges = as_charges(charges, len(mp))
    e = check_modulus(e)
    _require_domain(charges, e)
    return _transpose_weight(*_rotate(mp, charges, e)) == 0
