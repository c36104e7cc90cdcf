"""Quotient maps, the level-rank transpose, and generalized cores.

Every bead carries one coordinate triple (c, d, k), with c in 0..e-1, d in
0..l-1 and k any integer.  Three placements ("views") of the same beads
give all five maps:

    view        component   position           period
    partition   0           c + e*d + e*l*k    e*l
    level       l-1-d       c + e*k            e
    rank        c           d + l*k            l

tau_e is partition -> rank at l = 1 (the runners are the e-quotient, their
charges the core multicharge), tau_l is partition -> level (level 1 is the
identity), tau_e_inverse and tau_l_inverse go back, and
level_rank_transpose is level -> rank, with no big partition rebuilt.

One kernel, _move, runs all five on bead windows over one common bottom,
a multiple of the source period below which all components are full
(_windows reads them, and _relabel is the two in a row).  It moves each
bead with one floor division (its k) and one lookup in a residue table
cached per (source, target, e, l).  Charges are recovered as bottom + bead
count (_symbols), which keeps every map exact on finite data.

Block labels, the generalized core's runner charges and its weight are closed
forms read off the rows (_runner_counts): each row moves one bead of the empty
symbol, changing two runner counts of the transpose by one and its position sum
by a floor-division difference, so a label is the empty symbol's plus one tally
per component (_row_tally).  No window is built and no elementary move is
simulated (the move-by-move fixed point is the oracle generalized_core_by_moves).
"""

import operator
from functools import lru_cache
from typing import NamedTuple

from .partitions import (
    _as_int,
    _beta_window,
    _charge_tuple,
    _checked,
    _partition_of_window,
    as_charges,
    as_multipartition,
    as_partition,
    check_modulus,
    mp_size,
)


class CoreData(NamedTuple):
    core_multicharge: tuple
    core_partition: tuple
    weight: int


class GeneralizedCore(NamedTuple):
    core_mp: tuple
    core_charges: tuple
    weight: int


# view: (number of components, period, where the bead (c, d, k=0) sits)
_VIEWS = {
    "partition": lambda e, l: (1, e * l, lambda c, d: (0, c + e * d)),
    "level": lambda e, l: (l, e, lambda c, d: (l - 1 - d, c)),
    "rank": lambda e, l: (e, l, lambda c, d: (c, d)),
}


@lru_cache(maxsize=256)
def _residue_table(src, dst, e, l):
    """The target (component, residue) of each source (component, residue),
    the source period and the target's components and period."""
    width, period, place = _VIEWS[src](e, l)
    dst_width, dst_period, dst_place = _VIEWS[dst](e, l)
    to = {place(c, d): dst_place(c, d) for c in range(e) for d in range(l)}
    table = tuple(tuple(to[j, r] for r in range(period)) for j in range(width))
    return table, period, dst_width, dst_period


def _windows(mp, charges, period=1):
    """Beta windows of validated symbols over one common bottom, a multiple
    of period at or under where every component is full."""
    bottom = min(s - len(p) for p, s in zip(mp, charges))
    bottom -= bottom % period
    return [_beta_window(p, s, s - bottom) for p, s in zip(mp, charges)], bottom


def _relabel(mp, charges, e, l, src, dst):
    """_move of the windows of validated src-view symbols."""
    return _move(*_windows(mp, charges, _residue_table(src, dst, e, l)[1]), e, l, src, dst)


def _move(windows, bottom, e, l, src, dst):
    """Move src-view windows over a common bottom (a multiple of the src
    period) to the dst view: unordered beads per component, and the bottom."""
    table, period, width, dst_period = _residue_table(src, dst, e, l)
    out = [[] for _ in range(width)]
    for row, window in zip(table, windows):
        for x in window:
            j, r = row[x % period]
            out[j].append(r + dst_period * (x // period))
    return out, dst_period * (bottom // period)


def _symbols(windows, bottom):
    """(mp, charges) of bead windows that are full below a common bottom."""
    charges = tuple(bottom + len(w) for w in windows)
    mp = tuple(_partition_of_window(sorted(w), s) for w, s in zip(windows, charges))
    return mp, charges


def tau_e(p, m, e):
    """Split (p, m) into its e-quotient and e-core multicharge."""
    p, m, e = as_partition(p), _as_int(m), check_modulus(e)
    return _symbols(*_relabel((p,), (m,), e, 1, "partition", "rank"))


def tau_e_inverse(quotient, s_e):
    """Rebuild (p, m) from an e-quotient and its multicharge; m = sum(s_e)."""
    quotient = as_multipartition(quotient)
    e = check_modulus(len(quotient))
    s_e = as_charges(s_e, e)
    (p,), (m,) = _symbols(*_relabel(quotient, s_e, e, 1, "rank", "partition"))
    return p, m


def _core_partition(s_e):
    """The e-core with validated runner charges s_e: the flush runners read back."""
    return _symbols(*_relabel(((),) * len(s_e), s_e, len(s_e), 1, "rank", "partition"))[0][0]


def e_core_partition(p, e):
    """The partition left after emptying every runner; independent of the charge."""
    return _core_partition(tau_e(p, 0, e)[1])


def core_data(p, m, e):
    """Core multicharge, core partition and weight of a charged partition."""
    quotient, charges = tau_e(p, m, e)
    return CoreData(charges, _core_partition(charges), mp_size(quotient))


def tau_l(p, m, e, l):
    """The level-l splitting of (p, m) into an l-multipartition with charges."""
    p, m, e = as_partition(p), _as_int(m), check_modulus(e)
    l = _as_int(l, 1, "the level l must be at least 1")
    return _symbols(*_relabel((p,), (m,), e, l, "partition", "level"))


def tau_l_inverse(mp, charges, e):
    """Rebuild (p, m) from a level-l splitting; m = sum(charges)."""
    mp, charges, e = _checked(mp, charges, e)
    (p,), (m,) = _symbols(*_relabel(mp, charges, e, len(mp), "level", "partition"))
    return p, m


def level_rank_transpose(mp, charges, e):
    """Rotate the l-abacus into an e-abacus, bead by bead.

    A bead at value v on component l-1-d goes to runner v % e at position
    d + l * (v // e).  Agrees with tau_e of tau_l_inverse; both share the
    relabel kernel, so the independent check is the plain-definition
    reference in tests/oracle.py (test_maps_match_the_view_reference).
    """
    mp, charges, e = _checked(mp, charges, e)
    return _symbols(*_relabel(mp, charges, e, len(mp), "level", "rank"))


@lru_cache(maxsize=256)
def _empty_label(charges, e, l):
    """_runner_counts' tallies for the empty multipartition at charges."""
    counts, total = [0] * e, 0
    for j, s in enumerate(charges):
        q, r = divmod(s, e)
        total += (l - 1 - j) * s + l * (e * q * (q - 1) // 2 + r * q)
        for c in range(e):
            counts[c] -= (c - s) // e
    return tuple(counts), total


def _row_tally(p, s, e):
    """Runner-count changes and rise of the rows of p at charge s, alike for s mod e."""
    counts, rise, old = [0] * e, 0, s
    for part in p:
        old -= 1
        counts[old % e] -= 1
        new = old + part
        counts[new % e] += 1
        rise += new // e - old // e
    return counts, rise


def _runner_counts(mp, charges, e, l):
    """The runner charges s_e and the size |mp_e| of the level-rank
    transpose of validated symbols, read off their rows.

    Tally beads signed from position 0: a bead at v >= 0 counts +1 and adds
    its position, a hole at v < 0 counts -1 and subtracts it.  A runner of
    charge N then counts N, and its sum less N(N-1)/2 (the flush runner's)
    is the size of its quotient component.  The level bead v = c + e*k of
    component j sits on runner c at position d + l*k, d = l-1-j, with
    k >= 0 exactly when v >= 0, so both tallies run on the level abacus.
    The empty component at charge s holds the beads v < s: -((c - s) // e)
    on runner c, at positions summing to d*s + l*(e*q*(q-1)/2 + r*q),
    (q, r) = divmod(s, e) (_empty_label).  Row a, of part p_a, moves one bead
    from old = s - a to new = old + p_a (_row_tally): runner old % e loses one,
    new % e gains one, and the sum rises by l*(new // e - old // e).  The counts
    sum to m = sum(charges), so the N(N-1)/2 add up to (sum of N^2 - m) / 2.
    Test oracle: block_label_by_relabel in tests/oracle.py.
    """
    counts, total = _empty_label(charges, e, l)
    for p, s in zip(mp, charges):
        if p:
            changes, rise = _row_tally(p, s, e)
            counts = map(operator.add, counts, changes)
            total += l * rise
    counts = tuple(counts)
    return counts, total - (sum(map(operator.mul, counts, counts)) - sum(charges)) // 2


def in_closed_domain(charges, e):
    """Weakly increasing charges whose spread is at most e."""
    charges, e = _charge_tuple(charges), check_modulus(e)
    return not any(map(operator.gt, charges, charges[1:])) and charges[-1] - charges[0] <= e


def in_strict_domain(charges, e):
    """Weakly increasing charges whose spread is strictly less than e."""
    charges, e = _charge_tuple(charges), check_modulus(e)
    return not any(map(operator.gt, charges, charges[1:])) and charges[-1] - charges[0] < e


def _require_domain(charges, e):
    """in_closed_domain on a charge tuple its caller has already validated."""
    if any(map(operator.gt, charges, charges[1:])) or charges[-1] - charges[0] > e:
        raise ValueError("charges not in fundamental domain")


def generalized_core(mp, charges, e):
    """Generalized core and weight, read off the level-rank transpose.

    An elementary operation (lift a bead one component up if that slot is
    free, wrapping from the top component to the bottom one e positions to
    the left) moves one bead one position down its own runner of the
    transpose.  Every order of moves therefore ends at the empty e-quotient
    at the runner charges s_e after |mp_e| moves (both read off the rows by
    _runner_counts): the core is the inverse transpose of the flush runners.
    Position x on runner c returns to bucket x % l at value c + e*(x // l),
    so component j (bucket l-1-j) fills runner c of its own abacus below
    (s_e[c] + j) // l, and the core charges are level_multicharge(s_e, e, l).
    The test oracle generalized_core_by_moves in tests/oracle.py simulates
    the moves instead.
    """
    mp, charges, e = _checked(mp, charges, e)
    l = len(mp)
    _require_domain(charges, e)
    s_e, weight = _runner_counts(mp, charges, e, l)
    core = _symbols(*_relabel(((),) * e, s_e, e, l, "rank", "level"))
    return GeneralizedCore(*core, weight)


def is_core(mp, charges, e):
    """Nested-symbol test: X_0 within X_1 within ... within X_0 shifted by e."""
    mp, charges, e = _checked(mp, charges, e)
    _require_domain(charges, e)
    windows, bottom = _windows(mp, charges)
    tracked = [set(w) for w in windows]
    for a, b in zip(tracked, tracked[1:]):
        if not a <= b:
            return False
    return all(x - e < bottom or x - e in tracked[0] for x in tracked[-1])


def is_core_nodewise(mp, charges, e):
    """Boundary-node test through the transpose.

    An elementary operation on the level abacus is the removal of one
    removable node of the transposed e-partition, so the pair is a core
    exactly when the transpose has no removable node left, i.e. is empty,
    which _runner_counts reads off the rows.
    The residue form of the test (no residue carries both an addable and a
    removable node of the multipartition itself) follows from this but does
    not imply it: ((3,),) at charge (0,) with e = 2 has addable residue 1
    and removable residue 0 only, yet carries a 2-hook.
    """
    mp, charges, e = _checked(mp, charges, e)
    _require_domain(charges, e)
    return _runner_counts(mp, charges, e, len(mp))[1] == 0
