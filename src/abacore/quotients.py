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

Beads are kept as bead rows (_rows): one bytearray per component, one byte
per position from a bottom shared by all components, below which all are
full, up to the highest bead.  Runs of whole period blocks empty in every
component, as a large part leaves, are cut to their two end blocks (_cut),
so rows cost O(beads) bytes, not O(largest part).  One kernel, _move, runs
all five maps: each (c, d) class of beads is one strided slice copy between
rows, by a residue table cached per (source, target, e, l).  Charges are
read back as bottom + bead count and parts as the holes below each bead,
cut ones included (_symbols), exactly.

Block labels, the generalized core's runner charges and its weight are closed
forms read off the partition rows (_runner_counts): each row moves one bead of
the empty symbol, changing two runner counts of the transpose by one and its
position sum by a floor-division difference, so a label is the empty symbol's
plus one tally per component (_row_tally).  No bead row is built and no
elementary move is simulated (the oracle generalized_core_by_moves does).
"""

import operator
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, compress
from typing import NamedTuple

from .partitions import (
    _as_int,
    _charge_tuple,
    _checked,
    as_charges,
    as_multipartition,
    as_partition,
    check_level,
    check_modulus,
    mp_size,
)

_HOLES = bytes.maketrans(b"\0\1", b"\1\0")


class CoreData(NamedTuple):
    core_multicharge: tuple
    core_partition: tuple
    weight: int


class GeneralizedCore(NamedTuple):
    core_mp: tuple
    core_charges: tuple
    weight: int


@lru_cache(maxsize=256)
def _residue_table(src, dst, e, l):
    """One (source component, residue, target component, residue) per bead
    class (c, d), from where its bead with k = 0 sits, and the two periods."""
    places = [{"partition": (0, c + e * d), "level": (l - 1 - d, c), "rank": (c, d)}
              for c in range(e) for d in range(l)]
    periods = {"partition": e * l, "level": e, "rank": l}
    return tuple((*p[src], *p[dst]) for p in places), periods[src], periods[dst]


def _rows(mp, charges, period=1, pad=0):
    """Bead rows of validated symbols and their cuts: byte x of a row is 1
    when position bottom + x holds a bead.  The rows share the bottom and the
    length, both multiples of period, as pad must be; they are full for at
    least pad positions above the bottom and empty for pad below their end.
    Rows longer than 64 blocks that reach more than two period blocks per
    part above the highest charge are cut first (_cut), so no row costs more
    than O(beads) bytes."""
    bottom = min(map(operator.sub, charges, map(len, mp)))
    bottom -= bottom % period + pad
    top = max(s + (p[0] if p else 0) for p, s in zip(mp, charges))
    cuts = ()
    if top - bottom > 64 * period and top - max(charges) > period * (2 * sum(map(len, mp)) + 4):
        mp, cuts = _cut(mp, charges, bottom, period)
        top = max(s + (p[0] if p else 0) for p, s in zip(mp, charges))
    size = (top + pad - bottom + period - 1) // period * period
    rows = []
    for p, s in zip(mp, charges):
        full = s - len(p) - bottom
        row = bytearray(b"\1" * full + bytes(size - full))
        for x in map(operator.add, p, range(full + len(p) - 1, full - 1, -1)):
            row[x] = 1
        rows.append(row)
    return rows, bottom, cuts


def _cut(mp, charges, bottom, period):
    """mp with every run of more than three period blocks empty in all
    components, above the highest charge, cut to its two end blocks: the
    parts above a cut shrink by its length.  Also the cuts, (x, n) when n
    positions were cut just below row position x.  Keeping the end blocks
    keeps a shift by one block exact (the transport, is_core)."""
    floor = max(charges) // period
    betas = [[s - 1 - a + x for a, x in enumerate(p)] for p, s in zip(mp, charges)]
    blocks = sorted({floor, *(b // period for bs in betas for b in bs)})
    starts, shifts, cuts = [], [0], []
    for u, v in zip(blocks, blocks[1:]):
        if u >= floor and v - u > 3:
            starts.append(period * (u + 2))
            cuts.append((starts[-1] - shifts[-1] - bottom, period * (v - u - 3)))
            shifts.append(shifts[-1] + cuts[-1][1])
    cut = (tuple(x - shifts[bisect_right(starts, b)] for x, b in zip(p, bs))
           for p, bs in zip(mp, betas))
    return tuple(cut), cuts


def _move(mp, charges, e, l, src, dst):
    """(mp, charges) of validated src-view symbols placed in the dst view: a
    bead class goes from r + period*k to t + dst_period*k in one slice copy."""
    moves, period, dst_period = _residue_table(src, dst, e, l)
    rows, bottom, cuts = _rows(mp, charges, period)
    out = [bytearray(dst_period * (len(rows[0]) // period)) for _ in range(e * l // dst_period)]
    for j, r, k, t in moves:
        out[k][t::dst_period] = rows[j][r::period]
    if cuts:
        cuts = [(x // period * dst_period, n // period * dst_period) for x, n in cuts]
    return _symbols(out, dst_period * (bottom // period), cuts)


def _symbols(rows, bottom, cuts=()):
    """(mp, charges) of bead rows over a common bottom: bottom + bead count,
    and the holes below each bead past the full prefix, the top bead first.
    A cut's n holes count below every bead at or above its position."""
    charges = tuple(bottom + row.count(1) for row in rows)
    if cuts:  # one hole count per position, each cut's n added at its x
        mp = []
        for row in rows:
            holes = [*row.translate(_HOLES)]
            for x, n in cuts:
                holes[x] += n
            mp.append(tuple(filter(None, compress(accumulate(holes), row)))[::-1])
        return tuple(mp), charges
    beads = (row[row.find(0) : row.rfind(1) + 1] if 0 in row else b"" for row in rows)
    return tuple(tuple(compress(accumulate(b.translate(_HOLES)), b))[::-1] for b in beads), charges


def tau_e(p, m, e):
    """Split (p, m) into its e-quotient and e-core multicharge."""
    p, m, e = as_partition(p), _as_int(m), check_modulus(e)
    return _move((p,), (m,), e, 1, "partition", "rank")


def tau_e_inverse(quotient, s_e):
    """Rebuild (p, m) from an e-quotient and its multicharge; m = sum(s_e)."""
    quotient = as_multipartition(quotient)
    e = check_modulus(len(quotient))
    s_e = as_charges(s_e, e)
    (p,), (m,) = _move(quotient, s_e, e, 1, "rank", "partition")
    return p, m


def _core_partition(s_e):
    """The e-core with validated runner charges s_e: the flush runners read back."""
    return _move(((),) * len(s_e), s_e, len(s_e), 1, "rank", "partition")[0][0]


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
    l = check_level(l)
    return _move((p,), (m,), e, l, "partition", "level")


def tau_l_inverse(mp, charges, e):
    """Rebuild (p, m) from a level-l splitting; m = sum(charges)."""
    mp, charges, e = _checked(mp, charges, e)
    (p,), (m,) = _move(mp, charges, e, len(mp), "level", "partition")
    return p, m


def level_rank_transpose(mp, charges, e):
    """Rotate the l-abacus into an e-abacus.

    A bead at value v on component l-1-d goes to runner v % e at position
    d + l * (v // e).  Agrees with tau_e of tau_l_inverse; both share _move,
    so the independent check is the plain-definition reference in
    tests/oracle.py (test_maps_match_the_view_reference).
    """
    mp, charges, e = _checked(mp, charges, e)
    return _move(mp, charges, e, len(mp), "level", "rank")


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


def _in_domain(charges, e):
    """Whether validated charges are weakly increasing with spread at most e."""
    return not any(map(operator.gt, charges, charges[1:])) and charges[-1] - charges[0] <= e


def in_closed_domain(charges, e):
    """Weakly increasing charges whose spread is at most e."""
    return _in_domain(_charge_tuple(charges), check_modulus(e))


def in_strict_domain(charges, e):
    """Weakly increasing charges whose spread is strictly less than e."""
    return _in_domain(_charge_tuple(charges), check_modulus(e) - 1)


def _require_domain(charges, e):
    """in_closed_domain on a charge tuple its caller has already validated."""
    if not _in_domain(charges, e):
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
    core = _move(((),) * e, s_e, e, l, "rank", "level")
    return GeneralizedCore(*core, weight)


def is_core(mp, charges, e):
    """Nested-symbol test: X_0 within X_1 within ... within X_0 shifted by e."""
    mp, charges, e = _checked(mp, charges, e)
    _require_domain(charges, e)
    rows = _rows(mp, charges, e)[0]
    # X_0 shifted by e holds every position below the bottom + e
    sets = [int.from_bytes(row, "little") for row in (*rows, b"\1" * e + rows[0])]
    return all(a | b == b for a, b in zip(sets, sets[1:]))


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
