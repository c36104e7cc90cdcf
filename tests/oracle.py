"""Reference implementations used to cross-check the library.

The diagram-level routes manipulate Young diagrams as cell sets and never
touch beta-numbers, so agreement with the abacus routes is an actual check
and not a tautology.  The move-by-move routes replay the definitions the
library replaced by closed forms: generalized_core_by_moves runs elementary
operations to their fixed point, sigma_star_by_moves rebuilds the signature
from the diagram cells (letters_by_cells) after every good-node move, and
sigma_ordinary_by_cells toggles every cell that letters_by_cells finds.
block_label_by_relabel reads block labels off the transpose, and
transports_by_transpose runs duality_transport through the partitions of
the transposed e-symbol, both placed by relabel_by_definition: the routes
the library replaced by row tallies and by two runners of bead rows.
fayers_weight is the abacus-free residue-count weight, from the cell counts
of count_nodes_by_residue.
relabel_by_definition places the beads of a symbol in another view straight
from the (c, d, k) table, without the library's rows or kernel.
uglov_set_by_crystal builds the Uglov layers with the crystal operators,
uglov_set_by_filter keeps the multipartitions of n that meet the FLOTW
conditions (the route the library's generator replaced), and
is_scopes_by_diagram looks for addable nodes on the Young diagrams of the
block's members.  pair_symbols_by_claiming runs both claiming rules of
the pairing, and act_charge_e_by_letters applies each letter of the left
action by its own formula, where the library reads both mirrored cases
through a sign.  orbit_equivalent_by_search walks the orbit of a block
label's core charges under s_0, ..., s_{e-1} instead of comparing the
level_multicharge invariant.  blocks_of_by_labels and
reachable_by_enumeration (with runner_charges_by_enumeration) label every
multipartition with block_id, the per-member loops the library replaced by
sums of per-component row tallies.  realize_by_greedy moves one bead at a
time inside level buckets, the witness search the library replaced by a DP
over tuples of e-cores.
Speed does not matter; clarity does.
"""

from itertools import accumulate, product

from abacore import (
    BlockId,
    GeneralizedCore,
    act_charge_e,
    block_id,
    e_tilde,
    level_multicharge,
    tau_e_inverse,
)
from abacore.actions import _psi
from abacore.partitions import beta_set, multipartitions_of, partition_of_symbol


def partitions_of(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - k, k):
            yield (k,) + rest


def cells(p):
    return {(r, c) for r, width in enumerate(p, 1) for c in range(1, width + 1)}


def conjugate(p):
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > c) for c in range(p[0]))


def hook_lengths(p):
    """Multiset of hook lengths, one per cell."""
    conj = conjugate(p)
    return sorted(
        (p[r] - c) + (conj[c] - r) - 1
        for r in range(len(p))
        for c in range(p[r])
    )


def is_border_strip(strip):
    """Edge-connected and free of 2x2 squares: the shape of a rim hook."""
    if not strip:
        return False
    for r, c in strip:
        if {(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= strip:
            return False
    start = next(iter(strip))
    seen = {start}
    frontier = [start]
    while frontier:
        r, c = frontier.pop()
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in strip and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen == strip


def rim_hook_removals(p, e):
    """All partitions obtained from p by removing a single rim e-hook."""
    target = sum(p) - e
    if target < 0:
        return []
    pc = cells(p)
    out = []
    for q in partitions_of(target):
        if len(q) > len(p) or any(a > b for a, b in zip(q, p)):
            continue
        strip = pc - cells(q)
        if len(strip) == e and is_border_strip(strip):
            out.append(q)
    return out


def e_core_by_stripping(p, e):
    """Remove rim e-hooks greedily until none remains."""
    while True:
        nxt = rim_hook_removals(p, e)
        if not nxt:
            return p
        p = nxt[0]


def cores_every_order(p, e, memo=None):
    """The set of end points over all removal orders.

    Stripping is confluent, so this should always be a singleton; computing
    the whole set keeps the check honest.
    """
    if memo is None:
        memo = {}
    if p in memo:
        return memo[p]
    nxt = rim_hook_removals(p, e)
    if not nxt:
        out = frozenset([p])
    else:
        out = frozenset().union(*(cores_every_order(q, e, memo) for q in nxt))
    memo[p] = out
    return out


def brute_addable(p):
    """Cells whose addition leaves a partition, straight from the definition."""
    out = []
    for r in range(1, len(p) + 2):
        width = p[r - 1] if r <= len(p) else 0
        above = p[r - 2] if r >= 2 else None
        if above is None or width < above:
            out.append((r, width + 1))
    return out


def brute_removable(p):
    out = []
    for r in range(1, len(p) + 1):
        width = p[r - 1]
        below = p[r] if r < len(p) else 0
        if width > below:
            out.append((r, width))
    return out


def uglov_set_by_crystal(charges, e, n):
    """Layers 0..n of the crystal component of the empty multipartition:
    each layer is every image of the one below under the e_tilde."""
    layers = [frozenset({((),) * len(charges)})]
    for _ in range(n):
        layers.append(frozenset(
            image
            for mp in layers[-1]
            for i in range(e)
            if (image := e_tilde(i, mp, charges, e)) is not None
        ))
    return layers


def uglov_set_by_filter(charges, e, n):
    """uglov_set at closed-domain charges: every multipartition of n, kept
    when it meets conditions (a), with the wrap, and (b) of the FLOTW
    definition (see blocks.uglov_set)."""
    return frozenset(mp for mp in multipartitions_of(n, len(charges)) if _is_flotw(mp, charges, e))


def _is_flotw(mp, s, e):
    for j, (p, q) in enumerate(zip(mp, mp[1:] + mp[:1])):
        d = s[j + 1] - s[j] if j + 1 < len(mp) else e + s[0] - s[-1]
        if len(q) - d > len(p) or any(a < b for a, b in zip(p, q[d:])):
            return False
    rows = {(k, (k - r + s[j]) % e) for j, p in enumerate(mp) for r, k in enumerate(p, 1)}
    lengths = [k for k, _ in rows]
    return all(lengths.count(k) < e for k in lengths)


def flotw_grid(max_e, sizes):
    """Every (charges, e, n) with 2 <= e <= max_e, l = len(sizes), charges
    weakly increasing from 0 with spread at most e (the closed domain up to
    a shift) and n < sizes[l - 1]: the grids the Uglov generator is checked
    on against uglov_set_by_filter."""
    for l, top in enumerate(sizes, 1):
        for e in range(2, max_e + 1):
            for steps in product(range(e + 1), repeat=l - 1):
                charges = tuple(accumulate((0,) + steps))
                if charges[-1] <= e:
                    yield from ((charges, e, n) for n in range(top))


# 1135 cases in tier-1; the wide grid runs in tests/wide_agreement.py
FLOTW_GRID = {"max_e": 5, "sizes": (14, 9, 6, 5)}
WIDE_FLOTW_GRID = {"max_e": 6, "sizes": (22, 14, 9, 7)}


def shifted_grid(max_e, sizes):
    """Every case of flotw_grid, and the same with its charges moved by -3
    (negative charges, and other residues mod e unless e = 3): the grids
    blocks_of (at size n) and reachable_multicharges (at bound n) are
    checked on."""
    for charges, e, n in flotw_grid(max_e, sizes):
        yield charges, e, n
        yield tuple(c - 3 for c in charges), e, n


# 496 and 644 cases in tier-1; the wide grids run in tests/wide_agreement.py
BLOCKS_GRID = {"max_e": 4, "sizes": (7, 6, 5)}
REACH_GRID = {"max_e": 4, "sizes": (7, 7, 7)}
WIDE_BLOCKS_GRID = {"max_e": 6, "sizes": (16, 12, 10)}
WIDE_REACH_GRID = {"max_e": 5, "sizes": (11, 10, 9)}


def blocks_of_by_labels(n, charges, e):
    """blocks_of by labelling every multipartition of n with block_id, then
    sorting the blocks by (weight, core charges) and each block's members."""
    groups = {}
    for mp in multipartitions_of(n, len(charges)):
        groups.setdefault(block_id(mp, charges, e), []).append(mp)
    order = sorted(groups, key=lambda b: (b.weight, b.core_multicharge))
    return {b: tuple(sorted(groups[b])) for b in order}


def runner_charges_by_enumeration(start, e, bound):
    """The runner charges (block_id's core_multicharge) of every
    multipartition of size at most bound, which reachable_multicharges
    reads level_multicharge off."""
    return {
        block_id(mp, start, e).core_multicharge
        for n in range(bound + 1)
        for mp in multipartitions_of(n, len(start))
    }


def reachable_by_enumeration(start, e, bound):
    """reachable_multicharges as the level_multicharge of every
    runner_charges_by_enumeration."""
    s_es = runner_charges_by_enumeration(start, e, bound)
    return frozenset(level_multicharge(s_e, e, len(start)) for s_e in s_es)


def realize_by_greedy(start, target, e):
    """A multipartition charged at start whose core charges are target, by
    deforming the empty one bead by bead.  Core charges depend only on the
    bead counts per e-runner of the transpose, level charges on the counts
    per level bucket, so each step moves the bead of an overfull runner to
    an underfull one inside one bucket, the cheapest such move first, until
    the runner counts are those of the empty multipartition at target.  The
    buckets are filled from a full row below every charge, so each holds a
    bead on every runner.  Not always the smallest witness in principle,
    but the library's has its size on the tier-1 and wide grids."""
    l = len(start)
    runner_charges = block_id(((),) * l, target, e).core_multicharge
    bottom = e * (min((0,) + runner_charges + tuple(start)) - 1)
    need = [t - l * (bottom // e) for t in runner_charges]
    buckets = [set(range(bottom, start[l - 1 - d])) for d in range(l)]
    counts = [sum(v % e == c for vals in buckets for v in vals) for c in range(e)]
    while counts != need:
        c = next(q for q in range(e) if counts[q] > need[q])
        cp = next(q for q in range(e) if counts[q] < need[q])
        moves = []
        for d, vals in enumerate(buckets):
            ours = [v for v in vals if v % e == c]
            if ours:
                add = bottom + (cp - bottom) % e
                while add in vals:
                    add += e
                moves.append((add - max(ours), d, max(ours), add))
        _, d, out, add = min(moves)
        buckets[d].remove(out)
        buckets[d].add(add)
        counts[c] -= 1
        counts[cp] += 1
    return tuple(symbol_of_beads(b, bottom)[0] for b in buckets[::-1])


# 2540 pairs; tests/wide_agreement.py checks realize_multicharge on them
WIDE_REALIZE_GRID = {"max_e": 5, "max_l": 3}


def realize_pairs(max_e, max_l):
    """(start, target, e) for every e <= max_e and closed-domain start and
    target of one level l <= max_l, charges within e + 1 of 0, equal sums."""
    for e in range(2, max_e + 1):
        for l in range(1, max_l + 1):
            domain = [s for s in product(range(-e - 1, e + 2), repeat=l)
                      if list(s) == sorted(s) and s[-1] - s[0] <= e]
            yield from ((s, t, e) for s in domain for t in domain if sum(s) == sum(t))


def is_scopes_by_diagram(b, i):
    """No member of the block has an addable i-node, read on the diagrams:
    every quotient of size b.weight at the core charges is rebuilt as a
    charged partition, whose addable cells are checked one by one."""
    for quotient in multipartitions_of(b.weight, b.e):
        p, m = tau_e_inverse(quotient, b.core_multicharge)
        if any((col - row + m) % b.e == i for row, col in brute_addable(p)):
            return False
    return True


def closed_domain_grid(max_size=5):
    """Every (mp, charges, e) with e in {2, 3, 4}, l in {1, 2, 3}, size at
    most max_size and closed-domain charges of sum 0: the exhaustive grid
    the closed forms are checked on."""
    for e in (2, 3, 4):
        for l in (1, 2, 3):
            for charges in product(range(-e, e + 1), repeat=l):
                closed = list(charges) == sorted(charges) and charges[-1] - charges[0] <= e
                if sum(charges) != 0 or not closed:
                    continue
                for n in range(max_size + 1):
                    for mp in multipartitions_of(n, l):
                        yield mp, charges, e


def bead_grid(max_e, spread, sizes, closed=False):
    """Every (mp, charges, e) with 2 <= e <= max_e, l in 1..3, charges in
    [-spread, spread]^l (only closed-domain ones if closed) and size at most
    sizes[l - 1]: the grids the bead routes are checked on exhaustively."""
    for e in range(2, max_e + 1):
        for l in (1, 2, 3):
            for charges in product(range(-spread, spread + 1), repeat=l):
                if closed and (list(charges) != sorted(charges) or charges[-1] - charges[0] > e):
                    continue
                for n in range(sizes[l - 1] + 1):
                    yield from ((mp, charges, e) for mp in multipartitions_of(n, l))


# the row closed form of block labels is checked on LABEL_GRID (41074
# cases); the crystal and the transport on CRYSTAL_GRID in tier-1 and on
# WIDE_CRYSTAL_GRID (75390 cases once every residue i is taken) in
# tests/wide_agreement.py
LABEL_GRID = {"max_e": 5, "spread": 7, "sizes": (5, 5, 3), "closed": True}
CRYSTAL_GRID = {"max_e": 4, "spread": 1, "sizes": (3, 3, 2)}
WIDE_CRYSTAL_GRID = {"max_e": 5, "spread": 2, "sizes": (4, 4, 3)}


def _elementary_moves(tracked, bottom, e):
    """All currently possible elementary operations (j, x, target, y)."""
    l = len(tracked)
    moves = []
    for j in range(l):
        tgt, shift = (j + 1, 0) if j + 1 < l else (0, -e)
        for x in sorted(tracked[j]):
            y = x + shift
            if y >= bottom and y not in tracked[tgt]:
                moves.append((j, x, tgt, y))
    return moves


def generalized_core_by_moves(mp, charges, e, pick=None):
    """Drive the l-abacus to its fixed point under elementary operations.

    An elementary operation lifts a bead one runner up if that slot is
    free; from the top runner it wraps to the bottom runner e positions to
    the left.  The number of operations performed is the weight.  Beads
    below the tracked window never move (the region is solid and stays
    solid), so the finite window is exact.  `pick` chooses among the
    possible moves (default: the first); the end point must not depend on
    it.  Inputs are taken as valid closed-domain data.
    """
    bottom = min(s - len(c) for s, c in zip(charges, mp))
    tracked = [set(beta_set(c, s, s - bottom)) for c, s in zip(mp, charges)]
    weight = 0
    while True:
        moves = _elementary_moves(tracked, bottom, e)
        if not moves:
            break
        j, x, tgt, y = moves[0] if pick is None else pick(moves)
        tracked[j].remove(x)
        tracked[tgt].add(y)
        weight += 1
    core_charges = tuple(bottom + len(t) for t in tracked)
    core_mp = tuple(
        partition_of_symbol(tuple(sorted(t)), s)
        for t, s in zip(tracked, core_charges)
    )
    return GeneralizedCore(core_mp, core_charges, weight)


def letters_by_cells(mp, charges, e, i):
    """The i-signature letters ("A" or "R", (row, col, component)) read off
    the diagram cells: every addable and removable cell of residue i,
    sorted by content, ties by decreasing component."""
    letters = [
        (letter, (row, col, c))
        for c, p in enumerate(mp)
        for letter, found in (("A", brute_addable(p)), ("R", brute_removable(p)))
        for row, col in found
        if (col - row + charges[c]) % e == i
    ]
    return sorted(letters, key=lambda x: (x[1][1] - x[1][0] + charges[x[1][2]], -x[1][2]))


def reduce_letters(letters):
    """The letters left after repeatedly deleting an R followed by an A."""
    word = list(letters)
    k = 0
    while k + 1 < len(word):
        if word[k][0] == "R" and word[k + 1][0] == "A":
            del word[k : k + 2]
            k = max(k - 1, 0)
        else:
            k += 1
    return word


def move_node(mp, node, step):
    """mp with the cell node = (row, col, component) added (step 1) or
    removed (step -1)."""
    row, _, c = node
    p = list(mp[c]) + [0]
    p[row - 1] += step
    return mp[:c] + (tuple(x for x in p if x),) + mp[c + 1 :]


def sigma_ordinary_by_cells(i, mp, charges, e):
    """sigma_ordinary on the diagram: add every addable and remove every
    removable cell of residue i, one cell at a time, the additions first so
    that no removal has shortened a row list an addition indexes."""
    for letter, node in sorted(letters_by_cells(mp, charges, e, i), key=lambda x: x[0]):
        mp = move_node(mp, node, 1 if letter == "A" else -1)
    return mp


def sigma_star_by_moves(i, mp, charges, e):
    """sigma_star one good node at a time, rebuilding the signature from the
    diagram cells after each move."""
    reduced = reduce_letters(letters_by_cells(mp, charges, e, i))
    a = sum(1 for letter, _ in reduced if letter == "A")
    r = len(reduced) - a
    for _ in range(abs(r - a)):
        reduced = reduce_letters(letters_by_cells(mp, charges, e, i))
        if r > a:
            mp = move_node(mp, next(n for x, n in reduced if x == "R"), -1)
        else:
            mp = move_node(mp, [n for x, n in reduced if x == "A"][-1], 1)
    return mp


def block_label_by_relabel(mp, charges, e):
    """block_id through the plain (c, d, k) placement: the runner charges of
    the level-rank transpose are its charges, and the weight is its size."""
    l = len(mp)
    mp_e, s_e = relabel_by_definition(mp, charges, e, l, "level", "rank")
    return BlockId(s_e, sum(map(sum, mp_e)), e, l, sum(charges))


def transports_by_transpose(mp, charges, e):
    """duality_transport for every i through the whole transposed e-symbol:
    psi of s_i with the shift -l on the partitions of the transpose (s_0 as
    T s_1 t), each map between the views by the plain (c, d, k) placement."""
    l = len(mp)
    mp_e, s_e = relabel_by_definition(mp, charges, e, l, "level", "rank")
    images = (_psi(mp_e, s_e, ("s%d" % i,), -l) for i in range(e))
    return [relabel_by_definition(*image, e, l, "rank", "level")[0] for image in images]


def count_nodes_by_residue(mp, charges, e):
    """How many diagram cells carry each residue 0..e-1."""
    counts = [0] * e
    for p, s in zip(mp, charges):
        for a, row_len in enumerate(p, start=1):
            for b in range(1, row_len + 1):
                counts[(b - a + s) % e] += 1
    return tuple(counts)


def fayers_weight(mp, charges, e):
    """Weight from residue counts alone (Fayers, Adv. Math. 206 (2006)).

    w = sum_j c_{s_j} - 1/2 sum_i (c_i - c_{i+1})^2, indices mod e, where
    c_i counts the cells of residue i.
    """
    c = count_nodes_by_residue(mp, charges, e)
    square = sum((c[i] - c[(i + 1) % e]) ** 2 for i in range(e))
    return sum(c[s % e] for s in charges) - square // 2


def view_position(view, c, d, k, e, l):
    """Where the bead with coordinates (c, d, k) sits in a view:
    (component, position)."""
    return {
        "partition": (0, c + e * d + e * l * k),
        "level": (l - 1 - d, c + e * k),
        "rank": (c, d + l * k),
    }[view]


def view_coordinates(view, j, x, e, l):
    """The (c, d, k) of the bead at position x on component j of a view."""
    return {
        "partition": (x % e, x // e % l, x // (e * l)),
        "level": (x % e, l - 1 - j, x // e),
        "rank": (j, x % l, x // l),
    }[view]


VIEW_PERIOD = {
    "partition": lambda e, l: e * l,
    "level": lambda e, l: e,
    "rank": lambda e, l: l,
}


def beads_above(p, m, floor):
    """The beads of (p, m) at or above floor <= m - len(p): beta_i = p_i - i + m
    for the rows i = 1 .. m - floor."""
    return [(p[i - 1] if i <= len(p) else 0) - i + m for i in range(1, m - floor + 1)]


def symbol_of_beads(beads, floor):
    """(partition, charge) of the bead set that holds `beads` at or above
    floor and every position below it: p_i = beta_i + i - m."""
    m = floor + len(beads)
    parts = [b + i - m for i, b in enumerate(sorted(beads, reverse=True), 1)]
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts), m


def relabel_by_definition(mp, charges, e, l, src, dst):
    """(mp, charges) of the beads of src-view symbols placed in the dst view.

    Every source component is read from its beta-numbers down to the floor
    K * period, with K one level below min(s - len(p)), under which every
    component is full.  So every bead with k < K is present, and the others
    are read one by one.  In the target, each component is then full below
    K * its own period.
    """
    src_period, dst_period = VIEW_PERIOD[src](e, l), VIEW_PERIOD[dst](e, l)
    K = min(s - len(p) for p, s in zip(mp, charges)) // src_period - 1
    placed = [[] for _ in range(e * l // dst_period)]
    for j, (p, s) in enumerate(zip(mp, charges)):
        for x in beads_above(p, s, K * src_period):
            comp, y = view_position(dst, *view_coordinates(src, j, x, e, l), e, l)
            placed[comp].append(y)
    symbols = [symbol_of_beads(b, K * dst_period) for b in placed]
    return tuple(p for p, _ in symbols), tuple(m for _, m in symbols)


def pair_symbols_by_claiming(X, Y):
    """pair_symbols with both claiming loops written out.

    |X| <= |Y|: each x, smallest first, claims the largest remaining y <= x,
    else the largest remaining y; the unclaimed y's join X.  |X| > |Y|: each
    y, largest first, claims the smallest remaining x >= y, else the
    smallest remaining x; the unclaimed x's join Y.
    """
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


def act_charge_e_by_letters(word, s, l):
    """The left action on the e-tuple s with parameter l, each letter by its
    own formula, applied right to left: t takes (s_0, ..., s_{e-1}) to
    (s_{e-1} + l, s_0, ..., s_{e-2}), T undoes it, s_c swaps s_{c-1} and
    s_c, and s_0 puts s_{e-1} + l in slot 0 and s_0 - l in slot e-1 (at
    e = 1 it is the identity)."""
    s = tuple(s)
    for tok in reversed(word.split()):
        if tok == "t":
            s = (s[-1] + l,) + s[:-1]
        elif tok == "T":
            s = s[1:] + (s[0] - l,)
        elif tok != "s0":
            c = int(tok[1:])
            s = s[: c - 1] + (s[c], s[c - 1]) + s[c + 1 :]
        elif len(s) > 1:
            s = (s[-1] + l,) + s[1:-1] + (s[0] - l,)
    return s


_ORBITS = {}


def orbit_by_search(s, e, l, box):
    """The e-charge tuples reached from s by the generators s_0, ..., s_{e-1}
    of the left action with parameter l, through tuples whose entries all lie
    in [-box, box].  Each generator is an involution, so the tuples reached
    form one component of that bounded graph, shared by all its members."""
    key = (s, e, l, box)
    if key not in _ORBITS:
        seen, todo = {s}, [s]
        while todo:
            x = todo.pop()
            for c in range(e):
                y = act_charge_e(("s%d" % c,), x, l)
                if y not in seen and max(map(abs, y)) <= box:
                    seen.add(y)
                    todo.append(y)
        orbit = frozenset(seen)
        _ORBITS.update(((y, e, l, box), orbit) for y in orbit)
    return _ORBITS[key]


def orbit_equivalent_by_search(b1, b2, l):
    """orbit_equivalent by search: same context and weight, and the core
    charges of b2 reached from those of b1 inside the box |x| <= 2l + 2 plus
    their largest entry."""
    if (b1.e, b1.l, b1.m, b1.weight) != (b2.e, b2.l, b2.m, b2.weight):
        return False
    box = 2 * l + 2 + max(map(abs, b1.core_multicharge + b2.core_multicharge))
    return b2.core_multicharge in orbit_by_search(b1.core_multicharge, b1.e, l, box)


def orbit_pairs(max_e, max_l, spread, weights):
    """Every ordered pair of block labels (b1, b2, l) with 2 <= e <= max_e,
    1 <= l <= max_l, core charges in [-spread, spread]^e of one sum in
    [-1, 1], and weights from `weights`."""
    for e in range(2, max_e + 1):
        by_sum = {}
        for s in product(range(-spread, spread + 1), repeat=e):
            if abs(sum(s)) <= 1:
                by_sum.setdefault(sum(s), []).append(s)
        for l in range(1, max_l + 1):
            for m, tuples in by_sum.items():
                labels = [BlockId(s, w, e, l, m) for s in tuples for w in weights]
                yield from ((b1, b2, l) for b1 in labels for b2 in labels)


# orbit_equivalent is checked on ORBIT_GRID in tier-1 and on WIDE_ORBIT_GRID
# (63273 pairs) in tests/wide_agreement.py
ORBIT_GRID = {"max_e": 4, "max_l": 3, "spread": 1, "weights": (0, 1)}
WIDE_ORBIT_GRID = {"max_e": 4, "max_l": 3, "spread": 2, "weights": (0,)}
