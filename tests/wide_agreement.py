"""The crystal, sigma_ordinary, the duality transport, the orbit test, the
Uglov set generator, blocks_of, reachable_multicharges and
realize_multicharge against their oracles on the wide grids.

    PYTHONPATH=src:tests python tests/wide_agreement.py

For every case of oracle.WIDE_CRYSTAL_GRID and every residue i, i_signature,
sigma_star and sigma_ordinary are checked against the diagram-cell route and
duality_transport against the transpose route.  orbit_equivalent is checked
against the orbit search on the 63273 label pairs of oracle.WIDE_ORBIT_GRID.
uglov_set is checked against the FLOTW filter on the 2615 cases of
oracle.WIDE_FLOTW_GRID (l <= 4, e <= 6, n up to 21 at l = 1).  blocks_of is
checked, as whole dicts in order, against labelling every member on the
2360 cases of oracle.shifted_grid(**oracle.WIDE_BLOCKS_GRID) (l <= 3,
e <= 6, n up to 15, 11 and 9 by level), then again in reverse order from
the warm column cache, then at the 6400 component-wise translations
s + e*v (v in {-1, 0, 1}^l) that stay in the domain, each from the groups
cached at s (11120 checks), and reachable_multicharges against
enumeration on the 1384 cases of oracle.shifted_grid(**oracle.WIDE_REACH_GRID)
(e <= 5, bounds up to 10, 9 and 8 by level), once as is and once with
blocks._level_multicharge as the identity, which checks the runner charges
it is read from (2768 checks).  realize_multicharge's witness is checked
for its core charges and for the size of oracle.realize_by_greedy's on the
2540 pairs of oracle.realize_pairs(**oracle.WIDE_REALIZE_GRID) (e <= 5,
l <= 3, charges within e + 1 of 0, every sum).  The tier-1 tests run the
same checks on the smaller oracle.CRYSTAL_GRID, ORBIT_GRID, FLOTW_GRID,
BLOCKS_GRID and REACH_GRID and on the realize pairs of sum -1, 0 or 1 with
e <= 4; this script takes about twenty-five seconds and runs as its own CI job.
It prints one line per check and exits 1 at the first mismatch.
"""

import itertools
import sys

import abacore.blocks
import oracle
from abacore import (
    blocks_of,
    duality_transport,
    generalized_core,
    i_signature,
    in_closed_domain,
    orbit_equivalent,
    reachable_multicharges,
    realize_multicharge,
    sigma_ordinary,
    sigma_star,
    uglov_set,
)
from abacore.partitions import mp_size


def crystal():
    for mp, charges, e in oracle.bead_grid(**oracle.WIDE_CRYSTAL_GRID):
        for i in range(e):
            sig = i_signature(mp, charges, e, i)
            letters = oracle.letters_by_cells(mp, charges, e, i)
            star = oracle.sigma_star_by_moves(i, mp, charges, e)
            want = tuple(letters), tuple(oracle.reduce_letters(letters)), star
            yield (i, mp, charges, e), (sig.letters, sig.reduced, sigma_star(i, mp, charges, e)), want


def ordinary():
    for mp, charges, e in oracle.bead_grid(**oracle.WIDE_CRYSTAL_GRID):
        for i in range(e):
            got = sigma_ordinary(i, mp, charges, e)
            yield (i, mp, charges, e), got, oracle.sigma_ordinary_by_cells(i, mp, charges, e)


def transport():
    for mp, charges, e in oracle.bead_grid(**oracle.WIDE_CRYSTAL_GRID):
        for i, want in enumerate(oracle.transports_by_transpose(mp, charges, e)):
            yield (i, mp, charges, e), duality_transport(i, mp, charges, e), want


def orbit():
    for b1, b2, l in oracle.orbit_pairs(**oracle.WIDE_ORBIT_GRID):
        yield (b1, b2, l), orbit_equivalent(b1, b2, l), oracle.orbit_equivalent_by_search(b1, b2, l)


def flotw():
    for charges, e, n in oracle.flotw_grid(**oracle.WIDE_FLOTW_GRID):
        yield (charges, e, n), uglov_set(charges, e, n), oracle.uglov_set_by_filter(charges, e, n)


def blocks():
    # then again in reverse order, so every answer is also checked from the
    # packed-column cache that other sizes and residues have filled, and at
    # every translation s + e*v, v in {-1, 0, 1}^l, that stays in the domain,
    # so from the groups cached by the call at s just before
    cases = list(oracle.shifted_grid(**oracle.WIDE_BLOCKS_GRID))
    for charges, e, n in cases + cases[::-1]:
        got, want = blocks_of(n, charges, e), oracle.blocks_of_by_labels(n, charges, e)
        yield (n, charges, e), list(got.items()), list(want.items())
    for charges, e, n in cases:
        blocks_of(n, charges, e)
        for v in itertools.product((-1, 0, 1), repeat=len(charges)):
            moved = tuple(c + e * k for c, k in zip(charges, v))
            if any(v) and in_closed_domain(moved, e):
                got, want = blocks_of(n, moved, e), oracle.blocks_of_by_labels(n, moved, e)
                yield (n, moved, e), list(got.items()), list(want.items())


def reachable():
    # with blocks._level_multicharge as the identity, reachable_multicharges
    # gives the runner charges themselves, which are checked too
    cases = list(oracle.shifted_grid(**oracle.WIDE_REACH_GRID))
    for charges, e, bound in cases:
        got = reachable_multicharges(charges, e, bound)
        yield (charges, e, bound), got, oracle.reachable_by_enumeration(charges, e, bound)
    kept = abacore.blocks._level_multicharge
    abacore.blocks._level_multicharge = lambda s_e, l: s_e
    try:
        for charges, e, bound in cases:
            got = reachable_multicharges(charges, e, bound)
            yield (charges, e, bound), got, oracle.runner_charges_by_enumeration(charges, e, bound)
    finally:
        abacore.blocks._level_multicharge = kept


def realize():
    for start, target, e in oracle.realize_pairs(**oracle.WIDE_REALIZE_GRID):
        witness = realize_multicharge(start, target, e)
        got = generalized_core(witness, start, e).core_charges, mp_size(witness)
        yield (start, target, e), got, (target, mp_size(oracle.realize_by_greedy(start, target, e)))


def main():
    for check in (crystal, ordinary, transport, orbit, flotw, blocks, reachable, realize):
        count = 0
        for case, got, want in check():
            if got != want:
                print(f"{check.__name__}: mismatch at {case}: {got} != {want}")
                return 1
            count += 1
        print(f"{check.__name__}: {count} cases agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
