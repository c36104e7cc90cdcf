"""The crystal, the duality transport, the orbit test and the Uglov set
generator against their oracles on the wide grids.

    PYTHONPATH=src:tests python tests/wide_agreement.py

For every case of oracle.WIDE_CRYSTAL_GRID and every residue i, i_signature
and sigma_star are checked against the diagram-cell route and
duality_transport against the transpose route.  orbit_equivalent is checked
against the orbit search on the 63273 label pairs of oracle.WIDE_ORBIT_GRID.
uglov_set is checked against the FLOTW filter on the 2615 cases of
oracle.WIDE_FLOTW_GRID (l <= 4, e <= 6, n up to 21 at l = 1).  The tier-1
tests run the same checks on the smaller oracle.CRYSTAL_GRID,
oracle.ORBIT_GRID and oracle.FLOTW_GRID; this script takes about twenty
seconds and runs as its own CI job.  It prints one line per check and exits
1 at the first mismatch.
"""

import sys

import oracle
from abacore import duality_transport, i_signature, orbit_equivalent, sigma_star, uglov_set


def crystal():
    for mp, charges, e in oracle.bead_grid(**oracle.WIDE_CRYSTAL_GRID):
        for i in range(e):
            sig = i_signature(mp, charges, e, i)
            letters = oracle.letters_by_cells(mp, charges, e, i)
            star = oracle.sigma_star_by_moves(i, mp, charges, e)
            want = tuple(letters), tuple(oracle.reduce_letters(letters)), star
            yield (i, mp, charges, e), (sig.letters, sig.reduced, sigma_star(i, mp, charges, e)), want


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


def main():
    for check in (crystal, transport, orbit, flotw):
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
