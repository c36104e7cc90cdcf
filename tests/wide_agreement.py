"""The crystal and the duality transport against their oracles on the wide
grid.

    PYTHONPATH=src:tests python tests/wide_agreement.py

For every case of oracle.WIDE_CRYSTAL_GRID and every residue i, i_signature
and sigma_star are checked against the diagram-cell route and
duality_transport against the transpose route.  The tier-1 tests run the
same checks on the smaller oracle.CRYSTAL_GRID; this script takes about
ten seconds and runs as its own CI job.  It prints one line per check
and exits 1 at the first mismatch.
"""

import sys

import oracle
from abacore import duality_transport, i_signature, sigma_star


def crystal(mp, charges, e):
    for i in range(e):
        sig = i_signature(mp, charges, e, i)
        letters = oracle.letters_by_cells(mp, charges, e, i)
        star = oracle.sigma_star_by_moves(i, mp, charges, e)
        want = tuple(letters), tuple(oracle.reduce_letters(letters)), star
        yield i, (sig.letters, sig.reduced, sigma_star(i, mp, charges, e)), want


def transport(mp, charges, e):
    for i, want in enumerate(oracle.transports_by_transpose(mp, charges, e)):
        yield i, duality_transport(i, mp, charges, e), want


def main():
    for check in (crystal, transport):
        count = 0
        for mp, charges, e in oracle.bead_grid(**oracle.WIDE_CRYSTAL_GRID):
            for i, got, want in check(mp, charges, e):
                if got != want:
                    print(f"{check.__name__}: mismatch at {(i, mp, charges, e)}: {got} != {want}")
                    return 1
                count += 1
        print(f"{check.__name__}: {count} cases agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
