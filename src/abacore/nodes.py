"""Nodes of charged multipartitions: contents, residues, signatures and the
crystal operators.

A node is a cell (row a, column b, component c) of the Young diagram of an
l-multipartition.  Its content is b - a + s_c for the component's charge
s_c, its residue the content mod e (always normalized into 0..e-1).  Nodes
are ordered by increasing content, ties broken by decreasing component
index (at equal content the later component comes first); that single
order is what the signature machinery uses everywhere.

The signature is read on the level abacus (_letters): an addable i-node
is a bead below an empty slot, a removable one a bead above an empty slot,
and Nodes are built only where a public function returns them.
"""

from typing import NamedTuple

from .partitions import (
    _as_ints,
    _check_residue,
    _checked,
    as_multipartition,
    as_partition,
    check_modulus,
)
from .quotients import _windows


class Node(NamedTuple):
    row: int
    col: int
    comp: int


def _as_node(node):
    """node as a Node of exact ints."""
    if not isinstance(node, Node):
        raise ValueError(f"not a node: {node!r}")
    return Node(*_as_ints(node))


def content(node, charges):
    node, charges = _as_node(node), _as_ints(charges)
    if node.comp not in range(len(charges)):
        raise ValueError(f"no charge for component {node.comp}")
    return node.col - node.row + charges[node.comp]


def residue(node, charges, e):
    return content(node, charges) % check_modulus(e)


def addable_cells(p, comp=0):
    """Cells whose addition to p leaves a partition, top row first."""
    p = (*as_partition(p), 0)
    return [Node(a, k + 1, comp) for a, k in enumerate(p, 1) if a == 1 or p[a - 2] > k]


def removable_cells(p, comp=0):
    """Cells whose removal from p leaves a partition, top row first."""
    p = (*as_partition(p), 0)
    return [Node(a, k, comp) for a, k in enumerate(p[:-1], 1) if k > p[a]]


def boundary_nodes(mp, charges, e, i):
    """Addable and removable i-nodes in node order (content up, component down)."""
    letters = _signature(*_checked_residue(mp, charges, e, i)).letters
    return [n for x, n in letters if x == "A"], [n for x, n in letters if x == "R"]


def _checked_residue(mp, charges, e, i):
    """_checked input and a residue i, validated in that order."""
    mp, charges, e = _checked(mp, charges, e)
    return mp, charges, e, _check_residue(i, e)


def _letters(windows, bottom, e, i):
    """The i-signature letters (content, -component, letter, row) of bead
    windows that all hold a bead at bottom and are full below it, in node
    order.  An addable i-node is a bead b with b + 1 empty and b + 1 = i
    (mod e), at content b + 1; a removable one a bead b > bottom with b - 1
    empty and b = i (mod e), at content b; its row counts the beads at or
    above b.  Test oracle: letters_by_cells in tests/oracle.py.
    """
    letters, before = [], (i - 1) % e
    for c, w in enumerate(windows):
        beads = set(w)
        for row, b in zip(range(len(w), 0, -1), w):
            if b % e == before and b + 1 not in beads:
                letters.append((b + 1, -c, "A", row))
            elif b % e == i and b - 1 not in beads and b > bottom:
                letters.append((b, -c, "R", row))
    letters.sort()
    return letters


def _reduce(letters):
    """Positions of the _letters that survive deleting adjacent R, A pairs."""
    stack = []
    for k, item in enumerate(letters):
        if item[2] == "A" and stack and letters[stack[-1]][2] == "R":
            stack.pop()  # this A cancels the R just before it
        else:
            stack.append(k)
    return stack


def count_nodes_by_residue(mp, charges, e):
    """How many diagram cells carry each residue 0..e-1."""
    mp, charges, e = _checked(mp, charges, e)
    counts = [0] * e
    for c, p in enumerate(mp):
        for a, row_len in enumerate(p, start=1):
            for b in range(1, row_len + 1):
                counts[(b - a + charges[c]) % e] += 1
    return tuple(counts)


class Signature(NamedTuple):
    """The A/R word of addable/removable i-nodes in node order.

    `reduced` is the word after repeatedly deleting adjacent "RA" pairs; it
    always has the shape A...AR...R.  The good addable node is the rightmost
    surviving A, the good removable the leftmost surviving R.
    """

    letters: tuple  # (("A"|"R", Node), ...)
    reduced: tuple

    @property
    def word(self):
        return "".join(letter for letter, _ in self.letters)

    @property
    def reduced_word(self):
        return "".join(letter for letter, _ in self.reduced)

    @property
    def good_addable(self):
        for letter, node in reversed(self.reduced):
            if letter == "A":
                return node
        return None

    @property
    def good_removable(self):
        for letter, node in self.reduced:
            if letter == "R":
                return node
        return None


def i_signature(mp, charges, e, i):
    return _signature(*_checked_residue(mp, charges, e, i))


def _signature(mp, charges, e, i):
    """i_signature of validated input; its Nodes are built only here."""
    letters = _letters(*_windows(mp, charges, below=1), e, i)
    pairs = [(x, Node(row, b + row - charges[-neg], -neg)) for b, neg, x, row in letters]
    return Signature(tuple(pairs), tuple(pairs[k] for k in _reduce(letters)))


def _cell(mp, node, cells):
    """A multipartition and a node among the `cells` of its component, validated."""
    mp, node = as_multipartition(mp), _as_node(node)
    if node.comp not in range(len(mp)) or node not in cells(mp[node.comp], node.comp):
        raise ValueError(f"{node!r} is not among the {cells.__name__} of {mp!r}")
    return mp, node


def _grow(mp, node, step):
    """mp with the row of node lengthened by step: 1 adds it, -1 removes it."""
    p = [*mp[node.comp], 0]
    p[node.row - 1] += step
    return mp[: node.comp] + (tuple(p[: len(p) - p.count(0)]),) + mp[node.comp + 1 :]


def add_node(mp, node):
    return _grow(*_cell(mp, node, addable_cells), 1)


def remove_node(mp, node):
    return _grow(*_cell(mp, node, removable_cells), -1)


def e_tilde(i, mp, charges, e):
    """Add the good addable i-node; None when the reduced word has no A."""
    mp, charges, e, i = _checked_residue(mp, charges, e, i)
    node = _signature(mp, charges, e, i).good_addable
    return None if node is None else _grow(mp, node, 1)


def f_tilde(i, mp, charges, e):
    """Remove the good removable i-node; None when the reduced word has no R."""
    mp, charges, e, i = _checked_residue(mp, charges, e, i)
    node = _signature(mp, charges, e, i).good_removable
    return None if node is None else _grow(mp, node, -1)
