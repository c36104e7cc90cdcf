"""Nodes of charged multipartitions: contents, residues, signatures and the
crystal operators.

A node is a cell (row a, column b, component c) of the Young diagram of an
l-multipartition.  Its content is b - a + s_c for the component's charge
s_c, its residue the content mod e (always normalized into 0..e-1).  Nodes
are ordered by increasing content, ties broken by decreasing component
index (at equal content the later component comes first); that single
order is what the signature machinery uses everywhere.
"""

from typing import NamedTuple

from .partitions import _check_residue, as_charges, as_multipartition, check_modulus


class Node(NamedTuple):
    row: int
    col: int
    comp: int


def content(node, charges):
    return node.col - node.row + charges[node.comp]


def residue(node, charges, e):
    return content(node, charges) % e


def addable_cells(p, comp=0):
    """Cells whose addition to p leaves a partition, top row first."""
    cells = []
    for a in range(1, len(p) + 2):
        cur = p[a - 1] if a <= len(p) else 0
        if a == 1 or p[a - 2] > cur:
            cells.append(Node(a, cur + 1, comp))
    return cells


def removable_cells(p, comp=0):
    """Cells whose removal from p leaves a partition, top row first."""
    cells = []
    for a in range(1, len(p) + 1):
        below = p[a] if a < len(p) else 0
        if p[a - 1] > below:
            cells.append(Node(a, p[a - 1], comp))
    return cells


def boundary_nodes(mp, charges, e, i):
    """Addable and removable i-nodes in node order (content up, component down)."""
    mp = as_multipartition(mp)
    charges = as_charges(charges, len(mp))
    e = check_modulus(e)
    letters = _letters(mp, charges, e, _check_residue(i, e))
    return [n for x, n in letters if x == "A"], [n for x, n in letters if x == "R"]


def _letters(mp, charges, e, i):
    """The letters of i_signature for validated input, in node order."""
    letters = [
        (letter, n)
        for c, p in enumerate(mp)
        for letter, cells in (("A", addable_cells(p, c)), ("R", removable_cells(p, c)))
        for n in cells
        if residue(n, charges, e) == i
    ]
    return sorted(letters, key=lambda x: (content(x[1], charges), -x[1].comp))


def count_nodes_by_residue(mp, charges, e):
    """How many diagram cells carry each residue 0..e-1."""
    mp = as_multipartition(mp)
    charges = as_charges(charges, len(mp))
    e = check_modulus(e)
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
    mp = as_multipartition(mp)
    charges = as_charges(charges, len(mp))
    e = check_modulus(e)
    letters = _letters(mp, charges, e, _check_residue(i, e))
    stack = []
    for item in letters:
        if item[0] == "A" and stack and stack[-1][0] == "R":
            stack.pop()  # this A cancels the R just before it
        else:
            stack.append(item)
    return Signature(tuple(letters), tuple(stack))


def add_node(mp, node):
    p = list(mp[node.comp])
    if node.row == len(p) + 1:
        p.append(1)
    else:
        p[node.row - 1] += 1
    return mp[: node.comp] + (tuple(p),) + mp[node.comp + 1 :]


def remove_node(mp, node):
    p = list(mp[node.comp])
    p[node.row - 1] -= 1
    if p[node.row - 1] == 0:
        p.pop()
    return mp[: node.comp] + (tuple(p),) + mp[node.comp + 1 :]


def e_tilde(i, mp, charges, e):
    """Add the good addable i-node; None when the reduced word has no A."""
    node = i_signature(mp, charges, e, i).good_addable
    return None if node is None else add_node(as_multipartition(mp), node)


def f_tilde(i, mp, charges, e):
    """Remove the good removable i-node; None when the reduced word has no R."""
    node = i_signature(mp, charges, e, i).good_removable
    return None if node is None else remove_node(as_multipartition(mp), node)
