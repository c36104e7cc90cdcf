"""Nodes of charged multipartitions: contents, residues, signatures and the
crystal operators.

A node is a cell (row a, column b, component c) of the Young diagram of an
l-multipartition.  Its content is b - a + s_c for the component's charge
s_c, its residue the content mod e (always normalized into 0..e-1).  Nodes
are ordered by increasing content, ties broken by decreasing component
index (at equal content the later component comes first); that single
order is what the signature machinery uses everywhere.

The signature is read off the rows (_letters): every letter belongs to one
row, the addable node at its end or the removable node ending it, and every
crystal move lengthens or shortens one row (_grow).  Nodes are built only
where a public function returns them.
"""

from typing import NamedTuple

from .partitions import _as_ints, _check_residue, _checked, check_modulus


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


def boundary_nodes(mp, charges, e, i):
    """Addable and removable i-nodes in node order (content up, component down)."""
    letters = _signature(*_checked_residue(mp, charges, e, i)).letters
    return [n for x, n in letters if x == "A"], [n for x, n in letters if x == "R"]


def _checked_residue(mp, charges, e, i):
    """_checked input and a residue i, validated in that order."""
    mp, charges, e = _checked(mp, charges, e)
    return mp, charges, e, _check_residue(i, e)


def _letters(mp, charges, e, i):
    """The i-signature letters (content, -component, letter, row, column) of
    validated input, in node order.  Each component gets one zero row below
    its last; row a, of length k, ends at content x = k - a + s_c.  It has an
    addable i-node at x + 1 = i (mod e) when a = 1 or the row above is
    longer, and a removable one at x = i (mod e) when k > 0 and the row below
    is shorter.  Test oracle: letters_by_cells in tests/oracle.py.
    """
    letters = []
    for c, (p, s) in enumerate(zip(mp, charges)):
        rows = (*p, 0)
        for a, k in enumerate(rows, 1):
            x = k - a + s
            if (x + 1 - i) % e == 0:
                if a == 1 or rows[a - 2] > k:
                    letters.append((x + 1, -c, "A", a, k + 1))
            elif (x - i) % e == 0 and k and k > rows[a]:
                letters.append((x, -c, "R", a, k))
    letters.sort()
    return letters


def _reduce(letters):
    """The _letters that survive deleting adjacent R, A pairs."""
    stack = []
    for item in letters:
        if item[2] == "A" and stack and stack[-1][2] == "R":
            stack.pop()  # this A cancels the R just before it
        else:
            stack.append(item)
    return stack


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
    letters = _letters(mp, charges, e, i)
    pairs = {x: (x[2], Node(x[3], x[4], -x[1])) for x in letters}
    return Signature(tuple(pairs.values()), tuple(map(pairs.get, _reduce(letters))))


def _grow(mp, letters):
    """mp with every letter's row edited in one pass: an "A" lengthens it by
    one node, an "R" shortens it by one.  Each touched component is copied
    once as its rows and one zero row."""
    edited = {}
    for _, neg, letter, row, _ in letters:
        rows = edited.get(-neg)
        if rows is None:
            rows = edited[-neg] = [*mp[-neg], 0]
        rows[row - 1] += 1 if letter == "A" else -1
    mp = list(mp)
    for c, rows in edited.items():
        mp[c] = tuple(rows[: len(rows) - rows.count(0)])
    return tuple(mp)


def e_tilde(i, mp, charges, e):
    """Add the good addable i-node, the last surviving A; None when there is none."""
    mp, charges, e, i = _checked_residue(mp, charges, e, i)
    good = [x for x in _reduce(_letters(mp, charges, e, i)) if x[2] == "A"][-1:]
    return _grow(mp, good) if good else None


def f_tilde(i, mp, charges, e):
    """Remove the good removable i-node, the first surviving R; None when there is none."""
    mp, charges, e, i = _checked_residue(mp, charges, e, i)
    good = [x for x in _reduce(_letters(mp, charges, e, i)) if x[2] == "R"][:1]
    return _grow(mp, good) if good else None
