"""Partitions, beta-sets and charged symbols.

A partition is a tuple of weakly decreasing positive integers; () is the
empty partition.  The symbol of a partition p at charge m is the strictly
increasing sequence of beta-numbers

    p[i] - (i + 1) + m        for the rows i = 0, 1, 2, ...

where p is padded with zero rows.  Row len(p)+k contributes m - len(p) - k,
so every position strictly below m - len(p) carries a bead ("trivial tail").
A finite window of rows therefore determines the whole symbol: the window
holds the top `rows` beta-numbers and everything below it is full.  On an
abacus picture, position j holds a black bead exactly when j is a
beta-number.

Charge bookkeeping that gets used all over the place: if a window's bottom
position is W and it holds r beads, the charge is W + r.
"""

import operator
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple


def _as_int(x, least=None, message=None):
    """x as an exact int, never truncated: bools and non-integers such as
    2.7 are rejected, and so is x < least, with `message`."""
    if type(x) is not int:
        if isinstance(x, bool) or not hasattr(type(x), "__index__"):
            raise ValueError(f"expected an integer, got {x!r}")
        x = operator.index(x)
    if least is not None and x < least:
        raise ValueError(message)
    return x


def _as_ints(xs):
    """A tuple of exact ints (see _as_int)."""
    try:
        xs = tuple(xs)
    except TypeError:
        raise ValueError(f"expected a sequence of integers, got {xs!r}") from None
    if not {*map(type, xs)} <= {int}:
        xs = tuple(map(_as_int, xs))
    return xs


def _charge_tuple(s):
    """A nonempty tuple of exact ints."""
    s = _as_ints(s)
    if not s:
        raise ValueError("a charge tuple needs at least one entry")
    return s


def as_partition(p):
    """Normalize to a tuple of decreasing positive ints; drop trailing zeros."""
    p = _as_ints(p)
    while p and p[-1] == 0:
        p = p[:-1]
    if len(p) > 1 and list(p) != sorted(p, reverse=True) or (p and p[-1] < 0):
        raise ValueError(f"not a partition: {p}")
    return p


def as_multipartition(mp):
    try:
        components = iter(mp)
    except TypeError:
        raise ValueError(f"expected a multipartition, got {mp!r}") from None
    mp = tuple(map(as_partition, components))
    if not mp:
        raise ValueError("a multipartition needs at least one component")
    return mp


def as_charges(charges, l):
    charges = _as_ints(charges)
    if len(charges) != l:
        raise ValueError(f"expected {l} charges, got {len(charges)}")
    return charges


def check_modulus(e):
    return _as_int(e, 2, "the modulus e must be at least 2")


def _checked(mp, charges, e):
    """A multipartition, its charges and a modulus, validated in that order."""
    mp = as_multipartition(mp)
    return mp, as_charges(charges, len(mp)), check_modulus(e)


def _check_residue(i, e):
    """The residue i as an exact int in 0..e-1."""
    i = _as_int(i)
    if not 0 <= i < e:
        raise ValueError("residue out of range")
    return i


def size(p):
    return sum(p)


def mp_size(mp):
    return sum(sum(c) for c in mp)


def beta_set(p, m, rows):
    """The top `rows` beta-numbers of p at charge m, strictly increasing.

    Every position below the returned window is a bead.  `rows` must cover
    all of p's rows, otherwise nontrivial beads would fall outside the
    window.
    """
    p = as_partition(p)
    m, rows = _as_int(m), _as_int(rows)
    if rows < len(p):
        raise ValueError("window too small")
    return _beta_window(p, m, rows)


def _beta_window(p, m, rows):
    """beta_set for a validated partition and a window that covers it."""
    top = len(p)
    return (*range(m - rows, m - top), *map(operator.sub, reversed(p), range(top - m, -m, -1)))


def partition_of_symbol(betas, m):
    """Inverse of beta_set: the partition encoded by a beta window at charge m."""
    betas, m = _as_ints(betas), _as_int(m)
    if any(a >= b for a, b in zip(betas, betas[1:])):
        raise ValueError("symbol entries must be strictly increasing")
    if betas and betas[0] + len(betas) < m:
        raise ValueError("symbol window does not match the charge")
    parts = (*map(operator.sub, reversed(betas), range(m - 1, m - 1 - len(betas), -1)),)
    return parts[: len(parts) - parts.count(0)]


class Symbol(NamedTuple):
    """A partition together with its charge; beta-numbers are a derived view."""

    partition: tuple
    charge: int

    def window(self, rows):
        return beta_set(self.partition, self.charge, rows)


def _as_symbol(s):
    """s as a Symbol of a validated partition and charge."""
    try:
        p, m = s
    except (TypeError, ValueError):
        raise ValueError(f"a symbol is a (partition, charge) pair, got {s!r}") from None
    return Symbol(as_partition(p), _as_int(m))


def shift_symbol(s, r):
    """The shifted symbol X[r]: same partition, charge moved by r."""
    p, m = _as_symbol(s)
    return Symbol(p, m + _as_int(r))


def partitions_of(n, max_part=None):
    """Generate the partitions of n, largest first part first."""
    n = _as_int(n, 0, "the size n must be nonnegative")
    return _partitions_of(n, n if max_part is None else min(_as_int(max_part), n))


def _partitions_of(n, max_part):
    """Reverse lexicographic on a stack: pop the 1s and the k above; refill greedily with k-1s."""
    stack, rest, k = [], n, max_part if n else 1
    while k > 0:
        stack += [k] * (rest // k) + [rest % k] * (rest % k > 0)
        yield tuple(stack)
        ones = stack.count(1)
        del stack[len(stack) - ones:]
        k = stack.pop() - 1 if stack else 0
        rest = ones + k + 1


@lru_cache(maxsize=32)
def partition_list(n):
    return tuple(partitions_of(n))


@lru_cache(maxsize=64)
def _regular_partitions(n, e):
    """The partitions of n with no part repeated e times, fewest rows first.
    They are built on a stack, a part k and its count c < e at a time; what
    is left must fit in parts below k, so no branch dies."""
    out, stack = [], [((), n, n + 1)]
    while stack:
        p, rest, above = stack.pop()
        if not rest:
            out.append(p)
        for k in range(1, min(rest + 1, above)):
            for c in range(1, min(e, rest // k + 1)):
                if rest - c * k <= (e - 1) * k * (k - 1) // 2:
                    stack.append((p + (k,) * c, rest - c * k, k))
    return tuple(sorted(out, key=len))


def compositions_of(n, k):
    """Weak compositions of n into k parts, in lexicographic order."""
    n = _as_int(n, 0, "the size n must be nonnegative")
    k = _as_int(k, 1, "the number of parts k must be at least 1")
    for bars in combinations(range(n + k - 1), k - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, n + k - 1)))


def multipartitions_of(n, l):
    """Generate the l-component multipartitions of total size n."""
    for sizes in compositions_of(n, l):
        yield from product(*(partition_list(s) for s in sizes))
