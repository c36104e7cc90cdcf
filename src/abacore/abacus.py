"""Plain-text rendering of abaci."""

import operator

from .partitions import _as_int, _as_symbol

_DRAW = bytes.maketrans(b"\0\1", b".X")


def render_abacus(symbols, window):
    """Render an l-abacus over a position window (lo, hi), inclusive.

    One line per runner, runner l-1 on top and runner 0 at the bottom, after
    a header labeling the window ends.  'X' is a bead, '.' an empty
    position; positions increase left to right.
    """
    try:
        lo, hi = window
    except (TypeError, ValueError):
        raise ValueError(f"window must be a pair (lo, hi), got {window!r}") from None
    lo, hi = _as_int(lo), _as_int(hi)
    if lo > hi:
        raise ValueError("window must satisfy lo <= hi")
    lines = [_header(lo, hi)]
    try:
        symbols = iter(symbols)
    except TypeError:
        raise ValueError(f"expected a sequence of symbols, got {symbols!r}") from None
    width = hi + 1 - lo
    for p, m in reversed([*map(_as_symbol, symbols)]):
        # the symbol's bead row over the window: full below m - len(p), then one bead per part
        row = bytearray(b"\1" * min(max(m - len(p) - lo, 0), width)).ljust(width, b"\0")
        for x in map(operator.add, p, range(m - 1 - lo, m - 1 - lo - len(p), -1)):
            if 0 <= x < width:
                row[x] = 1
        lines.append(row.translate(_DRAW).decode())
    return "\n".join(lines)


def _header(lo, hi):
    width = hi - lo + 1
    left, right = str(lo), str(hi)
    if width == 1:
        return left
    if len(left) + len(right) + 1 <= width:
        return left + " " * (width - len(left) - len(right)) + right
    return f"{lo}..{hi}"
