"""Plain-text rendering of abaci."""

from .partitions import _as_int, _as_symbol, _beta_window


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
    for s in reversed([*map(_as_symbol, symbols)]):
        beads = _beads_in(s, lo, hi)
        lines.append("".join("X" if j in beads else "." for j in range(lo, hi + 1)))
    return "\n".join(lines)


def _beads_in(sym, lo, hi):
    """The beads of sym in [lo, hi], read off a window whose bottom is at or below lo."""
    p, m = sym.partition, sym.charge
    return {b for b in _beta_window(p, m, max(len(p), m - lo)) if lo <= b <= hi}


def _header(lo, hi):
    width = hi - lo + 1
    left, right = str(lo), str(hi)
    if width == 1:
        return left
    if len(left) + len(right) + 1 <= width:
        return left + " " * (width - len(left) - len(right)) + right
    return f"{lo}..{hi}"
