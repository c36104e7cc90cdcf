"""Command-line front end.

Every library operation is exposed as a subcommand with ``--json`` and
plain-text output.  Exit codes: 0 on success, 2 when a value is outside an
operation's domain (the library error message is printed verbatim), 1 for
usage errors.

Value syntax on the command line: partitions are comma-separated parts
("6,3,2,1,1"), multipartitions join components with '|' ("3,1|2,1", with
"-" or the empty string for an empty component), charge tuples are
comma-separated integers, group words are space-separated tokens
("s1 t T").  Tokens starting with a single minus sign are accepted as flag
values without escaping; a token starting with ``--`` is never taken as a
flag value, so a flag missing its value is a usage error.

The table ``_COMMANDS`` is the CLI's only description of its subcommands.
A row is a name, a help text, flags, a compute step and a text renderer.
A flag is (name, argparse keywords, text parser): ints convert by
argparse's ``type=int``, other values by parse_partition, parse_mp or
parse_charges, or stay text (parser None).  The compute step takes the
flag values in row order and returns the JSON payload; the renderer gives
the plain text, by default one "key: value" line per entry.

_answer runs four stages.  (1) Read the argv into a dict of values: a
plain call (a subcommand name, then only ``--json`` and exact ``--flag
value`` pairs, each flag once) straight off the table, any other argv by
argparse, which alone gives help and usage errors: the named subcommand's
own parser, else the parser with all of them, each built once per process.
(2) Parse the text values in row order, after the read's missing-flag and
int errors; all of these exit 1.  (3) Compute; a library ValueError exits
2.  (4) Serialize: JSON under ``--json``, else the row's renderer.

Repeated in-process calls are answered from a memo: ``run`` keeps each
finished (code, text) answer, usage and domain errors included, under the
argv's strings, and returns it when the same argv comes again.  The memo
holds at most _MEMO_BYTES (argv and answer text, by sys.getsizeof) and
drops the oldest answers first.  Help text is never kept, since its width
follows the terminal, and neither is an exception.  ``main`` makes one call
per process, so a cold ``abacore`` or ``python -m abacore`` gains nothing.
"""

import argparse
import io
import json
import sys
import threading
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

from .abacus import render_abacus
from .actions import act_charge_e, act_charge_l, duality_transport, psi, sigma_ordinary, sigma_star
from .blocks import (
    BlockId,
    block_action,
    block_id,
    blocks_of,
    is_scopes,
    orbit_equivalent,
    realize_multicharge,
    reachable_multicharges,
    uglov_set,
)
from .nodes import i_signature
from .partitions import Symbol
from .quotients import (
    core_data,
    generalized_core,
    is_core,
    level_rank_transpose,
    tau_e,
    tau_e_inverse,
    tau_l,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


def _ints(text, what):
    out = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if not tok:
            raise UsageError(f"empty entry in {what}: {text!r}")
        try:
            out.append(int(tok))
        except ValueError:
            raise UsageError(f"invalid {what}: {tok!r}") from None
    return tuple(out)


def parse_partition(text):
    text = str(text).strip()
    if text in ("", "-"):
        return ()
    return _ints(text, "partition part")


def parse_mp(text):
    return tuple(parse_partition(c) for c in str(text).split("|"))


def parse_charges(text):
    return _ints(text, "charge")


def parse_window(text):
    lo, sep, hi = str(text).partition(":")
    try:
        if sep:
            return int(lo), int(hi)
    except ValueError:
        pass
    raise UsageError(f"window must look like lo:hi, got {text!r}")


def _dash_value(tok):
    """Whether tok, starting with "-", is a flag value: "-" alone, "-<digit>",
    or an empty first entry, "-," or "-|"."""
    return len(tok) == 1 or tok[1].isdigit() or tok[1] in ",|"


def _merge_negative_values(argv):
    """Join "--flag" "-3,1" into "--flag=-3,1" so argparse accepts it; a
    following "--..." token is a flag, not a value, and is left alone."""
    out = []
    skip = False
    for pos, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[pos + 1] if pos + 1 < len(argv) else None
        if tok.startswith("--") and "=" not in tok and nxt and nxt[0] == "-" and _dash_value(nxt):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def _text_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, (int, str)):
        return str(v)
    if isinstance(v, dict):
        if set(v) == {"row", "col", "comp"}:
            return f"({v['row']},{v['col']},{v['comp']})"
        return " ".join(f"{k}={_text_value(x)}" for k, x in v.items())
    items = list(v)
    if not items:
        return "-"
    if all(isinstance(x, int) for x in items):
        return ",".join(str(x) for x in items)
    if all(
        isinstance(x, (list, tuple)) and all(isinstance(y, int) for y in x)
        for x in items
    ):
        return "|".join(",".join(str(y) for y in x) or "-" for x in items)
    return "; ".join(_text_value(x) for x in items)


def _text_lines(payload):
    return "\n".join(f"{k}: {_text_value(v)}" for k, v in payload.items())


def _sized_lines(payload):
    """A {"size": N, key: items} payload as "size: N", then one item a line."""
    size, items = payload.values()
    return "\n".join([f"size: {size}", *map(_text_value, items)])


def _sized(key, items):
    items = sorted(items)
    return {"size": len(items), key: items}


def _blocks_lines(payload):
    lines = []
    for entry in payload:
        lines.append(f"block: {_text_value(entry['block'])}")
        lines.extend("  " + _text_value(mp) for mp in entry["members"])
    return "\n".join(lines)


def _nodes(mp, charges, e, i):
    sig = i_signature(mp, charges, e, i)
    return {"addable": [n._asdict() for x, n in sig.letters if x == "A"],
            "removable": [n._asdict() for x, n in sig.letters if x == "R"],
            "word": sig.word, "reduced": sig.reduced_word,
            "good_addable": sig.good_addable and sig.good_addable._asdict(),
            "good_removable": sig.good_removable and sig.good_removable._asdict()}


def _render(mp, charges, window):
    # the window is parsed only here, after the length check
    if len(charges) != len(mp):
        raise ValueError("charges do not match the number of components")
    if window is not None:
        lo, hi = parse_window(window)
    else:
        lo = min(s - len(p) for p, s in zip(mp, charges)) - 2
        hi = max(s - 1 + (p[0] if p else 0) for p, s in zip(mp, charges)) + 2
    art = render_abacus([Symbol(p, s) for p, s in zip(mp, charges)], (lo, hi))
    return {"window": [lo, hi], "lines": art.split("\n")}


def _duality_check(i, mp, charges, e):
    star, transport = sigma_star(i, mp, charges, e), duality_transport(i, mp, charges, e)
    return {"star": star, "transport": transport, "agree": star == transport}


def _realize(start, target, e):
    witness = realize_multicharge(start, target, e)
    g = generalized_core(witness, start, e)
    return {"witness": witness, "core_charges": g.core_charges, "weight": g.weight}


def _flag(name, parse=None, **kwargs):
    """(name, argparse keywords with the dest spelled out, text parser or None)."""
    return name, dict(kwargs, dest=name[2:].replace("-", "_")), parse


_f_e = _flag("--e", type=int, required=True, help="modulus (at least 2)")
_f_l = _flag("--l", type=int, required=True, help="level")
_f_m = _flag("--m", type=int, default=0, help="charge of the partition (default 0)")
_f_i = _flag("--i", type=int, required=True, help="residue")
_f_n = _flag("--n", type=int, required=True, help="total size")
_f_part = _flag("--partition", parse_partition, required=True, help="partition, e.g. 6,3,2,1,1")
_f_mp = _flag("--mp", parse_mp, required=True, help="multipartition, e.g. 3,1|2,1")
_f_charges = _flag("--charges", parse_charges, required=True, help="charge tuple, e.g. 0,-1,1")
_f_word = _flag("--word", required=True, help="group word, e.g. 's1 t T'")
_f_weight = _flag("--weight", type=int, default=0, help="block weight (default 0)")
_f_core = _flag("--core", parse_charges, required=True, help="core charge tuple")
_f_start = _flag("--start", parse_charges, required=True, help="starting charge tuple")
_MP = (_f_mp, _f_charges, _f_e)  # a charged multipartition and its modulus


_Command = namedtuple("_Command", "name help flags compute text", defaults=(_text_lines,))


# One row per subcommand, in --help order.
_COMMANDS = (
    _Command("core", "e-core data of a charged partition", (_f_part, _f_m, _f_e),
             lambda p, m, e: core_data(p, m, e)._asdict()),
    _Command("quotient", "e-quotient and core charges of a charged partition",
             (_f_part, _f_m, _f_e),
             lambda p, m, e: dict(zip(("quotient", "core_multicharge"), tau_e(p, m, e)))),
    _Command("uglov", "level-l decomposition of a charged partition", (_f_part, _f_m, _f_e, _f_l),
             lambda p, m, e, l: dict(zip(("mp", "charges"), tau_l(p, m, e, l)))),
    _Command("from-quotient", "rebuild the charged partition from an e-quotient and core charges",
             (_flag("--quotient", parse_mp, required=True, help="e-quotient, e.g. 2,1|2|2,1,1"),
              _f_charges),
             lambda q, s_e: dict(zip(("partition", "m"), tau_e_inverse(q, s_e)))),
    _Command("transpose", "level-rank transpose of a charged multipartition", _MP,
             lambda mp, s, e: dict(zip(("mp", "charges"), level_rank_transpose(mp, s, e)))),
    _Command("gencore", "generalized e-core, core charges and weight", _MP,
             lambda mp, s, e: generalized_core(mp, s, e)._asdict()),
    _Command("weight", "generalized-core weight", _MP,
             lambda mp, s, e: {"weight": generalized_core(mp, s, e).weight}),
    _Command("iscore", "test whether the multipartition is a core", _MP,
             lambda mp, s, e: {"is_core": is_core(mp, s, e)}),
    _Command("nodes", "addable/removable i-nodes, signature and good nodes", (*_MP, _f_i), _nodes),
    _Command("render", "draw the abacus of a charged multipartition",
             (_f_mp, _f_charges,
              _flag("--window", help="position window lo:hi (default: around the beads)")),
             _render, lambda payload: "\n".join(payload["lines"])),
    _Command("act-e", "left action of a group word on an e-charge tuple",
             (_f_word, _f_charges, _f_l),
             lambda word, s, l: {"charges": act_charge_e(word, s, l)}),
    _Command("act-l", "right action of a group word on an l-charge tuple",
             (_f_word, _f_charges, _f_e),
             lambda word, s, e: {"charges": act_charge_l(s, word, e)}),
    _Command("psi", "component-level action of a group word on a charged multipartition",
             (_f_word, *_MP),
             lambda word, mp, s, e: dict(zip(("mp", "charges"), psi(mp, s, word, e)))),
    _Command("sigma", "toggle all addable and removable i-nodes", (_f_i, *_MP),
             lambda i, mp, s, e: {"mp": sigma_ordinary(i, mp, s, e)}),
    _Command("star", "crystal-side involution at residue i", (_f_i, *_MP),
             lambda i, mp, s, e: {"mp": sigma_star(i, mp, s, e)}),
    _Command("duality-check",
             "compare the crystal-side involution with its transpose-side transport",
             (_f_i, *_MP), _duality_check),
    _Command("block", "block label of a charged multipartition", _MP,
             lambda mp, s, e: block_id(mp, s, e)._asdict()),
    _Command("blocks", "decompose all multipartitions of size n into blocks",
             (_f_n, _f_charges, _f_e),
             lambda n, s, e: [{"block": b._asdict(), "members": members}
                              for b, members in blocks_of(n, s, e).items()], _blocks_lines),
    _Command("uglov-set", "multipartitions of size n reachable by adding good nodes",
             (_f_charges, _f_e, _f_n), lambda s, e, n: _sized("members", uglov_set(s, e, n)),
             _sized_lines),
    _Command("scopes", "charge-gap test for blocks without addable i-nodes",
             (_f_core, _f_weight, _f_e, _f_l, _f_i),
             lambda s, w, e, l, i: {"scopes": is_scopes(BlockId(s, w, e, l, sum(s)), i, l)}),
    _Command("block-act", "act on a block label by a group word",
             (_f_word, _f_core, _f_weight, _f_e, _f_l),
             lambda word, s, w, e, l: block_action(word, BlockId(s, w, e, l, sum(s)), l)._asdict()),
    _Command("orbit-eq", "whether two block labels lie in one orbit of the swap generators",
             (_flag("--core-a", parse_charges, required=True, help="first core charge tuple"),
              _flag("--core-b", parse_charges, required=True, help="second core charge tuple"),
              _flag("--weight-a", type=int, default=0, help="first block weight (default 0)"),
              _flag("--weight-b", type=int, default=0, help="second block weight (default 0)"),
              _f_e, _f_l),
             lambda s, t, v, w, e, l: {"equivalent": orbit_equivalent(
                 BlockId(s, v, e, l, sum(s)), BlockId(t, w, e, l, sum(t)), l)}),
    _Command("realize", "multipartition charged at start whose core charges equal target",
             (_f_start, _flag("--target", parse_charges, required=True,
                              help="target core charge tuple"), _f_e), _realize),
    _Command("reachable", "core charge tuples of all multipartitions up to a size bound",
             (_f_start, _f_e,
              _flag("--bound", type=int, required=True, help="largest multipartition size")),
             lambda s, e, bound: _sized("charges", reachable_multicharges(s, e, bound)),
             _sized_lines),
)
_ROWS = {row.name: row for row in _COMMANDS}
_NAMES = frozenset(_ROWS)
# (command, flag) -> (dest, int or None), for _plain_parse
_FLAGS = {(row.name, flag): (kwargs["dest"], kwargs.get("type"))
          for row in _COMMANDS for flag, kwargs, _ in row.flags}


@lru_cache(maxsize=None)
def _build_parser(command=None):
    """`command`'s own parser, or the full parser with every subcommand
    attached when `command` is None.  A command's parser is the one the full
    parser would hand its arguments to: the same prog ("abacore NAME"),
    description and flags.  Keys are None and the table's names, and
    argparse does not mutate a parser while parsing, so each of these is
    built once per process and reused."""
    if command is None:
        parser = _Parser(prog="abacore", description="Command-line front end.")
        sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
        parsers = [(sub.add_parser(row.name, help=row.help, description=row.help), row)
                   for row in _COMMANDS]
    else:
        parser = _Parser(prog=f"abacore {command}", description=_ROWS[command].help)
        parsers = [(parser, _ROWS[command])]
    for each, row in parsers:
        for flag, kwargs, _ in row.flags:
            each.add_argument(flag, **kwargs)
        each.add_argument("--json", action="store_true", help="emit JSON")
        each.set_defaults(command=row.name)
    return parser


def _plain_parse(argv):
    """vars() of the namespace `argv[0]`'s parser would build from `argv[1:]`,
    when every later token is --json or an exact flag of that command and
    one value, no flag repeats, a value starts with "-" only where
    _merge_negative_values would join it, every int converts and every
    required flag is given; else None, and argparse reads the argv.  So
    this reader can decline but never disagree."""
    command = argv[0]
    values, seen = {"command": command, "json": False}, set()
    pos, end = 1, len(argv)
    while pos < end:
        tok = argv[pos]
        if tok in seen:
            return None
        seen.add(tok)
        if tok == "--json":
            values["json"] = True
            pos += 1
            continue
        dest, kind = _FLAGS.get((command, tok), (None, None))
        if dest is None or pos + 1 == end:
            return None
        value = argv[pos + 1]
        if value[:1] == "-" and not _dash_value(value):
            return None
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[dest] = value
        pos += 2
    for flag, kwargs, _ in _ROWS[command].flags:
        if flag not in seen:
            if kwargs.get("required"):
                return None
            values[kwargs["dest"]] = kwargs.get("default")
    return values


class _Help(Exception):
    """Help output, (code, text): returned by run but never kept, since its
    width follows the terminal, which argparse reads again on every call."""


class _Memo(dict):
    """Finished (code, text) answers by argv tuple, oldest first.  It holds
    at most `limit` bytes, counted by sys.getsizeof over each argv tuple, its
    strings and its answer text; an answer larger than that is not kept."""

    def __init__(self, limit):
        super().__init__()
        self.limit, self.size = limit, 0
        self._lock = threading.Lock()

    @staticmethod
    def _bytes(key, text):
        return sys.getsizeof(key) + sys.getsizeof(text) + sum(map(sys.getsizeof, key))

    def keep(self, key, answer):
        size = self._bytes(key, answer[1])
        if size > self.limit:
            return
        with self._lock:
            if key in self:
                return
            self[key] = answer
            self.size += size
            while self.size > self.limit:
                old = next(iter(self))
                self.size -= self._bytes(old, self.pop(old)[1])

    def clear(self):
        with self._lock:
            super().clear()
            self.size = 0


_MEMO_BYTES = 4 << 20
_memo = _Memo(_MEMO_BYTES)


def run(argv):
    """Execute one CLI invocation; returns (exit code, output text).

    An answer depends on the argv alone, so a finished one is kept in _memo
    under the argv's strings and returned from there when the same argv
    comes again.  Help is never kept, and neither is any exception, which
    propagates to the caller."""
    key = tuple(map(str, argv))
    answer = _memo.get(key)
    if answer is None:
        try:
            answer = _answer(key)
        except _Help as exc:
            return exc.args
        _memo.keep(key, answer)
    return answer


def _answer(argv):
    """run without the memo, for a tuple of strings, in the four stages of
    the module docstring: read, parse, compute, serialize."""
    args = _plain_parse(argv) if argv and argv[0] in _NAMES else None
    if args is None:
        argv = _merge_negative_values(argv)
        buf = io.StringIO()
        try:
            with redirect_stdout(buf), redirect_stderr(buf):
                if argv and argv[0] in _NAMES:
                    args, extras = _build_parser(argv[0]).parse_known_args(argv[1:])
                    if extras:
                        raise UsageError(
                            f"abacore: error: unrecognized arguments: {' '.join(extras)}"
                        )
                else:
                    args = _build_parser().parse_args(argv)
        except UsageError as exc:
            return 1, str(exc)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
            raise _Help(0 if code == 0 else 1, buf.getvalue().rstrip("\n")) from None
        args = vars(args)
    row = _ROWS[args["command"]]
    try:
        values = [args[kwargs["dest"]] if parse is None else parse(args[kwargs["dest"]])
                  for _, kwargs, parse in row.flags]
        payload = row.compute(*values)
    except UsageError as exc:
        return 1, str(exc)
    except ValueError as exc:
        return 2, str(exc)
    if args["json"]:
        return 0, json.dumps(payload, separators=(",", ":"))
    return 0, row.text(payload)


def main(argv=None):
    code, text = run(sys.argv[1:] if argv is None else argv)
    if text:
        print(text)
    return code
