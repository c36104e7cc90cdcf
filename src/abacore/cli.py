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

The subcommands are rows of one table, ``_COMMANDS``.  A plain call, a
subcommand name followed only by ``--json`` and exact ``--flag value`` pairs
with each flag once, is read straight off the table and builds no parser.
argparse is built only for help, usage errors and irregular forms
(abbreviated flags, ``--flag=value``, repeats, ``--``): a subcommand's own
parser when the first argument names one, else the parser with all of them,
each built once per process and reused.

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
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

from .abacus import render_abacus
from .actions import (
    act_charge_e,
    act_charge_l,
    duality_transport,
    psi,
    sigma_ordinary,
    sigma_star,
)
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
from .nodes import boundary_nodes, i_signature
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
    if not sep:
        raise UsageError(f"window must look like lo:hi, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"window must look like lo:hi, got {text!r}") from None


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
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and nxt.startswith("-")
            and (len(nxt) == 1 or nxt[1].isdigit() or nxt[1] in ",|")
        ):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def _node_json(node):
    return None if node is None else node._asdict()


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


def _cmd_core(a):
    return core_data(parse_partition(a.partition), a.m, a.e)._asdict()


def _cmd_quotient(a):
    quotient, charges = tau_e(parse_partition(a.partition), a.m, a.e)
    return {"quotient": quotient, "core_multicharge": charges}


def _cmd_uglov(a):
    mp, charges = tau_l(parse_partition(a.partition), a.m, a.e, a.l)
    return {"mp": mp, "charges": charges}


def _cmd_from_quotient(a):
    p, m = tau_e_inverse(parse_mp(a.quotient), parse_charges(a.charges))
    return {"partition": p, "m": m}


def _cmd_transpose(a):
    mp_e, s_e = level_rank_transpose(parse_mp(a.mp), parse_charges(a.charges), a.e)
    return {"mp": mp_e, "charges": s_e}


def _cmd_gencore(a):
    return generalized_core(parse_mp(a.mp), parse_charges(a.charges), a.e)._asdict()


def _cmd_weight(a):
    g = generalized_core(parse_mp(a.mp), parse_charges(a.charges), a.e)
    return {"weight": g.weight}


def _cmd_iscore(a):
    return {"is_core": is_core(parse_mp(a.mp), parse_charges(a.charges), a.e)}


def _cmd_nodes(a):
    mp, charges = parse_mp(a.mp), parse_charges(a.charges)
    addable, removable = boundary_nodes(mp, charges, a.e, a.i)
    sig = i_signature(mp, charges, a.e, a.i)
    return {
        "addable": [_node_json(n) for n in addable],
        "removable": [_node_json(n) for n in removable],
        "word": sig.word,
        "reduced": sig.reduced_word,
        "good_addable": _node_json(sig.good_addable),
        "good_removable": _node_json(sig.good_removable),
    }


def _cmd_render(a):
    mp, charges = parse_mp(a.mp), parse_charges(a.charges)
    if len(charges) != len(mp):
        raise ValueError("charges do not match the number of components")
    if a.window is not None:
        lo, hi = parse_window(a.window)
    else:
        lo = min(s - len(p) for p, s in zip(mp, charges)) - 2
        hi = max(s - 1 + (p[0] if p else 0) for p, s in zip(mp, charges)) + 2
    art = render_abacus([Symbol(p, s) for p, s in zip(mp, charges)], (lo, hi))
    return {"window": [lo, hi], "lines": art.split("\n")}, art


def _cmd_act_e(a):
    return {"charges": act_charge_e(a.word, parse_charges(a.charges), a.l)}


def _cmd_act_l(a):
    return {"charges": act_charge_l(parse_charges(a.charges), a.word, a.e)}


def _cmd_psi(a):
    mp, charges = psi(parse_mp(a.mp), parse_charges(a.charges), a.word, a.e)
    return {"mp": mp, "charges": charges}


def _cmd_sigma(a):
    mp = sigma_ordinary(a.i, parse_mp(a.mp), parse_charges(a.charges), a.e)
    return {"mp": mp}


def _cmd_star(a):
    mp = sigma_star(a.i, parse_mp(a.mp), parse_charges(a.charges), a.e)
    return {"mp": mp}


def _cmd_duality_check(a):
    mp, charges = parse_mp(a.mp), parse_charges(a.charges)
    star = sigma_star(a.i, mp, charges, a.e)
    transport = duality_transport(a.i, mp, charges, a.e)
    return {
        "star": star,
        "transport": transport,
        "agree": star == transport,
    }


def _cmd_block(a):
    return block_id(parse_mp(a.mp), parse_charges(a.charges), a.e)._asdict()


def _cmd_blocks(a):
    decomposition = blocks_of(a.n, parse_charges(a.charges), a.e)
    payload = [
        {"block": b._asdict(), "members": members}
        for b, members in decomposition.items()
    ]
    if a.json:
        return payload
    lines = []
    for entry in payload:
        lines.append(f"block: {_text_value(entry['block'])}")
        for mp in entry["members"]:
            lines.append("  " + _text_value(mp))
    return payload, "\n".join(lines)


def _cmd_uglov_set(a):
    members = sorted(uglov_set(parse_charges(a.charges), a.e, a.n))
    payload = {"size": len(members), "members": members}
    if a.json:
        return payload
    lines = [f"size: {len(members)}"]
    lines.extend(map(_text_value, members))
    return payload, "\n".join(lines)


def _mk_block(core_text, weight, e, l):
    core = parse_charges(core_text)
    return BlockId(core, weight, e, l, sum(core))


def _cmd_scopes(a):
    b = _mk_block(a.core, a.weight, a.e, a.l)
    return {"scopes": is_scopes(b, a.i, a.l)}


def _cmd_block_act(a):
    b = _mk_block(a.core, a.weight, a.e, a.l)
    return block_action(a.word, b, a.l)._asdict()


def _cmd_orbit_eq(a):
    b1 = _mk_block(a.core_a, a.weight_a, a.e, a.l)
    b2 = _mk_block(a.core_b, a.weight_b, a.e, a.l)
    return {"equivalent": orbit_equivalent(b1, b2, a.l)}


def _cmd_realize(a):
    start = parse_charges(a.start)
    witness = realize_multicharge(start, parse_charges(a.target), a.e)
    g = generalized_core(witness, start, a.e)
    return {
        "witness": witness,
        "core_charges": g.core_charges,
        "weight": g.weight,
    }


def _cmd_reachable(a):
    found = sorted(reachable_multicharges(parse_charges(a.start), a.e, a.bound))
    payload = {"size": len(found), "charges": found}
    if a.json:
        return payload
    lines = [f"size: {len(found)}"]
    lines.extend(map(_text_value, found))
    return payload, "\n".join(lines)


def _flag(name, **kwargs):
    return name, kwargs


_f_e = _flag("--e", type=int, required=True, help="modulus (at least 2)")
_f_l = _flag("--l", type=int, required=True, help="level")
_f_m = _flag("--m", type=int, default=0, help="charge of the partition (default 0)")
_f_i = _flag("--i", type=int, required=True, help="residue")
_f_n = _flag("--n", type=int, required=True, help="total size")
_f_partition = _flag("--partition", required=True, help="partition, e.g. 6,3,2,1,1")
_f_mp = _flag("--mp", required=True, help="multipartition, e.g. 3,1|2,1")
_f_charges = _flag("--charges", required=True, help="charge tuple, e.g. 0,-1,1")
_f_word = _flag("--word", required=True, help="group word, e.g. 's1 t T'")
_f_weight = _flag("--weight", type=int, default=0, help="block weight (default 0)")
_f_core = _flag("--core", required=True, help="core charge tuple")
_f_start = _flag("--start", required=True, help="starting charge tuple")

# One (name, handler, help text, flags) row per subcommand, in --help order.
_COMMANDS = (
    ("core", _cmd_core, "e-core data of a charged partition", (_f_partition, _f_m, _f_e)),
    ("quotient", _cmd_quotient, "e-quotient and core charges of a charged partition",
     (_f_partition, _f_m, _f_e)),
    ("uglov", _cmd_uglov, "level-l decomposition of a charged partition",
     (_f_partition, _f_m, _f_e, _f_l)),
    ("from-quotient", _cmd_from_quotient,
     "rebuild the charged partition from an e-quotient and core charges",
     (_flag("--quotient", required=True, help="e-quotient, e.g. 2,1|2|2,1,1"), _f_charges)),
    ("transpose", _cmd_transpose, "level-rank transpose of a charged multipartition",
     (_f_mp, _f_charges, _f_e)),
    ("gencore", _cmd_gencore, "generalized e-core, core charges and weight",
     (_f_mp, _f_charges, _f_e)),
    ("weight", _cmd_weight, "generalized-core weight", (_f_mp, _f_charges, _f_e)),
    ("iscore", _cmd_iscore, "test whether the multipartition is a core", (_f_mp, _f_charges, _f_e)),
    ("nodes", _cmd_nodes, "addable/removable i-nodes, signature and good nodes",
     (_f_mp, _f_charges, _f_e, _f_i)),
    ("render", _cmd_render, "draw the abacus of a charged multipartition",
     (_f_mp, _f_charges,
      _flag("--window", help="position window lo:hi (default: around the beads)"))),
    ("act-e", _cmd_act_e, "left action of a group word on an e-charge tuple",
     (_f_word, _f_charges, _f_l)),
    ("act-l", _cmd_act_l, "right action of a group word on an l-charge tuple",
     (_f_word, _f_charges, _f_e)),
    ("psi", _cmd_psi, "component-level action of a group word on a charged multipartition",
     (_f_word, _f_mp, _f_charges, _f_e)),
    ("sigma", _cmd_sigma, "toggle all addable and removable i-nodes",
     (_f_i, _f_mp, _f_charges, _f_e)),
    ("star", _cmd_star, "crystal-side involution at residue i", (_f_i, _f_mp, _f_charges, _f_e)),
    ("duality-check", _cmd_duality_check,
     "compare the crystal-side involution with its transpose-side transport",
     (_f_i, _f_mp, _f_charges, _f_e)),
    ("block", _cmd_block, "block label of a charged multipartition", (_f_mp, _f_charges, _f_e)),
    ("blocks", _cmd_blocks, "decompose all multipartitions of size n into blocks",
     (_f_n, _f_charges, _f_e)),
    ("uglov-set", _cmd_uglov_set, "multipartitions of size n reachable by adding good nodes",
     (_f_charges, _f_e, _f_n)),
    ("scopes", _cmd_scopes, "charge-gap test for blocks without addable i-nodes",
     (_f_core, _f_weight, _f_e, _f_l, _f_i)),
    ("block-act", _cmd_block_act, "act on a block label by a group word",
     (_f_word, _f_core, _f_weight, _f_e, _f_l)),
    ("orbit-eq", _cmd_orbit_eq, "whether two block labels lie in one orbit of the swap generators",
     (_flag("--core-a", required=True, help="first core charge tuple"),
      _flag("--core-b", required=True, help="second core charge tuple"),
      _flag("--weight-a", type=int, default=0, help="first block weight (default 0)"),
      _flag("--weight-b", type=int, default=0, help="second block weight (default 0)"),
      _f_e, _f_l)),
    ("realize", _cmd_realize, "multipartition charged at start whose core charges equal target",
     (_f_start, _flag("--target", required=True, help="target core charge tuple"), _f_e)),
    ("reachable", _cmd_reachable, "core charge tuples of all multipartitions up to a size bound",
     (_f_start, _f_e,
      _flag("--bound", type=int, required=True, help="largest multipartition size"))),
)
_NAMES = frozenset(name for name, *_ in _COMMANDS)


def _add_command(parser, handler, flags):
    for flag, kwargs in flags:
        parser.add_argument(flag, **kwargs)
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.set_defaults(handler=handler)
    return parser


@lru_cache(maxsize=None)
def _build_parser(command=None):
    """`command`'s own parser, or the full parser with every subcommand
    attached when `command` is None.  A command's parser is the one the full
    parser would hand its arguments to: the same prog ("abacore NAME"),
    description and flags.  Keys are None and the table's names, and
    argparse does not mutate a parser while parsing, so each of these is
    built once per process and reused."""
    if command is not None:
        _, handler, help_text, flags = next(row for row in _COMMANDS if row[0] == command)
        parser = _Parser(prog=f"abacore {command}", description=help_text)
        return _add_command(parser, handler, flags)
    parser = _Parser(prog="abacore", description="Command-line front end.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, handler, help_text, flags in _COMMANDS:
        _add_command(sub.add_parser(name, help=help_text, description=help_text), handler, flags)
    return parser


@lru_cache(maxsize=len(_COMMANDS))
def _plain_spec(command):
    """What `command`'s parser knows, read off its table row: each flag's
    dest and type, the names of the required flags, and the namespace
    argparse starts from (each dest's default, None where the row gives
    none, plus json=False and the handler)."""
    _, handler, _, flags = next(row for row in _COMMANDS if row[0] == command)
    dests, defaults = {}, {}
    for flag, kwargs in flags:
        dest = flag.lstrip("-").replace("-", "_")
        dests[flag] = dest, kwargs.get("type")
        defaults[dest] = kwargs.get("default")
    defaults.update(json=False, handler=handler)
    required = frozenset(flag for flag, kwargs in flags if kwargs.get("required"))
    return dests, required, defaults


def _plain_parse(argv):
    """The namespace `argv[0]`'s parser would build from `argv[1:]`, when
    every later token is --json or an exact flag name of that command
    followed by one value, no flag repeats, a value starts with "-" only
    where _merge_negative_values would join it, every int value converts
    and every required flag is given; None for any other argv, which then
    goes through argparse.  So this reader can decline but never disagree."""
    dests, required, defaults = _plain_spec(argv[0])
    values = dict(defaults)
    seen = set()
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
        if tok not in dests or pos + 1 == end:
            return None
        value = argv[pos + 1]
        if value[:1] == "-" and not (len(value) == 1 or value[1].isdigit() or value[1] in ",|"):
            return None
        dest, kind = dests[tok]
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[dest] = value
        pos += 2
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


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
    """run without the memo, for a tuple of strings.

    A plain call of a subcommand (exact `--flag value` pairs and `--json`)
    is read straight off the command table by _plain_parse.  Any other argv
    goes through argparse, which alone gives help text and usage errors."""
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
    try:
        result = args.handler(args)
    except UsageError as exc:
        return 1, str(exc)
    except ValueError as exc:
        return 2, str(exc)
    payload, text = result if isinstance(result, tuple) else (result, None)
    if args.json:
        return 0, json.dumps(payload, separators=(",", ":"))
    if text is None:
        text = _text_lines(payload)
    return 0, text


def main(argv=None):
    code, text = run(sys.argv[1:] if argv is None else argv)
    if text:
        print(text)
    return code
