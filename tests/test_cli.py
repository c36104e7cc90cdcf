"""End-to-end runs of the command line front end.

The JSON outputs are pinned byte-for-byte where the schema is part of the
contract; everything else is parsed and compared structurally.  The tests
of the plain reader, of the per-subcommand parser cache and of the answer
memo call ``cli.run`` in process; a test that compares two routes clears
the memo before each, so neither is served the other's answers.
"""

import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from abacore import cli

import cli_contract

SUBCOMMANDS = [
    "core", "quotient", "uglov", "from-quotient", "transpose", "gencore",
    "weight", "iscore", "nodes", "render", "act-e", "act-l", "psi", "sigma",
    "star", "duality-check", "block", "blocks", "uglov-set", "scopes",
    "block-act", "orbit-eq", "realize", "reachable",
]


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "abacore", *args],
        capture_output=True,
        text=True,
    )


def test_quotient_json_is_pinned():
    r = run("quotient", "--e", "3", "--m", "0", "--partition", "6,3,2,1,1", "--json")
    assert r.returncode == 0
    assert r.stdout.strip() == (
        '{"quotient":[[],[2],[1]],"core_multicharge":[0,-1,1]}'
    )


def test_cli_runs_without_docstrings():
    # -OO strips __doc__, so the parser must not read its text from there
    r = subprocess.run(
        [sys.executable, "-OO", "-m", "abacore", "quotient", "--e", "3", "--partition", "2,1"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr


def test_gencore_json_is_pinned():
    r = run("gencore", "--e", "3", "--charges", "0,0", "--mp", "3,1|2,1", "--json")
    assert r.returncode == 0
    assert r.stdout.strip() == (
        '{"core_mp":[[1],[2]],"core_charges":[-1,1],"weight":3}'
    )


def test_blocks_of_nothing():
    r = run("blocks", "--n", "0", "--e", "2", "--charges", "0", "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out == [
        {
            "block": {"core_multicharge": [0, 0], "weight": 0, "e": 2, "l": 1, "m": 0},
            "members": [[[]]],
        }
    ]


def test_core_json():
    r = run("core", "--e", "3", "--m", "0", "--partition", "6,3,2,1,1", "--json")
    assert json.loads(r.stdout) == {
        "core_multicharge": [0, -1, 1],
        "core_partition": [3, 1],
        "weight": 3,
    }


def test_core_plain_text():
    r = run("core", "--e", "2", "--m", "-1", "--partition", "3,1")
    assert r.returncode == 0
    assert r.stdout == "core_multicharge: 0,-1\ncore_partition: -\nweight: 2\n"


def test_uglov_and_from_quotient():
    r = run("uglov", "--e", "3", "--l", "2", "--m", "0", "--partition", "6,3,2,1,1", "--json")
    assert json.loads(r.stdout) == {"mp": [[3, 1], [2, 1]], "charges": [0, 0]}
    r = run("from-quotient", "--quotient", "-|2|1", "--charges", "0,-1,1", "--json")
    assert json.loads(r.stdout) == {"partition": [6, 3, 2, 1, 1], "m": 0}
    r = run("from-quotient", "--quotient", "2,1|2|2,1,1", "--charges", "0,1,-1", "--json")
    assert json.loads(r.stdout) == {"partition": [8, 5, 5, 2, 2, 2, 2, 1, 1, 1], "m": 0}


def test_transpose_weight_iscore():
    r = run("transpose", "--e", "3", "--mp", "3,1|2,1", "--charges", "0,0", "--json")
    assert json.loads(r.stdout) == {"mp": [[], [2], [1]], "charges": [0, -1, 1]}
    r = run("weight", "--e", "3", "--mp", "3,1|2,1", "--charges", "0,0", "--json")
    assert json.loads(r.stdout) == {"weight": 3}
    r = run("iscore", "--e", "3", "--mp", "1|2", "--charges", "-1,1", "--json")
    assert json.loads(r.stdout) == {"is_core": True}
    r = run("iscore", "--e", "3", "--mp", "3,1|2,1", "--charges", "0,0", "--json")
    assert json.loads(r.stdout) == {"is_core": False}


def test_nodes_json():
    r = run("nodes", "--e", "4", "--mp", "2,2|2", "--charges", "3,4", "--i", "1", "--json")
    assert json.loads(r.stdout) == {
        "addable": [{"row": 3, "col": 1, "comp": 0}, {"row": 1, "col": 3, "comp": 0}],
        "removable": [{"row": 1, "col": 2, "comp": 1}],
        "word": "ARA",
        "reduced": "A",
        "good_addable": {"row": 3, "col": 1, "comp": 0},
        "good_removable": None,
    }


def test_charge_actions():
    r = run("act-e", "--word", "t", "--charges", "0,-1,1", "--l", "2", "--json")
    assert json.loads(r.stdout) == {"charges": [3, 0, -1]}
    r = run("act-e", "--word", "s0", "--charges", "0,-1,1", "--l", "2", "--json")
    assert json.loads(r.stdout) == {"charges": [3, -1, -2]}
    r = run("act-l", "--word", "t", "--charges", "0,1", "--e", "4", "--json")
    assert json.loads(r.stdout) == {"charges": [1, 4]}
    r = run("act-l", "--word", "s1", "--charges", "0,1", "--e", "4", "--json")
    assert json.loads(r.stdout) == {"charges": [1, 0]}


def test_sigma_star_psi_duality():
    r = run("sigma", "--i", "2", "--mp", "3,2,1,1", "--charges", "0", "--e", "3", "--json")
    assert json.loads(r.stdout) == {"mp": [[2, 2, 2, 1, 1]]}
    r = run("star", "--i", "1", "--mp", "2,2|2", "--charges", "3,4", "--e", "4", "--json")
    assert json.loads(r.stdout) == {"mp": [[2, 2, 1], [2]]}
    r = run("psi", "--word", "t", "--mp", "3,1|2,1", "--charges", "0,0", "--e", "3", "--json")
    assert json.loads(r.stdout) == {"mp": [[2, 1], [3, 1]], "charges": [0, 3]}
    r = run("duality-check", "--i", "1", "--mp", "1|2", "--charges", "0,1", "--e", "2", "--json")
    assert json.loads(r.stdout) == {
        "star": [[2, 1], [3]],
        "transport": [[2, 1], [3]],
        "agree": True,
    }


def test_block_commands():
    r = run("block", "--mp", "2,1|1", "--charges", "0,1", "--e", "4", "--json")
    assert json.loads(r.stdout) == {
        "core_multicharge": [0, 2, -1, 0], "weight": 0, "e": 4, "l": 2, "m": 1,
    }
    r = run("block-act", "--word", "t", "--core", "0,1,1,-1", "--weight", "1",
            "--e", "4", "--l", "2", "--json")
    assert json.loads(r.stdout) == {
        "core_multicharge": [1, 0, 1, 1], "weight": 1, "e": 4, "l": 2, "m": 3,
    }
    r = run("orbit-eq", "--core-a", "0,1,1,-1", "--core-b", "1,0,1,-1",
            "--weight-a", "1", "--weight-b", "1", "--e", "4", "--l", "2", "--json")
    assert json.loads(r.stdout) == {"equivalent": True}
    r = run("orbit-eq", "--core-a", "0,1,1,-1", "--core-b", "1,2,0,-2",
            "--weight-a", "1", "--weight-b", "1", "--e", "4", "--l", "2", "--json")
    assert json.loads(r.stdout) == {"equivalent": False}
    r = run("scopes", "--core", "0,1,1,-1", "--weight", "1", "--e", "4",
            "--l", "2", "--i", "1", "--json")
    assert json.loads(r.stdout) == {"scopes": True}
    r = run("scopes", "--core", "0,1,1,-1", "--weight", "1", "--e", "4",
            "--l", "2", "--i", "2", "--json")
    assert json.loads(r.stdout) == {"scopes": False}


def test_realize_and_reachable():
    r = run("realize", "--start", "0,0", "--target", "-1,1", "--e", "3", "--json")
    assert json.loads(r.stdout) == {
        "witness": [[], [1]], "core_charges": [-1, 1], "weight": 1,
    }
    r = run("reachable", "--start", "0,0", "--e", "3", "--bound", "2", "--json")
    assert json.loads(r.stdout) == {"size": 2, "charges": [[-1, 1], [0, 0]]}


def test_uglov_set_command():
    r = run("uglov-set", "--charges", "0,1", "--e", "4", "--n", "2", "--json")
    assert json.loads(r.stdout) == {
        "size": 4,
        "members": [[[], [2]], [[1], [1]], [[1, 1], []], [[2], []]],
    }


def test_render_default_window():
    r = run("render", "--mp", "3,1|2,1", "--charges", "0,0")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["-4      4", "XX.X.X...", "XX.X..X.."]


def test_render_explicit_window():
    r = run("render", "--mp", "3,1|2,1", "--charges", "0,0", "--window", "-4:5")
    assert r.stdout.splitlines() == ["-4       5", "XX.X.X....", "XX.X..X..."]


def test_render_rejects_reversed_window():
    r = run("render", "--mp", "3,1|2,1", "--charges", "0,0", "--window", "5:-4")
    assert r.returncode == 2
    assert "window must satisfy lo <= hi" in r.stdout


def test_domain_errors_exit_2():
    r = run("quotient", "--e", "1", "--m", "0", "--partition", "3")
    assert r.returncode == 2
    assert r.stdout.strip() == "the modulus e must be at least 2"
    r = run("orbit-eq", "--core-a", "0,1,1,-1", "--core-b", "1,0,1,1",
            "--weight-a", "1", "--weight-b", "1", "--e", "4", "--l", "2")
    assert r.returncode == 2
    assert r.stdout.strip() == "context mismatch"


def test_usage_errors_exit_1():
    assert run("nosuch").returncode == 1
    assert run("quotient", "--e", "3", "--m", "0").returncode == 1
    assert run("act-e", "--word", "s9", "--charges", "0,1", "--l", "2").returncode == 2


def test_every_subcommand_has_help():
    for sub in SUBCOMMANDS:
        r = run(sub, "--help")
        assert r.returncode == 0, sub
        assert r.stdout.startswith("usage:"), sub


def test_json_output_is_stable():
    args = ("blocks", "--n", "3", "--e", "2", "--charges", "0,1", "--json")
    assert run(*args).stdout == run(*args).stdout


@pytest.mark.parametrize("bad", ["x", "3,", "3,a"])
def test_malformed_partition_values(bad):
    r = run("quotient", "--e", "3", "--m", "0", "--partition", bad)
    assert r.returncode in (1, 2)
    assert r.returncode != 0


@pytest.mark.parametrize(
    "argv",
    [
        ("uglov-set", "--charges", "0,1", "--e", "2", "--n", "-2"),
        ("blocks", "--n", "-1", "--e", "2", "--charges", "0"),
        ("reachable", "--start", "0,0", "--e", "3", "--bound", "-1"),
    ],
)
def test_negative_sizes_exit_2(argv):
    r = run(*argv)
    assert r.returncode == 2
    assert "nonnegative" in r.stdout and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("block", "--mp", "1|1", "--charges", "0,1", "--e", str(10**20)),
        ("gencore", "--mp", "1|1", "--charges", "0,1", "--e", str(10**20)),
        ("realize", "--start", "0,1", "--target", "0,1", "--e", str(10**20)),
        ("render", "--mp", "1", "--charges", "0", "--window", "1:%d" % 10**20),
    ],
    ids=["block", "gencore", "realize", "render"],
)
def test_a_count_past_sys_maxsize_exits_2(argv):
    # a domain error on one line, not an OverflowError traceback
    r = run(*argv)
    assert r.returncode == 2 and r.stderr == ""
    assert r.stdout == "expected at most sys.maxsize, got 100000000000000000000\n"


@pytest.mark.parametrize("l", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("block-act", "--word", "t", "--core", "0,0", "--e", "2"),
        ("scopes", "--core", "0,0", "--weight", "0", "--e", "2", "--i", "1"),
        ("orbit-eq", "--core-a", "0,0", "--core-b", "0,0", "--weight-a", "0",
         "--weight-b", "0", "--e", "2"),
    ],
)
def test_block_levels_below_one_exit_2(argv, l):
    code, text = cli.run([*argv, "--l", l])
    assert code == 2 and "the level l must be at least 1" in text, text


def _flags(name):
    return next(row.flags for row in cli._COMMANDS if row.name == name)


def _parsing_call(name):
    """argv that parses for `name`: every required flag given the value 1."""
    argv = [name]
    for flag, kwargs, _ in _flags(name):
        if kwargs.get("required"):
            argv += [flag, "1"]
    return argv


def test_top_level_help_lists_the_table_in_order():
    code, text = cli.run(["--help"])
    assert code == 0
    listed = re.findall(r"^    (\S+)", text, re.M)
    assert listed == [name for name, *_ in cli._COMMANDS] == SUBCOMMANDS


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_cached_parser_matches_the_full_parser(name, monkeypatch):
    call = _parsing_call(name)
    first = call[1] if len(call) > 1 else "--e"
    cases = [
        [name, "--help"],
        [name],
        call + ["stray"],
        [t[:5] if t.startswith("--") else t for t in call],  # abbreviated flags
        call + [first, "2"],
        call + ["--e=3"],
        call + [first, "-3"],
        call + ["--e", "x"],
        call + ["-h"],
        call + ["--"],
        call + ["--", "--json"],
    ]
    cli._memo.clear()
    cached = [cli.run(argv) for argv in cases]
    assert [code for code, _ in cached[:3]] == [0, 1, 1]
    assert cached[1][1].startswith(f"abacore {name}: error: the following arguments are required")
    assert cached[2][1] == "abacore: error: unrecognized arguments: stray"
    assert cached[8][0] == 0 and cached[8][1].startswith(f"usage: abacore {name}")
    # with no name known, every call goes through the full parser's relay
    monkeypatch.setattr(cli, "_NAMES", frozenset())
    cli._memo.clear()
    assert [cli.run(argv) for argv in cases] == cached


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_cached_parser_keeps_no_state_between_calls(name):
    argv = _parsing_call(name) + ["--json"]
    cli._memo.clear()
    before = cli.run(argv)
    cli.run(_parsing_call(name) + ["stray"])
    cli.run([name, "--help"])
    cli._memo.clear()
    assert cli.run(argv) == before


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["act-l", "--charges", "0,1", "--e", "3", "--word", "--json"], "--word"),
        (["quotient", "--e", "3", "--partition", "--json"], "--partition"),
    ],
)
def test_a_flag_missing_its_value_does_not_take_the_next_flag(argv, flag):
    assert cli.run(argv) == (1, f"abacore {argv[0]}: error: argument {flag}: expected one argument")


def test_defaults_do_not_leak_between_calls():
    argv = ["quotient", "--e", "3", "--partition", "6,3,2,1,1", "--json"]
    cli._memo.clear()
    before = cli.run(argv)
    assert cli.run(argv[:-1] + ["--m", "2", "--json"]) != before
    cli._memo.clear()
    assert cli.run(argv) == before


def test_a_command_builds_only_its_own_parser():
    cli._memo.clear()
    cli._build_parser.cache_clear()
    # a plain call is read off the command table and builds no parser
    assert cli.run(["quotient", "--e", "3", "--partition", "2,1"])[0] == 0
    assert cli._build_parser.cache_info().currsize == 0
    assert cli.run(["quotient", "--e=3", "--partition", "2,1"])[0] == 0
    assert cli._build_parser.cache_info().currsize == 1
    assert cli.run(["quotient", "--help"])[0] == 0
    assert cli._build_parser.cache_info().currsize == 1
    assert cli.run(["--help"])[0] == 0
    assert cli._build_parser.cache_info().currsize == 2


_VALUES = ["1"] * 40 + ["3", "0,1", "1|2", "s1 t", "", " 2", "x", "2.5", "-", "-3", "-3,1",
                         "-,1", "-|1", "-x", "--json", "--e"]
_ODD = ["-h", "--help", "--", "stray", "-3", "--e=3", "--json"]


@st.composite
def _argvs(draw):
    """Argvs of one subcommand that are often plain: each flag of the row
    once, in any order, with a value from _VALUES; now and then a flag is
    dropped, repeated, abbreviated, left without its value or given in the =
    form, and an odd token is put anywhere."""
    name = draw(st.sampled_from(SUBCOMMANDS))
    argv = [name]
    forms = ["exact"] * 30 + ["drop", "repeat", "abbreviate", "bare", "equals"]
    for flag in draw(st.permutations([flag for flag, _, _ in _flags(name)] + ["--json"])):
        form = draw(st.sampled_from(forms))
        value = draw(st.sampled_from(_VALUES))
        if form == "drop":
            continue
        if flag == "--json":
            argv += [flag] * (2 if form == "repeat" else 1)
        elif form == "equals":
            argv.append(f"{flag}={value}")
        elif form == "bare":
            argv.append(flag)
        else:
            argv += [flag[:4] if form == "abbreviate" else flag, value]
            if form == "repeat":
                argv += [flag, draw(st.sampled_from(_VALUES))]
    odd = draw(st.sampled_from([None] * 20 + _ODD))
    if odd is not None:
        argv.insert(draw(st.integers(1, len(argv))), odd)
    return argv


def test_text_values_are_parsed_after_argparse_in_row_order():
    cli._memo.clear()
    # the read stage's errors come first: a missing flag, then a bad int
    assert cli.run(["block", "--mp", "x", "--charges", "0"]) == (
        1, "abacore block: error: the following arguments are required: --e")
    assert cli.run(["quotient", "--partition", "x", "--e", "y"]) == (
        1, "abacore quotient: error: argument --e: invalid int value: 'y'")
    # then the text values in row order, whatever the argv's order
    for argv in (["from-quotient", "--quotient", "x", "--charges", "y"],
                 ["from-quotient", "--charges", "y", "--quotient", "x"]):
        assert cli.run(argv) == (1, "invalid partition part: 'x'")
    assert cli.run(["orbit-eq", "--core-b", "x", "--core-a", "y", "--e", "2", "--l", "1"]) == (
        1, "invalid charge: 'y'")
    # render checks the lengths before it parses its window
    render = ["render", "--mp", "1|2", "--charges", "0", "--window", "x"]
    assert cli.run(render) == (2, "charges do not match the number of components")
    assert cli.run(render[:4] + ["0,0"] + render[5:]) == (1, "window must look like lo:hi, got 'x'")


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_plain_reader_declines_or_agrees_with_argparse(argv):
    got = cli._plain_parse(argv)
    if got is not None:
        merged = cli._merge_negative_values(argv)
        args, extras = cli._build_parser(argv[0]).parse_known_args(merged[1:])
        assert extras == [] and vars(args) == got


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_plain_calls_match_the_full_parser(name, monkeypatch):
    call = _parsing_call(name)
    optional = [t for flag, kwargs, _ in _flags(name) if not kwargs.get("required")
                for t in (flag, "1")]
    text = [flag for flag, kwargs, _ in _flags(name) if "type" not in kwargs and flag in call]
    at = call.index(text[0]) + 1  # the value of the first flag that takes text
    cases = [
        [name, "--json"] + call[1:] + optional,
        call + optional + ["--json"],
        call[:at] + ["-3,1"] + call[at + 1:],
        call[:at] + ["-"] + call[at + 1:] + ["--json"],
    ]
    assert all(cli._plain_parse(argv) is not None for argv in cases)
    cli._memo.clear()
    read = [cli.run(argv) for argv in cases]
    monkeypatch.setattr(cli, "_NAMES", frozenset())
    cli._memo.clear()
    assert [cli.run(argv) for argv in cases] == read


def _stray_call(tag, width):
    """A usage error that echoes its stray token: about 2 * width bytes kept."""
    return ("quotient", "--e", "3", "--partition", "1", f"{tag:04d}".ljust(width, "x"))


def test_memo_answers_equal_fresh_answers_on_the_pool():
    pool = cli_contract.pool_argvs(0)
    cli._memo.clear()
    first = [cli.run(argv) for argv in pool]
    again = [cli.run(argv) for argv in pool]
    # the second pass is answered from the memo: the very objects it keeps
    assert all(answer is cli._memo[argv] for argv, answer in zip(pool, again))
    assert again == first
    fresh = []
    for argv in pool:
        cli._memo.clear()
        fresh.append(cli.run(argv))
    assert fresh == first


def test_memo_keeps_its_bound_and_evicts_the_oldest_first():
    limit = cli._MEMO_BYTES
    calls = [_stray_call(tag, limit // 10) for tag in range(25)]
    entry = cli._Memo._bytes(calls[0], cli.run(calls[0])[1])
    cli._memo.clear()
    for count, argv in enumerate(calls, 1):
        code, text = cli.run(argv)
        assert code == 1 and text.endswith(argv[-1])
        assert cli._memo.size == entry * len(cli._memo) <= limit
        # the newest calls are kept, as many as fit, in the order they came
        assert list(cli._memo) == calls[:count][-(limit // entry):]
    assert 0 < len(cli._memo) < len(calls)


def test_an_answer_larger_than_the_memo_is_returned_but_not_kept():
    small = ["quotient", "--e", "3", "--partition", "2,1"]
    cli._memo.clear()
    kept = cli.run(small)
    huge = _stray_call(0, cli._MEMO_BYTES)
    code, text = cli.run(huge)
    assert code == 1 and text == f"abacore: error: unrecognized arguments: {huge[-1]}"
    assert list(cli._memo) == [tuple(small)] and cli._memo[tuple(small)] == kept


def test_help_is_never_kept_and_follows_the_terminal(monkeypatch):
    argv = ["quotient", "--help"]
    monkeypatch.setenv("COLUMNS", "50")
    narrow = cli.run(argv)
    monkeypatch.setenv("COLUMNS", "200")
    wide = cli.run(argv)
    assert narrow[0] == wide[0] == 0
    assert max(map(len, narrow[1].splitlines())) <= 50 < max(map(len, wide[1].splitlines()))
    assert tuple(argv) not in cli._memo


def test_an_exception_is_not_kept(monkeypatch):
    argv = ["duality-check", "--i", "1", "--mp", "1|2", "--charges", "0,1", "--e", "2", "--json"]

    def broken(*args):
        raise RuntimeError("duality transport changed the level charges")

    cli._memo.clear()
    monkeypatch.setattr(cli, "duality_transport", broken)
    with pytest.raises(RuntimeError):
        cli.run(argv)
    assert tuple(argv) not in cli._memo
    monkeypatch.undo()
    assert cli.run(argv) == (0, '{"star":[[2,1],[3]],"transport":[[2,1],[3]],"agree":true}')
