"""The command line's answers against the digests in cli_contract.txt.

    PYTHONPATH=src python tests/cli_contract.py [--record]

The argvs are the benchmark's cli-mix request pools of seeds 0, 1 and 2
(bench/workloads.py, imported read-only), each with and without --json,
and a fixed-seed family of irregular argvs: help, unknown commands,
abbreviated, repeated and --flag=value forms, missing values, stray tokens,
"--", bad and negative values.  Every argv's (code, text) from cli.run is
reduced to a short digest and compared with the committed file, line by
line.  Each pass runs twice in one process, so answers that cli.run serves
again from its memo are checked byte for byte too.  Help text is argparse's
layout, which follows the terminal width and moves between Python versions
(3.13 wraps it differently), so a help answer is reduced to its code and
whose help it is; COLUMNS is fixed at 80 all the same.

It prints one line per pass and exits 1 after listing the first mismatches.
--record rewrites the file instead; a change that moves an answer re-records
it and lists every moved argv.
"""

import hashlib
import importlib.util
import os
import random
import sys
from pathlib import Path

import abacore
from abacore import cli

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("workloads", HERE.parent / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

CONTRACT = HERE / "cli_contract.txt"
POOL_SEEDS = (0, 1, 2)
IRREGULAR_SEED = 17
IRREGULAR_COUNT = 3000
SHOWN_MISMATCHES = 10

_VALUES = ["1"] * 20 + ["2", "3", "0,1", "1|2", "2,1|1", "s1 t", "t", "", " 2", "x", "2.5",
                        "-", "-3", "-3,1", "-,1", "-|1", "-x", "--json", "--e", "1:3", "3:1"]
_ODD = ["-h", "--help", "--", "stray", "-3", "--e=3", "--json", "--no-such-flag"]


def pool_argvs(seed):
    """The seed's cli-mix request pool, in the order the benchmark draws it up."""
    rng = random.Random(seed)
    return [workloads._cli_request(abacore, rng)[0] for _ in range(workloads.CLI_POOL)]


def irregular_argvs(seed, count):
    """Argvs of every kind the plain reader declines, mixed with plain ones:
    each flag of a command's row once, in random order, now and then
    dropped, repeated, abbreviated, left without its value or given in the
    = form, with an odd token put anywhere; plus the fixed help and
    unknown-command calls."""
    rng = random.Random(seed)
    out = [(), ("--help",), ("-h",), ("nosuch",), ("nosuch", "--json"), ("--json",)]
    out += [(row.name, "--help") for row in cli._COMMANDS]
    forms = ["exact"] * 12 + ["drop", "repeat", "abbreviate", "bare", "equals"]
    for _ in range(count - len(out)):
        row = rng.choice(cli._COMMANDS)
        name = row.name
        tokens = [flag for flag, _, _ in row.flags] + ["--json"]
        rng.shuffle(tokens)
        argv = [name]
        for flag in tokens:
            form, value = rng.choice(forms), rng.choice(_VALUES)
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
                    argv += [flag, rng.choice(_VALUES)]
        if rng.random() < 0.3:
            argv.insert(rng.randint(1, len(argv)), rng.choice(_ODD))
        out.append(tuple(argv))
    return out


def passes():
    """(name, argvs) for each pass, in file order."""
    for seed in POOL_SEEDS:
        pool = pool_argvs(seed)
        yield f"pool {seed} --json", pool
        yield f"pool {seed} text", [tuple(t for t in argv if t != "--json") for argv in pool]
    yield f"irregular {IRREGULAR_SEED}", irregular_argvs(IRREGULAR_SEED, IRREGULAR_COUNT)


def digest(answer):
    code, text = answer
    if code == 0 and text.startswith("usage: "):
        text = text.partition(" [-h]")[0]
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:8]


def read_contract():
    recorded, name = {}, None
    for line in CONTRACT.read_text().splitlines():
        if line.startswith("["):
            name = line[1:-1]
            recorded[name] = []
        elif line and not line.startswith("#"):
            recorded[name].append(line)
    return recorded


def record():
    lines = ["# (code, text) digests of cli.run, one per argv; see tests/cli_contract.py"]
    for name, argvs in passes():
        lines.append(f"[{name}]")
        lines.extend(digest(cli.run(argv)) for argv in argvs)
    CONTRACT.write_text("\n".join(lines) + "\n")
    print(f"recorded {CONTRACT.name}")
    return 0


def main():
    os.environ["COLUMNS"] = "80"
    if sys.argv[1:] == ["--record"]:
        return record()
    recorded = read_contract()
    mismatches = 0
    for name, argvs in passes():
        want = recorded.get(name, [])
        if len(want) != len(argvs):
            print(f"{name}: {len(argvs)} argvs, but {len(want)} digests recorded")
            return 1
        for round_ in ("first", "again"):
            for argv, expected in zip(argvs, want):
                answer = cli.run(argv)
                if digest(answer) != expected:
                    mismatches += 1
                    if mismatches <= SHOWN_MISMATCHES:
                        print(f"{name} ({round_}): {list(argv)} -> {answer!r}")
        print(f"{name}: {len(argvs)} argvs checked twice")
    if mismatches:
        print(f"{mismatches} answers differ from {CONTRACT.name}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
