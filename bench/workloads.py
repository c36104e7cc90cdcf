"""The three benchmark workloads, as op streams with their output checks.

Each workload is a generator function ``ops(ab, rng, check, shift)``.  It
yields ``(name, args)``: one call of the public function ``name``, looked up
at call time in the workload's namespace (``NAMESPACE``).  The harness times
that call alone and sends its result back into the generator, which checks it
against an independent route through the library before yielding the next
op.  Checks and input generation therefore run outside the timed region.

``ab`` is the ``abacore`` package; the harness keeps tracing off while the
generator runs, so checks and input generation leave no spans.  ``check``
collects failures.  ``shift`` (FRESH_KEYS_SHIFT) moves every charge tuple of
the enumerate sweep by a multiple of each modulus in it, which gives fresh
cache keys for exactly the same work; the other workloads ignore it.

Why these three (see BENCHMARK.json for the one-line reasons):

* cli-mix: scripted lookups through ``abacore.cli.run``; the argparse front
  end dominates and a share of requests repeat.
* enumerate: a research sweep of thousands of tiny library calls, where
  validation, beta windows, signatures and caches dominate.
* large: a few calls on big inputs over a size ladder, where cost per bead
  and per crystal move dominates; no input repeats.
"""

import itertools
import json
import math

NAMESPACE = {"cli-mix": "abacore.cli", "enumerate": "abacore", "large": "abacore"}


class Raised:
    """Stands in for the result of an op that raised."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"Raised({type(self.exc).__name__}: {self.exc})"


class Check:
    """Counts failed checks and keeps the first few messages."""

    def __init__(self):
        self.failed = 0
        self.messages = []

    def expect(self, ok, what):
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(str(what)[:300])
        return ok


def mp_size(mp):
    return sum(sum(c) for c in mp)


# ---------------------------------------------------------------- inputs


def rand_partition(rng, n):
    """A partition of exactly n: each part uniform up to the last one."""
    parts, left = [], n
    while left:
        part = rng.randint(1, min(left, parts[-1] if parts else left))
        parts.append(part)
        left -= part
    return tuple(parts)


def square_partition(rng, size):
    """A partition of about `size` cells with about sqrt(2 size) rows."""
    r = max(1, int(math.sqrt(2 * size)))
    return tuple(sorted((rng.randint(1, r) for _ in range(r)), reverse=True))


def closed_charges(rng, l, e, lo=0, spread=None):
    """Weakly increasing l-tuple starting at lo with spread at most `spread`."""
    spread = e if spread is None else spread
    return (lo,) + tuple(lo + x for x in sorted(rng.randint(0, spread) for _ in range(l - 1)))


def closed_domain(l, e, m):
    """Every closed-domain l-tuple of sum m."""
    lo, hi = m // l - e - 1, m // l + e + 1
    return [
        t
        for t in itertools.product(range(lo, hi + 1), repeat=l)
        if sum(t) == m and all(a <= b for a, b in zip(t, t[1:])) and t[-1] - t[0] <= e
    ]


def rand_word(rng, rank, length):
    return " ".join(rng.choice(["t", "T"] + [f"s{c}" for c in range(rank)]) for _ in range(length))


def long_signature_mp(rng, k, l, e, i, charges):
    """An l-multipartition with about k removable i-nodes and no other i-nodes
    except at most one addable node per component.

    Row a of component j ends at p_a = c + a + e*d_a with d strictly
    decreasing, so every row has a removable node of content congruent to i.
    """
    mp = []
    for j in range(l):
        rows = max(1, k // l)
        c = (i - charges[j]) % e
        d, parts = 0, []
        for a in range(rows, 0, -1):
            d += rng.randint(1, 2)
            parts.append(c + a + e * d)
        mp.append(tuple(reversed(parts)))
    return tuple(mp)


# ------------------------------------------------------------- cli-mix

CLI_POOL = 2000  # requests generated up front; the stream draws from them at random
CLI_DOMAIN_ERRORS = 0.04  # out-of-domain requests, exit 2
CLI_USAGE_ERRORS = 0.03  # malformed requests, exit 1


def _p(p):
    return [int(x) for x in p]


def _mp(mp):
    return [_p(c) for c in mp]


def _node(n):
    return None if n is None else {"row": n.row, "col": n.col, "comp": n.comp}


def _block(b):
    return {"core_multicharge": _p(b.core_multicharge), "weight": b.weight, "e": b.e, "l": b.l, "m": b.m}


def _fmt_p(p):
    return ",".join(map(str, p)) or "-"


def _fmt_mp(mp):
    return "|".join(_fmt_p(c) for c in mp)


def _fmt_s(s):
    return ",".join(map(str, s))


def _cli_request(ab, rng):
    """One request: (argv, expect), where expect() gives the library's answer
    in the CLI's JSON shape or raises the library's ValueError."""
    cmd = rng.choice(CLI_COMMANDS)
    e = rng.randint(2, 4)
    l = rng.randint(1, 3)
    s = closed_charges(rng, l, e, lo=rng.randint(-2, 2))
    mp = tuple(rand_partition(rng, rng.randint(0, 4)) for _ in range(l))
    p = rand_partition(rng, rng.randint(0, 10))
    m = rng.randint(-3, 3)
    i = rng.randrange(e)
    if rng.random() < CLI_DOMAIN_ERRORS:
        cmd = rng.choice(("core", "quotient", "star", "gencore", "weight", "iscore", "block"))
        if cmd in ("core", "quotient", "star") or l == 1:
            e, i = 1, 0  # the modulus must be at least 2
        else:
            s = (s[0] - e - 1,) + s[1:]  # spread above e: outside the domain
    argv, expect = _CLI_BUILD[cmd](ab, rng, e, l, s, mp, p, m, i)
    argv = [cmd] + argv + ["--json"]
    if rng.random() < CLI_USAGE_ERRORS:
        argv = _malformed(rng, argv)
        expect = None
    return tuple(argv), expect


def _malformed(rng, argv):
    kind = rng.randrange(3)
    if kind == 0:
        return argv[:1] + ["--no-such-flag", "1"] + argv[1:]
    if kind == 1:
        return argv[:1] + argv[3:]  # drop the first flag and its value
    return argv[:-1] + ["--e", "x", "--json"]


def _b_core(ab, rng, e, l, s, mp, p, m, i):
    def expect():
        d = ab.core_data(p, m, e)
        return {"core_multicharge": _p(d.core_multicharge), "core_partition": _p(d.core_partition), "weight": d.weight}

    return ["--partition", _fmt_p(p), "--m", str(m), "--e", str(e)], expect


def _b_quotient(ab, rng, e, l, s, mp, p, m, i):
    def expect():
        q, c = ab.tau_e(p, m, e)
        return {"quotient": _mp(q), "core_multicharge": _p(c)}

    return ["--partition", _fmt_p(p), "--m", str(m), "--e", str(e)], expect


def _b_uglov(ab, rng, e, l, s, mp, p, m, i):
    def expect():
        q, c = ab.tau_l(p, m, e, l)
        return {"mp": _mp(q), "charges": _p(c)}

    return ["--partition", _fmt_p(p), "--m", str(m), "--e", str(e), "--l", str(l)], expect


def _b_from_quotient(ab, rng, e, l, s, mp, p, m, i):
    quotient = tuple(rand_partition(rng, rng.randint(0, 3)) for _ in range(e))
    charges = tuple(rng.randint(-2, 2) for _ in range(e))

    def expect():
        q, n = ab.tau_e_inverse(quotient, charges)
        return {"partition": _p(q), "m": n}

    return ["--quotient", _fmt_mp(quotient), "--charges", _fmt_s(charges)], expect


def _b_transpose(ab, rng, e, l, s, mp, p, m, i):
    def expect():
        mp_e, s_e = ab.level_rank_transpose(mp, s, e)
        return {"mp": _mp(mp_e), "charges": _p(s_e)}

    return ["--mp", _fmt_mp(mp), "--charges", _fmt_s(s), "--e", str(e)], expect


def _b_gencore(ab, rng, e, l, s, mp, p, m, i):
    def expect():
        g = ab.generalized_core(mp, s, e)
        return {"core_mp": _mp(g.core_mp), "core_charges": _p(g.core_charges), "weight": g.weight}

    return ["--mp", _fmt_mp(mp), "--charges", _fmt_s(s), "--e", str(e)], expect


def _b_weight(ab, rng, e, l, s, mp, p, m, i):
    return ["--mp", _fmt_mp(mp), "--charges", _fmt_s(s), "--e", str(e)], lambda: {
        "weight": ab.generalized_core(mp, s, e).weight
    }


def _b_iscore(ab, rng, e, l, s, mp, p, m, i):
    return ["--mp", _fmt_mp(mp), "--charges", _fmt_s(s), "--e", str(e)], lambda: {
        "is_core": ab.is_core(mp, s, e)
    }


def _b_nodes(ab, rng, e, l, s, mp, p, m, i):
    def expect():
        add, rem = ab.boundary_nodes(mp, s, e, i)
        sig = ab.i_signature(mp, s, e, i)
        return {
            "addable": [_node(n) for n in add],
            "removable": [_node(n) for n in rem],
            "word": sig.word,
            "reduced": sig.reduced_word,
            "good_addable": _node(sig.good_addable),
            "good_removable": _node(sig.good_removable),
        }

    return ["--mp", _fmt_mp(mp), "--charges", _fmt_s(s), "--e", str(e), "--i", str(i)], expect


def _b_render(ab, rng, e, l, s, mp, p, m, i):
    lo = min(s) - rng.randint(3, 6)
    hi = max(s) + rng.randint(3, 6)

    def expect():
        art = ab.render_abacus([ab.Symbol(c, x) for c, x in zip(mp, s)], (lo, hi))
        return {"window": [lo, hi], "lines": art.split("\n")}

    return ["--mp", _fmt_mp(mp), "--charges", _fmt_s(s), "--window", f"{lo}:{hi}"], expect


def _b_act_e(ab, rng, e, l, s, mp, p, m, i):
    charges = tuple(rng.randint(-3, 3) for _ in range(e))
    word = rand_word(rng, e, rng.randint(1, 5))
    return ["--word", word, "--charges", _fmt_s(charges), "--l", str(l)], lambda: {
        "charges": _p(ab.act_charge_e(word, charges, l))
    }


def _b_act_l(ab, rng, e, l, s, mp, p, m, i):
    word = rand_word(rng, l, rng.randint(1, 5))
    return ["--word", word, "--charges", _fmt_s(s), "--e", str(e)], lambda: {
        "charges": _p(ab.act_charge_l(s, word, e))
    }


def _b_psi(ab, rng, e, l, s, mp, p, m, i):
    word = rand_word(rng, l, rng.randint(1, 4))

    def expect():
        q, c = ab.psi(mp, s, word, e)
        return {"mp": _mp(q), "charges": _p(c)}

    return ["--word", word, "--mp", _fmt_mp(mp), "--charges", _fmt_s(s), "--e", str(e)], expect


def _b_sigma(fn, key):
    def build(ab, rng, e, l, s, mp, p, m, i):
        return ["--i", str(i), "--mp", _fmt_mp(mp), "--charges", _fmt_s(s), "--e", str(e)], lambda: {
            key: _mp(getattr(ab, fn)(i, mp, s, e))
        }

    return build


def _b_duality(ab, rng, e, l, s, mp, p, m, i):
    def expect():
        star = ab.sigma_star(i, mp, s, e)
        transport = ab.duality_transport(i, mp, s, e)
        return {"star": _mp(star), "transport": _mp(transport), "agree": star == transport}

    return ["--i", str(i), "--mp", _fmt_mp(mp), "--charges", _fmt_s(s), "--e", str(e)], expect


def _b_block(ab, rng, e, l, s, mp, p, m, i):
    return ["--mp", _fmt_mp(mp), "--charges", _fmt_s(s), "--e", str(e)], lambda: _block(
        ab.block_id(mp, s, e)
    )


def _b_blocks(ab, rng, e, l, s, mp, p, m, i):
    n = rng.randint(0, 4 if l < 3 else 3)

    def expect():
        return [
            {"block": _block(b), "members": [_mp(x) for x in members]}
            for b, members in ab.blocks_of(n, s, e).items()
        ]

    return ["--n", str(n), "--charges", _fmt_s(s), "--e", str(e)], expect


def _b_uglov_set(ab, rng, e, l, s, mp, p, m, i):
    n = rng.randint(0, 4)

    def expect():
        members = sorted(ab.uglov_set(s, e, n))
        return {"size": len(members), "members": [_mp(x) for x in members]}

    return ["--charges", _fmt_s(s), "--e", str(e), "--n", str(n)], expect


def _block_args(rng, e):
    core = tuple(rng.randint(-3, 3) for _ in range(e))
    return core, rng.randint(0, 3)


def _b_scopes(ab, rng, e, l, s, mp, p, m, i):
    core, w = _block_args(rng, e)
    b = ab.BlockId(core, w, e, l, sum(core))
    return ["--core", _fmt_s(core), "--weight", str(w), "--e", str(e), "--l", str(l), "--i", str(i)], lambda: {
        "scopes": ab.is_scopes(b, i, l)
    }


def _b_block_act(ab, rng, e, l, s, mp, p, m, i):
    core, w = _block_args(rng, e)
    word = rand_word(rng, e, rng.randint(1, 4))
    b = ab.BlockId(core, w, e, l, sum(core))
    args = ["--word", word, "--core", _fmt_s(core), "--weight", str(w), "--e", str(e), "--l", str(l)]
    return args, lambda: _block(ab.block_action(word, b, l))


def _b_orbit_eq(ab, rng, e, l, s, mp, p, m, i):
    core_a, w = _block_args(rng, e)
    core_b = list(core_a)
    rng.shuffle(core_b)
    core_b = tuple(core_b)
    b1 = ab.BlockId(core_a, w, e, l, sum(core_a))
    b2 = ab.BlockId(core_b, w, e, l, sum(core_b))
    args = ["--core-a", _fmt_s(core_a), "--core-b", _fmt_s(core_b), "--weight-a", str(w), "--weight-b", str(w)]
    return args + ["--e", str(e), "--l", str(l)], lambda: {"equivalent": ab.orbit_equivalent(b1, b2, l)}


def _b_realize(ab, rng, e, l, s, mp, p, m, i):
    target = rng.choice(closed_domain(l, e, sum(s)))

    def expect():
        witness = ab.realize_multicharge(s, target, e)
        g = ab.generalized_core(witness, s, e)
        return {"witness": _mp(witness), "core_charges": _p(g.core_charges), "weight": g.weight}

    return ["--start", _fmt_s(s), "--target", _fmt_s(target), "--e", str(e)], expect


def _b_reachable(ab, rng, e, l, s, mp, p, m, i):
    bound = rng.randint(0, 3)

    def expect():
        found = sorted(ab.reachable_multicharges(s, e, bound))
        return {"size": len(found), "charges": [_p(c) for c in found]}

    return ["--start", _fmt_s(s), "--e", str(e), "--bound", str(bound)], expect


_CLI_BUILD = {
    "core": _b_core,
    "quotient": _b_quotient,
    "uglov": _b_uglov,
    "from-quotient": _b_from_quotient,
    "transpose": _b_transpose,
    "gencore": _b_gencore,
    "weight": _b_weight,
    "iscore": _b_iscore,
    "nodes": _b_nodes,
    "render": _b_render,
    "act-e": _b_act_e,
    "act-l": _b_act_l,
    "psi": _b_psi,
    "sigma": _b_sigma("sigma_ordinary", "mp"),
    "star": _b_sigma("sigma_star", "mp"),
    "duality-check": _b_duality,
    "block": _b_block,
    "blocks": _b_blocks,
    "uglov-set": _b_uglov_set,
    "scopes": _b_scopes,
    "block-act": _b_block_act,
    "orbit-eq": _b_orbit_eq,
    "realize": _b_realize,
    "reachable": _b_reachable,
}
CLI_COMMANDS = sorted(_CLI_BUILD)


def _check_cli(check, argv, expect, result):
    if isinstance(result, Raised) or not isinstance(result, tuple):
        return check.expect(False, (argv, result))
    code, text = result
    if expect is None:
        return check.expect(code == 1 and text.startswith("abacore"), (argv, code, text))
    try:
        want = expect()
    except ValueError as exc:
        return check.expect((code, text) == (2, str(exc)), (argv, code, text, exc))
    return check.expect(code == 0 and json.loads(text) == want, (argv, code, text))


def cli_mix(ab, rng, check, shift=0):
    # A fixed pool keeps the live heap, and so the garbage collector's pauses,
    # the same size all run; draws from it repeat some requests.
    pool = [_cli_request(ab, rng) for _ in range(CLI_POOL)]
    while True:
        argv, expect = rng.choice(pool)
        result = yield "run", (list(argv),)
        _check_cli(check, argv, expect, result)


# ------------------------------------------------------------ enumerate


def _strict_patterns(e, l):
    out = []
    for steps in itertools.product(range(e), repeat=l - 1):
        s = list(itertools.accumulate((0,) + steps))
        if s[-1] < e:
            out.append(tuple(s))
    return out


SWEEP_GRID = [(e, l, base) for e in (2, 3, 4) for l in (1, 2, 3) for base in _strict_patterns(e, l)]
SWEEP_DEPTH = {1: 8, 2: 6, 3: 4}  # largest Uglov layer per level
SWEEP_STAR_SAMPLES = 3  # members per layer sent through sigma_star and its transport
SWEEP_SCOPES_BLOCKS = 4  # blocks of weight <= 2 per task checked by both Scopes routes
SWEEP_REACH = 2  # size bound of reachable_multicharges
SWEEP_SUMMARY = 8  # size of the 2-multipartitions put into blocks once per pass


def _count_multipartitions(n, l):
    """Number of l-multipartitions of n, from the partition numbers alone."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    counts = [1] + [0] * n
    for _ in range(l):
        counts = [sum(counts[j] * p[k - j] for j in range(k + 1)) for k in range(n + 1)]
    return counts[n]


FRESH_KEYS_SHIFT = 1200  # a multiple of every modulus in the sweep, and far beyond its own shifts


def enumerate_sweep(ab, rng, check, shift=0):
    # Pass n moves every charge tuple by e * (0, 1, -1, 2, -2, ...)[n]: the
    # work is the same on every pass, uglov_set's cache keys never repeat, and
    # the charges stay small.
    for n in itertools.count():
        step = (n + 1) // 2 * (1 if n % 2 else -1)
        grid = list(SWEEP_GRID)
        rng.shuffle(grid)
        for e, l, base in grid:
            ch = tuple(b + e * step + shift for b in base)
            yield from _sweep_task(ab, rng, check, e, l, ch)
        # One larger classification per pass, of near-constant cost: it fills
        # the latency tail, which would otherwise hold the machine's hiccups.
        e = (2, 3, 4)[n % 3]
        ch = (e * step + shift, e * step + shift + 1)
        decomposition = yield "blocks_of", (SWEEP_SUMMARY, ch, e)
        _check_blocks(ab, rng, check, SWEEP_SUMMARY, ch, e, decomposition)


def _check_blocks(ab, rng, check, n, ch, e, decomposition):
    if check.expect(isinstance(decomposition, dict), ("blocks_of", n, ch, e, decomposition)):
        total = sum(len(x) for x in decomposition.values())
        check.expect(total == _count_multipartitions(n, len(ch)), ("blocks_of count", n, ch, e, total))
        for b, x in decomposition.items():
            check.expect(ab.block_id(rng.choice(x), ch, e) == b, ("blocks_of member", ch, e, b))


def _sweep_task(ab, rng, check, e, l, ch):
    depth = SWEEP_DEPTH[l]
    blocks = set()
    for n in range(depth + 1):
        members = yield "uglov_set", (ch, e, n)
        ok = check.expect(
            isinstance(members, frozenset) and all(len(x) == l and mp_size(x) == n for x in members),
            ("uglov_set", ch, e, n, members),
        )
        members = sorted(members) if ok else []
        for mp in members:
            b = yield "block_id", (mp, ch, e)
            mp_e, s_e = ab.level_rank_transpose(mp, ch, e)
            check.expect(
                not isinstance(b, Raised) and b == (s_e, mp_size(mp_e), e, l, sum(ch)),
                ("block_id", mp, ch, e, b),
            )
            if not isinstance(b, Raised):
                blocks.add(b)
        for mp in rng.sample(members, min(SWEEP_STAR_SAMPLES, len(members))):
            i = rng.randrange(e)
            star = yield "sigma_star", (i, mp, ch, e)
            transport = yield "duality_transport", (i, mp, ch, e)
            check.expect(star == transport, ("sigma_star", i, mp, ch, e, star, transport))
    decomposition = yield "blocks_of", (depth - 1, ch, e)
    _check_blocks(ab, rng, check, depth - 1, ch, e, decomposition)
    light = sorted((b for b in blocks if b.weight <= 2), key=lambda b: (b.weight, b.core_multicharge))
    for b in rng.sample(light, min(SWEEP_SCOPES_BLOCKS, len(light))):
        for i in range(e):
            fast = yield "is_scopes", (b, i, l)
            slow = yield "is_scopes_exhaustive", (b, i, l)
            check.expect(fast == slow and isinstance(fast, bool), ("is_scopes", b, i, fast, slow))
    found = yield "reachable_multicharges", (ch, e, SWEEP_REACH)
    if check.expect(isinstance(found, frozenset) and ch in found, ("reachable", ch, e, found)):
        for t in rng.sample(sorted(found), min(2, len(found))):
            witness = ab.realize_multicharge(ch, t, e)
            check.expect(
                ab.generalized_core(witness, ch, e).core_charges == t and mp_size(witness) <= SWEEP_REACH,
                ("reachable target", ch, e, t),
            )


# ---------------------------------------------------------------- large

LARGE_WEIGHTS = (500, 1000, 2000, 3500)  # generalized-core weight per rung
LARGE_KERNEL_INPUTS = 12  # inputs per rung through the per-bead kernels; the first also gets generalized_core
LARGE_SIGNATURES = (20, 40, 60, 100)  # removable i-nodes per sigma_star input
LARGE_MODULI = (2, 3, 4, 5)
LARGE_SHAPES = tuple(itertools.product(LARGE_MODULI, (2, 3)))  # (e, l), taken in rotation
LARGE_CORE_SHAPES = ((5, 3), (4, 2), (3, 3), (2, 3))  # (e, l) of each rung's generalized_core input


def large_core_input(ab, rng, weight, e, l):
    """A charged multipartition whose weight is within 5% of `weight`: each
    draw's size is rescaled by the weight the last one had."""
    ch = closed_charges(rng, l, e, lo=rng.randint(-50, 50), spread=e - 1)
    size = weight
    for _ in range(100):
        mp = tuple(square_partition(rng, size // l) for _ in range(l))
        got = mp_size(ab.level_rank_transpose(mp, ch, e)[0])
        if abs(got - weight) <= weight // 20:
            break
        size = max(l, size * weight // max(got, 1))
    return mp, ch, e, l


def large_signature_input(rng, k, e, l):
    ch = closed_charges(rng, l, e, lo=rng.randint(-50, 50), spread=e - 1)
    i = rng.randrange(e)
    return i, long_signature_mp(rng, k, l, e, i, ch), ch, e


def large(ab, rng, check, shift=0):
    # Shapes rotate and generalized_core keeps one shape per rung, so neither
    # the mix nor the latency tail (the top rung's generalized_core) depends
    # on the seed beyond the random partitions themselves.
    turn = rng.randrange(len(LARGE_SHAPES))
    while True:
        turn += 1
        for r, weight in enumerate(LARGE_WEIGHTS):
            for n in range(LARGE_KERNEL_INPUTS):
                e, l = LARGE_CORE_SHAPES[r] if n == 0 else LARGE_SHAPES[(turn + r + n) % len(LARGE_SHAPES)]
                yield from _large_core_ops(ab, check, n == 0, *large_core_input(ab, rng, weight, e, l))
        for r, k in enumerate(LARGE_SIGNATURES):
            e, l = LARGE_SHAPES[(turn + r) % len(LARGE_SHAPES)]
            i, mp, ch, e = large_signature_input(rng, k, e, l)
            star = yield "sigma_star", (i, mp, ch, e)
            check.expect(star == ab.duality_transport(i, mp, ch, e), ("sigma_star", i, ch, e, k))


def _large_core_ops(ab, check, with_core, mp, ch, e, l):
    tr = yield "level_rank_transpose", (mp, ch, e)
    weight = mp_size(tr[0])
    b = yield "block_id", (mp, ch, e)
    check.expect(b == (tr[1], weight, e, l, sum(ch)), ("block_id", ch, e, b))
    core_a = yield "is_core", (mp, ch, e)
    core_b = yield "is_core_nodewise", (mp, ch, e)
    check.expect(core_a == core_b == (weight == 0), ("is_core", ch, e, core_a, core_b))
    p, m = yield "tau_l_inverse", (mp, ch, e)
    back = yield "tau_l", (p, m, e, l)
    check.expect(back == (mp, ch), ("tau_l round trip", ch, e))
    split = yield "tau_e", (p, m, e)
    check.expect(split == tr, ("tau_e of the level split is the transpose", ch, e))
    back = yield "tau_e_inverse", split
    check.expect(back == (p, m), ("tau_e round trip", ch, e))
    if with_core:
        g = yield "generalized_core", (mp, ch, e)
        check.expect(g.weight == weight, ("generalized_core weight", ch, e, g.weight, weight))
        core_a = yield "is_core", (g.core_mp, g.core_charges, e)
        core_b = yield "is_core_nodewise", (g.core_mp, g.core_charges, e)
        check.expect(core_a is True and core_b is True, ("is_core of the core", ch, e, core_a, core_b))


WORKLOADS = {"cli-mix": cli_mix, "enumerate": enumerate_sweep, "large": large}
