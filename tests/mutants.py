"""Mutation checks: each row breaks the library in one known way and names
the tests that must catch it.

    python tests/mutants.py            # every row
    python tests/mutants.py NAME ...   # the named rows only

A row is (name, module under src/abacore, exact old snippet, replacement,
node ids).  A node id that names a parametrized test without a case id is
caught when any of its cases fails.  For each row the script copies src/
to a temporary directory, replaces the snippet there, and runs pytest on
the row's node ids against the copy.  It fails when a snippet does not
occur exactly once in its module, when the listed tests do not all pass on
the unmutated copy (a failure on the mutant would then mean nothing), or
when a listed test passes on its mutant, which then survives.  The
repository itself is never edited.  A refactor that moves a snippet
re-targets its row; a row is dropped only for a mutant shown to be an
equivalent program, with the reason recorded in CHANGES.md.  Needs only
the standard library and pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLOCKS = "tests/test_blocks.py::"
CLI = "tests/test_cli.py::"
PARTITIONS = "tests/test_partitions.py::"
NODES = "tests/test_nodes.py::"
ACTIONS = "tests/test_actions.py::"
QUOTIENTS = "tests/test_quotients.py::"
CELL_ROUTE = NODES + "test_signature_matches_the_cell_route_exhaustively"
LONG = NODES + "test_long_signatures_match_the_cell_route"
STAR_MOVES = ACTIONS + "test_sigma_star_matches_the_move_oracle_exhaustively"
TOGGLES = ACTIONS + "test_sigma_toggles_the_boundary"
NON_ITERABLE = PARTITIONS + "test_non_iterable_arguments_are_value_errors"
ROW_ORDER = CLI + "test_text_values_are_parsed_after_argparse_in_row_order"
REFUSED = NODES + "test_node_and_word_helpers_refuse_bad_input_with_value_errors"
TIES = BLOCKS + "test_realize_breaks_ties_by_component_sizes_then_changes"
REGULAR_LISTS = (
    PARTITIONS + "test_regular_partition_lists_are_the_e_regular_partitions_fewest_rows_first"
)
WIDE_MAPS = QUOTIENTS + "test_maps_match_the_view_reference_on_wide_spans"
LONG_TRANSPORTS = (
    ACTIONS + "test_transport_matches_sigma_star_and_the_transpose_route_on_long_inputs"
)
CUT_MAPS = QUOTIENTS + "test_maps_match_the_view_reference_on_cut_rows"
CUT_TRANSPORTS = ACTIONS + "test_transport_matches_sigma_star_and_the_transpose_route_on_cut_rows"

MUTANTS = (
    # the Uglov set generator (blocks._flotw) and its component lists
    (
        "flotw-wrap-dropped",
        "blocks.py",
        "                if len(mp_q[0]) > len(q) + wrap or any(map(lt, q, mp_q[0][wrap:])):\n"
        "                    continue\n",
        "",
        (BLOCKS + "test_uglov_set_matches_the_filter_exhaustively",
         BLOCKS + "test_uglov_set_matches_the_crystal_exhaustively"),
    ),
    (
        # output-equivalent for uglov_set, whose (b) check rejects a part
        # repeated e times, so only the list test sees it
        "regular-multiplicity-up-to-e",
        "partitions.py",
        "for c in range(1, min(e, rest // k + 1))",
        "for c in range(1, min(e + 1, rest // k + 1))",
        (REGULAR_LISTS,),
    ),
    (
        "regular-lists-unsorted",
        "partitions.py",
        "return tuple(sorted(out, key=len))",
        "return tuple(out)",
        (BLOCKS + "test_uglov_set_matches_the_filter_exhaustively",
         REGULAR_LISTS),
    ),
    (
        "flotw-gap-off-by-one",
        "blocks.py",
        "p, d = (mp[-1], s[j] - s[j - 1]) if j else ((), n)",
        "p, d = (mp[-1], s[j] - s[j - 1] + 1) if j else ((), n)",
        (BLOCKS + "test_uglov_set_matches_the_filter_exhaustively",
         BLOCKS + "test_uglov_set_matches_the_crystal_exhaustively"),
    ),
    (
        # the threshold lowered to e - 1 only builds the residue set more
        # often, an equivalent program; raised to e + 1, a length repeated
        # exactly e times skips (b)
        "flotw-prefilter-threshold-e-plus-one",
        "blocks.py",
        "if len(lengths) >= e and max(map(lengths.count, lengths)) >= e:",
        "if len(lengths) >= e and max(map(lengths.count, lengths)) >= e + 1:",
        (BLOCKS + "test_uglov_set_matches_the_filter_exhaustively",
         BLOCKS + "test_uglov_set_matches_the_crystal_exhaustively"),
    ),
    # block labels read per call off groups of packed row tallies cached per
    # residue tuple
    (
        "blocks-column-unsorted",
        "blocks.py",
        "column = sorted((p, k, t) for k in range(n + 1) for p, t in _packed(r, k, e, width))",
        "column = list((p, k, t) for k in range(n + 1) for p, t in _packed(r, k, e, width))",
        (BLOCKS + "test_blocks_of_matches_the_label_oracle_exhaustively",),
    ),
    (
        "block-groups-at-zero-residues",
        "blocks.py",
        "_block_groups(n, tuple(s % e for s in charges), e)",
        "_block_groups(n, (0,) * l, e)",
        (BLOCKS + "test_blocks_of_matches_the_label_oracle_exhaustively",
         BLOCKS + "test_blocks_of_keeps_the_groups_of_each_residue_tuple_apart"),
    ),
    (
        "blocks-empty-label-at-the-residues",
        "blocks.py",
        "_empty_label(charges, e, l)",
        "_empty_label(tuple(s % e for s in charges), e, l)",
        (BLOCKS + "test_blocks_of_matches_the_label_oracle_exhaustively",
         BLOCKS + "test_blocks_of_translated_components_keep_the_members"),
    ),
    (
        "blocks-of-one-cached-dict",
        "blocks.py",
        "def blocks_of(n, charges, e):\n",
        "@lru_cache(maxsize=64)\ndef blocks_of(n, charges, e):\n",
        (BLOCKS + "test_blocks_of_returns_a_fresh_dict_every_call",),
    ),
    (
        # each (r, k, e) keeps the column packed at the first width it met,
        # as a cache keyed without the width would
        "packed-cache-key-without-the-width",
        "blocks.py",
        "def _packed(r, k, e, width):\n",
        "def _packed(r, k, e, width, _first={}):\n"
        "    width = _first.setdefault((r, k, e), width)\n",
        (BLOCKS + "test_blocks_of_agrees_across_sizes_that_share_residues",),
    ),
    (
        "blocks-digits-without-the-n-offset",
        "blocks.py",
        "members = [((), n, n * sum(1 << width * c for c in range(e)))]",
        "members = [((), n, 0)]",
        (BLOCKS + "test_blocks_of_example",
         BLOCKS + "test_blocks_of_matches_the_label_oracle_exhaustively"),
    ),
    (
        "blocks-weight-without-the-rise",
        "blocks.py",
        "w = total + l * (n - sum(map(operator.mul, range(e), d))) // e",
        "w = total",
        (BLOCKS + "test_blocks_of_example",
         BLOCKS + "test_blocks_of_matches_the_label_oracle_exhaustively"),
    ),
    # the least-core DP behind reachable_multicharges and realize_multicharge
    (
        "reachable-keeps-the-first-size",
        "blocks.py",
        "if v not in step or key < step[v]:",
        "if v not in step:",
        (BLOCKS + "test_reachable_matches_the_enumeration_oracle",),
    ),
    (
        "core-offer-cost-reversed",
        "blocks.py",
        "_core_cost((c - r) % e, y, e)",
        "_core_cost((r - c) % e, y, e)",
        (BLOCKS + "test_core_offers_are_the_e_cores_by_size",
         BLOCKS + "test_reachable_matches_the_enumeration_oracle"),
    ),
    (
        # "key < step[v]" to "<=" is an equivalent program (two equal keys
        # are one entry), so the tie-break is broken by dropping its sizes
        "least-cores-ties-skip-the-component-sizes",
        "blocks.py",
        "key = (size + k, sizes + (k,), xs + (x,))",
        "key = (size + k, (), xs + (x,))",
        (BLOCKS + "test_least_cores_keeps_the_least_key_of_every_change",
         TIES + "[start1-target1-4-witness1]",
         TIES + "[start4-target4-3-witness4]"),
    ),
    (
        "realize-cap-off-by-one",
        "blocks.py",
        "_core_offers(start[-1] % e, e, cap)",
        "_core_offers(start[-1] % e, e, cap - 1)",
        (BLOCKS + "test_realize_example",),
    ),
    (
        # the search would repeat the bound below the total it saw forever;
        # the test's recorder stops it
        "realize-next-bound-one-too-low",
        "blocks.py",
        "b = min(2 * b, best[0], cap)",
        "b = min(2 * b, best[0] - 1, cap)",
        (BLOCKS + "test_realize_takes_the_next_bound_from_the_least_total_seen",),
    ),
    (
        "realize-without-its-runner-target-check",
        "blocks.py",
        "    if sum(need) or best[0] > b:\n"
        "        raise RuntimeError(\"realize: the runner targets are not reached\")\n",
        "",
        (BLOCKS + "test_realize_checks_its_runner_targets",),
    ),
    (
        "row-tally-drops-the-rise",
        "quotients.py",
        "    return counts, rise\n",
        "    return counts, 0\n",
        (BLOCKS + "test_block_label_matches_the_relabel_route_exhaustively",
         BLOCKS + "test_block_id_matches_the_long_route_exhaustively"),
    ),
    # the bead rows behind the five maps, the transport and psi
    (
        "move-target-stepped-by-the-source-period",
        "quotients.py",
        "out[k][t::dst_period] = rows[j][r::period]",
        "out[k][t::period] = rows[j][r::period]",
        (WIDE_MAPS, QUOTIENTS + "test_maps_match_the_view_reference"),
    ),
    (
        "rows-bottom-unrounded",
        "quotients.py",
        "bottom -= bottom % period + pad",
        "bottom -= pad",
        (WIDE_MAPS, QUOTIENTS + "test_round_trips_on_wide_spans"),
    ),
    (
        "symbols-parts-read-from-the-bottom",
        "quotients.py",
        "row[row.find(0) : row.rfind(1) + 1] if 0 in row",
        "row[: row.rfind(1) + 1] if 0 in row",
        (WIDE_MAPS, QUOTIENTS + "test_transpose_example", LONG_TRANSPORTS),
    ),
    (
        "rows-never-cut",
        "quotients.py",
        "if top - bottom > 64 * period and top - max(charges) > ",
        "if False and top - max(charges) > ",
        (QUOTIENTS + "test_one_large_part_costs_no_more_than_its_beads",),
    ),
    (
        "cut-keeps-no-lower-block",
        "quotients.py",
        "starts.append(period * (u + 2))",
        "starts.append(period * (u + 1))",
        (CUT_TRANSPORTS,),
    ),
    (
        "cut-keeps-no-upper-block",
        "quotients.py",
        "period * (v - u - 3)))",
        "period * (v - u - 2)))",
        (CUT_TRANSPORTS,),
    ),
    (
        "cut-holes-dropped",
        "quotients.py",
        "holes[x] += n",
        "holes[x] += 0",
        (CUT_MAPS, CUT_TRANSPORTS, ACTIONS + "test_psi_pairs_components_across_cut_rows"),
    ),
    (
        "cuts-kept-at-the-source-period",
        "quotients.py",
        "cuts = [(x // period * dst_period, n // period * dst_period) for x, n in cuts]",
        "cuts = [(x, n) for x, n in cuts]",
        (CUT_MAPS, QUOTIENTS + "test_round_trips_on_cut_rows"),
    ),
    (
        "transport-pad-of-l-at-i-zero",
        "actions.py",
        "_rows(mp, charges, e, 0 if i else e)",
        "_rows(mp, charges, e, 0 if i else l)",
        (LONG_TRANSPORTS,),
    ),
    (
        "partition-order-checked-ascending",
        "partitions.py",
        "list(p) != sorted(p, reverse=True)",
        "list(p) != sorted(p)",
        (PARTITIONS + "test_as_partition_rejects_junk",),
    ),
    # the cli.run memo and the boundary checks that came with it
    (
        "memo-no-eviction",
        "cli.py",
        "            while self.size > self.limit:\n",
        "            while False:\n",
        (CLI + "test_memo_keeps_its_bound_and_evicts_the_oldest_first",),
    ),
    (
        "memo-newest-first-eviction",
        "cli.py",
        "old = next(iter(self))",
        "old = next(reversed(self))",
        (CLI + "test_memo_keeps_its_bound_and_evicts_the_oldest_first",),
    ),
    (
        "memo-keeps-help",
        "cli.py",
        "        except _Help as exc:\n            return exc.args\n",
        "        except _Help as exc:\n            answer = exc.args\n",
        (CLI + "test_help_is_never_kept_and_follows_the_terminal",),
    ),
    (
        "memo-size-check-dropped",
        "cli.py",
        "        if size > self.limit:\n            return\n",
        "",
        (CLI + "test_an_answer_larger_than_the_memo_is_returned_but_not_kept",),
    ),
    (
        "memo-lookup-under-a-wrong-key",
        "cli.py",
        "answer = _memo.get(key)",
        "answer = _memo.get(key[1:])",
        (CLI + "test_memo_answers_equal_fresh_answers_on_the_pool",),
    ),
    (
        "orbit-equivalent-without-as-block",
        "blocks.py",
        "    b1, b2 = _as_block(b1), _as_block(b2)\n",
        "",
        (BLOCKS + "test_inconsistent_block_labels_are_rejected[<lambda>3-b5]",
         BLOCKS + "test_inconsistent_block_labels_are_rejected[<lambda>4-b5]"),
    ),
    (
        "level-multicharge-missing-a-runner",
        "blocks.py",
        "sum((s + j) // l for s in s_e)",
        "sum((s + j) // l for s in s_e[1:])",
        (BLOCKS + "test_level_multicharge_matches_the_two_map_route",
         BLOCKS + "test_orbit_equivalence_matches_the_search_oracle_exhaustively"),
    ),
    (
        "render-window-indexing-restored",
        "abacus.py",
        "    try:\n"
        "        lo, hi = window\n"
        "    except (TypeError, ValueError):\n"
        '        raise ValueError(f"window must be a pair (lo, hi), got {window!r}") from None\n',
        "    lo, hi = window[0], window[1]\n",
        (PARTITIONS + "test_malformed_windows_and_symbols_are_value_errors[short-window]",
         PARTITIONS + "test_malformed_windows_and_symbols_are_value_errors[long-window]"),
    ),
    # the command table's stages: read, then the text values in row order
    (
        "text-values-parsed-in-reverse-row-order",
        "cli.py",
        "                  for _, kwargs, parse in row.flags]\n",
        "                  for _, kwargs, parse in row.flags[::-1]][::-1]\n",
        (ROW_ORDER,),
    ),
    (
        "render-window-parsed-before-the-length-check",
        "cli.py",
        "    if len(charges) != len(mp):\n",
        "    if window is not None:\n        parse_window(window)\n"
        "    if len(charges) != len(mp):\n",
        (ROW_ORDER,),
    ),
    (
        "plain-reader-ignores-required",
        "cli.py",
        "            if kwargs.get(\"required\"):\n                return None\n",
        "",
        (ROW_ORDER, CLI + "test_cached_parser_matches_the_full_parser[core]"),
    ),
    # the crystal read and edited on rows: nodes._letters and nodes._grow
    (
        "letters-without-the-row-above-test",
        "nodes.py",
        "                if a == 1 or rows[a - 2] > k:\n",
        "                if True:\n",
        (CELL_ROUTE, STAR_MOVES),
    ),
    (
        "letters-content-moved-by-one",
        "nodes.py",
        "            x = k - a + s\n",
        "            x = k - a + s + 1\n",
        (CELL_ROUTE, STAR_MOVES, LONG),
    ),
    (
        # letters of equal content then keep the components in increasing
        # order instead of the later component first
        "letters-sorted-without-the-component",
        "nodes.py",
        "    letters.sort()\n",
        "    letters.sort(key=lambda x: x[0])\n",
        (CELL_ROUTE, STAR_MOVES),
    ),
    (
        "sigma-ordinary-toggles-only-addable-letters",
        "actions.py",
        "    return _grow(mp, _letters(mp, charges, e, i))\n",
        '    return _grow(mp, [x for x in _letters(mp, charges, e, i) if x[2] == "A"])\n',
        (TOGGLES, ACTIONS + "test_sigma_example", LONG),
    ),
    (
        "grow-ignores-removals",
        "nodes.py",
        'rows[row - 1] += 1 if letter == "A" else -1',
        'rows[row - 1] += letter == "A"',
        (STAR_MOVES, TOGGLES, LONG),
    ),
    (
        "render-window-bottom-at-the-partition",
        "abacus.py",
        "min(max(m - len(p) - lo, 0), width)",
        "min(max(m - len(p), 0), width)",
        (PARTITIONS + "test_render_abacus_lines_are_the_beads_in_the_window",),
    ),
    # node and word helpers refuse bad input with ValueError
    (
        "parse-word-without-its-rank-check",
        "actions.py",
        "    rank = _as_int(rank)\n",
        "",
        (REFUSED + "[parse_word-1-2.5]", REFUSED + "[parse_word-1-'2']"),
    ),
    (
        "node-off-the-rim-accepted",
        "nodes.py",
        "    if node.comp not in range(len(mp)) or node not in cells(mp[node.comp], node.comp):\n",
        "    if node.comp not in range(len(mp)):\n",
        (REFUSED + "[add_node-1-Node(row=1,col=2,comp=0)]",
         REFUSED + "[remove_node-1-Node(row=1,col=1,comp=0)]"),
    ),
    # non-iterable arguments are ValueErrors at the public boundary
    (
        "as-ints-lets-type-errors-through",
        "partitions.py",
        "        xs = tuple(xs)\n    except TypeError:\n",
        "        xs = tuple(xs)\n    except ValueError:\n",
        (NON_ITERABLE + "[tau_e-none]",
         NON_ITERABLE + "[block_id-none-component]",
         NON_ITERABLE + "[partition_of_symbol-none]",
         NON_ITERABLE + "[uglov_set-none]"),
    ),
    (
        "multipartition-lets-type-errors-through",
        "partitions.py",
        "        components = iter(mp)\n    except TypeError:\n",
        "        components = iter(mp)\n    except ValueError:\n",
        (NON_ITERABLE + "[block_id-none]",),
    ),
    (
        "render-lets-type-errors-through",
        "abacus.py",
        "        symbols = iter(symbols)\n    except TypeError:\n",
        "        symbols = iter(symbols)\n    except ValueError:\n",
        (NON_ITERABLE + "[render_abacus-none]",),
    ),
)


def run_tests(src, node_ids):
    """pytest on node_ids with the abacore package taken from src; returns
    the exit code, the node ids reported as failed or in error, and the
    output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
         *node_ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    failed = {
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1
    }
    return proc.returncode, failed, proc.stdout + proc.stderr


def caught(node, failed):
    """Whether the test node failed, or, named without a case id, any of its cases."""
    return node in failed or any(f.startswith(node + "[") for f in failed)


def mutate(src, module, old, new):
    path = src / "abacore" / module
    text = path.read_text()
    count = text.count(old)
    if count != 1:
        return f"the snippet occurs {count} times in {module}"
    path.write_text(text.replace(old, new))
    return None


def main(names):
    rows = [row for row in MUTANTS if not names or row[0] in names]
    unknown = set(names) - {row[0] for row in rows}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(ROOT / "src", clean)
        probe = subprocess.run(
            [sys.executable, "-c", "import abacore; print(abacore.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(clean)), capture_output=True, text=True,
        )
        if not probe.stdout.strip().startswith(str(clean)):
            print(f"abacore does not import from the copy: {probe.stdout or probe.stderr}")
            return 1
        every = sorted({node for row in rows for node in row[4]})
        code, failed, out = run_tests(clean, every)
        if code != 0:
            print(f"the listed tests do not all pass on the unmutated source (exit {code}):")
            print(out[-3000:])
            return 1
        print(f"baseline: {len(every)} listed tests pass on the unmutated source")
        for k, (name, module, old, new, node_ids) in enumerate(rows):
            src = Path(tmp) / f"mutant{k}"
            shutil.copytree(ROOT / "src", src)
            problem = mutate(src, module, old, new)
            if problem is None:
                code, failed, out = run_tests(src, node_ids)
                survivors = [node for node in node_ids if not caught(node, failed)]
                if survivors:
                    problem = "survives " + ", ".join(survivors)
            print(f"{name}: {problem or 'killed by ' + str(len(node_ids)) + ' tests'}")
            if problem:
                problems.append(name)
            shutil.rmtree(src)
    if problems:
        print(f"{len(problems)} of {len(rows)} mutants not killed: {', '.join(problems)}")
        return 1
    print(f"all {len(rows)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
