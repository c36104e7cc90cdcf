"""abacore benchmark harness.

    python3 bench/run.py --workload {cli-mix,enumerate,large} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src.  One client drives the workload closed-loop in this process: each op
is one call of a public abacore function (``abacore.cli.run`` for cli-mix),
timed alone, and its result is checked against an independent route before
the next op is sent.  Inputs come only from ``--seed``.

--trace 0 measures the end-to-end metrics with tracing off:
  ops_per_s        ops completed per second of timed op time
  latency_p50_ms   median op latency
  latency_tail_ms  latency at the highest percentile with at least ten
                   samples beyond it (the percentile and sample count are
                   printed above the result line)
  setup_s          median, over SETUP_SAMPLES fresh interpreters, of the time
                   to import abacore (and abacore.cli for cli-mix) and warm up
  peak_rss_mb      peak resident memory of this process after RSS_AFTER_OPS ops

On a shared host, speed swings by tens of percent within seconds.  So
every CALIBRATION_PERIOD the loop times probe.calibrate(), a fixed slice of
interpreter work, and each time above is scaled by CALIBRATION_REF over the
calibration time measured around it: times are reported at the speed where
calibrate() takes CALIBRATION_REF seconds.  A change to abacore moves them;
a change in the machine's speed mostly cancels.  The raw op time and the
calibration median are printed above the result line.

--trace 1 measures the per-layer metrics (see layer_map.json for what each
should move): the same op sequence runs untraced, then traced through
tracing.Tracer, which gives per-module calls and self time and the tracing
overhead; then the size ladders of the large workload give the scaling
slopes, and cold ``python -m abacore`` spawns give cli.cold_spawn_ms.

Every run also recomputes the first GOLDEN_OPS ops of the workload at seed 0
and compares their output digests with golden.json, recorded at the commit
that introduced the benchmark.  Failed checks count in ``failed``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Without ./src/abacore the harness exits 2 and prints no result.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import workloads
from probe import calibrate, warm_up
from tracing import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15
SPAWN_SAMPLES = 15
GOLDEN_SEED = 0
GOLDEN_OPS = {"cli-mix": 120, "enumerate": 300, "large": 30}
# peak_rss_mb is read after this many ops (or at the end, if the run stops
# first), so that it measures a fixed amount of work: enumerate's Uglov cache
# grows with every pass, and a faster sweep would otherwise read as more memory.
RSS_AFTER_OPS = {"cli-mix": 1000, "enumerate": 30000, "large": 6000}
MAX_OPS = 1 << 18  # latency slots, allocated up front so they do not grow with throughput
SPAWN_ARGV = ["quotient", "--e", "3", "--m", "0", "--partition", "6,3,2,1,1", "--json"]
SPAWN_OUTPUT = '{"quotient":[[],[2],[1]],"core_multicharge":[0,-1,1]}'
SLOPE_REPEATS = 2
CALIBRATION_PERIOD = 0.05  # seconds of wall time between calibration samples
CALIBRATION_WINDOW = 3  # neighbours on each side in the local calibration median
CALIBRATION_REF = 5e-4  # reported times are scaled to this calibrate() time


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json and exit")
    args = parser.parse_args()
    if not args.workload and not args.record_golden:
        parser.error("--workload is required")

    if not (SRC / "abacore" / "__init__.py").is_file():
        print(f"bench: no abacore source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_golden:
        return record_golden()

    setup = None if args.trace else setup_seconds(args.workload)
    ab = import_abacore()
    warm_up(args.workload)
    if args.trace:
        metrics, attempted, failed = traced_run(ab, args)
    else:
        metrics, attempted, failed = plain_run(ab, args, setup)
    golden_attempted, golden_failed = check_golden(ab, args.workload)
    attempted += golden_attempted
    failed += golden_failed
    if args.trace:
        metrics["failed_ratio"] = (failed / attempted, "ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def import_abacore():
    import abacore
    import abacore.cli  # noqa: F401  (cli-mix calls it; the tracer wraps it everywhere)

    where = Path(abacore.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"bench: imported abacore from {where}, not from {SRC}")
    return abacore


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(workload):
    """Median calibrated set-up time over SETUP_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, cal = map(float, out.stdout.split())
        samples.append(seconds * CALIBRATION_REF / cal)
    return statistics.median(samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux


# ------------------------------------------------------------ op loop


class Stream:
    """Drive one workload generator closed-loop and record each op's latency."""

    def __init__(self, ab, workload, seed, shift=0):
        self.check = workloads.Check()
        self.namespace = importlib.import_module(workloads.NAMESPACE[workload])
        self.gen = workloads.WORKLOADS[workload](ab, random.Random(seed), self.check, shift)
        self.latency = array("d", bytes(8 * MAX_OPS))
        self.cal_index = array("i", bytes(4 * MAX_OPS))  # latest calibration sample before each op
        self.cal = array("d")
        self.count = 0
        self.rss = None  # peak RSS when the run reached `rss_after` ops
        self.by_name = {}  # op name -> [count, seconds]
        self.keys = []

    def run(self, seconds=None, ops=None, tracer=None, keep=None, keep_keys=False, rss_after=None):
        """Run until `seconds` of wall time pass or `ops` ops are done."""
        clock = time.perf_counter
        deadline = clock() + seconds if seconds is not None else math.inf
        limit = min(ops if ops is not None else MAX_OPS, MAX_OPS)
        ns, latency, by_name = self.namespace, self.latency, self.by_name
        next_cal = 0.0
        try:
            name, args = next(self.gen)
            while True:
                if clock() >= next_cal:
                    self.cal.append(calibrate())
                    next_cal = clock() + CALIBRATION_PERIOD
                self.cal_index[self.count] = len(self.cal) - 1
                if keep_keys:
                    self.keys.append(hashlib.sha1(repr((name, args)).encode()).digest())
                fn = getattr(ns, name)
                if tracer:
                    tracer.active = True
                t0 = clock()
                try:
                    out = fn(*args)
                except Exception as exc:  # a failed op is counted, not fatal
                    out = workloads.Raised(exc)
                t1 = clock()
                if tracer:
                    tracer.active = False
                latency[self.count] = t1 - t0
                self.count += 1
                if self.count == rss_after:
                    self.rss = peak_rss_mb()
                entry = by_name.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += t1 - t0
                if keep is not None:
                    keep.append(out)
                if self.count >= limit or clock() >= deadline:
                    self.gen.send(out)  # check the last result too
                    break
                name, args = self.gen.send(out)
        except Exception as exc:  # a check that cannot run is a failure of the run
            self.check.expect(False, f"workload stopped: {exc!r}")
        finally:
            self.gen.close()
        return self

    def timed_seconds(self):
        return sum(self.latency[: self.count])

    def calibrated_latencies(self):
        """Each op's latency scaled by CALIBRATION_REF over the local median
        of the calibration samples around it."""
        cal, w = list(self.cal), CALIBRATION_WINDOW
        local = [statistics.median(cal[max(0, j - w): j + w + 1]) for j in range(len(cal))]
        return [
            lat * CALIBRATION_REF / local[j]
            for lat, j in zip(self.latency[: self.count], self.cal_index[: self.count])
        ]

    @property
    def failed(self):
        return min(self.check.failed, self.count)


def plain_run(ab, args, setup):
    stream = Stream(ab, args.workload, args.seed)
    stream.run(seconds=args.seconds, rss_after=RSS_AFTER_OPS[args.workload])
    rss = stream.rss or peak_rss_mb()
    report_failures(stream.check)
    raw = stream.timed_seconds()
    lat = sorted(stream.calibrated_latencies())
    n = len(lat)
    print(f"ops: {n} in {raw:.3f} s of op time; calibration median "
          f"{1e3 * statistics.median(stream.cal):.4f} ms over {len(stream.cal)} samples; "
          f"peak RSS read after {min(n, RSS_AFTER_OPS[args.workload])} ops")
    tail_index = n - 11 if n > 10 else n - 1
    print(f"latency_tail_ms: p{100 * (tail_index + 1) / n:.3f} of {n} samples "
          f"({n - 1 - tail_index} beyond it)")
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * lat[tail_index], "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, stream.count, stream.failed


def report_failures(check):
    for message in check.messages:
        print(f"check failed: {message}", file=sys.stderr)


# ------------------------------------------------------------ trace run


def traced_run(ab, args):
    third = args.seconds / 3
    plain = Stream(ab, args.workload, args.seed).run(seconds=third, keep_keys=True)
    tracer = Tracer()
    tracer.install(ab)
    try:
        # same seed, same work; the shift gives the enumerate sweep fresh cache keys
        traced = Stream(ab, args.workload, args.seed, shift=workloads.FRESH_KEYS_SHIFT)
        traced.run(ops=plain.count, tracer=tracer)
    finally:
        tracer.uninstall()
    report_failures(plain.check)
    report_failures(traced.check)

    total = traced.timed_seconds()
    scale = CALIBRATION_REF / statistics.median(traced.cal)  # self times at the calibrated speed
    stats = tracer.stats
    metrics = {}
    for layer in LAYERS:
        rows = [rec for key, rec in stats.items() if key.split(".")[0] == layer]
        self_s = sum(rec[1] for rec in rows)
        metrics[f"{layer}.calls"] = (sum(rec[0] for rec in rows), "count")
        metrics[f"{layer}.self_s"] = (self_s * scale, "s")
        metrics[f"{layer}.self_share"] = (self_s / total, "ratio")
    for key in ("quotients.generalized_core", "actions.sigma_star", "blocks.uglov_set", "blocks.blocks_of"):
        metrics[f"{key}.self_s"] = (stats[key][1] * scale, "s")
    for key in ("nodes.i_signature", "partitions.as_partition", "partitions.beta_set"):
        metrics[f"{key}.calls"] = (stats[key][0], "count")
    calls, nones = stats["nodes.e_tilde"][0], stats["nodes.e_tilde"][3]
    metrics["nodes.e_tilde.useful_ratio"] = ((calls - nones) / calls if calls else 0.0, "ratio")
    for key in ("blocks.uglov_set", "partitions.partition_list"):
        info = getattr(tracer.originals[key], "cache_info", None)
        metrics[f"{key}.cache_entries"] = (info().currsize if info else 0, "count")
    metrics["cli.repeat_share"] = (1 - len(set(plain.keys)) / len(plain.keys), "ratio")
    metrics["top_op_share"] = (max(t for _, t in traced.by_name.values()) / total, "ratio")
    metrics["tracing_overhead_ratio"] = (sum(traced.calibrated_latencies()) / sum(plain.calibrated_latencies()), "ratio")
    gc_slope, star_slope = scaling_slopes(ab, args.seed)
    metrics["quotients.generalized_core.slope"] = (gc_slope, "1")
    metrics["actions.sigma_star.slope"] = (star_slope, "1")
    metrics["cli.cold_spawn_ms"] = (cold_spawn_ms(), "ms")
    metrics["src_lines"] = (src_lines(), "count")
    print("op time by name: " + ", ".join(
        f"{name} {t / total:.3f}" for name, (_, t) in sorted(traced.by_name.items(), key=lambda x: -x[1][1])))
    return metrics, plain.count + traced.count, plain.failed + traced.failed


def fit_slope(points):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def scaling_slopes(ab, seed):
    """Time generalized_core against weight and sigma_star against signature
    length over the large workload's size ladders, untraced."""
    rng = random.Random(seed)
    clock = time.perf_counter
    gc_points, star_points = [], []
    for repeat in range(SLOPE_REPEATS):
        shape = workloads.LARGE_SHAPES[repeat]
        for weight in workloads.LARGE_WEIGHTS:
            mp, ch, e, _ = workloads.large_core_input(ab, rng, weight, *shape)
            t0 = clock()
            g = ab.generalized_core(mp, ch, e)
            gc_points.append((max(g.weight, 1), clock() - t0))
        for k in workloads.LARGE_SIGNATURES:
            i, mp, ch, e = workloads.large_signature_input(rng, k, *shape)
            t0 = clock()
            ab.sigma_star(i, mp, ch, e)
            star_points.append((len(ab.i_signature(mp, ch, e, i).letters), clock() - t0))
    return fit_slope(gc_points), fit_slope(star_points)


def cold_spawn_ms():
    samples = []
    for _ in range(SPAWN_SAMPLES):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "abacore", *SPAWN_ARGV],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        samples.append(1e3 * (time.perf_counter() - t0))
        if out.returncode != 0 or out.stdout.strip() != SPAWN_OUTPUT:
            raise SystemExit(f"bench: python -m abacore gave {out.returncode}: {out.stdout}{out.stderr}")
    return statistics.median(samples)


def src_lines():
    return sum(len(path.read_text().splitlines()) for path in sorted((SRC / "abacore").rglob("*.py")))


# ------------------------------------------------------------ golden


def digest(value):
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()[:16]


def canonical(value):
    """A repr-stable form: sets sorted, dicts by key, tuples and lists alike."""
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(canonical(v) for v in value))
    if isinstance(value, dict):
        return ("dict", sorted((canonical(k), canonical(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    return value


def golden_digests(ab, workload):
    outputs = []
    stream = Stream(ab, workload, GOLDEN_SEED).run(ops=GOLDEN_OPS[workload], keep=outputs)
    return [digest(out) for out in outputs], stream


def check_golden(ab, workload):
    got, stream = golden_digests(ab, workload)
    report_failures(stream.check)
    want = json.loads((BENCH / "golden.json").read_text())[workload]
    mismatched = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    if mismatched:
        print(f"golden: {mismatched} of {len(want)} outputs differ from golden.json", file=sys.stderr)
    return len(want), min(mismatched + stream.failed, len(want))


def record_golden():
    ab = import_abacore()
    table = {}
    for workload in workloads.WORKLOADS:
        table[workload], stream = golden_digests(ab, workload)
        if stream.check.failed:
            report_failures(stream.check)
            raise SystemExit(f"bench: {workload} fails its own checks; golden.json not written")
    (BENCH / "golden.json").write_text(json.dumps(table, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
