"""Set-up probe: time importing abacore and warming up, in a fresh interpreter.

    PYTHONPATH=src python3 bench/probe.py <workload>

prints two numbers: the seconds from before ``import abacore`` to the end of
the workload's warm-up, and the median ``calibrate()`` time measured just
before.  Nothing but ``sys`` and ``time`` is imported first, so the first
figure includes every module abacore pulls in.
"""

import sys
import time

CALIBRATION_SAMPLES = 7


def calibrate():
    """Seconds that one fixed slice of plain interpreter work takes right now.

    On a shared host, speed swings by tens of percent within seconds; timings are
    divided by this figure, taken alongside them, to cancel the swings.
    """
    t0 = time.perf_counter()
    acc = {}
    for i in range(600):
        key = (i & 31, i % 7)
        acc[key] = acc.get(key, 0) + len(str(i))
    sorted(acc.items())
    return time.perf_counter() - t0


def warm_up(workload):
    """Import what the workload uses and make one small call of its kind."""
    import abacore

    if workload == "cli-mix":
        import abacore.cli

        abacore.cli.run(["quotient", "--e", "3", "--m", "0", "--partition", "6,3,2,1,1", "--json"])
    elif workload == "enumerate":
        abacore.block_id(((1,), ()), (0, 1), 3)
    else:
        abacore.generalized_core(((3, 1), (2, 1)), (0, 0), 3)


if __name__ == "__main__":
    calibrate()
    cal = sorted(calibrate() for _ in range(CALIBRATION_SAMPLES))[CALIBRATION_SAMPLES // 2]
    t0 = time.perf_counter()
    warm_up(sys.argv[1])
    print(repr(time.perf_counter() - t0), repr(cal))
