"""Time one workload's set-up in a fresh interpreter.

Usage (from the root of a checkout)::

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is what a user pays before the first unit of work: importing
``repro``, generating the cells or requests, and -- for the daemon
workload -- creating a fresh cache directory and starting the server.
Prints the seconds it took (the clock starts before ``import repro``),
then the seconds of the host-speed calibration ``run.calibrate``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    workload_name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path.cwd() / "src"))
    import repro  # noqa: F401

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, workdir)
    try:
        workload.prepare()
        elapsed = time.perf_counter() - START
    finally:
        workload.close()
    from run import calibrate

    # Host speed, measured in this interpreter: the benchmark process is
    # warmer and larger than a fresh one, so its calibration would not
    # match.  The fastest of three skips a single scheduler hiccup.
    print(f"{elapsed!r} {min(calibrate() for _ in range(3))!r}")


if __name__ == "__main__":
    main()
