"""One fresh-process run of a workload, the way `fraclab <kind> --config` runs.

    python3 -m perfbench.child --config CFG --out DIR --result FILE --src SRC
                               [--seed N] [--setup-only] [--trace FILE]

Stamps ``time.monotonic()`` (CLOCK_MONOTONIC, shared by every process on
the machine) once ``import fraclab`` and ``cli.validate_config`` are done,
times ``cli.execute`` (outputs written included) with ``time.perf_counter``,
and writes both, with the peak resident set size, to FILE as JSON. With
--trace the tracer is installed before validation and the spans are written
to the trace FILE. The parent reads the verdict from the run's own outputs.

Untraced runs also time the machine-speed probe: SETUP_PROBES times right
after set-up, and during ``cli.execute`` once before, every PROBE_PERIOD_S
(from a SIGALRM handler) and once after. The parent divides each interval
by its probes' mean to report it at the reference speed; the probes' own
time is left out of the execute time.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

PROBE_LOOPS = 100_000
PROBE_REF_S = 0.01  # probe time that defines the reference speed
PROBE_PERIOD_S = 0.5
SETUP_PROBES = 3


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine-speed probe."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def execute_with_probes(execute):
    """Run execute() with probes around and during it.

    Returns (result, seconds spent outside the probes, probe times).
    """
    probes = [probe()]

    def on_alarm(signum, frame):
        probes.append(probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    t0 = time.perf_counter()
    try:
        result = execute()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0  # after the last probe that can fire
        signal.signal(signal.SIGALRM, previous)
    during = sum(probes[1:])
    probes.append(probe())
    return result, elapsed - during, probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.child")
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=Path)
    ap.add_argument("--src", type=Path, required=True, help="directory fraclab must load from")
    args = ap.parse_args(argv)

    import fraclab
    from fraclab import cli

    loaded = Path(fraclab.__file__).resolve()
    if args.src.resolve() not in loaded.parents:
        print(f"fraclab loaded from {loaded}, not from {args.src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace is not None:
        from perfbench.tracer import Tracer

        tracer = Tracer().install()

    raw = json.loads(args.config.read_text())
    if args.seed is not None:
        raw["seed"] = args.seed
    config = cli.validate_config(raw)
    result = {"ready_monotonic": time.monotonic()}
    if tracer is None:
        result["setup_probes"] = [probe() for _ in range(SETUP_PROBES)]
    if not args.setup_only:
        if tracer is None:
            run, result["wall_s"], result["run_probes"] = execute_with_probes(
                lambda: cli.execute(config, args.out))
        else:
            t0 = time.perf_counter()
            run = cli.execute(config, args.out)
            result["wall_s"] = time.perf_counter() - t0
        result["exit_code"] = run.exit_code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        args.trace.write_text(json.dumps(tracer.dump()))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
