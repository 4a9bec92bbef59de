"""Write the reference outputs the correctness gate compares against.

    python3 -m perfbench.make_reference WORKLOAD [SEED ...]

Runs the workload once per seed (its default seed when none is given) and
stores the exit code, verdict, slope, numeric run-record extras, final-state
samples and every CSV series in
``perfbench/reference/WORKLOAD.json``, merging with the seeds already there.
The committed references were taken from the unoptimised seed code; rerun
this only to add seeds, never to absorb a changed answer.
"""

from __future__ import annotations

import json
import sys

from perfbench.run import BENCH, Workload, run_once


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name, seeds = argv[0], [int(s) for s in argv[1:]] or [None]
    path = BENCH / "reference" / f"{name}.json"
    ref = json.loads(path.read_text()) if path.is_file() else None
    for seed in seeds:
        w = Workload(name, seed)
        rep = run_once(w, f"reference-{name}")
        out = rep.get("outputs")
        if out is None:
            print(f"{name} seed {w.seed}: no outputs: {rep['problems']}", file=sys.stderr)
            return 1
        expected = {"exit_code": rep["exit_code"], "pass": out["pass"]}
        if ref is None:
            ref = {"workload": name, "seed_unused": not w.seeded, "expected": expected, "runs": {}}
        elif ref["expected"] != expected:
            print(f"{name} seed {w.seed}: verdict {expected} differs from {ref['expected']}",
                  file=sys.stderr)
            return 1
        ref["runs"]["any" if not w.seeded else str(w.seed)] = {
            "slope": out["slope"],
            "relative_error": out["relative_error"],
            "extras": out["extras"],
            "field": out["field"],
            "series": {k: {"t": t, "value": v} for k, (t, v) in out["series"].items()},
        }
        print(f"{name} seed {w.seed}: slope {out['slope']!r}, exit {rep['exit_code']}")
    path.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
