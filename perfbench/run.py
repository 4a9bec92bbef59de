"""Time-to-verdict benchmark for fraclab.

    python3 -m perfbench.run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload is a config in
``perfbench/workloads`` that ends in a decay verdict. Load model: a closed
loop with one client; every run is one fresh ``python3`` process that
imports fraclab from ``src/``, validates the config and calls
``cli.execute`` (outputs written), one after another with ``threads = 1``.

--trace 0 measures the end-to-end metrics: after a few set-up-only
processes, runs repeat while the next one is expected to end within
--seconds (at least one always runs). ``wall_s`` and ``setup_s`` are given
at the reference machine speed (see ``at_reference_speed``); the raw times
are printed beside them as ``wall_raw_s`` and ``setup_raw_s``. --trace 1
makes one untraced and one traced run and reports per-layer metrics from
the trace (see tracer.py); their raw wall-time difference is
``trace.overhead_s``.

Every run passes the correctness gate (gate.py); the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"} and the exit
code is 1 when any check failed, 2 when fraclab's sources are missing.
Per-run records (machine, load average, samples, spans) are written to
``.perfbench_out/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from perfbench import gate, stats, tracer
from perfbench.child import PROBE_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("oracle-decay", "linear-grid", "sqg-critical", "ks-critical")

SETUP_PROBES = 5  # set-up-only processes per --trace 0 run, besides each run's own set-up
DEADLINE_S = 170.0  # one invocation per workload must end within 180 s

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
RAW_UNITS = {"wall_raw_s": "s", "setup_raw_s": "s"}  # printed and recorded, not bounded


# ------------------------------------------------------------------ machine


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def loadavg() -> list | None:
    text = _read("/proc/loadavg")
    return [float(x) for x in text.split()[:3]] if text else None


def machine_record() -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            caches[f"L{level}"] = size

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches_per_core_or_shared": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pinning": "none: no CPU pinning and no frequency control; run-to-run noise is real",
        "fft_working_set": (
            "one 256x256 complex128 array is 1 MiB and fits in cache, so "
            "spectral.fft_bytes is computed from array sizes, not a measured bandwidth"
        ),
    }


# --------------------------------------------------------------------- runs


class Workload:
    def __init__(self, name: str, seed: int | None):
        self.name = name
        self.config = BENCH / "workloads" / f"{name}.json"
        raw = json.loads(self.config.read_text())
        self.seeded = "seed" in raw  # oracle and linear runs are deterministic
        self.seed = (raw["seed"] if seed is None else seed) if self.seeded else None


def run_once(w: Workload, tag: str, *, setup_only=False, trace_file=None, timeout=DEADLINE_S) -> dict:
    """One fresh process; returns its timings and the outputs it wrote."""
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    out_dir = work / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    result_file = work / f"{tag}.result.json"
    log_file = work / f"{tag}.log"
    cmd = [sys.executable, "-m", "perfbench.child", "--config", str(w.config),
           "--result", str(result_file), "--src", str(SRC)]
    if w.seed is not None:
        cmd += ["--seed", str(w.seed)]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--out", str(out_dir)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    env = {k: v for k, v in os.environ.items() if k != "FRACLAB_OUT"}
    env["PYTHONPATH"] = str(SRC)
    rep = {"problems": []}
    with open(log_file, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:  # timed out or interrupted: leave no child behind
                proc.kill()
                proc.wait()
    rep["elapsed"] = time.monotonic() - spawned
    if code != 0 or not result_file.is_file():
        tail = log_file.read_text(errors="replace")[-400:]
        rep["problems"].append(f"harness process exit {code}: {tail.strip()}")
        return rep
    res = json.loads(result_file.read_text())
    rep["setup_raw_s"] = res["ready_monotonic"] - spawned
    rep["setup_s"] = at_reference_speed(rep["setup_raw_s"], res.get("setup_probes"))
    rep["peak_rss_mb"] = res["peak_rss_mb"]
    if setup_only:
        return rep
    rep["wall_raw_s"] = res["wall_s"]
    rep["wall_s"] = at_reference_speed(res["wall_s"], res.get("run_probes"))
    rep["exit_code"] = res["exit_code"]
    rep["outputs"] = None
    try:
        rep["outputs"] = gate.read_outputs(out_dir)
        rep["output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    except (OSError, ValueError, KeyError) as exc:
        rep["problems"].append(f"unreadable outputs: {exc}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return rep


def at_reference_speed(seconds: float, probes) -> float | None:
    """Seconds scaled to the machine speed at which the probe takes PROBE_REF_S.

    The host's speed drifts by tens of percent over seconds to minutes, the
    same way inside one process; the probes timed in that interval measure
    it, and the ratio removes it. None when no probe ran (traced runs).
    """
    if not probes:
        return None
    return seconds * PROBE_REF_S / (sum(probes) / len(probes))


def _remaining(started: float) -> float:
    return DEADLINE_S - (time.monotonic() - started)


def measure(w: Workload, seconds: float, trace: bool) -> dict:
    """All runs of one --workload invocation, gated; returns the result record."""
    started = time.monotonic()
    expected, reference = gate.load_reference(BENCH / "reference" / f"{w.name}.json", w.seed)
    record = {"workload": w.name, "seed": w.seed, "seed_used": w.seeded, "trace": int(trace),
              "seconds": seconds, "machine": machine_record(), "loadavg_start": loadavg()}
    runs, probes = [], []
    if trace:
        trace_file = OUT / "results" / f"{w.name}-seed{w.seed}.trace.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.unlink(missing_ok=True)
        runs.append(run_once(w, "untraced", timeout=_remaining(started)))
        runs.append(run_once(w, "traced", trace_file=trace_file, timeout=_remaining(started)))
    else:
        for i in range(SETUP_PROBES):
            probes.append(run_once(w, f"setup{i}", setup_only=True, timeout=_remaining(started)))
        window = time.monotonic()
        while True:
            runs.append(run_once(w, f"run{len(runs)}", timeout=_remaining(started)))
            longest = max(r["elapsed"] for r in runs)
            used = time.monotonic() - window
            if used + longest > seconds or _remaining(started) < longest + 5.0:
                break

    problems, failed = tally(runs, probes, expected, reference)
    record["reference_checked"] = reference is not None
    good = [r for r in runs if "wall_s" in r]
    # |fitted - theory| / |theory| from the run's report. It depends on the
    # seed of sqg/ks initial data, so it is recorded here and reported per
    # layer (decay.slope_rel_err), not bounded as an end-to-end metric.
    record["slope_rel_err"] = [r["outputs"]["relative_error"] for r in good if r["outputs"]]
    if trace:
        metrics = _trace_metrics(runs, trace_file, record)
    else:
        metrics = {}
        for name, unit in {**E2E_UNITS, **RAW_UNITS}.items():
            pool = good + probes if name.startswith("setup") else good
            samples = [r[name] for r in pool if r.get(name) is not None]
            metrics[name] = {"value": stats.median(samples) if samples else None,
                             "unit": unit, "n": len(samples), "samples": samples}
        record["raw"] = {name: metrics.pop(name) for name in RAW_UNITS}
    record.update({
        "attempted": len(runs) + len(probes),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "loadavg_end": loadavg(),
    })
    return record


def tally(runs, probes, expected, reference) -> tuple[list, int]:
    """Gate every run; returns all problems and the number of failed processes.

    A process fails when it crashed, timed out, wrote unreadable outputs,
    failed a check against the reference verdict or series, or wrote CSV
    bytes that differ from the first run's. None is skipped.
    """
    for r in runs:
        if "wall_s" in r:
            r["problems"] += gate.check_run(r["outputs"], r["exit_code"], expected, reference)
    digests = [r["outputs"]["csv_sha256"] if r.get("outputs") else None for r in runs]
    for i in gate.mismatched(digests):
        runs[i]["problems"].append(f"run {i}: CSV bytes differ from run 0")
    problems = [p for r in runs + probes for p in r["problems"]]
    return problems, sum(1 for r in runs + probes if r["problems"])


def _trace_metrics(runs, trace_file: Path, record: dict) -> dict:
    untraced, traced = runs
    if not trace_file.is_file() or "wall_s" not in traced:
        return {name: {"value": None, "unit": unit} for name, unit in tracer.METRICS.items()}
    trace = json.loads(trace_file.read_text())
    values, absent = tracer.summarize(trace)
    values["cli.output_bytes"] = traced.get("output_bytes", 0)
    values["decay.slope_rel_err"] = (traced.get("outputs") or {}).get("relative_error")
    values["trace.overhead_s"] = (
        traced["wall_raw_s"] - untraced["wall_raw_s"] if "wall_s" in untraced else None
    )
    record["absent_layers"] = absent
    record["missing_targets"] = trace["missing"]
    return {name: {"value": values[name], "unit": unit} for name, unit in tracer.METRICS.items()}


# ------------------------------------------------------------------- output


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def report(rec: dict) -> None:
    print(f"perfbench {rec['workload']} seed={rec['seed']}"
          f"{'' if rec['seed_used'] else ' (seed unused: deterministic workload)'}"
          f" trace={rec['trace']} seconds={rec['seconds']:g}")
    for name, m in {**rec["metrics"], **rec.get("raw", {})}.items():
        line = f"  {name:34s} {_fmt(m['value']):>12s} {m['unit']}"
        if "n" in m:
            q1, q3 = stats.quartiles(m["samples"]) if m["samples"] else (None, None)
            line += f"  n={m['n']} q1={_fmt(q1)} q3={_fmt(q3)}"
        print(line)
    errs = rec["slope_rel_err"]
    print(f"  {'slope_rel_err':34s} {_fmt(stats.median(errs) if errs else None):>12s} 1  n={len(errs)}")
    if not rec["trace"]:
        walls = rec["metrics"]["wall_s"]["samples"]
        hi = stats.high_percentile(walls)
        print(f"  {'wall_s_hi':34s} " + (
            f"{hi[1]:.6g} s  (p{hi[0]:.0f} of n={len(walls)})" if hi
            else f"n/a  (needs >= 11 runs beyond which 10 remain, have n={len(walls)})"))
    else:
        print(f"  absent layers: {', '.join(rec.get('absent_layers', [])) or 'none'}")
    print(f"  fail_ratio {rec['failed']}/{rec['attempted']} = "
          f"{stats.fail_ratio(rec['failed'], rec['attempted']):.3g}")
    for p in rec["problems"]:
        print(f"  FAIL {p}")
    print(f"  loadavg start {rec['loadavg_start']} end {rec['loadavg_end']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.run", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None, help="fills the seed key of seeded workloads")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fraclab" / "__init__.py").is_file():
        print(f"perfbench: no fraclab sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = measure(Workload(name, args.seed), args.seconds, bool(args.trace))
        report(rec)
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{rec['seed']}-trace{args.trace}.json").write_text(
            json.dumps(rec, indent=1) + "\n")
        records.append(rec)
    shutil.rmtree(OUT / "work", ignore_errors=True)
    print("# machine " + json.dumps(records[0]["machine"]))

    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}/{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
        for r in records for k, m in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
