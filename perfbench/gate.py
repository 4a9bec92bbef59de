"""Correctness gate applied to every run, traced runs included.

A run passes when
  * its exit code and verdict equal the reference verdict;
  * with a reference for its seed, every recorded norm series, the fitted
    slope and the numeric run-record extras match the reference to REL_TOL
    (times to TIME_TOL), and 64 sample points of the final state (sqg, ks)
    match to FIELD_TOL times the state's largest magnitude;
  * the Keller-Segel mass drift stays within MASS_DRIFT_MAX;
and, across all runs of one workload and seed, the CSV bytes are identical.

REL_TOL admits the rounding-level shifts expected from a different
quadrature (Gauss-Legendre vs adaptive Simpson moves oracle values by at
most ~2e-11) or FFT layout (round-off in the stepper), and still rejects a
wrong answer, which moves norms by far more than 1e-8.

The shipped sqg/ks configs start from small data, so the flows are nearly
linear: scaling the SQG flux by 1.01 moves the norm series by only 1e-10
and the final state by 3.5e-8 of its largest magnitude. The final-state
check (FIELD_TOL = 1e-9) is what catches a flux error of about 0.1% or
more; round-off from a new FFT layout stays near 1e-13.
"""

from __future__ import annotations

import array
import hashlib
import json
import math
import struct
import sys
from pathlib import Path

REL_TOL = 1e-8
TIME_TOL = 1e-12
FIELD_TOL = 1e-9
MASS_DRIFT_MAX = 1e-12
ABS_FLOOR = 1e-300
FIELD_POINTS = 8  # per axis of the final state
VOLATILE_EXTRAS = {"mass_relative_drift"}  # round-off sized; bounded by MASS_DRIFT_MAX instead
BSVF_HEADER = struct.Struct("<4sIId")  # magic, version, n, L; then n*n little-endian float64


def read_csv(path: Path) -> tuple[list, list]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "t,value":
        raise ValueError(f"{path.name}: bad header")
    times, values = [], []
    for line in lines[1:]:
        t, v = line.split(",")
        times.append(float(t))
        values.append(float(v))
    return times, values


def read_field(path: Path) -> dict:
    """Largest magnitude and FIELD_POINTS^2 grid samples of a BSVF state file."""
    data = path.read_bytes()
    _, _, n, _ = BSVF_HEADER.unpack_from(data)
    values = array.array("d")
    values.frombytes(data[BSVF_HEADER.size:BSVF_HEADER.size + 8 * n * n])
    if sys.byteorder == "big":
        values.byteswap()
    step = max(1, n // FIELD_POINTS)
    return {
        "scale": max(map(abs, values)),
        "samples": [values[i * n + j] for i in range(0, n, step) for j in range(0, n, step)],
    }


def read_outputs(out_dir: Path) -> dict:
    """The verdict, report and series of one run, from the files it wrote."""
    record = json.loads((out_dir / "run.json").read_text())
    series, digest = {}, hashlib.sha256()
    for entry in sorted(record.get("series", []), key=lambda e: e["file"]):
        data = (out_dir / entry["file"]).read_bytes()
        digest.update(entry["file"].encode() + b"\0" + data)
        series[entry["label"]] = read_csv(out_dir / entry["file"])
    entries = (record.get("report") or {}).get("entries") or [{}]
    extras = record.get("extras", {})
    final = extras.get("final_state_file")
    return {
        "pass": bool(record.get("pass")),
        "slope": entries[0].get("slope"),
        "relative_error": entries[0].get("relative_error"),
        "mass_relative_drift": extras.get("mass_relative_drift"),
        "extras": {k: v for k, v in extras.items()
                   if isinstance(v, (bool, int, float)) and k not in VOLATILE_EXTRAS},
        "field": read_field(out_dir / final) if final else None,
        "series": series,
        "csv_sha256": digest.hexdigest(),
    }


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), ABS_FLOOR)


def compare_series(got: dict, want: dict) -> list[str]:
    problems = []
    for label, (w_times, w_values) in sorted(want.items()):
        if label not in got:
            problems.append(f"series {label} missing")
            continue
        g_times, g_values = got[label]
        if len(g_times) != len(w_times):
            problems.append(f"series {label}: {len(g_times)} samples, reference has {len(w_times)}")
            continue
        bad_t = [i for i, (g, w) in enumerate(zip(g_times, w_times)) if not _close(g, w, TIME_TOL)]
        bad_v = [i for i, (g, w) in enumerate(zip(g_values, w_values))
                 if not (math.isfinite(g) and _close(g, w, REL_TOL))]
        if bad_t:
            problems.append(f"series {label}: sample times differ at {len(bad_t)} points")
        if bad_v:
            i = bad_v[0]
            problems.append(
                f"series {label}: {len(bad_v)} values off by more than {REL_TOL:g} relative "
                f"(first at t={w_times[i]!r}: {g_values[i]!r} vs {w_values[i]!r})"
            )
    for label in sorted(set(got) - set(want)):
        problems.append(f"series {label} not in reference")
    return problems


def compare_extras(got: dict, want: dict) -> list[str]:
    problems = []
    for key, w in sorted(want.items()):
        g = got.get(key)
        if isinstance(w, bool) or g is None or isinstance(g, bool):
            ok = g == w
        else:
            ok = math.isfinite(g) and _close(g, w, REL_TOL)
        if not ok:
            problems.append(f"run record {key} = {g!r}, reference {w!r}")
    return problems


def compare_field(got: dict | None, want: dict) -> list[str]:
    if got is None or len(got["samples"]) != len(want["samples"]):
        return ["final state missing or of another size"]
    tol = FIELD_TOL * want["scale"]
    bad = [i for i, (g, w) in enumerate(zip(got["samples"], want["samples"]))
           if not abs(g - w) <= tol]
    if bad or not _close(got["scale"], want["scale"], REL_TOL):
        return [f"final state differs from the reference at {len(bad)} of "
                f"{len(want['samples'])} points (tolerance {tol:.3g})"]
    return []


def check_run(outputs: dict | None, exit_code: int | None, expected: dict,
              reference: dict | None) -> list[str]:
    """Problems with one run; empty when it passes.

    expected holds the reference verdict ({"exit_code", "pass"}), which also
    applies to seeds without reference values; reference holds the series.
    """
    if outputs is None:
        return [f"no outputs (exit code {exit_code})"]
    problems = []
    if exit_code != expected["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit_code']}")
    if outputs["pass"] != expected["pass"]:
        problems.append(f"verdict {outputs['pass']}, expected {expected['pass']}")
    drift = outputs.get("mass_relative_drift")
    if drift is not None and not drift <= MASS_DRIFT_MAX:
        problems.append(f"mass drift {drift!r} exceeds {MASS_DRIFT_MAX:g}")
    if reference is not None:
        want = {k: (v["t"], v["value"]) for k, v in reference["series"].items()}
        problems += compare_series(outputs["series"], want)
        problems += compare_extras(dict(outputs["extras"], slope=outputs["slope"]),
                                   dict(reference["extras"], slope=reference["slope"]))
        if reference.get("field") is not None:
            problems += compare_field(outputs["field"], reference["field"])
    return problems


def mismatched(digests: list) -> list[int]:
    """Indices of runs whose CSV bytes differ from the first run's.

    CSV bytes must not change between runs of one workload and seed.
    """
    return [i for i, d in enumerate(digests) if d != digests[0]]


def load_reference(path: Path, seed: int | None) -> tuple[dict, dict | None]:
    """(expected verdict, reference series for this seed or None)."""
    ref = json.loads(path.read_text())
    key = "any" if ref["seed_unused"] else str(seed)
    return ref["expected"], ref["runs"].get(key)
