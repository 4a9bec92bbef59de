"""Command-line front end: config ingestion, experiment orchestration, and
persistent outputs.

Subcommands: oracle | linear | sqg | ks | besov | selftest. Every experiment
is described by one JSON config file; unknown keys, duplicate keys, and
out-of-range values are rejected before any computation. Outputs land in an
output directory as

    <label>.csv   one per recorded norm series, header "t,value"
    plot.gp       gnuplot script: log-log series with theory reference lines
    final.bsvf    the final state of an sqg/ks run
    run.json      the run record (config echo, fits, report, pass flag, and
                  for decay experiments the wall-clock timings of the series,
                  of an sqg/ks run's phases, of the fit and of the file writes)

CSV floats use round-trip-exact decimal formatting, so identical (config,
seed) pairs produce byte-identical series files. Files are written to a
temporary name and renamed into place.

Exit codes: 0 pass, 1 report failure, 2 usage/config error, 3 numerical
abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as _dt
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bsvf import atomic_write, read_bsvf, write_bsvf
from .decay import (
    ClaimError,
    DecayClaim,
    FitError,
    GradedFit,
    NormSeries,
    fit_decay_slope,
    theoretical_exponent,
)
# spectral_besov_norm is not called here; it stays a cli attribute because
# perfbench's tracer wraps it at this name.
from .evolution import (
    CFLError,
    InitialSpectrum,
    NumericalAbort,
    RunConfig,
    log_spaced_times,
    sample_count,
    spectral_besov_norm,  # noqa: F401
)
from .keller_segel import run_ks
from .littlewood_paley import BesovParams, besov_norm, block_range, build_dyadic_profile, spectral_besov_series
from .semigroup import QuadratureError, RadialSpectralDensity, oracle_besov_series
from .spectral import Grid2D, SpectralError, dealias_mask
from .sqg import run_sqg

__all__ = ["ConfigError", "load_config", "validate_config", "execute", "emit_outputs", "main"]

KINDS = ("oracle", "linear", "sqg", "ks", "besov", "selftest")

EXIT_PASS = 0
EXIT_REPORT_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ABORT = 3


class ConfigError(ValueError):
    """Config file malformed, out of range, or inconsistent."""


# --------------------------------------------------------------- config load


class _DuplicateKey(Exception):
    """A key repeated inside one JSON object; carries the key."""


def _reject_duplicates_hook(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise _DuplicateKey(key)
        seen[key] = value
    return seen


def _locate_key(text: str, key: str):
    """Line numbers of the first two occurrences of a key, for diagnostics."""
    needle = f'"{key}"'
    lines = []
    start = 0
    while len(lines) < 2:
        pos = text.find(needle, start)
        if pos < 0:
            break
        lines.append(text.count("\n", 0, pos) + 1)
        start = pos + 1
    return lines


def load_config(path) -> dict:
    """Parse and validate one JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates_hook)
    except _DuplicateKey as exc:
        key = exc.args[0]
        lines = _locate_key(text, key)
        where = " and ".join(f"line {ln}" for ln in lines) or "unknown location"
        raise ConfigError(f"{path}: duplicate key {key!r} at {where}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    try:
        return validate_config(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _want_number(cfg, key, default=None, *, integer=False, allow_inf=False, above=None, at_least=None):
    """The finite number under key (the default if absent), range-checked."""
    if key not in cfg or cfg[key] is None:
        return default
    v = cfg[key]
    if allow_inf and v in ("inf", math.inf):  # math.inf: the canonical form of "inf"
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"key {key!r} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer literal past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"key {key!r} must be a finite number, got {v!r}")
    if integer and not x.is_integer():
        raise ConfigError(f"key {key!r} must be an integer, got {v!r}")
    v = int(v) if integer else x
    if above is not None and not v > above:
        raise ConfigError(f"{key} must be > {above}, got {v}")
    if at_least is not None and not v >= at_least:
        raise ConfigError(f"{key} must be >= {at_least}, got {v}")
    return v


def _want_str(cfg, key, default=None, choices=None):
    if key not in cfg or cfg[key] is None:
        return default
    v = cfg[key]
    if not isinstance(v, str):
        raise ConfigError(f"key {key!r} must be a string, got {v!r}")
    if choices and v not in choices:
        raise ConfigError(f"key {key!r} must be one of {choices}, got {v!r}")
    return v


def _check_unknown(cfg: dict, allowed, context="config"):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {context}; allowed keys: {sorted(allowed)}"
        )


_DENSITY_DEFAULTS = {"radius": 1.0, "sigma": 0.25, "exponent": 0.0, "r_lo": 0.0, "r_hi": 1.0}  # the command line's


def _validate_density(cfg, dimension):
    cfg = {} if cfg is None else cfg
    if not isinstance(cfg, dict):
        raise ConfigError("key 'density' must be an object")
    form = _want_str(cfg, "form", "ball_indicator", tuple(RadialSpectralDensity.FORMS))
    params = RadialSpectralDensity.FORMS[form]
    _check_unknown(cfg, {"form", "dimension", *params}, f"{form} density")  # another form's keys too
    out = {"form": form, "dimension": _want_number(cfg, "dimension", dimension, integer=True)}
    for key in params:
        out[key] = _want_number(cfg, key, _DENSITY_DEFAULTS[key])
    RadialSpectralDensity(**out)  # range checks
    return out


# key sets: every kind's keys, then those of the decay experiments, then
# those of the grid kinds, then those of the nonlinear flows
_COMMON_KEYS = {"kind", "seed", "out", "tolerance_pct", "threads"}
_DECAY_KEYS = _COMMON_KEYS | {"alpha", "s", "ell", "p", "r", "t_lo", "samples_per_decade"}
_GRID_KEYS = _DECAY_KEYS | {"n", "L", "window_lo", "window_hi"}
_FLOW_KEYS = _GRID_KEYS | {"epsilon", "smallness_budget", "j_lo", "j_hi", "taper", "dt", "T"}

_SCHEMAS = {
    "oracle": _DECAY_KEYS | {"theorem", "dimension", "density", "t_hi"},
    "linear": _GRID_KEYS | {"theorem", "density", "t_hi"},
    "sqg": _FLOW_KEYS,
    "ks": _FLOW_KEYS,
    "besov": _COMMON_KEYS | {"field", "s", "p", "r"},
    "selftest": _COMMON_KEYS,
}

_DEFAULT_TOLERANCE = {"oracle": 2.0, "linear": 20.0, "sqg": 20.0, "ks": 20.0}
_DEFAULT_L = 2.0 * math.pi * 64.0
# A grid holds no plane; the run's own n x n arrays (state, scratch, symbols) bound n:
# a two-step n = 1024 sqg run peaks at 226 MiB RSS (x86-64, numpy 2.4); they grow as n^2.
_MAX_N = 4096


def _claim(config: dict) -> DecayClaim:
    """The row of the exponent table that a decay experiment puts to the test."""
    family = config.get("theorem", config["kind"])
    if config["kind"] == "ks" and config["alpha"] != 1.0:
        family = "ks_subcritical"
    return DecayClaim(
        family, s=config["s"], ell=config["ell"], alpha=config["alpha"], p=config["p"], r=config["r"]
    )


def _run_config(config: dict) -> RunConfig:
    """The run of a canonical sqg/ks config. Building it refuses the ranges of the initial
    data, the step and the sample times; validate_config counts the schedule first."""
    return RunConfig(
        **{key: config[key] for key in ("n", "L", "alpha", "dt", "T", "seed", "smallness_budget")},
        initial=InitialSpectrum(
            s_data=config["s"], **{key: config[key] for key in ("epsilon", "j_lo", "j_hi", "taper")}
        ),
        sample_times=log_spaced_times(config["t_lo"], config["T"], config["samples_per_decade"]),
        norms=[BesovParams(config["ell"], config["p"], 1.0), BesovParams(-config["s"], config["r"], math.inf)],
    )


def validate_config(raw: dict) -> dict:
    """Validate a raw config dict; returns the canonical form, defaults filled.

    The canonical form revalidates to itself, which is the config round-trip
    contract of the run record. A range that a library object refuses is
    checked by building that object, and its refusal comes out as ConfigError.
    """
    try:
        return _canonical_config(raw)
    except (ClaimError, SpectralError) as exc:
        raise ConfigError(str(exc)) from None


def _canonical_config(raw: dict) -> dict:
    kind = _want_str(raw, "kind", None, KINDS)
    if kind is None:
        raise ConfigError(f"config requires key 'kind' (one of {KINDS})")
    _check_unknown(raw, _SCHEMAS[kind])
    out = {"kind": kind, "seed": _want_number(raw, "seed", 0, integer=True, at_least=0)}
    if out["seed"] >= 2 ** 64:
        raise ConfigError(f"seed must fit in u64, got {out['seed']}")
    if "out" in raw and raw["out"] is not None:
        out["out"] = _want_str(raw, "out")
    tol = _want_number(raw, "tolerance_pct", _DEFAULT_TOLERANCE.get(kind), above=0)
    if tol is not None:
        out["tolerance_pct"] = tol
    # threads has no effect, so it stays out of the canonical config and its hash
    _want_number(raw, "threads", 1, integer=True, at_least=0)

    if kind == "selftest":
        return out

    if kind == "besov":
        field = _want_str(raw, "field")
        if not field:
            raise ConfigError("besov configs require key 'field' (path to a BSVF file)")
        out["field"] = field
        s = _want_number(raw, "s")
        if s is None:
            raise ConfigError("besov configs require the regularity index 's'")
        out["s"] = s
        out["p"] = _want_number(raw, "p", 2.0, allow_inf=True)
        out["r"] = _want_number(raw, "r", 2.0, allow_inf=True)
        BesovParams(out["s"], out["p"], out["r"])  # range check
        return out

    out["alpha"] = _want_number(raw, "alpha", 1.0)
    if kind == "oracle":
        out["theorem"] = _want_str(raw, "theorem", "linear", ("linear", "sqg", "ks", "lebesgue"))
    else:
        # grid-based kinds share n and L
        out["n"] = _want_number(raw, "n", 256, integer=True)
        if out["n"] > _MAX_N:  # refused before any grid is built
            raise ConfigError(f"n must be <= {_MAX_N}, got {out['n']}")
        out["L"] = _want_number(raw, "L", _DEFAULT_L)
        grid = Grid2D(out["n"], out["L"])  # range check
        cutoff = 0.1 * (2.0 * math.pi / out["L"]) ** -out["alpha"]
    if kind == "linear":
        out["theorem"] = _want_str(raw, "theorem", "linear", ("linear",))
    for key, default in (("s", 1.0), ("ell", 0.0), ("p", 2.0), ("r", 2.0)):
        out[key] = _want_number(raw, key, default)
    # The oracle takes L^2 blocks of L^2 data whatever p and r say, and the
    # linear grid norms read p but never r: refuse values that would be ignored.
    for key in {"oracle": ("p", "r"), "linear": ("r",)}.get(kind, ()):
        if out[key] != 2.0:
            raise ConfigError(f"{kind} runs measure with {key} = 2 only, got {key} = {out[key]:g}")
    _claim(out)  # range check

    if kind == "oracle":
        # dimension and density.dimension name one value: either fills the other
        dimension = _want_number(raw, "dimension", integer=True)
        out["density"] = _validate_density(raw.get("density"), 2 if dimension is None else dimension)
        out["dimension"] = out["density"]["dimension"]
        if dimension not in (None, out["dimension"]):
            raise ConfigError(f"dimension {dimension} and density.dimension {out['dimension']} differ")
        t_hi = out["t_hi"] = _want_number(raw, "t_hi", 1e4)
        out["t_lo"] = _want_number(raw, "t_lo", 10.0)
    elif kind == "linear":
        out["density"] = _validate_density(raw.get("density"), 2)
        if out["density"]["dimension"] != 2:
            raise ConfigError("linear grid runs require a 2-dimensional density")
        t_hi = out["t_hi"] = _want_number(raw, "t_hi", cutoff)
        out["t_lo"] = _want_number(raw, "t_lo", t_hi / 100.0)
    else:
        rng = block_range(grid)
        for key, default in (("epsilon", 1e-2), ("smallness_budget", 1e-2), ("j_lo", rng.j_min),
                             ("j_hi", rng.j_max - 1), ("taper", 1.0), ("dt", 0.02), ("T", 1.25 * cutoff)):
            out[key] = _want_number(raw, key, default, integer=key.startswith("j_"))
        t_hi = out["T"]
        out["t_lo"] = _want_number(raw, "t_lo", max(out["dt"], t_hi / 200.0))
    out["samples_per_decade"] = _want_number(raw, "samples_per_decade", 40, integer=True)
    sample_count(out["t_lo"], t_hi, out["samples_per_decade"])  # refused before any schedule is built
    if kind == "oracle":
        return out  # the fit window is [t_lo, t_hi]

    if kind == "linear":
        window = (max(1.0, out["t_lo"]), t_hi)
    else:
        samples = _run_config(out).sample_times
        if out["epsilon"] == 0:  # after InitialSpectrum's own range check
            raise ConfigError("epsilon must be > 0: a zero initial field has no decay slope to fit")
        window = (max(1.0, 10.0 * (samples[1] - samples[0])), cutoff)
    out["window_lo"] = _want_number(raw, "window_lo", window[0])
    out["window_hi"] = _want_number(raw, "window_hi", window[1])
    if not (out["window_lo"] < out["window_hi"]):
        raise ConfigError(
            f"empty fit window [{out['window_lo']}, {out['window_hi']}]; "
            "widen the sampled range or override window_lo/window_hi"
        )
    return out


# ----------------------------------------------------------------- execution


@dataclasses.dataclass
class ExecutionResult:
    record: dict
    exit_code: int
    out_dir: Path | None


def _canonical_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _nonincreasing(series: NormSeries) -> bool:
    """Every sample at most its predecessor, up to a relative 1e-12."""
    v = series.values
    return bool(np.all(v[1:] <= v[:-1] * (1.0 + 1e-12) + 1e-300))


# Series producers: each returns the decaying and the preserved norm series,
# the report descriptor, its kind's extras and its kind's own pass condition.


def _oracle_series(config: dict, claim: DecayClaim, profile):
    density = RadialSpectralDensity(**config["density"])
    times = log_spaced_times(config["t_lo"], config["t_hi"], config["samples_per_decade"])
    decay, preserved = oracle_besov_series(density, claim, times, profile, ("decay", "preserved"))
    ok = _nonincreasing(preserved)
    pv = preserved.values
    extras = {
        "preserved_nonincreasing": ok,
        "preserved_final_over_initial": float(pv[-1] / pv[0]) if pv[0] > 0 else 0.0,
        "oracle_quadrature_gap": max(decay.quadrature_gap, preserved.quadrature_gap),
        "oracle_levels": max(decay.levels, preserved.levels),
    }
    return decay, preserved, f"oracle:{claim.family}", extras, ok


def _radial_grid_coefficients(grid: Grid2D, density: RadialSpectralDensity) -> np.ndarray:
    # c_k = rho(|xi_k|) / L^2 samples the continuum spectrum on the lattice's rfft2 half-plane
    c = density.rho_array(grid.half.xi_mag) / grid.L ** 2
    c = np.where(dealias_mask(grid.half), c, 0.0)
    c[0, 0] = 0.0
    return c.astype(np.complex128)


def _linear_series(config: dict, claim: DecayClaim, profile):
    grid = Grid2D(config["n"], config["L"])
    density = RadialSpectralDensity(**config["density"])
    # the exact semigroup exp(-t |xi|^alpha) on the half-plane of a real spectrum
    base = _radial_grid_coefficients(grid, density)
    times = log_spaced_times(config["t_lo"], config["t_hi"], config["samples_per_decade"])
    decay_params = BesovParams(config["ell"], config["p"], 1.0)
    preserved_params = BesovParams(-config["s"], config["p"], math.inf)
    decay_vals, preserved_vals = spectral_besov_series(
        grid, base, config["alpha"], times, [decay_params, preserved_params], profile
    )
    decay = NormSeries(times, decay_vals, f"linear-grid:{decay_params.label()}")
    preserved = NormSeries(times, preserved_vals, f"linear-grid:{preserved_params.label()}")
    ok = _nonincreasing(preserved)
    extras = {"preserved_nonincreasing": ok}
    if config["p"] == 2.0:
        (oracle,) = oracle_besov_series(density, claim, times, profile)
        dev = np.abs(decay.values - oracle.values) / oracle.values
        extras["grid_oracle_max_rel_dev"] = float(dev.max())
        extras["grid_oracle_quadrature_gap"] = oracle.quadrature_gap
        extras["grid_oracle_levels"] = oracle.levels
    return decay, preserved, "linear-grid", extras, ok


def _flow_series(config: dict, claim: DecayClaim, profile):
    kind = config["kind"]
    run_config = _run_config(config)
    decay_params, preserved_params = run_config.norms
    runner = run_sqg if kind == "sqg" else run_ks
    result = runner(run_config, profile)
    extras = dict(result.extras)  # the run's own entries, under their run.json names
    initial_preserved = extras.pop("initial_norms")[preserved_params.label()]
    preserved = result.series[preserved_params.label()]
    bounded = bool(np.all(preserved.values <= 2.0 * initial_preserved + 1e-300))
    extras["preserved_initial"] = initial_preserved
    extras["preserved_max"] = float(preserved.values.max())
    extras["preserved_bounded_2x"] = bounded
    extras["_final_field"] = result.final_values  # persisted as final.bsvf, then dropped
    extras["_timings"] = result.timings  # joins the series' timings
    ok = True
    if kind == "ks":
        ok = bounded and extras["mass_relative_drift"] <= 1e-12
        if claim.family == "ks_subcritical":
            extras["subcritical"] = True
    decay = result.series[decay_params.label()]
    return decay, preserved, f"{kind}:{decay_params.label()}", extras, ok


_SERIES = {"oracle": _oracle_series, "linear": _linear_series, "sqg": _flow_series, "ks": _flow_series}


def _run_decay(config: dict):
    """Fit the decaying norm of a decay experiment and grade it against its claim."""
    claim = _claim(config)
    theory = theoretical_exponent(claim)
    if theory == 0.0:  # refused before the series are computed
        raise FitError("claim predicts zero exponent; relative comparison undefined")
    started = time.perf_counter()
    decay, preserved, descriptor, extras, ok = _SERIES[config["kind"]](
        config, claim, build_dyadic_profile()
    )
    computed = time.perf_counter()
    if "window_lo" in config:
        window = (config["window_lo"], config["window_hi"])
    else:
        window = (config["t_lo"], config["t_hi"])
    fit = fit_decay_slope(decay, window)
    report = GradedFit(fit, theory, config["tolerance_pct"], descriptor)
    # write_s stays 0 unless emit_outputs writes the files
    timings = {"series_s": computed - started, **extras.pop("_timings", {}),
               "fit_s": time.perf_counter() - computed, "write_s": 0.0}
    series = {f"decay_ell{config['ell']:g}_r1": decay, f"preserved_s{config['s']:g}_rinf": preserved}
    extras = {"theory_exponent": theory, **extras, "_timings": timings}
    return series, report, extras, report.passed and ok


def _run_besov(config: dict):
    field = read_bsvf(config["field"])
    params = BesovParams(config["s"], config["p"], config["r"])
    result = besov_norm(field, params, build_dyadic_profile())
    extras = {**result._asdict(), "grid_n": field.grid.n, "grid_L": field.grid.L}
    print(f"{params.label()} = {result.value!r}  blocks j in [{result.j_min}, {result.j_max}]")
    return {}, None, extras, True


def _run_selftest(config: dict):
    from .selftest import run_selftest

    results = run_selftest(seed=config["seed"])
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.value:.3e} <= {r.bound:g}  ({r.detail})")
    passed = all(r.passed for r in results)
    extras = {
        "checks": [{**dataclasses.asdict(r), "passed": r.passed} for r in results],
        "n_checks": len(results),
        "n_failed": sum(not r.passed for r in results),
    }
    return {}, None, extras, passed


_RUNNERS = {**dict.fromkeys(_SERIES, _run_decay), "besov": _run_besov, "selftest": _run_selftest}


def execute(config: dict, out_dir=None) -> ExecutionResult:
    """Dispatch a validated config, write outputs, and return the record."""
    kind = config["kind"]
    started = _dt.datetime.now(_dt.timezone.utc)
    t0 = time.monotonic()
    failure = None
    exit_code = EXIT_PASS
    series, report, extras, passed = {}, None, {}, False
    try:
        series, report, extras, passed = _RUNNERS[kind](config)
    except (CFLError, NumericalAbort, QuadratureError) as exc:
        failure = {"type": type(exc).__name__, "message": str(exc)}
        exit_code = EXIT_NUMERICAL_ABORT
    except (SpectralError, FitError, ClaimError) as exc:
        failure = {"type": type(exc).__name__, "message": str(exc)}
        exit_code = EXIT_CONFIG_ERROR
    finished = _dt.datetime.now(_dt.timezone.utc)
    timings = extras.pop("_timings", None)
    final_field = extras.pop("_final_field", None)
    record = {
        "artifact": "fraclab",
        "version": __version__,
        "kind": kind,
        "config": config,
        "config_hash": _canonical_hash(config),
        "started_utc": started.isoformat(),
        "finished_utc": finished.isoformat(),
        "elapsed_seconds": time.monotonic() - t0,
        "pass": bool(passed) and failure is None,
        "extras": extras,
    }
    if timings is not None:
        record["timings"] = timings  # wall-clock seconds, volatile: kept out of extras and the CSVs
    if report is not None:  # a decay run: its one fit, and that fit graded
        record["fits"] = [{"label": "decay", **dataclasses.asdict(report.fit), "window": list(report.fit.window)}]
        record["report"] = report.to_dict()
    if failure is not None:
        record["failure"] = failure
    if exit_code == EXIT_PASS and not record["pass"]:
        exit_code = EXIT_REPORT_FAILURE
    if out_dir is not None:
        out_dir = Path(out_dir)
        emit_outputs(record, series, out_dir, final_field)
    return ExecutionResult(record, exit_code, out_dir)


# -------------------------------------------------------------------- output


def _format_csv(series: NormSeries) -> bytes:
    lines = ["t,value"]
    for t, v in zip(series.times, series.values):
        lines.append(f"{float(t)!r},{float(v)!r}")
    return ("\n".join(lines) + "\n").encode()


def _plot_script(record: dict, series_names) -> bytes:
    lines = [
        "# gnuplot script: log-log norm decay with theory reference",
        "set logscale xy",
        "set xlabel '1 + t'",
        "set ylabel 'norm'",
        "set key left bottom",
        "set datafile separator ','",
    ]
    plots = []
    for name in series_names:
        plots.append(f"'{name}.csv' every ::1 using ($1+1):2 with points title '{name}'")
    for fit in record.get("fits", []):  # a decay run: its extras hold the theory exponent
        c, theory = math.exp(fit["intercept"]), record["extras"]["theory_exponent"]
        plots.append(f"{c!r} * x ** ({theory!r}) with lines title 'theory slope {theory:g}'")
        plots.append(
            f"{c!r} * x ** ({fit['slope']!r}) with lines dashtype 2 title 'fit slope {fit['slope']:.4g}'"
        )
    if plots:
        lines.append("plot \\")
        lines.append(", \\\n".join("    " + p for p in plots))
    lines.append("pause -1 'press enter'")
    return ("\n".join(lines) + "\n").encode()


def emit_outputs(record: dict, series: dict, out_dir: Path, final_field=None):
    """Write the final state (if any), CSV series, the plot script, and the run record.

    A record with a timings block gets its write_s here: the time spent on
    every file before run.json.
    """
    started = time.perf_counter()
    out_dir = Path(out_dir)
    written = []
    if final_field is not None:
        write_bsvf(out_dir / "final.bsvf", final_field)
        record["extras"]["final_state_file"] = "final.bsvf"
        written.append(out_dir / "final.bsvf")
    names = sorted(series)
    manifest = []
    for name in names:
        path = out_dir / f"{name}.csv"
        atomic_write(path, _format_csv(series[name]))
        manifest.append({"label": name, "file": f"{name}.csv", "samples": len(series[name])})
        written.append(path)
    record["series"] = manifest
    if names or record.get("fits"):
        gp = out_dir / "plot.gp"
        atomic_write(gp, _plot_script(record, names))
        written.append(gp)
    if "timings" in record:
        record["timings"]["write_s"] = time.perf_counter() - started
    rec_path = out_dir / "run.json"
    if record.get("kind") == "besov":
        payload = (json.dumps(record, sort_keys=True) + "\n").encode()  # one-line record
    else:
        payload = (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()
    atomic_write(rec_path, payload)
    written.append(rec_path)
    return written


# ----------------------------------------------------------------------- cli


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="Spectral laboratory for fractional dissipative flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed (u64)")
        p.add_argument(
            "--threads", type=int, default=None, help="validated (>= 0) but has no effect"
        )
        p.add_argument("--tolerance", type=float, default=None, help="slope tolerance, percent")
    return parser


def _resolve_out_dir(args, config: dict) -> Path:
    default = Path("runs") / f"{config['kind']}-seed{config['seed']}-{_canonical_hash(config)[:8]}"
    return Path(os.environ.get("FRACLAB_OUT") or args.out or config.get("out", default))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is None and args.command == "besov":
            raise ConfigError("the besov subcommand requires --config")
        config = load_config(args.config) if args.config is not None else {"kind": args.command}
        if config["kind"] != args.command:
            raise ConfigError(
                f"config kind {config['kind']!r} does not match subcommand {args.command!r}"
            )
        overrides = {"seed": args.seed, "tolerance_pct": args.tolerance, "threads": args.threads}
        config = validate_config(config | {k: v for k, v in overrides.items() if v is not None})
        out_dir = _resolve_out_dir(args, config)
        out_dir.mkdir(parents=True, exist_ok=True)  # an unusable path fails before the run
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    result = execute(config, out_dir)
    record = result.record
    if "failure" in record:
        print(f"FAILED ({record['failure']['type']}): {record['failure']['message']}", file=sys.stderr)
    for fit in record.get("fits", []):  # a decay run: its extras hold the theory exponent
        theory = record["extras"]["theory_exponent"]
        print(f"fit slope {fit['slope']:.5f} over window {fit['window']}, theory {theory:.5f}")
    print(f"{'PASS' if record['pass'] else 'FAIL'}  kind={record['kind']} -> {result.out_dir}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
