"""Command-line front end: config ingestion, experiment orchestration, and
persistent outputs.

Subcommands: oracle | linear | sqg | ks | besov | selftest. Every experiment
is described by one JSON config file; unknown keys, duplicate keys, and
out-of-range values are rejected before any computation. Outputs land in an
output directory as

    <label>.csv   one per recorded norm series, header "t,value"
    plot.gp       gnuplot script: log-log series with theory reference lines
    run.json      the run record (config echo, fits, report, pass flag)

CSV floats use round-trip-exact decimal formatting, so identical (config,
seed) pairs produce byte-identical series files. Files are written to a
temporary name and renamed into place.

Exit codes: 0 pass, 1 report failure, 2 usage/config error, 3 numerical
abort.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bsvf import read_bsvf, write_bsvf
from .decay import (
    ClaimError,
    DecayClaim,
    DecayReport,
    FitError,
    FitResult,
    NormSeries,
    ReportEntry,
    build_report,
    fit_decay_slope,
    theoretical_exponent,
)
from .evolution import (
    CFLError,
    InitialSpectrum,
    NumericalAbort,
    RunConfig,
    log_spaced_times,
    spectral_besov_norm,
)
from .keller_segel import run_ks
from .littlewood_paley import BesovParams, besov_norm, block_range, build_dyadic_profile
from .semigroup import (
    QuadratureError,
    RadialSpectralDensity,
    evolve_linear,
    oracle_besov_series,
)
from .spectral import Grid2D, SpectralError, SpectralField, dealias_mask
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


def _reject_duplicates_hook(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} inside one object")
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
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates_hook)
    except ConfigError as exc:
        key = str(exc).split("'")[1]
        lines = _locate_key(text, key)
        where = " and ".join(f"line {ln}" for ln in lines) or "unknown location"
        raise ConfigError(f"{path}: duplicate key {key!r} at {where}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    try:
        return validate_config(raw)
    except (ConfigError, ClaimError, SpectralError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _want_number(cfg, key, default=None, *, integer=False, allow_inf=False):
    if key not in cfg or cfg[key] is None:
        return default
    v = cfg[key]
    if allow_inf and v == "inf":
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"key {key!r} must be a number, got {v!r}")
    if integer:
        if float(v) != int(v):
            raise ConfigError(f"key {key!r} must be an integer, got {v!r}")
        return int(v)
    return float(v)


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


_DENSITY_KEYS = {"form", "radius", "exponent", "r_lo", "r_hi", "sigma", "dimension"}


def _validate_density(cfg, dimension):
    if cfg is None:
        return {"form": "ball_indicator", "radius": 1.0, "dimension": dimension}
    if not isinstance(cfg, dict):
        raise ConfigError("key 'density' must be an object")
    _check_unknown(cfg, _DENSITY_KEYS, "density")
    form = _want_str(cfg, "form", "ball_indicator", ("ball_indicator", "power_law", "gaussian"))
    out = {"form": form, "dimension": _want_number(cfg, "dimension", dimension, integer=True)}
    if form == "ball_indicator":
        out["radius"] = _want_number(cfg, "radius", 1.0)
    elif form == "gaussian":
        out["sigma"] = _want_number(cfg, "sigma", 0.25)
    else:
        out["exponent"] = _want_number(cfg, "exponent", 0.0)
        out["r_lo"] = _want_number(cfg, "r_lo", 0.0)
        out["r_hi"] = _want_number(cfg, "r_hi", 1.0)
    _density_from(out)  # range checks
    return out


def _density_from(cfg) -> RadialSpectralDensity:
    form = cfg["form"]
    dim = int(cfg.get("dimension", 2))
    if form == "ball_indicator":
        return RadialSpectralDensity.ball_indicator(cfg["radius"], dim)
    if form == "gaussian":
        return RadialSpectralDensity.gaussian(cfg["sigma"], dim)
    return RadialSpectralDensity.power_law(cfg["exponent"], cfg["r_lo"], cfg["r_hi"], dim)


_COMMON_KEYS = {"kind", "seed", "out", "tolerance_pct", "threads"}

_SCHEMAS = {
    "oracle": _COMMON_KEYS
    | {"theorem", "alpha", "s", "ell", "p", "r", "dimension", "density", "t_lo", "t_hi", "samples_per_decade"},
    "linear": _COMMON_KEYS
    | {"n", "L", "alpha", "theorem", "s", "ell", "p", "r", "density", "t_lo", "t_hi",
       "samples_per_decade", "window_lo", "window_hi"},
    "sqg": _COMMON_KEYS
    | {"n", "L", "alpha", "s", "ell", "p", "r", "epsilon", "smallness_budget", "j_lo", "j_hi",
       "taper", "dt", "T", "t_lo", "samples_per_decade", "window_lo", "window_hi"},
    "ks": _COMMON_KEYS
    | {"n", "L", "alpha", "s", "ell", "p", "r", "epsilon", "smallness_budget", "j_lo", "j_hi",
       "taper", "dt", "T", "t_lo", "samples_per_decade", "window_lo", "window_hi"},
    "besov": _COMMON_KEYS | {"field", "s", "p", "r"},
    "selftest": _COMMON_KEYS,
}

_DEFAULT_TOLERANCE = {"oracle": 2.0, "linear": 20.0, "sqg": 20.0, "ks": 20.0}
_DEFAULT_L = 2.0 * math.pi * 64.0


def validate_config(raw: dict) -> dict:
    """Validate a raw config dict; returns the canonical form, defaults filled.

    The canonical form revalidates to itself, which is the config round-trip
    contract of the run record.
    """
    kind = _want_str(raw, "kind", None, KINDS)
    if kind is None:
        raise ConfigError(f"config requires key 'kind' (one of {KINDS})")
    _check_unknown(raw, _SCHEMAS[kind])
    out = {"kind": kind}
    seed = _want_number(raw, "seed", 0, integer=True)
    if seed < 0 or seed >= 2 ** 64:
        raise ConfigError(f"seed must fit in u64, got {seed}")
    out["seed"] = seed
    if "out" in raw and raw["out"] is not None:
        out["out"] = _want_str(raw, "out")
    tol = _want_number(raw, "tolerance_pct", _DEFAULT_TOLERANCE.get(kind))
    if tol is not None:
        if tol <= 0:
            raise ConfigError(f"tolerance_pct must be positive, got {tol}")
        out["tolerance_pct"] = tol
    threads = _want_number(raw, "threads", 1, integer=True)
    if threads < 0:
        raise ConfigError(f"threads must be >= 0 (0 = auto), got {threads}")
    # threads has no effect, so it stays out of the canonical config and its hash

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

    if kind == "oracle":
        out["theorem"] = _want_str(raw, "theorem", "linear", ("linear", "sqg", "ks", "lebesgue"))
        out["alpha"] = _want_number(raw, "alpha", 1.0)
        out["s"] = _want_number(raw, "s", 1.0)
        out["ell"] = _want_number(raw, "ell", 0.0)
        out["p"] = _want_number(raw, "p", 2.0)
        out["r"] = _want_number(raw, "r", 2.0)
        out["dimension"] = _want_number(raw, "dimension", 2, integer=True)
        DecayClaim(out["theorem"], s=out["s"], ell=out["ell"], alpha=out["alpha"], p=out["p"], r=out["r"])
        out["density"] = _validate_density(raw.get("density"), out["dimension"])
        out["t_lo"] = _want_number(raw, "t_lo", 10.0)
        out["t_hi"] = _want_number(raw, "t_hi", 1e4)
        if not (0 < out["t_lo"] < out["t_hi"]):
            raise ConfigError(f"need 0 < t_lo < t_hi, got [{out['t_lo']}, {out['t_hi']}]")
        out["samples_per_decade"] = _want_number(raw, "samples_per_decade", 40, integer=True)
        if out["samples_per_decade"] < 2:
            raise ConfigError("samples_per_decade must be >= 2")
        return out

    # grid-based kinds share n, L, alpha
    out["n"] = _want_number(raw, "n", 256, integer=True)
    out["L"] = _want_number(raw, "L", _DEFAULT_L)
    out["alpha"] = _want_number(raw, "alpha", 1.0)
    Grid2D(out["n"], out["L"])  # range check
    xi_min = 2.0 * math.pi / out["L"]
    cutoff = 0.1 * xi_min ** -out["alpha"]

    if kind == "linear":
        out["theorem"] = _want_str(raw, "theorem", "linear", ("linear",))
        out["s"] = _want_number(raw, "s", 1.0)
        out["ell"] = _want_number(raw, "ell", 0.0)
        out["p"] = _want_number(raw, "p", 2.0)
        out["r"] = _want_number(raw, "r", 2.0)
        DecayClaim("linear", s=out["s"], ell=out["ell"], alpha=out["alpha"], p=out["p"], r=out["r"])
        out["density"] = _validate_density(raw.get("density"), 2)
        if out["density"]["dimension"] != 2:
            raise ConfigError("linear grid runs require a 2-dimensional density")
        out["t_hi"] = _want_number(raw, "t_hi", cutoff)
        out["t_lo"] = _want_number(raw, "t_lo", out["t_hi"] / 100.0)
        if not (0 < out["t_lo"] < out["t_hi"]):
            raise ConfigError(f"need 0 < t_lo < t_hi, got [{out['t_lo']}, {out['t_hi']}]")
        out["samples_per_decade"] = _want_number(raw, "samples_per_decade", 40, integer=True)
        out["window_lo"] = _want_number(raw, "window_lo", max(1.0, out["t_lo"]))
        out["window_hi"] = _want_number(raw, "window_hi", out["t_hi"])
        return out

    # sqg / ks
    family = "sqg" if kind == "sqg" else "ks"
    out["s"] = _want_number(raw, "s", 1.0)
    out["ell"] = _want_number(raw, "ell", 0.0)
    out["p"] = _want_number(raw, "p", 2.0)
    out["r"] = _want_number(raw, "r", 2.0)
    claim_alpha = out["alpha"] if family == "sqg" else 1.0
    if family == "ks" and not (1.0 <= out["alpha"] <= 2.0):
        raise ConfigError(
            f"ks runs support alpha in [1, 2] (critical and subcritical), got {out['alpha']}"
        )
    DecayClaim(family, s=out["s"], ell=out["ell"], alpha=claim_alpha, p=out["p"], r=out["r"])
    out["epsilon"] = _want_number(raw, "epsilon", 1e-2)
    out["smallness_budget"] = _want_number(raw, "smallness_budget", 1e-2)
    if out["epsilon"] < 0:
        raise ConfigError(f"epsilon must be >= 0, got {out['epsilon']}")
    grid = Grid2D(out["n"], out["L"])
    rng = block_range(grid, build_dyadic_profile())
    out["j_lo"] = _want_number(raw, "j_lo", rng.j_min, integer=True)
    out["j_hi"] = _want_number(raw, "j_hi", rng.j_max - 1, integer=True)
    if out["j_lo"] > out["j_hi"]:
        raise ConfigError(f"need j_lo <= j_hi, got [{out['j_lo']}, {out['j_hi']}]")
    out["taper"] = _want_number(raw, "taper", 1.0)
    if out["taper"] <= 0:
        raise ConfigError(f"taper must be positive, got {out['taper']}")
    out["dt"] = _want_number(raw, "dt", 0.02)
    out["T"] = _want_number(raw, "T", 1.25 * cutoff)
    if out["dt"] <= 0 or out["T"] <= 0:
        raise ConfigError("dt and T must be positive")
    out["t_lo"] = _want_number(raw, "t_lo", max(out["dt"], out["T"] / 200.0))
    out["samples_per_decade"] = _want_number(raw, "samples_per_decade", 40, integer=True)
    samples = log_spaced_times(out["t_lo"], out["T"], out["samples_per_decade"])
    first_gap = samples[1] - samples[0] if len(samples) > 1 else out["dt"]
    out["window_lo"] = _want_number(raw, "window_lo", max(1.0, 10.0 * first_gap))
    out["window_hi"] = _want_number(raw, "window_hi", cutoff)
    if not (out["window_lo"] < out["window_hi"]):
        raise ConfigError(
            f"empty fit window [{out['window_lo']}, {out['window_hi']}]; "
            "widen [t_lo, T] or override window_lo/window_hi"
        )
    return out


# ----------------------------------------------------------------- execution


class ExecutionResult:
    def __init__(self, record: dict, exit_code: int, out_dir: Path | None):
        self.record = record
        self.exit_code = exit_code
        self.out_dir = out_dir

    @property
    def passed(self):
        return self.record.get("pass", False)


def _canonical_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _series_to_rows(series: NormSeries):
    return [(float(t), float(v)) for t, v in zip(series.times, series.values)]


def _series_files(config: dict, decay_series: NormSeries, preserved: NormSeries) -> dict:
    return {f"decay_ell{config['ell']:g}_r1": decay_series, f"preserved_s{config['s']:g}_rinf": preserved}


def _fit_dict(label: str, fit: FitResult) -> dict:
    return {
        "label": label,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "window": [fit.window[0], fit.window[1]],
        "n_samples": fit.n_samples,
    }


def _run_oracle(config: dict):
    profile = build_dyadic_profile()
    claim = DecayClaim(
        config["theorem"], s=config["s"], ell=config["ell"],
        alpha=config["alpha"], p=config["p"], r=config["r"],
    )
    density = _density_from(config["density"])
    times = log_spaced_times(config["t_lo"], config["t_hi"], config["samples_per_decade"])
    decay_series = oracle_besov_series(density, claim, times, profile, "decay")
    preserved = oracle_besov_series(density, claim, times, profile, "preserved")
    fit = fit_decay_slope(decay_series, (config["t_lo"], config["t_hi"]))
    report = build_report([fit], [claim], config["tolerance_pct"], [f"oracle:{claim.family}"])
    pv = preserved.values
    preserved_ok = bool(np.all(pv <= pv[0] * (1.0 + 1e-12) + 1e-300))
    series = _series_files(config, decay_series, preserved)
    extras = {
        "theory_exponent": theoretical_exponent(claim),
        "preserved_nonincreasing": preserved_ok,
        "preserved_final_over_initial": float(pv[-1] / pv[0]) if pv[0] > 0 else 0.0,
    }
    passed = report.passed and preserved_ok
    return series, [_fit_dict("decay", fit)], report, extras, passed


def _radial_grid_coefficients(grid: Grid2D, density: RadialSpectralDensity) -> np.ndarray:
    # c_k = rho(|xi_k|) / L^2 samples the continuum spectrum on the lattice
    c = density.rho_array(grid.xi_mag) / grid.L ** 2
    c = np.where(dealias_mask(grid), c, 0.0)
    c[0, 0] = 0.0
    return c.astype(np.complex128)


def _run_linear(config: dict):
    profile = build_dyadic_profile()
    grid = Grid2D(config["n"], config["L"])
    claim = DecayClaim(
        "linear", s=config["s"], ell=config["ell"],
        alpha=config["alpha"], p=config["p"], r=config["r"],
    )
    density = _density_from(config["density"])
    coeffs = _radial_grid_coefficients(grid, density)
    times = log_spaced_times(config["t_lo"], config["t_hi"], config["samples_per_decade"])
    decay_params = BesovParams(config["ell"], config["p"], 1.0)
    preserved_params = BesovParams(-config["s"], config["p"], math.inf)
    base = SpectralField(grid, coeffs, check=False)
    decay_vals, preserved_vals = [], []
    for t in times:
        ct = evolve_linear(base, config["alpha"], float(t)).coefficients
        decay_vals.append(spectral_besov_norm(grid, ct, decay_params, profile))
        preserved_vals.append(spectral_besov_norm(grid, ct, preserved_params, profile))
    decay_series = NormSeries(times, np.asarray(decay_vals), f"linear-grid:{decay_params.label()}")
    preserved = NormSeries(times, np.asarray(preserved_vals), f"linear-grid:{preserved_params.label()}")
    fit = fit_decay_slope(decay_series, (config["window_lo"], config["window_hi"]))
    report = build_report([fit], [claim], config["tolerance_pct"], ["linear-grid"])
    extras = {"theory_exponent": theoretical_exponent(claim)}
    if config["p"] == 2.0:
        oracle = oracle_besov_series(density, claim, times, profile, "decay")
        dev = np.abs(decay_series.values - oracle.values) / oracle.values
        extras["grid_oracle_max_rel_dev"] = float(dev.max())
    pv = preserved.values
    preserved_ok = bool(np.all(pv <= pv[0] * (1.0 + 1e-12) + 1e-300))
    extras["preserved_nonincreasing"] = preserved_ok
    series = _series_files(config, decay_series, preserved)
    return series, [_fit_dict("decay", fit)], report, extras, report.passed and preserved_ok


def _run_nonlinear(config: dict, kind: str):
    profile = build_dyadic_profile()
    decay_params = BesovParams(config["ell"], config["p"], 1.0)
    preserved_params = BesovParams(-config["s"], config["r"], math.inf)
    claim = DecayClaim(kind, s=config["s"], ell=config["ell"],
                       alpha=config["alpha"] if kind == "sqg" else 1.0, p=config["p"], r=config["r"])
    theory = theoretical_exponent(claim)
    subcritical = kind == "ks" and config["alpha"] != 1.0
    if subcritical:
        # subcritical extension: the alpha-general rate formula
        theory = (
            -(config["ell"] + config["s"]) / config["alpha"]
            - (2.0 / config["alpha"]) * (1.0 / config["r"] - 1.0 / config["p"])
        )
    if theory == 0.0:
        raise FitError("claim predicts zero exponent; relative comparison undefined")
    run_config = RunConfig(
        n=config["n"],
        L=config["L"],
        alpha=config["alpha"],
        dt=config["dt"],
        T=config["T"],
        seed=config["seed"],
        initial=InitialSpectrum(
            epsilon=config["epsilon"],
            j_lo=config["j_lo"],
            j_hi=config["j_hi"],
            s_data=config["s"],
            taper=config["taper"],
        ),
        sample_times=log_spaced_times(config["t_lo"], config["T"], config["samples_per_decade"]),
        norms=[decay_params, preserved_params],
        smallness_budget=config["smallness_budget"],
    )
    runner = run_sqg if kind == "sqg" else run_ks
    result = runner(run_config, profile)
    decay_series = result.series[decay_params.label()]
    fit = fit_decay_slope(decay_series, (config["window_lo"], config["window_hi"]))
    rel = abs(fit.slope - theory) / abs(theory)
    entry = ReportEntry(f"{kind}:{decay_params.label()}", theory, fit.slope, rel,
                        rel <= config["tolerance_pct"] / 100.0)
    report = DecayReport([entry], config["tolerance_pct"])
    preserved_series = result.series[preserved_params.label()]
    initial_preserved = result.extras["initial_norms"][preserved_params.label()]
    bounded = bool(np.all(preserved_series.values <= 2.0 * initial_preserved + 1e-300))
    extras = {
        "theory_exponent": theory,
        "initial_critical_norm": result.initial_critical_norm,
        "critical_norm_label": result.extras["critical_norm_label"],
        "max_velocity_seen": result.max_velocity_seen,
        "peak_courant": result.extras["peak_courant"],
        "courant_margin": result.extras["courant_margin"],
        "n_steps": result.extras["n_steps"],
        "final_time": result.final_time,
        "preserved_initial": initial_preserved,
        "preserved_max": float(preserved_series.values.max()),
        "preserved_bounded_2x": bounded,
        "config_hash_run": result.config_hash,
        "_final_field": result.final_values,  # persisted as final.bsvf, then dropped
    }
    passed = report.passed
    if kind == "ks":
        extras["min_u"] = result.extras["min_u"]
        extras["mass_relative_drift"] = result.extras["mass_relative_drift"]
        passed = passed and bounded and result.extras["mass_relative_drift"] <= 1e-12
        if subcritical:
            extras["subcritical"] = True
    series = _series_files(config, decay_series, preserved_series)
    return series, [_fit_dict("decay", fit)], report, extras, passed


def _run_besov(config: dict):
    field = read_bsvf(config["field"])
    params = BesovParams(config["s"], config["p"], config["r"])
    result = besov_norm(field, params, build_dyadic_profile())
    extras = {**result._asdict(), "grid_n": field.grid.n, "grid_L": field.grid.L}
    print(f"{params.label()} = {result.value!r}  blocks j in [{result.j_min}, {result.j_max}]")
    return {}, [], None, extras, True


def _run_selftest(config: dict):
    from .selftest import run_selftest

    results = run_selftest(seed=config["seed"])
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    passed = all(r.passed for r in results)
    extras = {
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "n_checks": len(results),
        "n_failed": sum(not r.passed for r in results),
    }
    return {}, [], None, extras, passed


def execute(config: dict, out_dir=None) -> ExecutionResult:
    """Dispatch a validated config, write outputs, and return the record."""
    kind = config["kind"]
    started = _dt.datetime.now(_dt.timezone.utc)
    t0 = time.monotonic()
    failure = None
    exit_code = EXIT_PASS
    series, fits, report, extras, passed = {}, [], None, {}, False
    try:
        if kind == "oracle":
            series, fits, report, extras, passed = _run_oracle(config)
        elif kind == "linear":
            series, fits, report, extras, passed = _run_linear(config)
        elif kind in ("sqg", "ks"):
            series, fits, report, extras, passed = _run_nonlinear(config, kind)
        elif kind == "besov":
            series, fits, report, extras, passed = _run_besov(config)
        elif kind == "selftest":
            series, fits, report, extras, passed = _run_selftest(config)
    except (CFLError, NumericalAbort, QuadratureError) as exc:
        failure = {"type": type(exc).__name__, "message": str(exc)}
        exit_code = EXIT_NUMERICAL_ABORT
    except (SpectralError, FitError, ClaimError) as exc:
        failure = {"type": type(exc).__name__, "message": str(exc)}
        exit_code = EXIT_CONFIG_ERROR
    finished = _dt.datetime.now(_dt.timezone.utc)
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
    if fits:
        record["fits"] = fits
    if report is not None:
        record["report"] = report.to_dict()
    if failure is not None:
        record["failure"] = failure
    if exit_code == EXIT_PASS and not record["pass"]:
        exit_code = EXIT_REPORT_FAILURE
    final_field = extras.pop("_final_field", None)
    if out_dir is not None:
        out_dir = Path(out_dir)
        if final_field is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            write_bsvf(out_dir / "final.bsvf", final_field)
            extras["final_state_file"] = "final.bsvf"
        emit_outputs(record, series, out_dir)
    return ExecutionResult(record, exit_code, out_dir)


# -------------------------------------------------------------------- output


def _atomic_write(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _format_csv(series: NormSeries) -> bytes:
    lines = ["t,value"]
    for t, v in _series_to_rows(series):
        lines.append(f"{t!r},{v!r}")
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
    for fit in record.get("fits", []):
        c = math.exp(fit["intercept"])
        theory = record.get("extras", {}).get("theory_exponent")
        if theory is not None:
            plots.append(f"{c!r} * x ** ({theory!r}) with lines title 'theory slope {theory:g}'")
        plots.append(
            f"{c!r} * x ** ({fit['slope']!r}) with lines dashtype 2 title 'fit slope {fit['slope']:.4g}'"
        )
    if plots:
        lines.append("plot \\")
        lines.append(", \\\n".join("    " + p for p in plots))
    lines.append("pause -1 'press enter'")
    return ("\n".join(lines) + "\n").encode()


def emit_outputs(record: dict, series: dict, out_dir: Path):
    """Write CSV series, the plot script, and the run record atomically."""
    out_dir = Path(out_dir)
    written = []
    names = sorted(series)
    manifest = []
    for name in names:
        path = out_dir / f"{name}.csv"
        _atomic_write(path, _format_csv(series[name]))
        manifest.append({"label": name, "file": f"{name}.csv", "samples": len(series[name])})
        written.append(path)
    record["series"] = manifest
    if names or record.get("fits"):
        gp = out_dir / "plot.gp"
        _atomic_write(gp, _plot_script(record, names))
        written.append(gp)
    rec_path = out_dir / "run.json"
    if record.get("kind") == "besov":
        payload = (json.dumps(record, sort_keys=True) + "\n").encode()  # one-line record
    else:
        payload = (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()
    _atomic_write(rec_path, payload)
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
    env = os.environ.get("FRACLAB_OUT")
    if env:
        base = Path(env)
    elif args.out is not None:
        base = Path(args.out)
    elif "out" in config:
        base = Path(config["out"])
    else:
        base = Path("runs") / f"{config['kind']}-seed{config['seed']}-{_canonical_hash(config)[:8]}"
    return base


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            config = load_config(args.config)
        else:
            if args.command in ("besov",):
                raise ConfigError(f"the {args.command} subcommand requires --config")
            config = validate_config({"kind": args.command})
        if config["kind"] != args.command:
            raise ConfigError(
                f"config kind {config['kind']!r} does not match subcommand {args.command!r}"
            )
        if args.seed is not None:
            if args.seed < 0 or args.seed >= 2 ** 64:
                raise ConfigError(f"--seed must fit in u64, got {args.seed}")
            config["seed"] = args.seed
        if args.tolerance is not None:
            if args.tolerance <= 0:
                raise ConfigError(f"--tolerance must be positive, got {args.tolerance}")
            config["tolerance_pct"] = args.tolerance
        if args.threads is not None and args.threads < 0:
            raise ConfigError(f"--threads must be >= 0, got {args.threads}")
        out_dir = _resolve_out_dir(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    result = execute(config, out_dir)
    record = result.record
    if "failure" in record:
        print(f"FAILED ({record['failure']['type']}): {record['failure']['message']}", file=sys.stderr)
    for fit in record.get("fits", []):
        theory = record.get("extras", {}).get("theory_exponent")
        msg = f"fit slope {fit['slope']:.5f} over window {fit['window']}"
        if theory is not None:
            msg += f", theory {theory:.5f}"
        print(msg)
    print(f"{'PASS' if record['pass'] else 'FAIL'}  kind={record['kind']} -> {result.out_dir}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
