"""Config ingestion, dispatch, output emission, and the CLI contract."""

import functools
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fraclab import cli, selftest, semigroup
from fraclab.bsvf import write_bsvf
from fraclab.cli import (
    ConfigError,
    emit_outputs,
    execute,
    load_config,
    main,
    validate_config,
)
from fraclab.decay import NormSeries
from fraclab.evolution import log_spaced_times
from fraclab.littlewood_paley import BesovParams, build_dyadic_profile, spectral_besov_norms
from fraclab.semigroup import RadialSpectralDensity, evolve_linear, oracle_besov_series
from fraclab.spectral import Grid2D, SpectralField
from helpers import random_band_field


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return path


class TestLoadConfig:
    def test_minimal_oracle_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"kind": "oracle", "alpha": 2.0, "s": 1.0, "ell": 0.0}))
        assert cfg["dimension"] == 2
        assert cfg["density"] == {"form": "ball_indicator", "radius": 1.0, "dimension": 2}
        assert cfg["t_lo"] == 10.0 and cfg["t_hi"] == 1e4
        assert cfg["samples_per_decade"] == 40
        assert cfg["tolerance_pct"] == 2.0
        assert cfg["theorem"] == "linear"

    def test_out_of_range_claim_rejected(self, tmp_path):
        path = write_config(tmp_path, {"kind": "ks", "s": 3.0, "p": 2.0})
        with pytest.raises(ConfigError, match="1 - 2/p < s < 1 \\+ 2/p"):
            load_config(path)

    def test_duplicate_key_rejected_with_locations(self, tmp_path):
        text = '{\n  "kind": "oracle",\n  "alpha": 1.0,\n  "alpha": 2.0\n}\n'
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="duplicate key 'alpha' at line 3 and line 4"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"kind": "oracle", "alpa": 1.0})
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = write_config(tmp_path, '{"kind": "oracle",\n  broken\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_kind_required(self, tmp_path):
        with pytest.raises(ConfigError, match="'kind'"):
            load_config(write_config(tmp_path, {"alpha": 1.0}))

    def test_roundtrip_canonical(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"kind": "sqg", "seed": 4}))
        assert validate_config(cfg) == cfg

    def test_window_defaults_for_runs(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"kind": "sqg"}))
        xi_min = 2 * math.pi / cfg["L"]
        assert cfg["window_hi"] == pytest.approx(0.1 / xi_min)
        assert cfg["window_lo"] >= 1.0

    def test_duplicate_key_with_apostrophe_is_named(self, tmp_path):
        text = '{\n  "kind": "oracle",\n  "it\'s": 1,\n  "it\'s": 2\n}\n'
        with pytest.raises(ConfigError, match="duplicate key \"it's\" at line 3 and line 4"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "text, match",
        [
            # non-finite numbers (Python's JSON parser accepts NaN and Infinity)
            ('{"kind": "sqg", "n": Infinity}', "'n' must be a finite number"),
            ('{"kind": "sqg", "seed": Infinity}', "'seed' must be a finite number"),
            pytest.param('{"kind": "sqg", "L": 1' + "0" * 400 + "}", "'L' must be a finite number",
                         id="integer-past-float-range"),
            ('{"kind": "oracle", "tolerance_pct": NaN}', "'tolerance_pct' must be a finite number"),
            ('{"kind": "sqg", "epsilon": NaN}', "'epsilon' must be a finite number"),
            ('{"kind": "ks", "taper": NaN}', "'taper' must be a finite number"),
            ('{"kind": "sqg", "smallness_budget": NaN}', "'smallness_budget' must be a finite number"),
            ('{"kind": "besov", "field": "f.bsvf", "s": NaN}', "'s' must be a finite number"),
            ('{"kind": "oracle", "density": {"form": "power_law", "exponent": NaN}}',
             "'exponent' must be a finite number"),
            ('{"kind": "oracle", "dimension": NaN}', "'dimension' must be a finite number"),
            # one range per shared key, checked for every kind
            ('{"kind": "linear", "samples_per_decade": 1}', "samples_per_decade must be >= 2"),
            ('{"kind": "linear", "samples_per_decade": 0}', "samples_per_decade must be >= 2"),
            ('{"kind": "linear", "window_lo": 5.0, "window_hi": 2.0}', "empty fit window"),
            ('{"kind": "sqg", "smallness_budget": 0}', "smallness_budget must be > 0"),
            ('{"kind": "ks", "smallness_budget": -0.001}', "smallness_budget must be > 0"),
            ('{"kind": "oracle", "dimension": 0}', "dimension must be >= 1"),
            # exponents a kind never reads
            ('{"kind": "oracle", "theorem": "sqg", "s": 0.5, "p": 4}', "oracle runs measure with p = 2 only"),
            ('{"kind": "oracle", "theorem": "sqg", "s": 0.5, "p": 8}', "oracle runs measure with p = 2 only"),
            ('{"kind": "oracle", "r": 4}', "oracle runs measure with r = 2 only"),
            ('{"kind": "linear", "n": 64, "r": 4}', "linear runs measure with r = 2 only"),
            ('{"kind": "oracle", "theorem": "lebesgue", "ell": 0.5}', "lebesgue runs measure with ell = 0 only"),
            ('{"kind": "oracle", "theorem": "lebesgue", "ell": -0.5}', "lebesgue runs measure with ell = 0 only"),
        ],
    )
    def test_rejected_before_any_computation(self, tmp_path, text, match):
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path, text))

    def test_sample_schedule_bound_counts_like_log_spaced_times(self):
        # one decade at 9,999 per decade: 10,000 times, the most a schedule may take
        cfg = validate_config({"kind": "oracle", "t_lo": 1.0, "t_hi": 10.0, "samples_per_decade": 9999})
        assert len(log_spaced_times(cfg["t_lo"], cfg["t_hi"], cfg["samples_per_decade"])) == 10_000
        for raw in ({"kind": "oracle", "t_lo": 1.0, "t_hi": 10.0, "samples_per_decade": 10_000},
                    {"kind": "linear", "n": 16, "t_lo": 1e-300, "t_hi": 1e300, "samples_per_decade": 10 ** 300}):
            with pytest.raises(ConfigError, match="more than 10000"):
                validate_config(raw)

    def test_shipped_configs_load_and_revalidate(self):
        paths = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
        assert len(paths) >= 3
        for path in paths:
            cfg = load_config(path)
            assert validate_config(cfg) == cfg, path.name


class TestExecuteBesov:
    def test_prints_norm_and_range(self, tmp_path, rng, capsys):
        g = Grid2D(64, 2 * math.pi)
        field = random_band_field(g, rng)
        fpath = tmp_path / "field.bsvf"
        write_bsvf(fpath, field)
        cfg = validate_config({"kind": "besov", "field": str(fpath), "s": 0.0, "p": 2.0, "r": 1.0})
        result = execute(cfg, tmp_path / "out")
        assert result.exit_code == 0
        out = capsys.readouterr().out
        assert "B0_2_1" in out and "blocks j in" in out
        record = json.loads((tmp_path / "out" / "run.json").read_text())
        assert record["extras"]["value"] > 0
        assert record["extras"]["grid_n"] == 64
        # one-line record
        assert (tmp_path / "out" / "run.json").read_text().count("\n") == 1

    @pytest.mark.parametrize("key", ["p", "r"])
    def test_inf_exponent_through_main(self, tmp_path, rng, capsys, monkeypatch, key):
        monkeypatch.delenv("FRACLAB_OUT", raising=False)
        fpath = tmp_path / "field.bsvf"
        write_bsvf(fpath, random_band_field(Grid2D(64, 2 * math.pi), rng))
        raw = {"kind": "besov", "field": str(fpath), "s": 0.0, "p": 2.0, "r": 1.0, key: "inf"}
        path = write_config(tmp_path, raw)
        cfg = load_config(path)
        assert cfg[key] == math.inf
        assert validate_config(cfg) == cfg
        assert main(["besov", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "run.json").read_text())
        assert record["config"][key] == math.inf
        assert record["extras"]["value"] > 0


class TestEmitOutputs:
    def test_empty_series_writes_record_only(self, tmp_path):
        record = {"kind": "oracle", "pass": True}
        written = emit_outputs(record, {}, tmp_path)
        names = {p.name for p in written}
        assert names == {"run.json"}

    def test_three_point_series_gives_four_line_csv(self, tmp_path):
        series = NormSeries(np.array([1.0, 2.0, 4.0]), np.array([3.0, 2.0, 1.5]), "x")
        record = {"kind": "oracle", "pass": True}
        emit_outputs(record, {"demo": series}, tmp_path)
        text = (tmp_path / "demo.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 4
        assert lines[1] == "1.0,3.0"

    def test_csv_floats_roundtrip(self, tmp_path):
        times = np.array([1.0 / 3.0, 2.0 / 3.0, 1.23456789012345e-7 + 1.0])
        values = np.array([math.pi, math.e, 1.0 + 2 ** -40])
        emit_outputs({"kind": "x", "pass": True}, {"s": NormSeries(times, values, "")}, tmp_path)
        rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        for row, t, v in zip(rows, times, values):
            ts, vs = row.split(",")
            assert float(ts) == t and float(vs) == v


class TestDeterminism:
    def test_oracle_rerun_byte_identical(self, tmp_path):
        cfg = validate_config(
            {"kind": "oracle", "alpha": 2.0, "s": 1.0, "ell": 0.0, "tolerance_pct": 10.0,
             "t_lo": 10.0, "t_hi": 100.0, "samples_per_decade": 10}
        )
        ra = execute(dict(cfg), tmp_path / "a")
        rb = execute(dict(cfg), tmp_path / "b")
        assert ra.exit_code == 0 and rb.exit_code == 0
        for name in ("decay_ell0_r1.csv", "preserved_s1_rinf.csv", "plot.gp"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


    def test_threads_do_not_change_csvs(self, tmp_path):
        # threads is accepted and validated but has no effect
        base = {"kind": "oracle", "alpha": 1.0, "s": 1.0, "ell": 0.0, "tolerance_pct": 10.0,
                "t_lo": 10.0, "t_hi": 100.0, "samples_per_decade": 10}
        r1 = execute(validate_config(dict(base, threads=1)), tmp_path / "t1")
        r2 = execute(validate_config(dict(base, threads=2)), tmp_path / "t2")
        assert r1.exit_code == 0 and r2.exit_code == 0
        for name in ("decay_ell0_r1.csv", "preserved_s1_rinf.csv"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
        # nor on the run identity: the hash and the default output directory
        assert r1.record["config_hash"] == r2.record["config_hash"]
        assert "threads" not in r1.record["config"]


class TestLinearKind:
    def test_plumbing_and_oracle_comparison(self, tmp_path):
        cfg = validate_config(
            {"kind": "linear", "n": 128, "L": 2 * math.pi * 16, "alpha": 1.0,
             "s": 1.0, "ell": 0.0,
             "density": {"form": "power_law", "exponent": 1.0, "r_lo": 0.3, "r_hi": 1.2},
             "samples_per_decade": 60, "tolerance_pct": 1e6}
        )
        result = execute(cfg, tmp_path / "out")
        assert result.exit_code == 0
        record = result.record
        assert record["extras"]["grid_oracle_max_rel_dev"] <= 0.01
        assert record["extras"]["preserved_nonincreasing"] is True
        assert (tmp_path / "out" / "decay_ell0_r1.csv").exists()

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_other_p_series_bit_identical_to_evolve_linear_loop(self, p):
        cfg = validate_config({"kind": "linear", "n": 32, "p": p, "tolerance_pct": 1e6})
        profile = build_dyadic_profile()
        decay, preserved = cli._linear_series(cfg, cli._claim(cfg), profile)[:2]
        grid = Grid2D(cfg["n"], cfg["L"])
        base = SpectralField(grid, cli._radial_grid_coefficients(grid, RadialSpectralDensity(**cfg["density"])),
                             check=False)
        params = [BesovParams(cfg["ell"], p, 1.0), BesovParams(-cfg["s"], p, math.inf)]
        times = log_spaced_times(cfg["t_lo"], cfg["t_hi"], cfg["samples_per_decade"])
        loop = np.array([
            spectral_besov_norms(grid, evolve_linear(base, cfg["alpha"], t).coefficients, params, profile)
            for t in times
        ]).T
        assert np.array_equal(decay.times, times)
        assert np.array_equal(decay.values, loop[0]) and np.array_equal(preserved.values, loop[1])


def test_nonincreasing_compares_consecutive_samples():
    times = [1.0, 2.0, 3.0]
    assert not cli._nonincreasing(NormSeries(times, [1.0, 0.5, 0.9], "dips then rises"))
    assert cli._nonincreasing(NormSeries(times, [1.0, 0.5, 0.5 * (1 + 1e-13)], "flat within 1e-12"))


class TestNonlinearReport:
    def test_zero_predicted_exponent_is_a_fit_error(self, tmp_path):
        # ell = -s - 2(1/r - 1/p) is inside the claim range but predicts slope 0
        cfg = validate_config(
            {"kind": "sqg", "ell": -1.0, "s": 1.0, "n": 32, "L": 2 * math.pi, "dt": 0.01,
             "T": 2.0, "t_lo": 0.05, "window_lo": 0.1, "window_hi": 2.0}
        )
        result = execute(cfg, tmp_path / "out")
        assert result.exit_code == 2
        assert result.record["failure"]["type"] == "FitError"
        assert result.record["pass"] is False
        assert json.loads((tmp_path / "out" / "run.json").read_text())["failure"]["type"] == "FitError"

    def test_subcritical_ks_uses_alpha_general_exponent(self, tmp_path):
        ell, s, p, r, alpha = -0.5, 1.0, 4.0, 2.0, 1.5
        cfg = validate_config(
            {"kind": "ks", "alpha": alpha, "s": s, "ell": ell, "p": p, "r": r,
             "n": 32, "L": 2 * math.pi * 4, "dt": 0.05, "T": 1.0, "t_lo": 0.05,
             "window_lo": 0.1, "window_hi": 1.0, "tolerance_pct": 1e6}
        )
        result = execute(cfg, tmp_path / "out")
        assert result.exit_code == 0
        theory = -(ell + s) / alpha - (2.0 / alpha) * (1.0 / r - 1.0 / p)
        assert result.record["report"]["entries"][0]["theory"] == theory
        assert result.record["extras"]["theory_exponent"] == theory
        assert result.record["extras"]["subcritical"] is True

    @pytest.mark.parametrize("kind", ["sqg", "ks"])
    def test_run_record_carries_peak_courant_and_margin(self, tmp_path, kind):
        n, L, dt = 32, 2 * math.pi * 4, 0.05
        cfg = validate_config(
            {"kind": kind, "n": n, "L": L, "dt": dt, "T": 1.0, "t_lo": 0.05,
             "window_lo": 0.1, "window_hi": 1.0, "tolerance_pct": 1e6}
        )
        result = execute(cfg, tmp_path / "out")
        extras = json.loads((tmp_path / "out" / "run.json").read_text())["extras"]
        assert result.exit_code == 0
        peak = extras["peak_courant"]
        assert peak == pytest.approx(dt * extras["max_velocity_seen"] * n / L, rel=1e-14)
        assert 0.0 < peak < 0.5
        assert extras["courant_margin"] == pytest.approx(0.5 - peak, rel=1e-14)


_FLOW_EXTRAS = {
    "theory_exponent", "initial_critical_norm", "critical_norm_label", "max_velocity_seen",
    "peak_courant", "courant_margin", "n_steps", "final_time", "preserved_initial",
    "preserved_max", "preserved_bounded_2x", "config_hash_run", "final_state_file",
}
_SMALL_FLOW = {"n": 32, "L": 2 * math.pi * 4, "dt": 0.05, "T": 1.0, "t_lo": 0.05,
               "window_lo": 0.1, "window_hi": 1.0, "tolerance_pct": 1e6}


# One small run of every decay kind.
_SMALL_RUNS = {
    "oracle": {"kind": "oracle", "alpha": 2.0, "t_lo": 10.0, "t_hi": 100.0, "samples_per_decade": 10,
               "tolerance_pct": 1e6},
    "linear": {"kind": "linear", "n": 32, "tolerance_pct": 1e6},
    "sqg": {"kind": "sqg", **_SMALL_FLOW},
    "ks": {"kind": "ks", **_SMALL_FLOW},
    "ks-subcritical": {"kind": "ks", "alpha": 1.5, "ell": -0.5, "p": 4.0, **_SMALL_FLOW},
}


@pytest.mark.parametrize(
    "run, keys",
    [
        ("oracle", {"theory_exponent", "preserved_nonincreasing", "preserved_final_over_initial",
                    "oracle_quadrature_gap", "oracle_levels"}),
        ("linear", {"theory_exponent", "preserved_nonincreasing", "grid_oracle_max_rel_dev",
                    "grid_oracle_quadrature_gap", "grid_oracle_levels"}),
        ("sqg", _FLOW_EXTRAS),
        ("ks", _FLOW_EXTRAS | {"min_u", "mass_relative_drift"}),
        ("ks-subcritical", _FLOW_EXTRAS | {"min_u", "mass_relative_drift", "subcritical"}),
    ],
    ids=["oracle", "linear", "sqg", "ks", "ks-subcritical"],
)
def test_run_record_extras_keys(tmp_path, run, keys):
    result = execute(validate_config(_SMALL_RUNS[run]), tmp_path / "out")
    assert result.exit_code == 0
    extras = json.loads((tmp_path / "out" / "run.json").read_text())["extras"]
    assert set(extras) == keys


@pytest.mark.parametrize("run", ["sqg", "ks", "ks-subcritical"])
def test_flow_record_holds_the_run_entries_as_returned(tmp_path, monkeypatch, run):
    # the run owns its entries; the command line adds only what it derives
    results = []

    def spy(runner):
        return lambda *args: results.append(runner(*args)) or results[-1]

    monkeypatch.setattr(cli, "run_sqg", spy(cli.run_sqg))
    monkeypatch.setattr(cli, "run_ks", spy(cli.run_ks))
    assert execute(validate_config(_SMALL_RUNS[run]), tmp_path / "out").exit_code == 0
    extras = json.loads((tmp_path / "out" / "run.json").read_text())["extras"]
    (result,) = results
    owned = set(result.extras) - {"initial_norms"}
    assert {key: extras[key] for key in owned} == {key: result.extras[key] for key in owned}
    derived = {"theory_exponent", "preserved_initial", "preserved_max", "preserved_bounded_2x", "final_state_file"}
    if run == "ks-subcritical":
        derived.add("subcritical")
    assert set(extras) == owned | derived
    ks_owned = set() if run == "sqg" else {"min_u", "mass_relative_drift"}
    assert set(extras) == _FLOW_EXTRAS | ks_owned | derived


def test_shipped_oracle_config_sweeps_each_level_once(tmp_path, monkeypatch):
    calls, built = [], []
    series, level_rules = cli.oracle_besov_series, semigroup._level_rules
    monkeypatch.setattr(cli, "oracle_besov_series", lambda *a: calls.append(a[4]) or series(*a))
    monkeypatch.setattr(semigroup, "_level_rules", lambda *a: built.append(a[1]) or level_rules(*a))
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "oracle-linear-decay.json")
    result = execute(validate_config(cfg), tmp_path / "out")
    assert result.exit_code == 0
    assert calls == [("decay", "preserved")]
    assert len(built) == result.record["extras"]["oracle_levels"] == 65


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_outputs_honour_the_umask(tmp_path, rng, umask):
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert execute(validate_config(_SMALL_RUNS["oracle"]), out).exit_code == 0
        write_bsvf(out / "field.bsvf", random_band_field(Grid2D(8, 1.0), rng))
    finally:
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
    assert set(modes) == {"decay_ell0_r1.csv", "preserved_s1_rinf.csv", "plot.gp", "run.json", "field.bsvf"}
    assert set(modes.values()) == {0o666 & ~umask}


@pytest.mark.parametrize("run", ["oracle", "linear", "sqg", "ks"])
def test_run_record_timings_and_byte_identical_reruns(tmp_path, run):
    cfg = validate_config(_SMALL_RUNS[run])
    for out in ("a", "b"):
        result = execute(cfg, tmp_path / out)
        assert result.exit_code == 0
        timings = json.loads((tmp_path / out / "run.json").read_text())["timings"]
        assert timings == result.record["timings"]
        assert set(timings) == {"series_s", "fit_s", "write_s"}
        assert all(math.isfinite(v) and v > 0 for v in timings.values())
    csvs = sorted(path.name for path in (tmp_path / "a").glob("*.csv"))
    assert len(csvs) == 2
    for name in csvs:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCheckpointLoop:
    def test_run_produces_bsvf_that_besov_consumes(self, tmp_path):
        out = tmp_path / "run"
        cfg = validate_config(
            {"kind": "sqg", "n": 64, "L": 2 * math.pi * 8, "dt": 0.05, "T": 1.0,
             "t_lo": 0.1, "window_lo": 0.2, "window_hi": 0.7,
             "samples_per_decade": 40, "tolerance_pct": 1e6}
        )
        result = execute(cfg, out)
        assert result.exit_code == 0
        assert result.record["extras"]["final_state_file"] == "final.bsvf"
        bcfg = validate_config(
            {"kind": "besov", "field": str(out / "final.bsvf"), "s": 0.0, "p": 2.0, "r": 1.0}
        )
        rb = execute(bcfg, tmp_path / "besov")
        assert rb.exit_code == 0
        assert rb.record["extras"]["value"] > 0


class TestNumericalAbort:
    def test_cfl_violation_exits_3_with_failure_stanza(self, tmp_path):
        cfg = validate_config(
            {"kind": "sqg", "n": 64, "L": 2 * math.pi * 8, "dt": 5000.0, "T": 10000.0,
             "epsilon": 1e-2, "window_lo": 0.1, "window_hi": 0.5, "t_lo": 2500.0}
        )
        result = execute(cfg, tmp_path / "out")
        assert result.exit_code == 3
        assert result.record["failure"]["type"] == "CFLError"
        assert "max|u|" in result.record["failure"]["message"]
        assert result.record["pass"] is False
        # the record is still written for post-mortem inspection
        assert (tmp_path / "out" / "run.json").exists()


    def test_unbounded_preserved_norm_exits_3(self, tmp_path):
        # 2-D ball data is not in B^{-1.5}_{2,inf}: the sup over levels never settles
        cfg = validate_config(
            {"kind": "oracle", "s": 1.5, "t_lo": 10.0, "t_hi": 100.0, "samples_per_decade": 10}
        )
        result = execute(cfg, tmp_path / "out")
        assert result.exit_code == 3
        failure = json.loads((tmp_path / "out" / "run.json").read_text())["failure"]
        assert failure["type"] == "QuadratureError"
        assert failure["message"].startswith("preserved series: sup over levels did not stabilize")

    def test_quadrature_error_exits_3(self, tmp_path, monkeypatch):
        # an unreachable node-doubling tolerance is a numerical abort
        monkeypatch.setattr(
            cli, "oracle_besov_series", functools.partial(oracle_besov_series, rel_tol=1e-18)
        )
        cfg = validate_config(
            {"kind": "oracle", "alpha": 2.0, "s": 1.0, "ell": 0.0,
             "t_lo": 10.0, "t_hi": 100.0, "samples_per_decade": 10}
        )
        result = execute(cfg, tmp_path / "out")
        assert result.exit_code == 3
        assert result.record["failure"]["type"] == "QuadratureError"
        assert "node-doubling gap" in result.record["failure"]["message"]
        assert result.record["pass"] is False


class TestSelftestKind:
    def test_full_property_suite_passes(self, tmp_path, capsys):
        cfg = validate_config({"kind": "selftest", "seed": 2024})
        result = execute(cfg, tmp_path / "out")
        out = capsys.readouterr().out
        assert result.exit_code == 0
        assert result.record["pass"] is True
        assert result.record["extras"]["n_failed"] == 0
        assert out.count("PASS") == result.record["extras"]["n_checks"]
        # one line per check in registry order, each with its value and bound
        checks = result.record["extras"]["checks"]
        assert [c["name"] for c in checks] == list(selftest.CHECKS)
        for c, line in zip(checks, out.splitlines()):
            assert math.isfinite(c["value"]) and math.isfinite(c["bound"])
            assert c["passed"] is (c["value"] <= c["bound"])
            assert line.startswith(f"PASS  {c['name']}: {c['value']:.3e} <= {c['bound']:g}")


class TestMain:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "missing.json"
        code = main(["oracle", "--config", str(bad)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_kind_mismatch_is_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "sqg"})
        code = main(["oracle", "--config", str(path)])
        assert code == 2

    def test_besov_requires_config(self, capsys):
        assert main(["besov"]) == 2

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"kind": "oracle"\xff}')
        assert main(["oracle", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.bsvf", "."])
    def test_unreadable_besov_field_exits_2_with_failure_record(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.delenv("FRACLAB_OUT", raising=False)
        field = tmp_path / name
        path = write_config(tmp_path, {"kind": "besov", "field": str(field), "s": 0.0})
        out = tmp_path / "out"
        assert main(["besov", "--config", str(path), "--out", str(out)]) == 2
        failure = json.loads((out / "run.json").read_text())["failure"]
        assert failure["type"] == "SpectralError" and str(field) in failure["message"]
        assert "cannot read BSVF file" in capsys.readouterr().err

    def test_unusable_out_dir_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FRACLAB_OUT", raising=False)
        monkeypatch.setattr(cli, "execute", lambda *args: pytest.fail("the run started"))
        (tmp_path / "file").write_text("")
        assert main(["oracle", "--out", str(tmp_path / "file" / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [8192, 2 ** 20])
    def test_oversized_grid_exits_2_before_any_allocation(self, tmp_path, capsys, monkeypatch, n):
        monkeypatch.setattr(cli, "Grid2D", lambda *args: pytest.fail("a grid was built"))
        monkeypatch.setattr(cli, "execute", lambda *args: pytest.fail("the run started"))
        path = write_config(tmp_path, {"kind": "linear", "n": n})
        tracemalloc.start()
        try:
            code = main(["linear", "--config", str(path), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        assert f"n must be <= 4096, got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,extra", [("oracle", {}), ("sqg", {"n": 32})])
    def test_oversized_sample_schedule_exits_2_before_any_allocation(self, tmp_path, capsys, monkeypatch,
                                                                       kind, extra):
        # 10^9 per decade would ask for ~3 x 10^9 sample times
        monkeypatch.setattr(cli, "log_spaced_times", lambda *args: pytest.fail("a schedule was built"))
        monkeypatch.setattr(cli, "execute", lambda *args: pytest.fail("the run started"))
        path = write_config(tmp_path, {"kind": kind, "samples_per_decade": 10 ** 9, **extra})
        tracemalloc.start()
        try:
            code = main([kind, "--config", str(path), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        assert "more than 10000" in capsys.readouterr().err

    def test_oracle_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FRACLAB_OUT", raising=False)
        path = write_config(
            tmp_path,
            {"kind": "oracle", "alpha": 2.0, "s": 1.0, "ell": 0.0,
             "t_lo": 10.0, "t_hi": 1000.0, "samples_per_decade": 15},
        )
        out = tmp_path / "results"
        code = main(["oracle", "--config", str(path), "--out", str(out)])
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert record["pass"] is True
        assert record["report"]["entries"][0]["passed"] is True
        assert abs(record["fits"][0]["slope"] + 0.5) <= 0.02 * 0.5
        assert (out / "plot.gp").exists()

    def test_python_m_fraclab_runs_from_a_checkout(self, tmp_path):
        path = write_config(tmp_path, _SMALL_RUNS["oracle"])
        env = {k: v for k, v in os.environ.items() if k != "FRACLAB_OUT"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "fraclab", "oracle", "--config", str(path), "--out", str(tmp_path / "out")],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout

    def test_env_overrides_out_flag(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("FRACLAB_OUT", str(env_dir))
        path = write_config(
            tmp_path,
            {"kind": "oracle", "alpha": 2.0, "s": 1.0, "ell": 0.0, "tolerance_pct": 10.0,
             "t_lo": 10.0, "t_hi": 100.0, "samples_per_decade": 10},
        )
        code = main(["oracle", "--config", str(path), "--out", str(tmp_path / "ignored")])
        assert code == 0
        assert (env_dir / "run.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_seed_and_tolerance_overrides(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FRACLAB_OUT", raising=False)
        path = write_config(
            tmp_path,
            {"kind": "oracle", "alpha": 2.0, "s": 1.0, "ell": 0.0, "seed": 1,
             "t_lo": 10.0, "t_hi": 100.0, "samples_per_decade": 10, "tolerance_pct": 10.0},
        )
        out = tmp_path / "o"
        code = main(["oracle", "--config", str(path), "--out", str(out), "--seed", "99",
                     "--tolerance", "7.5"])
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert record["config"]["seed"] == 99
        assert record["config"]["tolerance_pct"] == 7.5

    @pytest.mark.parametrize(
        "flags",
        [["--tolerance", "nan"], ["--tolerance", "inf"], ["--tolerance", "0"],
         ["--seed", "-1"], ["--seed", str(2 ** 64)], ["--threads", "-1"]],
    )
    def test_bad_override_is_config_error(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setenv("FRACLAB_OUT", str(tmp_path / "out"))
        assert main(["oracle", *flags]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "payload",
        [{"kind": "oracle", "theorem": "sqg", "s": 0.5, "p": 4}, {"kind": "linear", "n": 64, "r": 4},
         {"kind": "oracle", "theorem": "lebesgue", "ell": 0.5}],
    )
    def test_unread_exponent_exits_2_before_computing(self, tmp_path, capsys, monkeypatch, payload):
        monkeypatch.delenv("FRACLAB_OUT", raising=False)
        path = write_config(tmp_path, payload)
        assert main([payload["kind"], "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "runs measure with" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
