"""Fast self-tests of the benchmark harness; no workload is run."""

import json
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import child, gate, run, stats, tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -------------------------------------------------------------------- stats


def test_median_and_quartiles_follow_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert stats.median(values) == 3.5
    q = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q[0], q[2])
    assert stats.quartiles([7.0]) == (7.0, 7.0)
    assert stats.relative_spread([1.0, 1.0, 1.0]) == 0.0


def test_high_percentile_keeps_ten_samples_beyond():
    assert stats.high_percentile(list(range(10))) is None
    pct, value = stats.high_percentile(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    values = list(range(100, 0, -1))  # 1..100, unsorted
    pct, value = stats.high_percentile(values)
    assert (pct, value) == (90.0, 90)
    assert sum(v > value for v in values) == 10


def test_reference_speed_scaling_and_probe_timing():
    assert run.at_reference_speed(2.0, [0.02, 0.02]) == pytest.approx(2.0 * child.PROBE_REF_S / 0.02)
    assert run.at_reference_speed(2.0, []) is None

    def busy():
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
        return "done"

    t0 = time.perf_counter()
    result, net, probes = child.execute_with_probes(busy)
    total = time.perf_counter() - t0
    assert result == "done" and len(probes) >= 3  # before, at least one during, after
    assert net == pytest.approx(0.6, abs=0.05)
    assert net + sum(probes) == pytest.approx(total, abs=0.05)


# --------------------------------------------------------------------- gate


def _ref_series():
    t = [0.1, 1.0, 10.0]
    return {"decay": (t, [3.0, 1.0, 0.3]), "preserved": (t, [2.0, 2.0, 1.5])}


def test_perturbed_series_fails_reference_check():
    want = _ref_series()
    rounding = {k: (t, [x * (1 + 1e-12) for x in v]) for k, (t, v) in want.items()}
    assert gate.compare_series(rounding, want) == []
    wrong = dict(want, decay=(want["decay"][0], [3.0, 1.0 + 1e-6, 0.3]))
    problems = gate.compare_series(wrong, want)
    assert len(problems) == 1 and "decay" in problems[0]
    nan = dict(want, preserved=(want["preserved"][0], [2.0, float("nan"), 1.5]))
    assert gate.compare_series(nan, want)
    assert gate.compare_series({"decay": want["decay"]}, want)  # a series went missing


def _field(shift=0.0):
    return {"scale": 2.0, "samples": [1.0, -2.0 + shift, 0.5]}


def _outputs(passed=True, drift=None, digest="a", series=None, field_shift=0.0, vmax=3e-4):
    return {"pass": passed, "slope": -1.0, "relative_error": 0.01, "mass_relative_drift": drift,
            "extras": {"max_velocity_seen": vmax, "preserved_bounded_2x": True},
            "field": _field(field_shift),
            "series": series if series is not None else _ref_series(), "csv_sha256": digest}


def _reference():
    return {"slope": -1.0, "extras": {"max_velocity_seen": 3e-4, "preserved_bounded_2x": True},
            "field": _field(),
            "series": {k: {"t": t, "value": v} for k, (t, v) in _ref_series().items()}}


def test_check_run_verdict_and_mass_drift():
    expected = {"exit_code": 0, "pass": True}
    assert gate.check_run(_outputs(), 0, expected, None) == []
    assert gate.check_run(_outputs(passed=False), 1, expected, None)
    assert gate.check_run(_outputs(drift=5e-12), 0, expected, None)
    assert gate.check_run(None, 3, expected, None)


def test_final_state_and_run_record_checked_against_reference():
    expected = {"exit_code": 0, "pass": True}
    assert gate.check_run(_outputs(field_shift=1e-14), 0, expected, _reference()) == []
    assert gate.check_run(_outputs(field_shift=1e-7), 0, expected, _reference())
    assert gate.check_run(_outputs(vmax=3e-4 * (1 + 1e-6)), 0, expected, _reference())


def test_fail_ratio_counts_every_failure():
    expected = {"exit_code": 0, "pass": True}
    ref = _reference()

    def rep(**kw):
        return {"problems": [], "wall_s": 1.0, "exit_code": 0, "outputs": _outputs(**kw)}

    runs = [rep(), rep(digest="b"), rep(passed=False), rep()]
    runs.append({"problems": ["harness process exit None: timed out"]})
    probes = [{"problems": []}, {"problems": ["harness process exit 1: ImportError"]}]
    problems, failed = run.tally(runs, probes, expected, ref)
    # byte mismatch, wrong verdict, crashed run (which also has no digest), failed probe
    assert failed == 4
    assert stats.fail_ratio(failed, len(runs) + len(probes)) == pytest.approx(4 / 7)
    assert any("CSV bytes differ" in p for p in problems)
    with pytest.raises(ValueError):
        stats.fail_ratio(0, 0)


def test_read_field_parses_bsvf(tmp_path):
    from fraclab.bsvf import write_bsvf
    from fraclab.spectral import Grid2D, RealField

    values = np.arange(256.0).reshape(16, 16) - 200.0
    write_bsvf(tmp_path / "f.bsvf", RealField(Grid2D(16, 1.0), values))
    field = gate.read_field(tmp_path / "f.bsvf")
    assert field["scale"] == 200.0
    assert field["samples"] == list(values[::2, ::2].ravel())


def test_reference_lookup_by_seed(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"seed_unused": False, "expected": {"exit_code": 0, "pass": True},
                                "runs": {"11": {"series": {}}}}))
    assert gate.load_reference(path, 11)[1] == {"series": {}}
    assert gate.load_reference(path, 12) == ({"exit_code": 0, "pass": True}, None)


# ------------------------------------------------------------------- tracer


def test_absent_layers_read_zero_and_missing_targets_do_not_crash():
    t = tracer.Tracer()
    t.install(targets=(("fraclab.no_such_module", "f", "x.y"), ("fraclab.cli", "gone", "x.y")),
              fft_modules=("no_such_fft_module",))
    try:
        assert t.missing == ["fraclab.no_such_module.f", "fraclab.cli.gone", "no_such_fft_module"]
    finally:
        t.uninstall()
    spans = [["cli.execute", 0.0, 2.0, -1], ["decay.fit", 0.5, 1.0, 0]]
    metrics, absent = tracer.summarize({"spans": spans})
    assert metrics["cli.execute.self_s"] == pytest.approx(1.5)
    assert metrics["decay.fit_s"] == pytest.approx(0.5)
    assert metrics["spectral.fft_calls"] == 0 and metrics["spectral.fft_per_step"] == 0.0
    assert metrics["sqg.rhs_ms"] == 0.0
    assert "semigroup" in absent and "spectral" in absent and "cli" not in absent


def test_outermost_fft_only_and_flux_attribution():
    t = tracer.Tracer()
    inner = t._wrap_fft(lambda a: a)
    outer = t._wrap_fft(lambda a: inner(a))
    rhs = t.wrap("sqg.rhs", lambda a: outer(a))
    run_span = t.wrap("evolution.integrate", lambda: [rhs(np.zeros(4)) for _ in range(3)])
    run_span()
    t.steps = 3
    metrics, _ = tracer.summarize(t.dump())
    assert metrics["spectral.fft_calls"] == 3
    assert metrics["spectral.fft_per_step"] == 1.0
    assert metrics["spectral.fft_bytes"] == 3 * 2 * 32
    assert metrics["sqg.rhs_calls"] == 3


def test_tracer_wraps_fraclab_at_caller_names():
    from fraclab import cli, evolution, keller_segel, sqg
    from fraclab.littlewood_paley import BesovParams, build_dyadic_profile
    from fraclab.spectral import Grid2D

    originals = (cli.spectral_besov_norm, sqg.integrate, np.fft.ifft2)
    t = tracer.Tracer().install()
    try:
        assert cli.spectral_besov_norm is evolution.spectral_besov_norm is not originals[0]
        assert sqg.integrate is keller_segel.integrate is not originals[1]
        grid = Grid2D(16, 2 * np.pi * 4)
        c = np.zeros((16, 16), complex)
        c[1, 2] = c[-1, -2] = 1.0
        profile = build_dyadic_profile()
        module = types.ModuleType("fraclab.sqg_stub")
        sys.modules[module.__name__] = module
        exec("def rhs(c):\n    return 0 * c\n"
             "def max_velocity(c):\n    import numpy\n    numpy.fft.ifft2(c)\n    return 0.0\n",
             module.__dict__)
        recorded = []
        sqg.integrate(grid, c, 1.0, 0.02, 0.1, module.rhs, module.max_velocity, [0.05, 0.1],
                      lambda t_, c_: recorded.append(
                          cli.spectral_besov_norm(grid, c_, BesovParams(0, 2, 1), profile)))
    finally:
        t.uninstall()
        sys.modules.pop("fraclab.sqg_stub", None)
    assert (cli.spectral_besov_norm, sqg.integrate, np.fft.ifft2) == originals
    metrics, absent = tracer.summarize(t.dump())
    assert metrics["evolution.steps"] == 5
    assert metrics["evolution.record_calls"] == len(recorded) == 3
    assert metrics["evolution.norm_calls"] == 3
    assert metrics["spectral.fft_per_step"] == 1.0
    assert metrics["littlewood_paley.mask_calls"] > 0 and metrics["littlewood_paley.mask_builds"] > 0
    assert "semigroup" in absent and "evolution" not in absent


# ----------------------------------------------------------- benchmark file


def test_benchmark_json_names_the_reported_metrics():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for w in run.WORKLOADS:
        assert (run.BENCH / "workloads" / f"{w}.json").is_file()
        assert (run.BENCH / "reference" / f"{w}.json").is_file()
