"""Span tracing of fraclab from outside the program.

Wrappers are installed at the names the callers actually look up: every
``fraclab.*`` module global bound to a traced function is rebound to one
timing wrapper, so ``cli.spectral_besov_norm`` and
``evolution.spectral_besov_norm`` feed the same span. ``integrate`` also
wraps the tendency, speed and record callables it receives, and the 2-D FFT
entry points of ``numpy.fft`` and ``scipy.fft`` are wrapped with only the
outermost FFT span counted.

A target that no longer exists is recorded as missing and its layer
reported absent; nothing here raises on a refactored program. Spans assume
one thread (the workloads run with ``threads = 1``).

Spans stay in memory as (name, start, end, parent) rows and are written out
by the caller at the end; ``summarize`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (module that defines or re-exports the function, attribute, span name)
TARGETS = (
    ("fraclab.cli", "validate_config", "cli.validate"),
    ("fraclab.cli", "execute", "cli.execute"),
    ("fraclab.cli", "emit_outputs", "cli.emit"),
    ("fraclab.cli", "write_bsvf", "bsvf.write"),
    ("fraclab.cli", "fit_decay_slope", "decay.fit"),
    ("fraclab.cli", "oracle_besov_series", "semigroup.series"),
    ("fraclab.semigroup", "oracle_block_norm", "semigroup.block_norm"),
    ("fraclab.cli", "evolve_linear", "semigroup.evolve_linear"),
    ("fraclab.cli", "run_sqg", "evolution.run"),
    ("fraclab.cli", "run_ks", "evolution.run"),
    ("fraclab.evolution", "spectral_besov_norm", "evolution.norm"),
    ("fraclab.cli", "spectral_besov_norm", "evolution.norm"),
    ("fraclab.evolution", "block_multiplier", "littlewood_paley.mask"),
    ("fraclab.littlewood_paley", "block_multiplier", "littlewood_paley.mask"),
    ("fraclab.sqg", "integrate", "evolution.integrate"),
    ("fraclab.keller_segel", "integrate", "evolution.integrate"),
)

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
FFT_SPAN = "spectral.fft"

# Callables handed to integrate, by parameter name. The tendency and speed
# callables are named after the module that defines them (sqg, keller_segel).
FLUX_PARAMS = ("rhs", "max_velocity")
RECORD_PARAM = "record"
RECORD_SPAN = "evolution.record"

# Spans whose self time is reported as <name>.self_s.
SELF_SPANS = (
    "cli.execute",
    "cli.validate",
    "cli.emit",
    "bsvf.write",
    "decay.fit",
    "semigroup.series",
    "semigroup.block_norm",
    "semigroup.evolve_linear",
    FFT_SPAN,
    "sqg.rhs",
    "sqg.max_velocity",
    "keller_segel.rhs",
    "keller_segel.max_velocity",
    RECORD_SPAN,
    "evolution.norm",
    "littlewood_paley.mask",
)

# Per-layer metric name -> unit; trace.overhead_s, cli.output_bytes and
# decay.slope_rel_err are filled in by the runner, the rest by summarize().
METRICS = {
    "semigroup.series_calls": "count",
    "semigroup.series_s": "s",
    "semigroup.block_norm_calls": "count",
    "semigroup.block_norm_s": "s",
    "semigroup.evolve_linear_s": "s",
    "spectral.fft_calls": "count",
    "spectral.fft_s": "s",
    "spectral.fft_per_step": "count/step",
    "spectral.fft_bytes": "B",
    "sqg.rhs_calls": "count",
    "sqg.rhs_ms": "ms",
    "sqg.max_velocity_ms": "ms",
    "keller_segel.rhs_calls": "count",
    "keller_segel.rhs_ms": "ms",
    "keller_segel.max_velocity_ms": "ms",
    "evolution.steps": "count",
    "evolution.step_ms": "ms",
    "evolution.integrate_self_s": "s",
    "evolution.record_calls": "count",
    "evolution.record_s": "s",
    "evolution.norm_calls": "count",
    "evolution.norm_s": "s",
    "evolution.init_s": "s",
    "littlewood_paley.mask_calls": "count",
    "littlewood_paley.mask_builds": "count",
    "littlewood_paley.mask_s": "s",
    "decay.fit_s": "s",
    "decay.slope_rel_err": "1",
    "cli.validate_s": "s",
    "cli.emit_s": "s",
    "cli.output_bytes": "B",
    "bsvf.write_s": "s",
    "trace.overhead_s": "s",
}
METRICS.update({f"{name}.self_s": "s" for name in SELF_SPANS})

LAYERS = ("cli", "bsvf", "decay", "semigroup", "spectral", "sqg", "keller_segel",
          "evolution", "littlewood_paley")


class Tracer:
    """In-memory span recorder with installable wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._fft_depth = 0
        self.fft_bytes = 0
        self.mask_keys = set()
        self.steps = 0
        self.missing = []  # "module.attr" targets that could not be wrapped
        self._undo = []

    # ------------------------------------------------------------ spans

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """Timing wrapper around fn; after(args, kwargs, result) sees each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._fft_depth:
                return fn(*args, **kwargs)  # inner FFT call: not a span of its own
            self._fft_depth += 1
            idx = self._open(FFT_SPAN)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._fft_depth -= 1
            self.fft_bytes += getattr(args[0] if args else None, "nbytes", 0)
            self.fft_bytes += getattr(result, "nbytes", 0)
            return result

        return wrapper

    def _wrap_integrate(self, fn):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                for param in FLUX_PARAMS + (RECORD_PARAM,):
                    cb = bound.arguments.get(param)
                    if callable(cb):
                        bound.arguments[param] = self.wrap(_callable_span(param, cb), cb)
                args, kwargs = bound.args, bound.kwargs
            idx = self._open("evolution.integrate")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if isinstance(result, tuple) and len(result) > 1 and isinstance(result[1], int):
                self.steps += result[1]
            return result

        return wrapper

    def _note_mask(self, args, kwargs, result):
        grid = args[0] if args else kwargs.get("grid")
        j = args[1] if len(args) > 1 else kwargs.get("j")
        kind = args[2] if len(args) > 2 else kwargs.get("kind")
        self.mask_keys.add((getattr(grid, "n", None), getattr(grid, "L", None), j, kind))

    # ---------------------------------------------------------- install

    def _rebind(self, original, wrapper):
        """Point every fraclab module global bound to original at wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fraclab" or mod_name.startswith("fraclab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self, targets=TARGETS, fft_modules=FFT_MODULES):
        for mod_name, attr, span in targets:
            try:
                original = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if getattr(original, "__perfbench_span__", None):
                continue  # re-exported name already rebound through its first binding
            if span == "evolution.integrate":
                wrapper = self._wrap_integrate(original)
            elif span == "littlewood_paley.mask":
                wrapper = self.wrap(span, original, after=self._note_mask)
            else:
                wrapper = self.wrap(span, original)
            wrapper.__perfbench_span__ = span
            self._rebind(original, wrapper)
        for mod_name in fft_modules:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(mod_name)
                continue
            for name in FFT_NAMES:
                original = getattr(mod, name, None)
                if original is None or getattr(original, "__perfbench_span__", None):
                    continue
                wrapper = self._wrap_fft(original)
                wrapper.__perfbench_span__ = FFT_SPAN
                setattr(mod, name, wrapper)
                self._undo.append((mod, name, original))
                self._rebind(original, wrapper)  # covers `from numpy.fft import ...`
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "fft_bytes": self.fft_bytes,
            "mask_builds": len(self.mask_keys),
            "steps": self.steps,
            "missing": self.missing,
        }


def _callable_span(param: str, cb) -> str:
    if param == RECORD_PARAM:
        return RECORD_SPAN
    module = getattr(cb, "__module__", None) or ""
    return f"{module.rsplit('.', 1)[-1]}.{param}"


# ------------------------------------------------------------------ summary


def summarize(trace: dict) -> tuple[dict, list]:
    """Per-layer metrics from a dumped trace, and the layers that never fired.

    Inclusive time is a span's duration; self time is its duration minus
    that of its direct children, so nested layers are not counted twice.
    Metrics of an absent layer read 0.
    """
    spans = trace["spans"]
    calls, total, self_time = {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]

    flux = {i for i, s in enumerate(spans) if s[0].endswith(FLUX_PARAMS)}
    fft_under_flux = 0
    for name, _, _, parent in spans:
        if name != FFT_SPAN:
            continue
        while parent >= 0 and parent not in flux:
            parent = spans[parent][3]
        fft_under_flux += parent >= 0

    # evolution.init: solver start to the first integrate step, per run
    init_s = 0.0
    for i, (name, start, _, _) in enumerate(spans):
        if name == "evolution.run":
            first = next((s for s in spans[i + 1:] if s[0] == "evolution.integrate" and s[3] == i), None)
            if first is not None:
                init_s += first[1] - start

    steps = trace.get("steps", 0)

    def mean_ms(name):
        return 1e3 * total[name] / calls[name] if calls.get(name) else 0.0

    m = {
        "semigroup.series_calls": calls.get("semigroup.series", 0),
        "semigroup.series_s": total.get("semigroup.series", 0.0),
        "semigroup.block_norm_calls": calls.get("semigroup.block_norm", 0),
        "semigroup.block_norm_s": total.get("semigroup.block_norm", 0.0),
        "semigroup.evolve_linear_s": total.get("semigroup.evolve_linear", 0.0),
        "spectral.fft_calls": calls.get(FFT_SPAN, 0),
        "spectral.fft_s": total.get(FFT_SPAN, 0.0),
        "spectral.fft_per_step": fft_under_flux / steps if steps else 0.0,
        "spectral.fft_bytes": trace.get("fft_bytes", 0),
        "sqg.rhs_calls": calls.get("sqg.rhs", 0),
        "sqg.rhs_ms": mean_ms("sqg.rhs"),
        "sqg.max_velocity_ms": mean_ms("sqg.max_velocity"),
        "keller_segel.rhs_calls": calls.get("keller_segel.rhs", 0),
        "keller_segel.rhs_ms": mean_ms("keller_segel.rhs"),
        "keller_segel.max_velocity_ms": mean_ms("keller_segel.max_velocity"),
        "evolution.steps": steps,
        "evolution.step_ms": (
            1e3 * (total.get("evolution.integrate", 0.0) - total.get(RECORD_SPAN, 0.0)) / steps
            if steps else 0.0
        ),
        "evolution.integrate_self_s": self_time.get("evolution.integrate", 0.0),
        "evolution.record_calls": calls.get(RECORD_SPAN, 0),
        "evolution.record_s": total.get(RECORD_SPAN, 0.0),
        "evolution.norm_calls": calls.get("evolution.norm", 0),
        "evolution.norm_s": total.get("evolution.norm", 0.0),
        "evolution.init_s": init_s,
        "littlewood_paley.mask_calls": calls.get("littlewood_paley.mask", 0),
        "littlewood_paley.mask_builds": trace.get("mask_builds", 0),
        "littlewood_paley.mask_s": total.get("littlewood_paley.mask", 0.0),
        "decay.fit_s": total.get("decay.fit", 0.0),
        "cli.validate_s": total.get("cli.validate", 0.0),
        "cli.emit_s": total.get("cli.emit", 0.0),
        "bsvf.write_s": total.get("bsvf.write", 0.0),
    }
    m.update({f"{name}.self_s": self_time.get(name, 0.0) for name in SELF_SPANS})
    fired = {name.split(".", 1)[0] for name in calls}
    absent = [layer for layer in LAYERS if layer not in fired]
    return m, absent
