"""Span tracing from outside the program, for the traced benchmark run.

Wraps public rhflab functions in every module namespace that holds them
(runner keeps its own `evolve`, `hf_energy`, ...; propagate calls `step`
through its module globals), so each call records a span: name, start, end
and the enclosing span.  The `matvec` callback handed to
`krylov.expm_apply_block` is wrapped too, which splits matvec time from
Krylov self time.  Spans stay in memory until `dump` writes them.

A target that a later version of rhflab no longer has is skipped and listed
in `missing`; its metrics then read 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

# span name -> (defining module, function names, namespaces to patch).
# None for the namespaces means every loaded rhflab module.
TARGETS = {
    "runner.run": ("rhflab.runner", ("run",), None),
    "runner.artifacts": ("rhflab.containers", ("save_orbitals", "write_csv", "dump_json"),
                         ("rhflab.runner",)),
    "scenarios.load_scenario": ("rhflab.scenarios", ("load_scenario",), None),
    "scf.scf_minimize": ("rhflab.scf", ("scf_minimize",), None),
    "scf.hf_energy": ("rhflab.scf", ("hf_energy",), None),
    "propagate.evolve": ("rhflab.propagate", ("evolve",), None),
    "propagate.step": ("rhflab.propagate", ("step",), None),
    "krylov.expm_apply_block": ("rhflab.krylov", ("expm_apply_block",), None),
    "orbitals.trace_norm": ("rhflab.orbitals", ("trace_norm",), None),
    "orbitals.reorthonormalize": ("rhflab.orbitals", ("reorthonormalize",), None),
    "diagnostics.commutator_channels": ("rhflab.diagnostics", ("commutator_channels",), None),
    "diagnostics.exp_bound_check": ("rhflab.diagnostics", ("exp_bound_check",), None),
    "diagnostics.exchange_double_commutator_check": (
        "rhflab.diagnostics", ("exchange_double_commutator_check",), None),
    "diagnostics.kinetic_double_commutator_check": (
        "rhflab.diagnostics", ("kinetic_double_commutator_check",), None),
    "diagnostics.wigner_transform": ("rhflab.diagnostics", ("wigner_transform",), None),
    "vlasov.vlasov_step": ("rhflab.vlasov", ("vlasov_step",), None),
    "ed.build_hamiltonian": ("rhflab.ed", ("build_hamiltonian",), None),
    "ed.evolve_exact": ("rhflab.ed", ("evolve_exact",), None),
    "ed.reduced_density_1": ("rhflab.ed", ("reduced_density_1",), None),
    "ed.hf_mode_evolution": ("rhflab.ed", ("hf_mode_evolution",), None),
}

MATVEC = "krylov.matvec"

# per-layer metrics reported as self time and call count
TIMED_LAYERS = (
    "orbitals.trace_norm", "orbitals.reorthonormalize",
    "diagnostics.commutator_channels", "diagnostics.exp_bound_check",
    "diagnostics.exchange_double_commutator_check",
    "diagnostics.kinetic_double_commutator_check", "diagnostics.wigner_transform",
    "vlasov.vlasov_step", "scf.hf_energy", "propagate.step", "runner.artifacts",
)
SELF_ONLY_LAYERS = (
    "runner.run", "scenarios.load_scenario", "scf.scf_minimize",
    "ed.build_hamiltonian", "ed.evolve_exact", "ed.reduced_density_1",
    "ed.hf_mode_evolution",
)


class Tracer:
    """Collects spans as [name, start, end, parent index, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            if name == "krylov.expm_apply_block":
                args, kwargs = self._wrap_matvec(args, kwargs)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                rec[4] = after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_matvec(self, args, kwargs):
        rows = lambda a, r: int(a[0].shape[0])
        if args:
            return (self._wrap(MATVEC, args[0], rows),) + tuple(args[1:]), kwargs
        kwargs = dict(kwargs, matvec=self._wrap(MATVEC, kwargs["matvec"], rows))
        return args, kwargs

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rhflab" or n.startswith("rhflab."))]
        for name, (home, funcs, spaces) in TARGETS.items():
            after = _AFTER.get(name)
            for func in funcs:
                original = getattr(sys.modules.get(home), func, None)
                if original is None:
                    self.missing.append(f"{home}.{func}")
                    continue
                wrapper = self._wrap(name, original, after)
                for module in modules:
                    if spaces is not None and module.__name__ not in spaces:
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def clear(self) -> None:
        self.spans.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"],
                       "spans": self.spans, "missing": self.missing}, fh)


def _scf_iterations(args, result):
    return int(getattr(result, "iterations", 0))


def _artifact_bytes(args, result):
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


_AFTER = {"scf.scf_minimize": _scf_iterations, "runner.artifacts": _artifact_bytes}


def summarize(spans) -> dict:
    """Per span name: calls, self time and extras."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "extras": []})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[i]
        entry["extras"].append(extra)
    return out


def layer_metrics(spans) -> dict:
    """The per-layer metric values of one traced workload run."""
    s = summarize(spans)
    get = lambda name: s.get(name, {"calls": 0, "self_s": 0.0, "extras": []})
    m: dict[str, float] = {}
    matvec, expm = get(MATVEC), get("krylov.expm_apply_block")
    m["krylov.matvec.s"] = matvec["self_s"]
    m["krylov.matvec.calls"] = matvec["calls"]
    m["krylov.matvec.rows"] = sum(x or 0 for x in matvec["extras"])
    m["krylov.self_s"] = expm["self_s"]
    m["krylov.expm_apply_block.calls"] = expm["calls"]
    m["krylov.matvecs_per_call"] = matvec["calls"] / expm["calls"] if expm["calls"] else 0.0
    for name in TIMED_LAYERS:
        m[f"{name}.s"] = get(name)["self_s"]
        m[f"{name}.calls"] = get(name)["calls"]
    for name in SELF_ONLY_LAYERS:
        m[f"{name}.s"] = get(name)["self_s"]
    step = get("propagate.step")
    m["propagate.step.median_ms"] = median_ms(spans, "propagate.step")
    m["propagate.step_rejected"] = sum(x == "StepRejected" for x in step["extras"])
    m["propagate.evolve.self_s"] = get("propagate.evolve")["self_s"]
    m["scf.scf_minimize.iterations"] = sum(x or 0 for x in get("scf.scf_minimize")["extras"])
    m["runner.artifacts.bytes"] = sum(x or 0 for x in get("runner.artifacts")["extras"])
    return m


def median_ms(spans, name) -> float:
    """Median inclusive duration of the named spans, in ms (0 if none)."""
    durations = [end - start for n, start, end, _, _ in spans if n == name]
    return 1e3 * statistics.median(durations) if durations else 0.0
