"""In-memory span tracer that instruments nudgeflow from outside the package.

`instrument(tracer)` replaces the module-level names through which each
layer is reached (for example `schemes.gmres`, `experiments.advance`,
`Trajectory.at`) with wrappers that record a span per call: name, start,
end and the span that was open when it started.  Nothing inside
`src/nudgeflow` changes; the returned function restores the originals.

`layer_metrics(tracer, calls)` turns the spans of `calls` traced runner
calls into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable

import workloads as wl

ROLES = ("truth", "reference", "assimilation")

# Spans whose subtree integrates the truth or the fine reference; every
# other advance span is the runner's own (assimilation) integration.
_ROLE_OF_SPAN = {
    "experiments.build_truth": "truth",
    "schemes.nse_integrate": "truth",
    "schemes.reference_galerkin_integrate": "reference",
}

_NORMS = ("norm_H", "norm_V", "norm_DA")
_ANALYSIS = (
    "bound_constants", "check_conditions", "contraction_envelope",
    "convergence_order", "decay_rate_fit", "gronwall_envelope",
    "stability_bound_h2", "stability_bound_v2",
)


class Tracer:
    """Spans and per-span facts of the calls made while instrumented."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.facts: dict[int, dict] = {}
        self.trajectories: dict[int, object] = {}
        self._stack: list[int] = [-1]

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(float("nan"))
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        prepare: Callable | None = None,
        record: Callable | None = None,
    ) -> Callable:
        """Span around fn; prepare may rewrite the arguments (to trace the
        callables handed to fn), record notes facts about the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                if prepare is not None:
                    args, kwargs = prepare(sid, args, kwargs)
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if record is not None:
                record(sid, args, kwargs, out)
            return out

        return traced

    def dump(self, path: str) -> None:
        """Write every span as [name, start_s, end_s, parent] plus its facts."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [n, s - t0, e - t0, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "facts": self.facts}, fh)


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Patch the layer entry points and return a function undoing the patches.

    An entry point missing from this version of the package raises
    AttributeError, so that a renamed layer cannot read as zero cost.
    """
    from nudgeflow import experiments, schemes
    from nudgeflow.fields import SpectralField
    from nudgeflow.storage import Trajectory

    saved: list[tuple[object, str, object]] = []

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    def patch(owner: object, attr: str, name: str, prepare=None, record=None) -> None:
        if attr not in owner.__dict__:
            restore()
            raise AttributeError(f"{owner.__name__}.{attr} is not there to trace")
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            traced = tracer.wrap(name, original.__func__, prepare, record)
            setattr(owner, attr, classmethod(traced))
        else:
            setattr(owner, attr, tracer.wrap(name, original, prepare, record))

    def advance_prepare(sid, args, kwargs):
        p = args[1]
        n_steps = args[4] if len(args) > 4 else kwargs["n_steps"]
        tracer.facts[sid] = {
            "steps": int(n_steps),
            "unknowns": wl.packed_unknowns(p.cutoff, p.grid),
        }
        if kwargs.get("on_step") is not None:
            on_step = tracer.wrap("experiments.on_step", kwargs["on_step"])
            kwargs = dict(kwargs, on_step=on_step)
        return args, kwargs

    def gmres_prepare(sid, args, kwargs):
        args = (tracer.wrap("krylov.apply_op", args[0]),) + tuple(args[1:])
        if kwargs.get("apply_precond") is not None:
            kwargs = dict(
                kwargs,
                apply_precond=tracer.wrap("krylov.apply_precond", kwargs["apply_precond"]),
            )
        return args, kwargs

    def gmres_record(sid, args, kwargs, result):
        tracer.facts[sid] = {
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
        }

    def keep_trajectory(sid, args, kwargs, traj):
        tracer.trajectories[id(traj)] = traj

    def at_record(sid, args, kwargs, out):
        tracer.trajectories[id(args[0])] = args[0]

    def write_record(sid, args, kwargs, out):
        text = args[1] if len(args) > 1 else kwargs["text"]
        tracer.facts[sid] = {"bytes": len(text.encode("utf-8"))}

    patch(schemes, "gmres", "krylov.gmres", gmres_prepare, gmres_record)
    patch(schemes, "advect_raw", "operators.advect_raw")
    patch(schemes, "to_physical", "fields.to_physical")
    patch(schemes, "apply_ih", "interpolants.apply_ih")
    patch(schemes, "advance", "schemes.advance", advance_prepare)
    patch(experiments, "advance", "schemes.advance", advance_prepare)
    patch(experiments, "nse_integrate", "schemes.nse_integrate", record=keep_trajectory)
    patch(experiments, "reference_galerkin_integrate",
          "schemes.reference_galerkin_integrate", record=keep_trajectory)
    patch(experiments, "build_truth", "experiments.build_truth")
    patch(experiments, "estimate_c0", "interpolants.estimate_c0")
    patch(experiments, "atomic_write_text", "storage.atomic_write_text", record=write_record)
    for norm in _NORMS:
        patch(experiments, norm, f"fields.{norm}")
    for fn in _ANALYSIS:
        patch(experiments, fn, f"analysis.{fn}")
    patch(SpectralField, "from_coeffs", "fields.from_coeffs")
    patch(Trajectory, "at", "storage.Trajectory.at", record=at_record)
    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, calls: int) -> dict[str, float]:
    """Per-layer metrics averaged over `calls` identical traced runner calls.

    Counts are per runner call; `*_per_*` values are ratios of counts, so
    they repeat exactly between runs of the same seed.
    """
    names, parents = tracer.names, tracer.parents
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    role: list[str | None] = []
    step_span: list[int] = []  # nearest enclosing advance span, -1 if none
    in_gmres: list[bool] = []
    in_analysis: list[bool] = []
    for sid, (name, parent) in enumerate(zip(names, parents)):
        if parent < 0:
            role.append(_ROLE_OF_SPAN.get(name))
            step_span.append(sid if name == "schemes.advance" else -1)
            in_gmres.append(name == "krylov.gmres")
            in_analysis.append(False)
            continue
        role.append(_ROLE_OF_SPAN.get(name, role[parent]))
        step_span.append(sid if name == "schemes.advance" else step_span[parent])
        in_gmres.append(name == "krylov.gmres" or in_gmres[parent])
        in_analysis.append(in_analysis[parent] or names[parent].startswith("analysis."))

    def step_role(sid: int) -> str | None:
        adv = step_span[sid]
        return None if adv < 0 else (role[adv] or "assimilation")

    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    for sid, name in enumerate(names):
        count[name] += 1
        total[name] += dur[sid]

    # per-role step accounting
    steps = defaultdict(int)
    unknowns = defaultdict(int)
    advance_s = defaultdict(float)
    applies = defaultdict(int)
    check_applies = defaultdict(int)
    check_s = defaultdict(float)
    solves = defaultdict(int)
    gmres_s = defaultdict(float)
    on_step_s = defaultdict(float)
    for sid, name in enumerate(names):
        r = step_role(sid)
        if r is None:
            continue
        if name == "schemes.advance":
            steps[r] += tracer.facts[sid]["steps"]
            unknowns[r] = max(unknowns[r], tracer.facts[sid]["unknowns"])
            advance_s[r] += dur[sid]
        elif name == "operators.advect_raw":
            applies[r] += 1
            if not in_gmres[sid]:
                check_applies[r] += 1
                check_s[r] += dur[sid]
        elif name == "krylov.gmres":
            solves[r] += 1
            gmres_s[r] += dur[sid]
        elif name == "experiments.on_step":
            on_step_s[r] += dur[sid]

    m: dict[str, float] = {}
    n_adv = count["operators.advect_raw"]
    m["operators.advect_raw.calls"] = n_adv / calls
    m["operators.advect_raw.s"] = total["operators.advect_raw"] / calls
    m["operators.advect_raw.us_per_call"] = 1e6 * _ratio(total["operators.advect_raw"], n_adv)

    gm = [sid for sid, n in enumerate(names) if n == "krylov.gmres"]
    iters = sum(tracer.facts[sid]["iterations"] for sid in gm)
    inner_s = total["krylov.apply_op"] + total["krylov.apply_precond"]
    m["krylov.gmres.solves"] = len(gm) / calls
    m["krylov.gmres.iters_per_solve"] = _ratio(iters, len(gm))
    m["krylov.gmres.applies_per_solve"] = _ratio(count["krylov.apply_op"], len(gm))
    m["krylov.gmres.overhead_us_per_iter"] = 1e6 * _ratio(total["krylov.gmres"] - inner_s, iters)
    m["krylov.gmres.unconverged"] = sum(
        not tracer.facts[sid]["converged"] for sid in gm
    ) / calls

    for r in ROLES + ("all",):
        pick = ROLES if r == "all" else (r,)
        n_steps = sum(steps[x] for x in pick)
        suffix = "" if r == "all" else f".{r}"
        m[f"schemes.steps{suffix}"] = n_steps / calls
        m[f"schemes.applies_per_step{suffix}"] = _ratio(sum(applies[x] for x in pick), n_steps)
        m[f"schemes.picard_per_step{suffix}"] = _ratio(sum(solves[x] for x in pick), n_steps)
        m[f"schemes.check_applies_per_step{suffix}"] = _ratio(
            sum(check_applies[x] for x in pick), n_steps
        )
        overhead = sum(advance_s[x] - on_step_s[x] - gmres_s[x] - check_s[x] for x in pick)
        m[f"schemes.step_overhead_us{suffix}"] = 1e6 * _ratio(overhead, n_steps)
        if r != "all":
            m[f"schemes.unknowns{suffix}"] = unknowns[r]

    m["fields.from_coeffs.s"] = total["fields.from_coeffs"] / calls
    m["fields.to_physical.s"] = total["fields.to_physical"] / calls
    m["fields.norms.s"] = sum(total[f"fields.{n}"] for n in _NORMS) / calls

    m["interpolants.apply_ih.calls"] = count["interpolants.apply_ih"] / calls
    m["interpolants.apply_ih.s"] = total["interpolants.apply_ih"] / calls
    m["interpolants.estimate_c0.s"] = total["interpolants.estimate_c0"] / calls

    trajs = list(tracer.trajectories.values())
    exact = sum(t.exact_queries for t in trajs)
    interp = sum(t.interpolated_queries for t in trajs)
    m["storage.Trajectory.at.calls"] = count["storage.Trajectory.at"] / calls
    m["storage.Trajectory.at.s"] = total["storage.Trajectory.at"] / calls
    m["storage.Trajectory.at.interpolated_share"] = _ratio(interp, exact + interp)
    m["storage.Trajectory.bytes_held"] = sum(
        sum(f.coeffs.nbytes for f in t.fields) for t in trajs
    ) / calls
    writes = [sid for sid, n in enumerate(names) if n == "storage.atomic_write_text"]
    m["storage.write.bytes"] = sum(tracer.facts[sid]["bytes"] for sid in writes) / calls
    m["storage.write.s"] = total["storage.atomic_write_text"] / calls

    m["experiments.on_step.us_per_step"] = 1e6 * _ratio(
        total["experiments.on_step"], count["experiments.on_step"]
    )
    m["experiments.truth.s"] = total["experiments.build_truth"] / calls
    m["experiments.reference.s"] = total["schemes.reference_galerkin_integrate"] / calls
    child_s = sum(
        dur[sid] for sid, p in enumerate(parents)
        if p >= 0 and names[p] == "experiments.run"
    )
    m["experiments.self_s"] = (total["experiments.run"] - child_s) / calls
    m["analysis.s"] = sum(
        dur[sid] for sid, n in enumerate(names)
        if n.startswith("analysis.") and not in_analysis[sid]
    ) / calls
    m["config.load_config.s"] = total["config.load_config"] / calls
    return m
