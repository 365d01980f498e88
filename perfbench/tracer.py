"""Layer tracing applied to rankzero from outside the package.

`Tracer.install` replaces every public function of the library modules
(the plain functions named in each module's ``__all__``) with a timing
wrapper, in every ``rankzero.*`` namespace that holds the function object,
so call sites that did ``from .evaluator import log_eval`` are covered too.
The acceptance criteria are wrapped through their entries in
``verification.CRITERIA``, and the elementary functions of mpmath's ``mp``
and ``iv`` contexts are wrapped to count calls per layer.  `uninstall` puts
every original object back and reports any attribute that does not hold
its original afterwards.

A span is ``[name, layer, start, end, parent, error, payload]``: parent is
the index of the enclosing span (-1 for a root) and payload is a small
number recorded by a per-function hook (points materialized, zeros summed,
sweep rows, zeros built).  Spans stay in memory and are written out once,
when the traced process ends.  rankzero is single-threaded and has no
queues, so no layer ever waits for another and no wait time is recorded.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("ordinal", "pointset", "schedule", "evaluator", "probe", "verification")

# Elementary functions counted as mp calls.  Some are instance attributes of
# the context, others are class methods; an instance attribute shadows both.
MP_FUNCTIONS = ("exp", "log", "ln", "expm1", "log1p", "sin", "cos", "sqrt",
                "fmod", "floor", "arg", "power")
IV_FUNCTIONS = ("exp", "log", "ln", "sin", "cos", "sqrt", "power")

SCHEDULE_BUILDERS = ("schedule.build_rows", "schedule.build_row_schedule",
                     "schedule.build_sector_schedule", "schedule.build_limit_schedule")

_MISSING = object()


def _zero_terms(args, kwargs):
    """Zeros in rings <= rows for a log_eval call: its kernel-call bound."""
    schedule = args[0]
    rows = args[2] if len(args) > 2 else kwargs.get("rows_used")
    if rows is None:
        return len(schedule.zeros)
    return sum(1 for z in schedule.zeros if z.ring <= rows)


def _placed_angles(sched):
    return len({(z.sector, z.turn) for z in sched.zeros})


# name -> hook(args, kwargs, result) giving the span payload
_HOOKS = {
    "evaluator.log_eval": lambda a, k, r: (_zero_terms(a, k), int(r.valid)),
    "pointset.materialize": lambda a, k, r: len(r),
    "probe.condition_m_sweep": lambda a, k, r: len(r),
}
for _name in SCHEDULE_BUILDERS:
    _HOOKS[_name] = lambda a, k, r: (len(r.zeros), _placed_angles(r))


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.mp_calls: Counter = Counter()
        self._in_mp = False
        self._patches: list = []  # (restore, check, label) per patched attribute

    # -- spans ---------------------------------------------------------------

    def _layer(self) -> str:
        return self.spans[self.stack[-1]][1] if self.stack else "cli"

    def call(self, name: str, layer: str, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0, None]
        self.spans.append(span)
        self.stack.append(idx)
        span[2] = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[5] = 1
            raise
        finally:
            span[3] = self.clock()
            self.stack.pop()
        hook = _HOOKS.get(name)
        if hook is not None:
            span[6] = hook(args, kwargs, result)
        return result

    def wrap(self, name: str, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, layer, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_mp(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer._in_mp:  # mpmath calling itself
                return fn(*args, **kwargs)
            tracer._in_mp = True
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_mp = False
                tracer.mp_calls[tracer._layer()] += 1

        counted.__wrapped__ = fn
        return counted

    # -- patching ------------------------------------------------------------

    def _patch_attr(self, owner, attr: str, new) -> None:
        before = owner.__dict__.get(attr, _MISSING)
        setattr(owner, attr, new)

        def restore():
            if before is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, before)

        def check():
            return owner.__dict__.get(attr, _MISSING) is before

        self._patches.append((restore, check, f"{getattr(owner, '__name__', owner)}.{attr}"))

    def install(self) -> int:
        """Wrap the library and the mp contexts; returns the patch count."""
        from mpmath import iv, mp
        import rankzero.verification as verification

        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"rankzero.{layer}"]
            for name in getattr(mod, "__all__", ()):
                obj = mod.__dict__.get(name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, f"{layer}.{name}", layer)
        wrappers = {key: self.wrap(qual, layer, obj)
                    for key, (obj, qual, layer) in targets.items()}
        for modname, mod in sorted(sys.modules.items()):
            if modname != "rankzero" and not modname.startswith("rankzero."):
                continue
            for attr, val in list(mod.__dict__.items()):
                if id(val) in targets and targets[id(val)][0] is val:
                    self._patch_attr(mod, attr, wrappers[id(val)])
        criteria = verification.CRITERIA
        for i, entry in enumerate(list(criteria)):
            cid, label, fn = entry
            wrapped = (cid, label, self.wrap(f"verification.c{cid}", "verification", fn))
            criteria[i] = wrapped
            self._patches.append((
                lambda i=i, entry=entry: criteria.__setitem__(i, entry),
                lambda i=i, entry=entry: criteria[i] is entry,
                f"verification.CRITERIA[{i}]",
            ))
        for ctx, names in ((mp, MP_FUNCTIONS), (iv, IV_FUNCTIONS)):
            for name in names:
                fn = getattr(ctx, name, None)
                if fn is not None:
                    self._patch_attr(ctx, name, self.wrap_mp(fn))
        return len(self._patches)

    def uninstall(self) -> list:
        """Restore every original; returns the names not restored."""
        for restore, _, _ in reversed(self._patches):
            restore()
        bad = [label for _, check, label in self._patches if not check()]
        self._patches = []
        return bad

    # -- root span for a whole CLI command ------------------------------------

    def open_root(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, "cli", self.clock(), 0.0, -1, 0, None])
        self.stack.append(idx)
        return idx

    def close_root(self, idx: int, error: bool) -> None:
        self.stack.pop()
        self.spans[idx][3] = self.clock()
        self.spans[idx][5] = int(error)

    def dump(self) -> dict:
        return {"spans": self.spans, "mp_calls": dict(self.mp_calls)}


# -- aggregation over the traces of many processes ------------------------------

COMMANDS = ("build-set", "derive", "build-zeros", "eval", "probe", "verify")


def per_layer_metrics(traces: list, timed=lambda start, end: end - start) -> tuple:
    """Per-layer metrics (name -> value) from a list of dumped traces, and
    notes naming each ratio reported as 0 because its base is empty.
    `timed(start, end)` turns a span's clock readings into its duration."""
    self_s = Counter()
    total = Counter()
    calls = Counter()
    fn_self = Counter()
    errors = Counter()
    mp_calls = Counter()
    zero_terms = valid = evals = 0
    sweep_rows = sweep_sd_calls = 0
    builds = build_mats = placed = materialized = zeros_built = points = 0
    for trace in traces:
        spans = trace["spans"]
        mp_calls.update(trace["mp_calls"])
        durations = [timed(s[2], s[3]) for s in spans]
        child_time = defaultdict(float)
        for i, span in enumerate(spans):
            if span[4] >= 0:
                child_time[span[4]] += durations[i]
        # ancestors of interest, resolved once per span in index order
        in_sweep = [False] * len(spans)
        build_root = [-1] * len(spans)
        for i, (name, layer, start, end, parent, err, payload) in enumerate(spans):
            dur = durations[i]
            own = dur - child_time[i]
            self_s[layer] += own
            total[name] += dur
            fn_self[name] += own
            calls[name] += 1
            if parent >= 0:
                in_sweep[i] = in_sweep[parent] or spans[parent][0] == "probe.condition_m_sweep"
                build_root[i] = build_root[parent]
            if err and not (parent >= 0 and spans[parent][5] and spans[parent][1] == layer):
                errors[layer] += 1
            if name == "evaluator.log_eval" and payload is not None:
                zero_terms += payload[0]
                valid += payload[1]
                evals += 1
            elif name == "probe.condition_m_sweep" and payload is not None:
                sweep_rows += payload
            elif name == "evaluator.spherical_derivative" and in_sweep[i]:
                sweep_sd_calls += 1
            if name in SCHEDULE_BUILDERS and build_root[i] < 0:
                build_root[i] = i
                if payload is not None:
                    builds += 1
                    zeros_built += payload[0]
                    placed += payload[1]
            elif name == "pointset.materialize" and payload is not None:
                points += payload
                if build_root[i] >= 0:
                    build_mats += 1
                    materialized += payload
    builder_self = sum(fn_self[n] for n in SCHEDULE_BUILDERS)
    m = {
        "evaluator.self_s": self_s["evaluator"],
        "evaluator.mp_calls": mp_calls["evaluator"],
        "evaluator.log_eval.calls": calls["evaluator.log_eval"],
        "evaluator.log_eval.zero_terms": zero_terms,
        "evaluator.log_derivative.calls": calls["evaluator.log_derivative"],
        "evaluator.spherical_derivative.calls": calls["evaluator.spherical_derivative"],
        "evaluator.small_product_constant.calls": calls["evaluator.small_product_constant"],
        "evaluator.valid_share": valid / evals if evals else 0.0,
        "evaluator.errors": errors["evaluator"],
        "probe.self_s": self_s["probe"],
        "probe.mp_calls": mp_calls["probe"],
        "probe.dilation_factor.calls": calls["probe.dilation_factor"],
        "probe.non_c0_certificate.self_s": fn_self["probe.non_c0_certificate"],
        "probe.condition_m_sweep.self_s": fn_self["probe.condition_m_sweep"],
        "probe.sweep_evals_per_row": sweep_sd_calls / sweep_rows if sweep_rows else 0.0,
        "probe.classify.self_s": fn_self["probe.classify"],
        "probe.errors": errors["probe"],
        "schedule.build.self_s": builder_self,
        "schedule.materialize_per_build": build_mats / builds if builds else 0.0,
        "schedule.angles_used_share": placed / materialized if materialized else 0.0,
        "schedule.from_json.s": total["schedule.schedule_from_json"],
        "schedule.to_json.s": total["schedule.schedule_to_json"],
        "schedule.zeros_built": zeros_built,
        "pointset.self_s": self_s["pointset"],
        "pointset.materialize.calls": calls["pointset.materialize"],
        "pointset.materialize.points": points,
        "pointset.materialize.self_s": fn_self["pointset.materialize"],
        "pointset.derive.calls": calls["pointset.derive"],
        "pointset.derive.self_s": fn_self["pointset.derive"],
        "pointset.rank_profile.self_s": fn_self["pointset.rank_profile"],
        "ordinal.self_s": self_s["ordinal"],
        "ordinal.enumerate_below.calls": calls["ordinal.enumerate_below"],
        "ordinal.enumerate_below.self_s": fn_self["ordinal.enumerate_below"],
    }
    for cid in range(1, 11):
        m[f"verification.c{cid}_s"] = total[f"verification.c{cid}"]
    for cmd in COMMANDS:
        m[f"cli.{cmd}.s"] = total[f"cli.{cmd}"]
    m["cli.self_s"] = self_s["cli"]
    notes = [f"{name}: reported as 0, {why} in this run"
             for name, base, why in (
                 ("evaluator.valid_share", evals, "no log_eval call"),
                 ("probe.sweep_evals_per_row", sweep_rows, "no condition_m_sweep row"),
                 ("schedule.materialize_per_build", builds, "no schedule built"),
                 ("schedule.angles_used_share", materialized, "no angle materialized by a build"),
             ) if not base]
    return m, notes
