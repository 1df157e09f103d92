"""Span tracing of `tdo` from outside the package.

`install` replaces the public functions of each `tdo` module with wrappers
that open a span on entry and close it on exit; `uninstall` puts the
originals back.  Nothing under `src/` changes: the wrappers sit in module
namespaces (and in the two dispatch tables, `verify.SUITES` and
`models._FACTORIES`), so calls that look a function up at call time are
traced and calls through names bound at import time are not.

A span is (name, start, end, parent span, op id); the op id is the CLI call
that caused it.  Spans live in flat arrays and are written out by `save`.
Aggregates are kept as spans close:

- per name: calls, inclusive time and self time (inclusive minus the
  inclusive time of direct children);
- per group (names that share a metric, such as the coefficient functions):
  calls and inclusive time of the outermost member spans only, so a group
  member nested in another adds nothing;
- per (parent name, name) edge: inclusive time, for "X minus its Y child".
"""

import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "models", "dopri", "ermakov", "quantum", "minimum", "series",
          "bessel", "verify")

_GROUPS = {
    "models.coeff": ("damping_coefficient", "omega2", "omega2_dot",
                     "coefficients"),
    "models.build": ("get_model", "catalog", "harmonic", "kanai_caldirola",
                     "exp_frequency", "tsquared", "bessel_type",
                     "tabulated_from_csv"),
}


def _group(layer, fname):
    for group, members in _GROUPS.items():
        if group.startswith(layer + ".") and fname in members:
            return group
    if layer in ("quantum", "cli"):
        return layer
    return f"{layer}.{fname}"


class Tracer:
    """Spans and aggregates of one traced pass, kept in memory."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = 0
        self._stack = []  # (span index, name, group, child time)
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.groups = defaultdict(lambda: [0, 0.0])  # outermost calls, incl
        self.edges = defaultdict(float)
        self.counts = defaultdict(int)

    def top(self):
        return self._stack[-1][1] if self._stack else None

    def open(self, name, group):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append([idx, name, group, 0.0])
        self.start.append(perf_counter())

    def close(self):
        t = perf_counter()
        idx, name, group, child = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        a = self.agg[name]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            self.edges[(parent[1], name)] += dur
            outermost = parent[2] != group
        else:
            outermost = True
        if outermost:
            g = self.groups[group]
            g[0] += 1
            g[1] += dur

    def save(self, path):
        """Write the spans as a .npz of flat arrays plus the name table."""
        np.savez_compressed(
            path, names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32))


def _wrap(tr, fn, name, group):
    def traced(*args, **kwargs):
        tr.open(name, group)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close()
    traced.__wrapped__ = fn
    return traced


def _wrap_jv(tr, fn):
    def jv(rho, x, *args, **kwargs):
        tr.counts["bessel.jv.points"] += int(np.size(x))
        tr.open("bessel.jv", "bessel.jv")
        try:
            return fn(rho, x, *args, **kwargs)
        finally:
            tr.close()
    jv.__wrapped__ = fn
    return jv


def _wrap_solve(tr, fn):
    """dopri.solve with its RHS and step callback traced and counted."""
    def solve(f, t0, t1, y0, *args, **kwargs):
        in_ep = tr.top() == "ermakov.integrate_ep"
        f_name = "ermakov.rhs" if in_ep else "dopri.f"
        cb_name = "ermakov.guard" if in_ep else "dopri.step_callback"
        callback = kwargs.get("step_callback")

        def f_traced(t, y):
            tr.open(f_name, f_name)
            try:
                return f(t, y)
            finally:
                tr.close()

        def callback_traced(t, y):
            tr.counts["dopri.steps_accepted"] += 1
            if callback is None:
                return
            tr.open(cb_name, cb_name)
            try:
                callback(t, y)
            finally:
                tr.close()

        kwargs["step_callback"] = callback_traced
        tr.open("dopri.solve", "dopri.solve")
        try:
            ts, ys = fn(f_traced, t0, t1, y0, *args, **kwargs)
        finally:
            tr.close()
        tr.counts["dopri.calls"] += 1
        tr.counts["dopri.rows"] += len(ts)
        return ts, ys
    solve.__wrapped__ = fn
    return solve


def install(tr):
    """Wrap every public function of every layer; returns the undo list."""
    import tdo.cli  # noqa: F401  (loads every layer)

    undo, wrapped = [], {}
    for layer in LAYERS:
        mod = sys.modules[f"tdo.{layer}"]
        for fname, obj in list(vars(mod).items()):
            if fname.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            if (layer, fname) == ("dopri", "solve"):
                w = _wrap_solve(tr, obj)
            elif (layer, fname) == ("bessel", "jv"):
                w = _wrap_jv(tr, obj)
            else:
                w = _wrap(tr, obj, f"{layer}.{fname}", _group(layer, fname))
            wrapped[obj] = w
            undo.append((vars(mod), fname, obj))
    minimum = sys.modules["tdo.minimum"]
    wrapped[minimum.quad] = _wrap(tr, minimum.quad, "minimum.quad",
                                  "minimum.quad")
    undo.append((vars(minimum), "quad", minimum.quad))
    # dispatch tables hold the functions themselves
    for table in (sys.modules["tdo.verify"].SUITES,
                  sys.modules["tdo.models"]._FACTORIES):
        for key, obj in table.items():
            undo.append((table, key, obj))
    for container, key, obj in undo:
        container[key] = wrapped[obj]
    return undo


def uninstall(undo):
    for container, key, obj in undo:
        container[key] = obj


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

VERIFY_SUITES = ("models", "ermakov", "quantum", "minimum", "series", "bessel")


def layer_metrics(tr):
    """(metrics, counts) of a traced pass; counts repeat exactly run to run."""
    agg, groups, edges, counts = tr.agg, tr.groups, tr.edges, tr.counts

    def calls(name):
        return agg[name][0] if name in agg else 0

    def incl(name):
        return agg[name][1] if name in agg else 0.0

    def self_s(name):
        return agg[name][2] if name in agg else 0.0

    def group(name):
        return groups[name] if name in groups else (0, 0.0)

    nfev = calls("ermakov.rhs") + calls("dopri.f")
    n_solve = counts["dopri.calls"]
    accepted = counts["dopri.steps_accepted"]
    # 2 evaluations before the first step, 6 per step attempt (FSAL)
    rejected = (nfev - 2 * n_solve) // 6 - accepted
    rows = counts["dopri.rows"]
    quantum_samples = calls("quantum.quadratures")
    quantum_calls, quantum_s = group("quantum")
    solve_self = self_s("dopri.solve")
    m = {
        "dopri.calls": n_solve,
        "dopri.nfev": nfev,
        "dopri.steps_accepted": accepted,
        "dopri.steps_rejected": rejected,
        "dopri.accept_ratio": accepted / max(1, accepted + rejected),
        "dopri.self_s": solve_self,
        "dopri.self_us_per_nfev": 1e6 * solve_self / max(1, nfev),
        "dopri.steps_per_row": accepted / max(1, rows),
        "models.coeff.calls": group("models.coeff")[0],
        "models.coeff_s": group("models.coeff")[1],
        "models.build.calls": group("models.build")[0],
        "models.build_s": group("models.build")[1],
        "ermakov.integrate_ep.calls": calls("ermakov.integrate_ep"),
        "ermakov.rhs_self_s": self_s("ermakov.rhs"),
        "ermakov.post_s": incl("ermakov.integrate_ep")
        - edges.get(("ermakov.integrate_ep", "dopri.solve"), 0.0),
        "quantum.samples": quantum_samples,
        "quantum.s": quantum_s,
        "quantum.us_per_sample": 1e6 * quantum_s / max(1, quantum_samples),
        "minimum.check_criterion.calls": calls("minimum.check_criterion"),
        "minimum.check_criterion_s": incl("minimum.check_criterion"),
        "minimum.quad_calls": calls("minimum.quad"),
        "minimum.trajectory_s": incl("minimum.sigma_minimum_trajectory"),
        "series.build.calls": group("series.build_series")[0],
        "series.build_s": group("series.build_series")[1],
        "bessel.jv.points": counts["bessel.jv.points"],
        "bessel.jv_s": group("bessel.jv")[1],
        "cli.self_s": sum(a[2] for n, a in agg.items() if n.startswith("cli.")),
    }
    for suite in VERIFY_SUITES:
        m[f"verify.suite_s.{suite}"] = incl(f"verify.suite_{suite}")
    fingerprint = {
        "dopri.nfev": nfev, "dopri.steps_accepted": accepted,
        "dopri.steps_rejected": rejected, "dopri.rows": rows,
        "models.coeff.calls": m["models.coeff.calls"],
        "quantum.samples": quantum_samples,
        "minimum.quad_calls": m["minimum.quad_calls"],
        "bessel.jv.points": m["bessel.jv.points"],
        "spans": {name: a[0] for name, a in sorted(agg.items())},
    }
    return m, fingerprint
