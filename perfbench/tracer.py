"""Span tracer for the biharm layers, installed from outside the package.

The tracer rebinds every public function of the eight layer modules in each
module that holds a reference to it (``from .field import dilate`` copies the
function into the importing module, so the defining module alone is not
enough), wraps ``Grid.forward``/``Grid.inverse`` and ``Field.__init__`` at
class level, and routes ``scipy.optimize.minimize`` as called from ``gn``
through a span of its own.  Nothing under ``src/`` changes.

Spans live in memory as flat columns (name id, parent span index, start,
end); a parent always has a smaller index than its children, which the
analysis below relies on.  Layer metrics are derived from the spans after the
operation, outside the timed region.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("grid", "field", "potentials", "energy", "groundstate", "gn",
          "blowup", "cli")
FFT_SPANS = ("grid.Grid.forward", "grid.Grid.inverse")
# outputs, manifests, config and artifact reads; nested I/O spans count once
IO_SPANS = ("field.write_snapshot", "field.read_snapshot",
            "groundstate.write_iteration_log", "blowup.save_sweep",
            "gn.save_gn", "gn.load_gn", "cli._write_manifest",
            "cli.load_config")
SWEEP_POINTS = 8


class _Delegate:
    """Stand-in for a module object with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records one span per call into a wrapped biharm function."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self._undo: list[tuple] = []
        self.reset()

    def reset(self):
        """Start a fresh span store for the next operation."""
        self.columns = (array("i"), array("i"), array("d"), array("d"))
        self.solves = []  # (span index, coupling, iterations)
        self._stack = [-1]

    # -- installation -------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str, observe=None):
        nid = self._name_id(name, layer)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names, parents, starts, ends = tracer.columns
            stack = tracer._stack
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(idx, args, kwargs, out)
            return out

        return traced

    def _observe_solve(self, idx, args, kwargs, result):
        a = args[2] if len(args) > 2 else kwargs["a"]
        self.solves.append((idx, float(a), int(result.iterations)))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layers; modules are reached through sys.modules because
        the package namespace shadows some of them (biharm.energy is the
        function of that name)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {layer: sys.modules[f"biharm.{layer}"] for layer in LAYERS}
        holders = [sys.modules["biharm"], *mods.values()]
        swap = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or (layer, attr) == (
                    "cli", "_write_manifest")
                is_func = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if (public and is_func
                        and getattr(obj, "__module__", None) == mod.__name__):
                    observe = (self._observe_solve
                               if (layer, attr) == ("groundstate", "solve")
                               else None)
                    swap[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}",
                                                     layer, observe))
        for holder in holders:
            for attr, val in list(vars(holder).items()):
                hit = swap.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(holder, attr, hit[1])
                elif isinstance(val, dict):  # dispatch tables such as cli._COMMANDS
                    for key, item in list(val.items()):
                        hit = swap.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._undo.append((val, key, item))
                            val[key] = hit[1]
        grid_cls = mods["grid"].Grid
        field_cls = mods["field"].Field
        for meth in ("forward", "inverse"):
            self._set(grid_cls, meth, self._wrap(
                vars(grid_cls)[meth], f"grid.Grid.{meth}", "grid"))
        self._set(field_cls, "__init__", self._wrap(
            vars(field_cls)["__init__"], "field.Field.__init__", "field"))
        gn_mod = mods["gn"]
        self._set(gn_mod, "optimize", _Delegate(
            gn_mod.optimize, minimize=self._wrap(
                gn_mod.optimize.minimize, "gn.optimize.minimize", "gn")))

    def uninstall(self):
        while self._undo:
            owner, key, val = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = val
            else:
                setattr(owner, key, val)

    # -- analysis -----------------------------------------------------------

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer metrics of the operation recorded since the last reset.

        wall is the operation's traced wall time; the root span is the
        ``cli.main`` call.
        """
        names, parents, starts, ends = (np.frombuffer(c, dtype=c.typecode)
                                        for c in self.columns)
        dur = ends - starts
        inner = parents >= 0
        child = np.bincount(parents[inner], weights=dur[inner],
                            minlength=len(dur))
        self_time = dur - child
        layer = np.asarray(self.layer_of, dtype=np.int64)[names]
        by_layer = np.bincount(layer, weights=self_time, minlength=len(LAYERS))

        def mask(*wanted):
            return np.isin(names, [i for i, n in enumerate(self.names)
                                   if n in wanted])

        def under(flag):
            """Spans with an ancestor in flag (parents precede children)."""
            seen = np.zeros(len(flag), dtype=bool)
            while True:
                step = inner & (flag | seen)[np.maximum(parents, 0)]
                if np.array_equal(step, seen):
                    return seen
                seen = step

        def mean(sel, scale):
            return float(dur[sel].mean() * scale) if sel.any() else 0.0

        fft = mask(*FFT_SPANS)
        dil = mask("field.dilate")
        en = mask("energy.energy")
        grad = mask("energy.constrained_gradient")
        io = mask(*IO_SPANS)
        gn_layer = layer == LAYERS.index("gn")
        solve = mask("groundstate.solve")
        sweep = mask("blowup.sweep")
        iters = sum(it for _, _, it in self.solves)
        in_solve = inner & solve[np.maximum(parents, 0)]
        trials = int((en & in_solve).sum()) - int(solve.sum())

        m = {f"{name}.self_s": float(by_layer[i])
             for i, name in enumerate(LAYERS)}
        m.update({
            "grid.fft_calls": int(fft.sum()),
            "grid.fft_us": mean(fft, 1e6),
            "grid.fft_share": float(dur[fft].sum() / wall),
            "field.fields_built": int(mask("field.Field.__init__").sum()),
            "field.dilate_calls": int(dil.sum()),
            "field.dilate_ms": mean(dil, 1e3),
            "field.translate_calls": int(mask("field.translate").sum()),
            "energy.energy_calls": int(en.sum()),
            "energy.gradient_calls": int(grad.sum()),
            "energy.energy_us": mean(en, 1e6),
            "energy.gradient_us": mean(grad, 1e6),
            "groundstate.iterations": int(iters),
            "groundstate.step_us": (float(dur[solve].sum() / iters * 1e6)
                                    if iters else 0.0),
            "groundstate.trials_per_iter": trials / iters if iters else 0.0,
            "gn.lbfgs_calls": int(mask("gn.optimize.minimize").sum()),
            "gn.lbfgs_s": float(dur[mask("gn.optimize.minimize")].sum()),
            "gn.fft_calls": int((fft & under(gn_layer)).sum()),
        })

        # schedule points: solves called by the sweep, grouped by coupling
        sweep_ids = set(np.nonzero(sweep)[0].tolist())
        points: dict[float, list] = {}
        for idx, a, it in self.solves:
            if parents[idx] in sweep_ids:
                slot = points.setdefault(a, [0.0, 0, 0])
                slot[0] += float(dur[idx])
                slot[1] += it
                slot[2] += 1
        ordered = list(points.values())
        for k in range(SWEEP_POINTS):
            s, it, _ = ordered[k] if k < len(ordered) else (0.0, 0, 0)
            m[f"blowup.point_s.{k + 1}"] = s
            m[f"blowup.point_iters.{k + 1}"] = it
        m["blowup.diag_s"] = float(dur[sweep].sum()
                                   - sum(s for s, _, _ in ordered))
        m["blowup.fresh_restarts"] = sum(n for _, _, n in ordered) - len(ordered)
        m["cli.io_s"] = float(dur[io & ~under(io)].sum())
        m["trace.coverage"] = float(by_layer.sum() / wall)
        return m

    def dump(self, stores, path):
        """Write the spans of several operations to one compressed file."""
        cols = [[np.frombuffer(c[i], dtype=c[i].typecode) for c in stores]
                for i in range(4)]
        op = np.concatenate([np.full(len(c[0]), k, dtype=np.int32)
                             for k, c in enumerate(stores)])
        np.savez_compressed(path, names=np.array(self.names),
                            layers=np.array(LAYERS), layer_of=np.array(
                                self.layer_of, dtype=np.int32), op=op,
                            name=np.concatenate(cols[0]),
                            parent=np.concatenate(cols[1]),
                            start=np.concatenate(cols[2]),
                            end=np.concatenate(cols[3]))
