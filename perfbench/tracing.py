"""Span tracing of the hopfgalois layers from outside the program.

`Tracer.install()` replaces the public functions of the layer modules, and a
few named methods, with wrappers that record one span per call: name, start,
end, parent span and operation id.  Every module that imported a wrapped name
directly (for example `cli` and `integral` import `is_generator`) is patched
as well.  `Tracer.uninstall()` puts the original objects back, so untimed
code paths and timed runs call exactly the program's own functions.

Spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("numberfield", "linalg", "perm", "transition", "descent",
          "integral", "fixtures", "cli")

# Methods traced in addition to every public module-level function.  The
# FieldElement operators make `numberfield.self_s` cover the field arithmetic.
METHODS = {
    "numberfield": {
        "FieldElement": ("__add__", "__sub__", "__neg__", "__mul__",
                         "inverse", "__truediv__", "__pow__"),
        "GaloisContext": ("apply", "trace"),
        "Subfield": ("coords", "contains", "from_coords",
                     "multiplication_matrix", "random_element"),
    },
    "linalg": {"LinearSolver": ("__init__", "solve")},
    "fixtures": {"Fixture": ("algebra", "structures", "ideal")},
}

# Span names that differ from "<layer>.<attribute>".
RENAMES = {
    "numberfield.FieldElement.__add__": "numberfield.add",
    "numberfield.FieldElement.__sub__": "numberfield.sub",
    "numberfield.FieldElement.__neg__": "numberfield.neg",
    "numberfield.FieldElement.__mul__": "numberfield.mul",
    "numberfield.FieldElement.inverse": "numberfield.inverse",
    "numberfield.FieldElement.__truediv__": "numberfield.div",
    "numberfield.FieldElement.__pow__": "numberfield.pow",
    "linalg.LinearSolver.__init__": "linalg.solver_init",
    "linalg.LinearSolver.solve": "linalg.solve",
    "fixtures.Fixture.algebra": "fixtures.algebra",
    "fixtures.Fixture.structures": "fixtures.structures",
    "fixtures.Fixture.ideal": "fixtures.ideal",
    "perm.enumerate_regular_normalized": "perm.enumerate",
}

OP_SPAN = "bench.op"
WRAPPER_MARK = "__perfbench_span__"


def _split_det(args) -> str:
    """`linalg.det` runs over Q and over E; the two are separate layers."""
    mat = args[0]
    entry = mat[0][0] if mat and mat[0] else None
    return "linalg.det_E" if type(entry).__name__ == "FieldElement" else "linalg.det_Q"


def box_rank(witness, bound: int) -> int:
    """Lexicographic index of `witness` in the search box of sup-norm `bound`."""
    side = 2 * bound + 1
    rank = 0
    for v in witness:
        rank = rank * side + (v + bound)
    return rank


def box_candidates(result, dim: int, bound: int) -> int:
    """Candidates a freeness search covered: the whole box when it ends with
    UNKNOWN, the witness's lexicographic rank plus one when it ends FREE."""
    if bound < 1:
        return 0
    if result.free:
        return box_rank(result.witness_ideal_coords, bound) + 1
    return (2 * bound + 1) ** dim


def _search_args(args, kwargs):
    order = args[0] if args else kwargs["order"]
    bound = args[2] if len(args) > 2 else kwargs.get("bound", 3)
    return len(order.ideal_action_matrices), bound


class Tracer:
    """Records spans around every layer call while installed."""

    def __init__(self, package: str = "hopfgalois"):
        self.package = package
        self.name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name = array("i")     # name id, or -(id + 1) when nested in itself
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.active: list[int] = []     # per name id: open spans of that name
        self.current_op = -1
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid if not self.active[nid] else -(nid + 1))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.active[nid] += 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, nid: int, t0: float, t1: float):
        self.stack.pop()
        self.active[nid] -= 1
        self.start[idx] = t0
        self.end[idx] = t1

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation `op_id`, under one root span."""
        self.current_op = op_id
        nid = self._id(OP_SPAN)
        idx = self._open(nid)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._close(idx, nid, t0, t1)
            self.current_op = -1

    def _wrap(self, fn, name: str):
        tracer = self
        perf = time.perf_counter
        if name == "linalg.det":
            det_ids = {n: self._id(n) for n in ("linalg.det_E", "linalg.det_Q")}

            def pick(args):
                return det_ids[_split_det(args)]
        else:
            fixed = self._id(name)

            def pick(args):
                return fixed
        hook = {"descent.is_generator": self._on_generator,
                "integral.freeness_search": self._on_search}.get(name)

        def wrapper(*args, **kwargs):
            nid = pick(args)
            idx = tracer._open(nid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer._close(idx, nid, t0, t1)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def _on_generator(self, args, kwargs, result):
        self.count("descent.is_generator.true", int(bool(result)))

    def _on_search(self, args, kwargs, result):
        dim, bound = _search_args(args, kwargs)
        self.count("integral.box_candidates", box_candidates(result, dim, bound))
        self.count("integral.freeness_search.free", int(result.free))

    # -- patching ------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, span name) for every traced callable."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    out.append((mod, attr, obj, name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in methods:
                    full = f"{layer}.{cls_name}.{attr}"
                    out.append((cls, attr, vars(cls)[attr], RENAMES.get(full, full)))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        targets = self._targets()
        wrappers = {id(orig): self._wrap(orig, name)
                    for _, _, orig, name in targets}
        originals = {id(orig): orig for _, _, orig, _ in targets}
        for owner, attr, orig, _ in targets:
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrappers[id(orig)])
        # modules that imported a traced function by name hold their own
        # reference to it; patch those references too
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if originals.get(id(obj)) is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def aggregate(self):
        """Per span name: [calls, inclusive seconds, self seconds], once over
        every span and once over the spans inside operations only.  Inclusive
        seconds count the outermost span of a name, so recursion is not
        counted twice; self seconds are a span's duration minus the time its
        child spans cover."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        every = [[0, 0.0, 0.0] for _ in self.names]
        in_ops = [[0, 0.0, 0.0] for _ in self.names]
        ops = self.op
        for i, raw in enumerate(self.span_name):
            dur = end[i] - start[i]
            nid = raw if raw >= 0 else -raw - 1
            for entry in ((every[nid], in_ops[nid]) if ops[i] >= 0
                          else (every[nid],)):
                entry[0] += 1
                if raw >= 0:
                    entry[1] += dur
                entry[2] += dur - child[i]
        return (dict(zip(self.names, every)), dict(zip(self.names, in_ops)))

    def write(self, path: Path):
        """Write the spans (binary arrays) and a JSON header next to them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (("name", self.span_name), ("start", self.start),
                  ("end", self.end), ("parent", self.parent), ("op", self.op))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "layout": [[key, arr.typecode, arr.itemsize] for key, arr in arrays],
            "note": "name < 0 marks a span nested in a span of the same name "
                    "(name id = -name - 1); parent and op are -1 at the root "
                    "and outside operations",
            "counters": self.counters,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def wrapped_attributes(package: str = "hopfgalois") -> list[str]:
    """Every module or class attribute of the package that is a span wrapper;
    empty whenever no tracer is installed."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == package
                               or mod_name.startswith(package + ".")):
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, WRAPPER_MARK):
                found.append(f"{mod_name}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == mod_name:
                for meth, fn in vars(obj).items():
                    if hasattr(fn, WRAPPER_MARK):
                        found.append(f"{mod_name}.{attr}.{meth}")
    return found
