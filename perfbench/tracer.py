"""Outside-in layer tracer for one ``ncforms`` report.

The layers are the nine ``ncforms`` modules.  ``install`` wraps every
public function, method and classmethod of the eight library modules (plus
the arithmetic dunders and ``__init__`` of the non-value classes) and
rebinds the wrapped names in every ``ncforms`` module namespace, because
the modules import each other's names with ``from .x import y``.

* A call whose layer differs from the caller's opens a span: id, parent
  span, layer, name, start, end.  Spans stay in memory and are written
  once, after the report.
* A call inside the caller's own layer is only counted.
* A layer's self time is the duration of its spans minus the part covered
  by their child spans; ``cli`` is the root span of the report, so its
  self time is report time outside every library span.
* Named groups of functions (``GROUPS``) get their own time, taken on the
  outermost call of the group whether or not it crosses a layer, and
  their own call count.
* ``OBSERVERS`` read arguments and results to count work where it is
  done: rows offered to and accepted by elimination, form spaces built,
  int64 -> object promotions, unreduced rational results.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from types import FunctionType

import numpy as np

LAYERS = ("dsl", "algebra", "linalg", "forms", "fieldforms", "connections",
          "hochschild", "schouten", "cli")
CLI = LAYERS.index("cli")

# dunders worth tracing; __init__ is skipped on the small value classes,
# whose constructors only store fields
DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__",
           "__rmul__", "__matmul__", "__pow__", "__eq__", "__call__"}
VALUE_CLASSES = {"QMat", "Form", "Element", "Token", "Term"}

_ELIM = ["rref", "rank", "nullspace", "nullspace_sparse", "solve_linear",
         "qmat_inverse", "subspace_from_columns"]
_ELIM += [f"RowReducer.{n}" for n in
          ("add", "add_dense", "contains", "reduce_dense")]
_ELIM += [f"Subspace.{n}" for n in
          ("__init__", "from_generators", "contains", "is_subspace_of",
           "add", "__add__", "intersect", "quotient_dim")]

GROUPS = {
    "forms.build": ["forms.FormSpace.__init__"],
    "forms.product": ["forms.product"],
    "linalg.elim": [f"linalg.{n}" for n in _ELIM],
    "linalg.qmat": ["linalg.QMat.*"],
    "linalg.from_rows": ["linalg.QMat.from_rows"],
    "linalg.fraction_unpack": ["linalg.QMat.to_fraction_rows",
                               "linalg.QMat.column_fractions"],
    "fieldforms.operator": ["fieldforms.contraction",
                            "fieldforms.lie_operator"],
    "fieldforms.bracket": ["fieldforms.fn_bracket",
                           "fieldforms.algebraic_bracket",
                           "fieldforms.lie_bracket_fields"],
    "connections.projection_search": ["connections.find_projections"],
    "connections.projection_calculus": [
        "connections.check_projection_calculus",
        "connections.bianchi_identities", "connections.curvature"],
    "hochschild.form_hom": ["hochschild.form_hom_space",
                            "hochschild.form_hom_matrices"],
    "hochschild.comparison": ["hochschild.comparison_image",
                              "hochschild.comparison_cochain",
                              "hochschild.universal_comparison_hom",
                              "hochschild.is_coboundary"],
    "hochschild.complex": ["hochschild.cocycle_space",
                           "hochschild.complex_dims",
                           "hochschild.coboundary"],
    "schouten.bracket": ["schouten.nr_bracket"],
    "algebra.derivation": ["algebra.derivation_space",
                           "algebra.is_derivation"],
    "dsl.load": ["dsl.load_algebra_text", "dsl.builtin_algebra",
                 "dsl.parse_group_action"],
}

COUNTERS = ("forms.form_space_calls", "forms.spaces_built",
            "forms.built_dim_sum", "linalg.elim_rows", "linalg.elim_useful",
            "linalg.object_promotions", "linalg.qmat_results",
            "linalg.unreduced", "connections.projections_found")


# ---------------------------------------------------------------------------
# Observers: (tracer, args, result, crossed) -> None
# ---------------------------------------------------------------------------


def _obs_form_space(tr, args, result, crossed):
    tr.count["forms.form_space_calls"] += 1


def _obs_build(tr, args, result, crossed):
    tr.count["forms.spaces_built"] += 1
    tr.count["forms.built_dim_sum"] += args[0].dim


def _obs_rref(tr, args, result, crossed):
    tr.count["linalg.elim_rows"] += len(args[0])
    tr.count["linalg.elim_useful"] += len(result[1])


def _obs_reducer_add(tr, args, result, crossed):
    tr.count["linalg.elim_rows"] += 1
    tr.count["linalg.elim_useful"] += bool(result)


def _obs_projections(tr, args, result, crossed):
    tr.count["connections.projections_found"] += len(result)


def _obs_qmat(tr, args, result, crossed):
    """Promotions: an object result from int64 inputs.  Unreducedness:
    den shares a factor with every numerator, judged on QMats handed to
    another layer."""
    num = getattr(result, "num", None)
    if num is None:
        return
    if num.dtype == object and not any(
            getattr(getattr(a, "num", None), "dtype", None) == object
            for a in args):
        tr.count["linalg.object_promotions"] += 1
    if crossed:
        tr.count["linalg.qmat_results"] += 1
        den = result.den
        if den > 1 and math.gcd(den, int(_gcd_reduce(num))) > 1:
            tr.count["linalg.unreduced"] += 1


def _gcd_reduce(num):
    return np.gcd.reduce(num, axis=None) if num.size else 0


_QMAT_RESULTS = ("__add__", "__sub__", "__neg__", "scale", "__matmul__",
                 "kron", "hstack", "from_rows", "col", "reduced", "zeros",
                 "eye")

OBSERVERS = {
    "forms.form_space": _obs_form_space,
    "forms.FormSpace.__init__": _obs_build,
    "linalg.rref": _obs_rref,
    "linalg.RowReducer.add": _obs_reducer_add,
    "connections.find_projections": _obs_projections,
    **{f"linalg.QMat.{n}": _obs_qmat for n in _QMAT_RESULTS},
    "linalg.qmat_inverse": _obs_qmat,
    "linalg.qmat_sum": _obs_qmat,
}


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------


class Tracer:
    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        # (id, parent id, layer, name index, start, end)
        self.spans: list[tuple] = []
        self.names: list[str] = ["report"]
        self.group_names = list(GROUPS)
        self.group_s = [0.0] * len(GROUPS)
        self.group_calls = [0] * len(GROUPS)
        self.group_depth = [0] * len(GROUPS)
        self.count = dict.fromkeys(COUNTERS, 0)
        # frame: [layer, span id, start, time covered by child spans]; the
        # bottom frame catches calls made outside a report
        self.stack: list[list] = [[CLI, 0, 0.0, 0.0]]
        self.next_id = 1
        self.report_s = 0.0

    # -- wrapping -----------------------------------------------------------

    def _groups_for(self, qual: str) -> tuple:
        return tuple(gi for gi, g in enumerate(self.group_names)
                     if any(pat == qual or (pat.endswith("*")
                                            and qual.startswith(pat[:-1]))
                            for pat in GROUPS[g]))

    def wrap(self, fn, layer: int, qual: str):
        groups = self._groups_for(qual)
        observe = OBSERVERS.get(qual)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, qual)
        tr = self
        calls, stack, spans = self.calls, self.stack, self.spans
        self_s = self.self_s
        name = len(self.names)
        self.names.append(qual)
        gs, gc, gd = self.group_s, self.group_calls, self.group_depth
        clock = time.perf_counter
        plain = not groups and observe is None

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            top = stack[-1]
            crossed = top[0] != layer
            if plain and not crossed:
                return fn(*args, **kwargs)
            timed = [g for g in groups if not gd[g]]
            for g in groups:
                gc[g] += 1
            for g in timed:
                gd[g] = 1
            t0 = clock()
            if crossed:
                sid = tr.next_id
                tr.next_id = sid + 1
                frame = [layer, sid, t0, 0.0]
                stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                for g in timed:
                    gd[g] = 0
                    gs[g] += t1 - t0
                if crossed:
                    stack.pop()
                    dur = t1 - t0
                    self_s[layer] += dur - frame[3]
                    top[3] += dur
                    spans.append((sid, top[1], layer, name, t0, t1))
            if observe is not None:
                observe(tr, args, result, crossed)
            return result

        return wrapper

    def _wrap_generator(self, fn, layer: int, qual: str):
        """Each resumption of the generator runs in the generator's layer."""
        tr = self
        calls, stack, spans, self_s = (self.calls, self.stack, self.spans,
                                       self.self_s)
        clock = time.perf_counter
        name = len(self.names)
        self.names.append(qual)

        def step(gen):
            while True:
                top = stack[-1]
                crossed = top[0] != layer
                t0 = clock()
                if crossed:
                    sid = tr.next_id
                    tr.next_id = sid + 1
                    frame = [layer, sid, t0, 0.0]
                    stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if crossed:
                        t1 = clock()
                        stack.pop()
                        dur = t1 - t0
                        self_s[layer] += dur - frame[3]
                        top[3] += dur
                        spans.append((sid, top[1], layer, name, t0, t1))
                yield item

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return step(fn(*args, **kwargs))

        return wrapper

    # -- the report root span -------------------------------------------------

    def run_report(self, fn):
        """Call fn() as the root ``cli`` span of one report."""
        t0 = time.perf_counter()
        frame = [CLI, 0, t0, 0.0]
        self.stack.append(frame)
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            dur = t1 - t0
            self.self_s[CLI] += dur - frame[3]
            self.calls[CLI] += 1
            self.report_s += dur
            self.spans.append((0, -1, CLI, 0, t0, t1))

    # -- output ----------------------------------------------------------------

    def summary(self) -> dict:
        """Additive totals: ``<layer>.calls``, ``<layer>.self_s``,
        ``<group>_s``, ``<group>.calls``, the counters and
        ``trace.report_s``."""
        out: dict = {"trace.report_s": self.report_s}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        for i, g in enumerate(self.group_names):
            out[f"{g}_s"] = self.group_s[i]
            out[f"{g}.calls"] = self.group_calls[i]
        out.update(self.count)
        return out

    def write_spans(self, path: str) -> None:
        """``spans`` rows are (id, parent, layer, name, start, end); layer
        and name index ``layers`` and ``names``; the root's parent is -1."""
        np.savez(path, spans=np.array(self.spans, dtype=np.float64),
                 layers=np.array(LAYERS), names=np.array(self.names))


def _targets(mod, layer: int, tracer: Tracer):
    """(owner, attribute, original, replacement) for every traced callable
    of mod."""
    short = mod.__name__.rsplit(".", 1)[-1]
    for name, val in list(vars(mod).items()):
        if isinstance(val, FunctionType) and val.__module__ == mod.__name__ \
                and not name.startswith("_"):
            yield mod, name, val, tracer.wrap(val, layer, f"{short}.{name}")
        elif (inspect.isclass(val) and val.__module__ == mod.__name__
              and not issubclass(val, BaseException)):
            for attr, member in list(vars(val).items()):
                if attr.startswith("_") and attr not in DUNDERS:
                    continue
                if attr == "__init__" and name in VALUE_CLASSES:
                    continue
                qual = f"{short}.{name}.{attr}"
                if isinstance(member, FunctionType):
                    yield val, attr, member, tracer.wrap(member, layer, qual)
                elif isinstance(member, (classmethod, staticmethod)):
                    inner = tracer.wrap(member.__func__, layer, qual)
                    yield val, attr, member, type(member)(inner)


def install() -> Tracer:
    """Wrap the library layers and rebind their names; returns the tracer."""
    tracer = Tracer()
    modules = {name: importlib.import_module(f"ncforms.{name}")
               for name in LAYERS}
    # id(original) -> (original, wrapper); holding the original keeps its
    # id from being reused.  An alias shares its first name's wrapper.
    replaced: dict[int, tuple] = {}
    for layer, name in enumerate(LAYERS):
        if name == "cli":
            continue
        for owner, attr, original, wrapper in _targets(modules[name], layer,
                                                       tracer):
            replaced.setdefault(id(original), (original, wrapper))
            setattr(owner, attr, replaced[id(original)][1])
    # rebind names imported with ``from .x import y`` everywhere
    for mod in [importlib.import_module("ncforms"), *modules.values()]:
        for name, val in list(vars(mod).items()):
            if isinstance(val, FunctionType) and id(val) in replaced:
                setattr(mod, name, replaced[id(val)][1])
    return tracer
