"""Layer tracing from outside the program.

The tracer replaces public functions of the ``walkerkit`` modules with
wrappers that open a span around each call. Nothing under ``src/`` is
edited: the wrappers are installed in the running interpreter by
rebinding every module attribute (and class attribute) that refers to the
original function, so calls made through ``from .expr import eval_expr``
style imports are caught too.

Only the outermost call of a function opens a span. A recursive function
such as ``eval_expr`` therefore counts once per evaluation, and the time
of its inner calls is its own self time. Each finished span adds its
duration to its parent's covered time, so a function's self time is its
duration minus the part its traced children cover, and the self times of
all spans partition the traced interval exactly.

Every span is kept in memory, in four parallel typed arrays (name id,
start, end, parent index; 24 bytes a span), and written out once, at the
end of the run (``write_spans``).
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute, group). An attribute "Class.method" wraps a method.
# The group is the layer, except that within ``expr.nodes`` the
# constructors form "expr.nodes.build" and the derivative walkers
# "expr.nodes.derive". Spans are named "<group>:<attribute>".
TARGETS = (
    ("walkerkit.expr.parser", "parse", "expr.parser"),
    ("walkerkit.expr.parser", "parse_fraction", "expr.parser"),
    ("walkerkit.expr.nodes", "add", "expr.nodes.build"),
    ("walkerkit.expr.nodes", "mul", "expr.nodes.build"),
    ("walkerkit.expr.nodes", "pow_", "expr.nodes.build"),
    ("walkerkit.expr.nodes", "div", "expr.nodes.build"),
    ("walkerkit.expr.nodes", "sub", "expr.nodes.build"),
    ("walkerkit.expr.nodes", "neg", "expr.nodes.build"),
    ("walkerkit.expr.nodes", "diff", "expr.nodes.derive"),
    ("walkerkit.expr.nodes", "partial", "expr.nodes.derive"),
    ("walkerkit.expr.nodes", "substitute", "expr.nodes.derive"),
    ("walkerkit.expr.nodes", "free_atoms", "expr.nodes.walk"),
    ("walkerkit.expr.nodes", "render", "expr.nodes.walk"),
    ("walkerkit.expr.expand", "is_zero_symbolic", "expr.expand"),
    ("walkerkit.expr.expand", "expand_monomials", "expr.expand"),
    ("walkerkit.expr.expand", "clear_denominators", "expr.expand"),
    ("walkerkit.expr.numeric", "eval_expr", "expr.numeric"),
    ("walkerkit.expr.numeric", "sample_point", "expr.numeric"),
    ("walkerkit.expr.numeric", "probe_zero", "expr.numeric"),
    ("walkerkit.expr.numeric", "is_zero", "expr.numeric"),
    ("walkerkit.jets", "system2", "jets"),
    ("walkerkit.jets", "system_a7", "jets"),
    ("walkerkit.jets", "on_shell_sample", "jets"),
    ("walkerkit.jets", "on_shell_points", "jets"),
    ("walkerkit.jets", "prolong2", "jets"),
    ("walkerkit.jets", "prolonged_action", "jets"),
    ("walkerkit.jets", "symmetry_check", "jets"),
    ("walkerkit.geometry", "build_metric", "geometry"),
    ("walkerkit.geometry", "ricci", "geometry"),
    ("walkerkit.geometry", "einstein_residual", "geometry"),
    ("walkerkit.geometry", "einstein_verdicts", "geometry"),
    ("walkerkit.geometry", "equivalence_probe", "geometry"),
    ("walkerkit.liealg", "structure_constants", "liealg"),
    ("walkerkit.liealg", "sc", "liealg"),
    ("walkerkit.liealg", "bracket", "liealg"),
    ("walkerkit.liealg", "decompose", "liealg"),
    ("walkerkit.liealg", "adjoint_matrix", "liealg"),
    ("walkerkit.liealg", "parse_generator", "liealg"),
    ("walkerkit.liealg", "subalgebra_closed", "liealg"),
    ("walkerkit.liealg", "proof_case_replays", "liealg"),
    ("walkerkit.liealg", "StructureConstants.jacobi_holds", "liealg"),
    ("walkerkit.liealg", "StructureConstants.bracket_coeffs", "liealg"),
    ("walkerkit.pis", "invariant_check", "pis"),
    ("walkerkit.pis", "invariant_rank", "pis"),
    ("walkerkit.pis", "ansatz_substitute", "pis"),
    ("walkerkit.pis", "defect", "pis"),
    ("walkerkit.pis", "reducibility_scan", "pis"),
    ("walkerkit.catalog", "builtin", "catalog"),
    ("walkerkit.catalog", "builtin_map", "catalog"),
    ("walkerkit.catalog", "CatalogEntry.triples", "catalog"),
    ("walkerkit.catalog", "CatalogEntry.reduced_exprs", "catalog"),
    ("walkerkit.catalog", "CatalogEntry.parse_expr", "catalog"),
    ("walkerkit.catalog", "CatalogEntry.invariant_set", "catalog"),
    ("walkerkit.catalog", "CatalogEntry.pis_ansatz", "catalog"),
    ("walkerkit.catalog", "CatalogEntry.coeff_vectors", "catalog"),
    ("walkerkit.cli", "main", "cli"),
)

LAYERS = ("expr.parser", "expr.nodes", "expr.expand", "expr.numeric",
          "jets", "geometry", "liealg", "pis", "catalog", "cli")


def layer_of(group: str) -> str:
    """'expr.nodes.build' -> 'expr.nodes'; 'jets' -> 'jets'."""
    parts = group.split(".")
    return ".".join(parts[:2]) if parts[0] == "expr" else parts[0]


class Stat:
    __slots__ = ("calls", "total", "self_s", "raised", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.raised = {}
        self.extra = 0


class Tracer:
    """Span recorder. One instance per traced run; ``run_id`` tags every
    span it writes."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names = []          # span name table, index = name id
        self.stats = {}          # name -> Stat
        # Span columns; a span's index is its position in them.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")   # -1 for a root span
        self.missing = []
        # Open spans: [start, covered, span index].
        self._stack = []

    # -- span bookkeeping --------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.stats[name] = Stat()
        return len(self.names) - 1

    def enter(self, nid: int) -> list:
        slot = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1][2] if self._stack else -1)
        frame = [0.0, 0.0, slot]
        self._stack.append(frame)
        frame[0] = self.clock()
        return frame

    def leave(self, frame: list, stat: Stat) -> None:
        end = self.clock()
        self._stack.pop()
        dur = end - frame[0]
        stat.calls += 1
        stat.total += dur
        stat.self_s += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        self.span_start[frame[2]] = frame[0]
        self.span_end[frame[2]] = end

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    # -- installation ------------------------------------------------------

    def wrap(self, fn, name: str, on_result=None):
        nid = self._name_id(name)
        stat = self.stats[name]
        enter, leave = self.enter, self.leave
        active = [False]

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            frame = enter(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                key = type(exc).__name__
                stat.raised[key] = stat.raised.get(key, 0) + 1
                raise
            finally:
                leave(frame, stat)
                active[0] = False
            if on_result is not None:
                stat.extra += on_result(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS, on_result=None) -> None:
        """Wrap every target found; names not found are listed in
        ``missing`` so a renamed function shows as a zero count, not as a
        crash."""
        on_result = on_result or {}
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "walkerkit"
                                      or k.startswith("walkerkit."))]
        for modname, attr, group in targets:
            name = f"{group}:{attr}"
            mod = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            orig = (owner.__dict__.get(meth) if owner is not None
                    and cls_name else getattr(owner, meth, None))
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                self._name_id(name)
                continue
            wrapped = self.wrap(orig, name, on_result.get(attr))
            if cls_name:
                setattr(owner, meth, wrapped)
                continue
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per layer and per group: calls and self seconds."""
        out = {}
        for name, st in self.stats.items():
            group = name.split(":", 1)[0]
            for key in {group, layer_of(group)}:
                agg = out.setdefault(key, {"calls": 0, "self_s": 0.0})
                agg["calls"] += st.calls
                agg["self_s"] += st.self_s
        return out

    def span_count(self) -> int:
        return len(self.span_name)

    def span_rows(self):
        """(name id, start, end, parent index) of every span, in the
        order the spans were opened."""
        return zip(self.span_name, self.span_start, self.span_end,
                   self.span_parent)

    def write_spans(self, path) -> None:
        """A JSON header line (run id, name table), then one JSON array
        line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "names": self.names,
                                 "spans": self.span_count()}) + "\n")
            fh.writelines(f"[{nid},{start:.9f},{end:.9f},{parent}]\n"
                          for nid, start, end, parent in self.span_rows())


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.nid = (tracer.names.index(name) if name in tracer.stats
                    else tracer._name_id(name))
        self.stat = tracer.stats[name]

    def __enter__(self):
        self.frame = self.tracer.enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.leave(self.frame, self.stat)
        return False
