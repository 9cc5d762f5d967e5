"""Spans around the package's public functions, for the traced run only.

``Tracer.install`` replaces each function named in SPANS, wherever a
``quadharm`` module holds it, with a wrapper that records a span
[name, start, end, parent, info]; ``uninstall`` puts the originals back.
Modules a workload does not use are imported so that their functions can
be told apart from missing ones.  A name that no longer exists is recorded
in ``missing`` and skipped, and every metric fed only by missing names is
reported as absent.

``layer_metrics`` turns the spans of one problem into per-layer figures.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _class_info(args, kwargs):
    """(size, has a nonzero right-hand side) of a ``solve_class`` argument."""
    system = args[0] if args else None
    members = getattr(system, "members", None)
    rhs = getattr(system, "rhs", None)
    if members is None or rhs is None:
        return None
    return len(members), any(v != 0 for v in rhs)


# (module, attribute path, hook run before the span starts)
SPANS = [
    ("quadharm.solver", "solve_dirichlet", None),
    ("quadharm.solver", "cascade", None),
    ("quadharm.solver", "solve_homogeneous", None),
    ("quadharm.solver", "assemble_class_systems", None),
    ("quadharm.solver", "solve_class", _class_info),
    ("quadharm.polynomial", "taylor_reconstruct", None),
    ("quadharm.polynomial", "Poly.laplacian", None),
    ("quadharm.polynomial", "Poly.d_alpha", None),
    ("quadharm.verify", "verify_solution", None),
    ("quadharm.verify", "oracle_operator_matrix", None),
    ("quadharm.parsing", "parse_polynomial", None),
    ("quadharm.parsing", "parse_surface", None),
    ("quadharm.parsing", "poly_to_json_terms", None),
    ("quadharm.parsing", "format_polynomial", None),
    ("quadharm.cli", "main", None),
]

RHS = ("Poly.laplacian", "Poly.d_alpha")
PARSE = ("parse_polynomial", "parse_surface")
FORMAT = ("poly_to_json_terms", "format_polynomial")

# metric -> (unit, span names it is computed from)
METRICS = {
    "solver.levels": ("count", ("solve_homogeneous",)),
    "solver.rhs_ms": ("ms", RHS),
    "solver.assemble_ms": ("ms", ("assemble_class_systems",)),
    "solver.eliminate_ms": ("ms", ("solve_class",)),
    "solver.classes_eliminated": ("count", ("solve_class",)),
    "solver.classes_skipped": ("count", ("solve_class",)),
    "solver.elim_work": ("count", ("solve_class",)),
    "solver.reconstruct_ms": ("ms", ("taylor_reconstruct",)),
    "solver.cascade_self_ms": ("ms", ("cascade", "solve_dirichlet")),
    "verify.verify_ms": ("ms", ("verify_solution",)),
    "verify.oracle_ms": ("ms", ("oracle_operator_matrix",)),
    "parsing.parse_ms": ("ms", PARSE),
    "parsing.format_ms": ("ms", FORMAT),
    "cli.self_ms": ("ms", ("main",)),
}


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "quadharm" or k.startswith("quadharm."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            if hook is not None:
                rec[4] = hook(args, kwargs)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        self.missing = []
        for module_name, path, hook in SPANS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(path)
                continue
            wrapped = self._wrap(path, original, hook)
            if outer:
                self._patch(owner, attr, original, wrapped)
                continue
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


# Groups whose spans count only when no ancestor belongs to the same group,
# so that nested calls are not counted twice.
_TOPMOST = {name: group for group in (RHS, PARSE, FORMAT) for name in group}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over the spans of one or more whole problems."""
    ms = 1000.0
    dur = [(rec[2] - rec[1]) * ms for rec in spans]
    child = [0.0] * len(spans)
    ancestors: list[frozenset] = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            ancestors.append(ancestors[parent] | {spans[parent][0]})
        else:
            ancestors.append(frozenset())
    out = dict.fromkeys(METRICS, 0.0)
    for i, (name, _, _, _, info) in enumerate(spans):
        above = ancestors[i]
        if name in _TOPMOST and not above.isdisjoint(_TOPMOST[name]):
            continue
        own = dur[i] - child[i]
        if name == "solve_homogeneous":
            out["solver.levels"] += 1
        elif name in RHS:
            if "solve_homogeneous" in above:
                out["solver.rhs_ms"] += dur[i]
        elif name == "assemble_class_systems":
            out["solver.assemble_ms"] += own
        elif name == "solve_class":
            out["solver.eliminate_ms"] += dur[i]
            if info is not None:
                size, active = info
                if active:
                    out["solver.classes_eliminated"] += 1
                    out["solver.elim_work"] += size**3
                else:
                    out["solver.classes_skipped"] += 1
        elif name == "taylor_reconstruct":
            out["solver.reconstruct_ms"] += dur[i]
        elif name in ("cascade", "solve_dirichlet"):
            out["solver.cascade_self_ms"] += own
        elif name == "verify_solution":
            out["verify.verify_ms"] += dur[i]
        elif name == "oracle_operator_matrix":
            out["verify.oracle_ms"] += dur[i]
            if "verify_solution" in above:
                out["verify.verify_ms"] -= dur[i]
        elif name in PARSE:
            out["parsing.parse_ms"] += dur[i]
        elif name in FORMAT:
            out["parsing.format_ms"] += dur[i]
        elif name == "main":
            out["cli.self_ms"] += own
    return out


def absent(missing: list[str]) -> list[str]:
    """Metrics none of whose spans could be installed."""
    return [name for name, (_, sources) in METRICS.items()
            if all(s in missing for s in sources)]
