"""Per-layer tracing of hopfcoh from outside the package.

``Tracer.install`` wraps the public functions of each layer by rebinding
every ``hopfcoh.*`` module attribute (and every value of a module-level
dict) that holds the same function object, so calls made through
``from .linalg import kernel_basis`` are wrapped too; methods are wrapped
on their class.  ``uninstall`` puts every original back.  Each call
records a span (function, start, end, parent span, job id) in memory;
``summary`` turns them into per-layer self times and call counts.

``OpCounter`` is the separate counting pass: it wraps the arithmetic
methods of ``Scalar`` and measures kernel-basis coefficient sizes, which
would distort the span times if done while tracing.
"""
from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# metric -> the functions whose self time it sums: "module:attr" or
# "module:Class.method"
TIME_LAYERS = {
    "jobfile.parse_s": ("jobfile:parse_input", "jobfile:render"),
    "report.run_self_s": ("report:run",),
    "report.render_s": ("report:render_json",),
    "hopf.build_s": (
        "catalog:get_algebra",
        "report:resolve_algebra",
        "kacpaljutkin:kac_paljutkin",
        "hopf:function_algebra",
        "hopf:group_algebra",
    ),
    "hopf.axioms_s": ("hopf:check_axioms",),
    "hopf.solve_s": ("hopf:check_saturated", "hopf:counit_find", "hopf:haar_state"),
    "comodule.catalog_s": ("comodule:catalog_bicomodules", "comodule:catalog_right_comodules"),
    "comodule.nondegenerate_s": ("comodule:check_nondegenerate", "comodule:check_nondegenerate_left"),
    "cochain.build_s": (
        "cochain:build_complex",
        "cochain:natural_coboundary",
        "cochain:dual_coboundary",
        "cochain:bar_boundary",
        "cochain:bar_dual_coboundary",
    ),
    "cochain.chain_check_s": ("cochain:CochainComplex.__post_init__",),
    "cochain.cohomology_s": ("cochain:cohomology",),
    "cochain.identify_s": ("cochain:identify_dual_with_natural", "cochain:identify_dual_with_bar"),
    "cochain.homotopy_s": (
        "cochain:homotopy_from_counit_natural",
        "cochain:homotopy_from_counit_dual",
        "cochain:homotopy_from_haar",
        "cochain:homotopy_from_codiagonal",
    ),
    "linalg.elim_s": ("linalg:rref", "linalg:image_rank", "linalg:kernel_basis"),
    "linalg.solver_s": ("linalg:LinearSolver.__init__", "linalg:LinearSolver.solve", "linalg:solve"),
    "linalg.span_s": ("linalg:SpanTracker.add", "linalg:SpanTracker.reduce"),
    "linalg.product_s": (
        "linalg:Matrix.__matmul__",
        "linalg:Matrix.apply",
        "linalg:kron",
        "linalg:kron_all",
        "linalg:tensor_permutation",
    ),
    "linalg.psd_s": ("linalg:psd_check",),
    "lp.simplex_s": ("lp:solve_equality_feasibility",),
    "lp.oracle_s": ("lp:enumerate_feasibility",),
    "amenability.self_s": (
        "amenability:find_codiagonal",
        "amenability:find_invariant_mean",
        "amenability:kronecker_codiagonal",
        "amenability:canonical_mean_cocycle",
        "amenability:check_codiagonal_vanishing",
        "amenability:check_graded_cocycles",
        "amenability:check_mean_vs_cohomology",
    ),
}
# count metric -> the functions whose calls it counts
CALL_COUNTS = {
    "hopf.axiom_gates": ("hopf:check_axioms",),
    "comodule.catalog_calls": ("comodule:catalog_bicomodules",),
    "cochain.builds": ("cochain:build_complex",),
    "linalg.kron_calls": ("linalg:kron",),
}
# eliminations: counted (with their rows x cols) only when no other
# elimination is running, so kernel_basis -> rref counts once
ELIMINATIONS = ("linalg:rref", "linalg:image_rank", "linalg:kernel_basis", "linalg:LinearSolver.__init__")
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "hopfcoh" or name.startswith("hopfcoh.")]


class _Patcher:
    """Rebinds functions and methods; undo() restores the originals."""

    def __init__(self):
        self._undo = []

    def resolve(self, target: str):
        mod_name, _, path = target.partition(":")
        owner = importlib.import_module(f"hopfcoh.{mod_name}")
        if "." in path:
            cls_name, meth = path.split(".")
            return getattr(owner, cls_name).__dict__[meth]
        return getattr(owner, path)

    def replace(self, target: str, original, wrapper):
        mod_name, _, path = target.partition(":")
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(sys.modules[f"hopfcoh.{mod_name}"], cls_name)
            self._undo.append((setattr, cls, meth, original))
            setattr(cls, meth, wrapper)
            return
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((setattr, module, key, original))
                    setattr(module, key, wrapper)
                elif type(value) is dict:
                    for dkey, dvalue in value.items():
                        if dvalue is original:
                            self._undo.append((dict.__setitem__, value, dkey, original))
                            value[dkey] = wrapper

    def undo(self):
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()


class Tracer:
    """Spans and counts for every function named in TIME_LAYERS."""

    def __init__(self):
        self.fn_names = sorted({t for ts in TIME_LAYERS.values() for t in ts})
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.fn = array("H")
        self.job = array("q")
        self.job_ref = [-1]
        self.elim = {"count": 0, "cells": 0, "depth": 0}
        self._stack = [-1]  # open spans, innermost last
        self._patcher = _Patcher()

    def begin_job(self):
        self.job_ref[0] += 1

    @property
    def jobs(self) -> int:
        return self.job_ref[0] + 1

    def install(self):
        for fid, target in enumerate(self.fn_names):
            original = self._patcher.resolve(target)
            wrapper = self._span_wrapper(original, fid, target in ELIMINATIONS, target.endswith("__init__"))
            self._patcher.replace(target, original, wrapper)

    def uninstall(self):
        self._patcher.undo()

    def _span_wrapper(self, fn, fid, is_elim, is_method):
        start, end, parent, fns, job, job_ref = self.start, self.end, self.parent, self.fn, self.job, self.job_ref
        stack, elim, clock = self._stack, self.elim, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            fns.append(fid)
            job.append(job_ref[0])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        if not is_elim:
            return wrapper

        def elim_wrapper(*args, **kwargs):
            if elim["depth"]:
                return wrapper(*args, **kwargs)
            m = args[1] if is_method else args[0]
            elim["count"] += 1
            elim["cells"] += m.rows * m.cols
            elim["depth"] += 1
            try:
                return wrapper(*args, **kwargs)
            finally:
                elim["depth"] -= 1

        return elim_wrapper

    def summary(self) -> dict:
        """Per-layer totals over every traced job: self seconds and counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = {}
        for metric, targets in TIME_LAYERS.items():
            for t in targets:
                layer_of[self.fn_names.index(t)] = metric
        totals = {metric: 0.0 for metric in TIME_LAYERS}
        calls = [0] * len(self.fn_names)
        fns = self.fn
        for i in range(n):
            f = fns[i]
            totals[layer_of[f]] += dur[i] - child[i]
            calls[f] += 1
        for metric, targets in CALL_COUNTS.items():
            totals[metric] = sum(calls[self.fn_names.index(t)] for t in targets)
        totals["linalg.eliminations"] = self.elim["count"]
        totals["linalg.elim_cells"] = self.elim["cells"]
        totals["spans"] = n
        return totals

    def write_spans(self, path):
        """All spans as tab-separated lines: job, function, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("job\tfunction\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.job[i]}\t{self.fn_names[self.fn[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )


class OpCounter:
    """Counts calls to Scalar + - * / and the largest kernel-basis coefficient."""

    def __init__(self):
        self.ops = [0]
        self.max_bits = 0
        self._patcher = _Patcher()

    def install(self):
        ops = self.ops
        for name in SCALAR_OPS:
            target = f"scalars:Scalar.{name}"
            original = self._patcher.resolve(target)

            def counted(a, b, _f=original):
                ops[0] += 1
                return _f(a, b)

            self._patcher.replace(target, original, counted)
        target = "linalg:kernel_basis"
        original = self._patcher.resolve(target)

        def measured(m, _f=original):
            basis = _f(m)
            bits = self.max_bits
            for v in basis:
                for x in v:
                    if x:
                        bits = max(
                            bits,
                            abs(x.re.numerator).bit_length(),
                            x.re.denominator.bit_length(),
                            abs(x.im.numerator).bit_length(),
                            x.im.denominator.bit_length(),
                        )
            self.max_bits = bits
            return basis

        self._patcher.replace(target, original, measured)

    def uninstall(self):
        self._patcher.undo()
