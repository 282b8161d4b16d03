"""Outside-in tracer for hinfkit.

While installed, every public function and method of the layer modules and
every numpy/scipy LAPACK entry point is replaced by a wrapper that records
a span: name, start, end, parent span and op id. Spans live in flat arrays
in memory and are written out once, at the end of the run. ``uninstall``
puts the original objects back, so untraced ops run the program as shipped.

Spans nest by construction (one call stack, one thread), which is what
makes self time well defined: a span's duration minus its children's.
``summary`` re-checks that nesting and that self times add up to each op's
wall time before it derives any metric.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "netgen", "synth", "sysmodel", "freqgrid", "verify", "linalg", "baseline")

# Classes whose constructor is a stage of its own (validation, conversion).
INIT_SPANS = {"DescriptorPlant", "RationalPlant", "AreProblem"}
# Constructions are counted, not spanned: there are 319,200 per N = 200 verify.
COUNT_ONLY = {"Polynomial"}

# LAPACK entry points by category; nested calls (pinv -> svd) count once.
KERNELS = {
    "eig": ("eig", "eigvals", "schur", "qz", "ordqz", "hessenberg"),
    "eigh": ("eigh", "eigvalsh"),
    "svd": ("svd", "svdvals", "pinv"),
    "solve": ("solve", "inv", "lstsq", "det", "slogdet", "lu_factor", "lu_solve", "cholesky"),
}
KERNEL_NAMESPACES = ("numpy.linalg", "numpy.linalg._linalg", "numpy.lib._polynomial_impl", "scipy.linalg")

CERTIFY = "verify.certify_optimality"
NORM_SS = "verify.hinf_norm_ss"
ADAPTIVE_MAX = "freqgrid.adaptive_max"


def _flops(cat, fn, args, kwargs):
    """Operation count of one call from its shapes, by standard LAPACK formulas.

    Complex data counts four real flops per complex one; stacked inputs
    multiply by the stack size. Returns (matrix order, flops).
    """
    a = args[0] if args else next(iter(kwargs.values()), None)
    shape = np.shape(a)
    if len(shape) < 2:
        return 0, 0.0
    p, q = shape[-2], shape[-1]
    n = q
    batch = math.prod(shape[:-2])
    scale = batch * (4.0 if np.iscomplexobj(a) else 1.0)
    if cat == "eig":
        general = (len(args) > 1 and args[1] is not None) or kwargs.get("b") is not None or fn in ("qz", "ordqz")
        vectors = fn in ("eig", "schur", "qz", "ordqz") and kwargs.get("right", True)
        base = (66.0 if vectors else 30.0) if general else (25.0 if vectors else 10.0)
        return n, scale * base * n**3
    if cat == "eigh":
        vectors = fn == "eigh" and not kwargs.get("eigvals_only", False)
        return n, scale * (9.0 if vectors else 4.0 / 3.0) * n**3
    if cat == "svd":
        big, small = max(p, q), min(p, q)
        vectors = fn == "pinv" or (fn == "svd" and kwargs.get("compute_uv", True))
        if vectors:
            return small, scale * (4.0 * big**2 * small + 8.0 * big * small**2 + 9.0 * small**3)
        return small, scale * (4.0 * big * small**2 - 4.0 * small**3 / 3.0)
    if fn == "inv":
        return n, scale * 2.0 * n**3
    if fn in ("solve", "lu_solve"):
        b = args[1] if len(args) > 1 else kwargs.get("b")
        bshape = np.shape(b)
        nrhs = bshape[-1] if len(bshape) >= 2 and len(bshape) == len(shape) else 1
        lu = 0.0 if fn == "lu_solve" else 2.0 * n**3 / 3.0
        return n, scale * (lu + 2.0 * n * n * nrhs)
    if fn == "lstsq":
        return n, scale * (2.0 * p * q * q - 2.0 * q**3 / 3.0)
    if fn == "cholesky":
        return n, scale * n**3 / 3.0
    return n, scale * 2.0 * n**3 / 3.0


class Tracer:
    """Span recorder; ``install``/``uninstall`` swap the wrappers in and out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array.array("i")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.parent = array.array("i")
        self.op_col = array.array("i")
        self.size = array.array("i")
        self.flops = array.array("d")
        self.stack = [-1]
        self.op = -1
        self.polynomials = 0
        self.phase = "grid"
        self._in_kernel = False
        self._patches = []  # (owner, attribute, original, wrapper)
        self._build()

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid, size=0, flops=0.0):
        idx = len(self.t0)
        self.name_col.append(nid)
        self.parent.append(self.stack[-1])
        self.op_col.append(self.op)
        self.size.append(size)
        self.flops.append(flops)
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.t1[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id):
        self.op = op_id
        return self._open(self._id("op"))

    def end_op(self, idx):
        self._close(idx)
        self.op = -1

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, size_of=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid, size_of(args) if size_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _kernel(self, cat, fn_name, fn):
        nid = self._id(f"lapack.{cat}.{fn_name}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_kernel:
                return fn(*args, **kwargs)
            size, flops = _flops(cat, fn_name, args, kwargs)
            idx = self._open(nid, size, flops)
            self._in_kernel = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_kernel = False
                self._close(idx)

        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.polynomials += 1
            return fn(*args, **kwargs)

        return wrapper

    def _adaptive_max(self, fn):
        nid = self._id(ADAPTIVE_MAX)
        cb_ids = {}

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            layer = getattr(f, "__module__", "") or ""
            layer = layer.rsplit(".", 1)[-1] or "callback"
            ids = cb_ids.setdefault(layer, (self._id(f"{layer}.callback.grid"), self._id(f"{layer}.callback.golden")))

            def callback(w):
                idx = self._open(ids[0] if self.phase == "grid" else ids[1])
                try:
                    return f(w)
                finally:
                    self._close(idx)

            idx = self._open(nid)
            outer, self.phase = self.phase, "grid"
            try:
                return fn(callback, *args, **kwargs)
            finally:
                self.phase = outer
                self._close(idx)

        return wrapper

    def _golden(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self.phase = self.phase, "golden"
            try:
                return fn(*args, **kwargs)
            finally:
                self.phase = outer

        return wrapper

    def _build(self):
        """Wrapper for every traced object, and every place that names it."""
        modules = [importlib.import_module(f"hinfkit.{layer}") for layer in LAYERS]
        replace = {}  # id(original) -> (original, wrapper)
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = (obj, self._wrap_function(layer, attr, obj))
                elif inspect.isclass(obj) and not issubclass(obj, (tuple, BaseException)):
                    self._wrap_class(layer, obj)
            golden = getattr(mod, "_golden_max", None)
            if layer == "freqgrid" and golden is not None:
                replace[id(golden)] = (golden, self._golden(golden))
        for cat, fns in KERNELS.items():
            for ns in KERNEL_NAMESPACES:
                mod = importlib.import_module(ns)
                for fn_name in fns:
                    obj = getattr(mod, fn_name, None)
                    if callable(obj) and id(obj) not in replace:
                        replace[id(obj)] = (obj, self._kernel(cat, fn_name, obj))
        namespaces = modules + [importlib.import_module(ns) for ns in KERNEL_NAMESPACES]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))

    def _wrap_function(self, layer, attr, obj):
        if f"{layer}.{attr}" == ADAPTIVE_MAX:
            return self._adaptive_max(obj)
        if f"{layer}.{attr}" == NORM_SS:
            return self._span(NORM_SS, obj, size_of=lambda args: int(np.shape(args[0].A)[0]))
        return self._span(f"{layer}.{attr}", obj)

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if cls.__name__ in COUNT_ONLY:
                wrapper = self._counter(obj) if attr == "__init__" else None
            elif attr == "__init__" and cls.__name__ in INIT_SPANS:
                wrapper = self._span(f"{layer}.{cls.__name__}.__init__", obj)
            elif not attr.startswith("_"):
                wrapper = self._span(f"{layer}.{cls.__name__}.{attr}", obj)
            else:
                wrapper = None
            if wrapper is not None:
                self._patches.append((cls, attr, obj, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def columns(self):
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "t0": np.frombuffer(self.t0, dtype=np.float64),
            "t1": np.frombuffer(self.t1, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_col, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int32),
            "flops": np.frombuffer(self.flops, dtype=np.float64),
        }

    def save(self, path, op_labels):
        np.savez_compressed(path, names=np.array(self.names), op_labels=np.array(op_labels), **self.columns())

    def summary(self, op_walls: dict, op_labels: list) -> dict:
        """Per-layer metrics, self time per stage, and the self-time check.

        ``op_walls`` maps op id to the wall time the worker measured around
        the op; ``op_labels`` gives each op id its workload label.
        """
        c = self.columns()
        names = np.array(self.names, dtype=object)
        name = names[c["name"]]
        dur = c["t1"] - c["t0"]
        parent = c["parent"]
        nspans = len(dur)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nspans)
        self_t = dur - child
        problems = self._check_nesting(c, dur)
        ops = sorted(op_walls)
        nops = max(len(ops), 1)
        self_by_op = np.bincount(c["op"][c["op"] >= 0], weights=self_t[c["op"] >= 0], minlength=max(ops, default=0) + 1)
        worst = 0.0
        for op in ops:
            err = abs(self_by_op[op] - op_walls[op])
            worst = max(worst, err / op_walls[op])
            if err > 1e-3 * op_walls[op] + 1e-4:
                problems.append(f"op {op}: self times sum to {self_by_op[op]:.6f} s, wall {op_walls[op]:.6f} s")

        nid = c["name"]
        up = np.maximum(parent, 0)
        pname = np.where(has_parent, name[up], "")

        def flag(pred):
            """Per-span booleans from a predicate on span names, evaluated once per name."""
            return np.array([pred(n) for n in self.names] or [False], dtype=bool)[nid]

        is_kernel = flag(lambda n: n.startswith("lapack."))
        is_cb = flag(lambda n: ".callback." in n)
        transparent = flag(lambda n: n.split(".", 1)[0] in ("lapack", "linalg", "freqgrid", "op") or ".callback." in n)
        cat = np.array([n.split(".")[1] if n.startswith("lapack.") else "" for n in self.names] or [""], dtype=object)[nid]

        def total(mask, values=dur):
            return float(values[mask].sum())

        compile_ = flag(lambda n: n.startswith("netgen.compile_"))
        compile_top = compile_ & ~(has_parent & compile_[up])
        synth = flag(lambda n: n.startswith("synth."))
        synth_top = synth & ~(has_parent & synth[up])
        evals = (name == "sysmodel.RationalPlant.eval_M") | (name == "sysmodel.RationalPlant.eval_N")
        amax = name == ADAPTIVE_MAX
        n_amax = max(int(amax.sum()), 1)
        cb_under_amax = is_cb & (pname == ADAPTIVE_MAX)
        stability = ((name == "verify.pencil_stability") | (name == "verify.rational_stability")) & (pname == CERTIFY)
        structure = (
            (name == "verify.symmetric_commuting_check")
            | (name == "verify.zero_peak_inequality")
            | ((name == "verify.pencil_stability") & (pname != CERTIFY))
        )
        norm = (name == NORM_SS) | (name == "verify.hinf_norm_grid") | (amax & (pname == CERTIFY))

        # Nearest hinf_norm_ss ancestor, and the stage that made each kernel
        # call: linalg helpers, the frequency search and its callbacks are
        # transparent, so a bound evaluation's eigvalsh belongs to lower_bound.
        norm_anc = np.full(nspans, -1, dtype=np.int64)
        stage = np.full(nspans, -1, dtype=np.int64)
        for i in range(nspans):
            p = parent[i]
            if name[i] == NORM_SS:
                norm_anc[i] = i
            elif p >= 0:
                norm_anc[i] = norm_anc[p]
            if not transparent[i]:
                stage[i] = i
            elif p >= 0:
                stage[i] = stage[p]
        ham = is_kernel & (cat == "eig") & (norm_anc >= 0)
        ham &= c["size"] == 2 * c["size"][np.maximum(norm_anc, 0)]

        per_op = {
            "cli.load_s": total(name == "cli.load_model"),
            "cli.self_s": total(name == "cli.main", self_t),
            "netgen.compile_calls": float(compile_top.sum()),
            "netgen.compile_s": total(compile_top),
            "synth.gain_s": total(synth_top),
            "sysmodel.to_rational_s": total(name == "sysmodel.DescriptorPlant.to_rational"),
            "sysmodel.eval_calls": float(evals.sum()),
            "sysmodel.eval_s": total(evals),
            "linalg.polynomial_objects": float(self.polynomials),
            "linalg.eig_calls": float((is_kernel & (cat == "eig")).sum()),
            "linalg.eigh_calls": float((is_kernel & (cat == "eigh")).sum()),
            "linalg.svd_calls": float((is_kernel & (cat == "svd")).sum()),
            "linalg.solve_calls": float((is_kernel & (cat == "solve")).sum()),
            "linalg.flops_computed": float(c["flops"].sum()),
            "linalg.kernel_s": total(is_kernel),
            "freqgrid.self_s": total(amax) - total(cb_under_amax),
            "verify.certify_s": total(name == CERTIFY),
            "verify.stability_s": total(stability),
            "verify.lower_bound_s": total(name == "verify.lower_bound"),
            "verify.norm_s": total(norm),
            "verify.hamiltonian_eigs": float(ham.sum()),
            "verify.structure_s": total(structure),
            "baseline.gamma_bisect_s": total(name == "baseline.gamma_bisect"),
            "baseline.are_calls": float((name == "baseline.are_feasible").sum()),
        }
        metrics = {k: v / nops for k, v in per_op.items()}
        metrics["freqgrid.evaluations"] = float(cb_under_amax.sum()) / n_amax
        for phase in ("grid", "golden"):
            calls = cb_under_amax & flag(lambda n: n.endswith(f".callback.{phase}"))
            metrics[f"freqgrid.{phase}_evaluations"] = float(calls.sum()) / n_amax

        self_by_name = np.bincount(nid, weights=self_t, minlength=len(self.names))
        self_by_stage = {n: v for n, v in zip(self.names, self_by_name) if v > 0}
        kernels_by_stage = defaultdict(lambda: defaultdict(int))
        for i in np.nonzero(is_kernel)[0]:
            owner = name[stage[i]] if stage[i] >= 0 else "op"
            kernels_by_stage[owner][cat[i]] += 1

        by_label = defaultdict(lambda: defaultdict(float))
        count_label = defaultdict(int)
        op_of = c["op"]
        for op in ops:
            count_label[op_labels[op]] += 1
        for key in ("sysmodel.DescriptorPlant.to_rational", "verify.lower_bound", NORM_SS, CERTIFY):
            for i in np.nonzero(name == key)[0]:
                by_label[op_labels[op_of[i]]][key] += dur[i]
        stages_by_label = {
            lab: {k: v / count_label[lab] for k, v in d.items()} for lab, d in by_label.items()
        }
        kernel_share = total(is_kernel) / max(sum(op_walls.values()), 1e-300)
        return {
            "metrics": metrics,
            "self_s_per_op": {k: v / nops for k, v in sorted(self_by_stage.items(), key=lambda kv: -kv[1])},
            "kernel_calls_by_stage": {k: dict(v) for k, v in sorted(kernels_by_stage.items())},
            "stage_s_by_label": stages_by_label,
            "kernel_share": kernel_share,
            "spans": nspans,
            "self_sum_worst_rel_error": worst,
            "problems": problems,
        }

    @staticmethod
    def _check_nesting(c, dur):
        """Children lie inside their parent and siblings do not overlap."""
        problems = []
        parent, t0, t1 = c["parent"], c["t0"], c["t1"]
        if np.any(dur < 0):
            problems.append("span with negative duration (left open)")
        has = parent >= 0
        p = parent[has]
        if np.any(t0[has] < t0[p]) or np.any(t1[has] > t1[p]):
            problems.append("child span outside its parent")
        order = np.lexsort((t0, parent))
        same = parent[order][1:] == parent[order][:-1]
        if np.any(t0[order][1:][same] < t1[order][:-1][same]):
            problems.append("overlapping sibling spans")
        return problems
