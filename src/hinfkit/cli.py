"""Batch front end: load models, synthesize, verify, compare, report.

Model files are JSON documents with a ``kind`` discriminator:

  {"format": 1, "kind": "descriptor", "A": [[...]], "B": [[...]], "E": [[...]]}
      E optional (identity). Matrices are row-major arrays of arrays.

  {"format": 1, "kind": "rational", "M": [[entry, ...], ...], "N": [[...]]}
      entry = {"num": [c0, c1, ...], "den": [...]} with ascending
      coefficients; a bare array is a polynomial numerator over den = [1].

  {"format": 1, "kind": "network", "network_kind": "buffer", "nodes": 3,
   "edges": [[0, 1], [1, 2]], "params": {"a": [1, 2, 3]}}
      network_kind in {buffer, irrigation, thermal, machine, circulant};
      node indices are 0-based.

Each operation does each step once: the parser is built once per process,
``main`` reads the model file once (its sha256 is the report's digest) and
resolves it into its report kind, certification plant (linked to its
descriptor form, if any) and canonical gain, and the report is written in one
walk to a list of pieces, joined once. Reports are format 2: a gain K is written as
{"shape", "rows", "cols", "values"}, its entries other than +0.0 by row. --gain reads that
block or dense rows, and refuses either unless it is m x k, before any block runs. verify
builds every certificate block; freqresp's table takes _route's sigma_max evaluator
(verify.sigma_table). The CLI parses, refuses, dispatches and writes; compare refuses a
singular E. Only synth takes --weighted. --tol (>= 0) and --omega0 must be finite, the
grid bounds finite with 0 < --grid-min < --grid-max, and --points at least 2.
Malformed generate lists (numbers, i-j edges, i-j:w weights) exit 2, as does a
model, gain or weight file that is unreadable, not JSON, or has a field of the
wrong type: one JSON type test (``_is``) reads a number as a JSON int or float,
never a bool or a string, and format, nodes and edge endpoints as integers.
An unknown or missing kind or network_kind exits 2, naming the field.
generate builds its network once and writes what it validated.

Exit codes: 0 ok/optimal, 2 schema violation (SchemaError), 3 invalid model
(any ModelError), 4 certified suboptimal, 5 unstable, 7 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, freqgrid, netgen, synth, verify
from .exceptions import (
    DimensionError,
    HinfkitError,
    InvalidInputError,
    ModelError,
    SchemaError,
    SingularMatrixError,
)
from .baseline import AreProblem, gamma_bisect
from .netgen import NetworkModel
from .sysmodel import DescriptorPlant, Gain, RationalPlant

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_SUBOPTIMAL = 4
EXIT_UNSTABLE = 5
EXIT_INTERNAL = 7


# ---------------------------------------------------------------------------
# model loading


# The JSON type, as _is reads it, of each network field and param that has one.
_NETWORK_TYPES = {"nodes": int, "edges": [(int, int)]}
_PARAM_TYPES = dict.fromkeys(("a", "alpha", "beta", "tau", "masses", "leak", "row"), [float])
_PARAM_TYPES |= dict.fromkeys(("heat_capacity", "outdoor", "mass", "damping"), float)
_PARAM_TYPES |= dict.fromkeys(("conduction", "edges"), [(int, int, float)])
_PARAM_TYPES["laplacian"] = [[float]]


def _is(x, t):
    """Whether the JSON value x has the type t: the one type test of every input field.

    float is a number (a JSON int or float, never a bool or a string), int an integer,
    [t] an array of t, and a tuple an array of one value per type.
    """
    if isinstance(t, type):
        return type(x) in (int, t)
    if type(x) is not list:
        return False
    if isinstance(t, tuple):
        return len(x) == len(t) and all(map(_is, x, t))
    if isinstance(t[0], type):  # numbers: all entry types at once
        return set(map(type, x)) <= {int, t[0]}
    return all(_is(v, t[0]) for v in x)


def _typed(doc, types, where=""):
    """Refuse the first field named in ``types`` that doc holds with another JSON type."""
    for key, t in types.items():
        if key in doc and not _is(doc[key], t):
            raise SchemaError(f"field '{where}{key}' has the wrong JSON type", field=where + key)


def _matrix(doc, key):
    if key not in doc:
        raise SchemaError(f"missing required field '{key}'", field=key)
    try:
        m = np.array(doc[key], dtype=float)
    except (TypeError, ValueError, OverflowError):
        m = None
    if m is None or m.ndim == 2 and not _is(doc[key], [[float]]):  # numpy reads "1", true, null
        raise SchemaError(f"field '{key}' is not a numeric matrix", field=key)
    if m.ndim != 2:
        raise SchemaError(f"field '{key}' must be a 2-d array", field=key)
    return m


def _poly_entry(raw, where):
    num, den = (raw.get("num"), raw.get("den", [1.0])) if isinstance(raw, dict) else (raw, [1.0])
    with contextlib.suppress(OverflowError):  # an integer beyond the float range
        if _is(num, [float]) and _is(den, [float]):
            return [float(x) for x in num], [float(x) for x in den]
    raise SchemaError(f"entry '{where}' must hold numeric coefficient arrays", field=where)


def _rational_matrix(doc, key):
    if key not in doc:
        raise SchemaError(f"missing required field '{key}'", field=key)
    rows = doc[key]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise SchemaError(f"field '{key}' must be a nonempty array of rows", field=key)
    return [
        [_poly_entry(e, f"{key}[{i}][{j}]") for j, e in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def load_model(path):
    """Parse and validate a model file; returns a plant or a NetworkModel."""
    model, _ = _parse(path)
    _resolve(model)  # networks compile, and so validate, here
    return model


def _read_json(path, what, bare=None):
    """(document, the file's bytes); a document that is not an object reads as {bare: it}.

    Every input file is read here: one that cannot be read, is not JSON in a Unicode
    encoding, or holds no object where one is needed is a schema error.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {what} file {path}: {exc}")
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SchemaError(f"{what} file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        if bare is None:
            raise SchemaError(f"{what} document must be a JSON object")
        doc = {bare: doc}
    return doc, raw


def _parse(path):
    """The model a file describes and the sha256 of its bytes; networks validate on compiling."""
    doc, raw = _read_json(path, "model")
    digest = hashlib.sha256(raw).hexdigest()
    if not _is(doc.get("format", 1), int) or doc.get("format", 1) != 1:
        raise SchemaError(f"unsupported format version {doc.get('format')}", field="format")
    kind = doc.get("kind")
    if kind == "descriptor":
        A = _matrix(doc, "A")
        B = _matrix(doc, "B")
        E = _matrix(doc, "E") if "E" in doc else np.eye(A.shape[0])
        return DescriptorPlant(E, A, B), digest
    if kind == "rational":
        plant = RationalPlant(_rational_matrix(doc, "M"), _rational_matrix(doc, "N"))
        plant.check_standing_assumptions()
        return plant, digest
    if kind == "network":
        network_kind = doc.get("network_kind")
        if network_kind not in netgen.NETWORK_KINDS:
            raise SchemaError(
                f"unknown network kind {network_kind!r}; expected one of {netgen.NETWORK_KINDS}",
                field="network_kind",
            )
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("field 'params' must be an object", field="params")
        _typed(doc, _NETWORK_TYPES)
        _typed(params, _PARAM_TYPES, "params.")
        return NetworkModel(network_kind, doc.get("nodes", 0), doc.get("edges", []), params), digest
    raise SchemaError(f"unknown model kind {kind!r}", field="kind")


@dataclass
class _Form:
    """A loaded model as the commands see it; built once by ``_resolve``."""

    kind: str  # the report header's model kind
    plant: RationalPlant | None  # linked to its descriptor form if any; None for machine networks
    gain: Callable[[float], Gain]  # canonical gain at the target frequency omega0
    disturbance_map: list | None = None  # irrigation: load disturbances into the states
    header: dict | None = None  # the report's model section: path, digest, kind; set by main


def _resolve(model, unit_h=False) -> _Form:
    """The kind table: every per-kind decision the commands need, in one place."""
    if isinstance(model, RationalPlant):
        return _Form("rational", model, lambda w0: synth.closed_form_gain(model, w0))
    if isinstance(model, DescriptorPlant):
        return _Form("descriptor", model.to_rational(), lambda _: synth.descriptor_gain(model))
    kind = f"network/{model.kind}"
    try:
        if model.kind == "machine":
            m, d, L = netgen.compile_machine(model)
            return _Form(kind, None, lambda _: synth.machine_modal_gains(m, d, L))
        if model.kind == "buffer":
            desc = netgen.compile_buffer(model)
            return _Form(kind, desc.to_rational(), lambda _: synth.buffer_law(model))
        if model.kind == "irrigation":
            desc, H = netgen.compile_irrigation(model, unit_h=unit_h)
            return _Form(kind, desc.to_rational(), lambda _: synth.descriptor_gain(desc), H.tolist())
        desc = netgen.compile_network(model)
    except HinfkitError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # numpy refused a value: a ragged array
        raise SchemaError(f"malformed network model: {exc}") from None
    return _Form(kind, desc.to_rational(), lambda _: synth.descriptor_gain(desc))


def _load_gain(path, omega0, plant) -> Gain:
    """A gain file's K: dense rows or a report's sparse block (``_sparse_entries``), refused
    unless its shape is ``plant``'s m x k; a sparse block is refused before it is allocated."""
    doc = _read_json(path, "gain", bare="K")[0]
    K = doc["K"] if isinstance(doc.get("K"), dict) else _matrix(doc, "K")
    shape, *entries = _sparse_entries(K) if isinstance(K, dict) else (K.shape,)
    if shape != (plant.m, plant.k):
        raise DimensionError(f"gain must be {plant.m} x {plant.k}, got {shape}")
    if entries:  # a sparse block's rows, columns and values
        K = np.zeros(shape)
        K[entries[0], entries[1]] = entries[2]
    return Gain(K, omega0, "external")


def _sparse_entries(block):
    """A sparse block's shape and the rows, columns and values of its entries, checked."""
    shape, *ijv = map(block.get, ("shape", "rows", "cols", "values"))
    with contextlib.suppress(OverflowError):  # an index or value beyond int64 or float
        if _is(shape, (int, int)) and min(shape) >= 0 \
                and all(map(_is, ijv, ([int], [int], [float]))) and len({*map(len, ijv)}) == 1:
            (r, c), (i, j) = shape, np.array(ijv[:2], dtype=np.int64)
            if ((0 <= i) & (i < r) & (0 <= j) & (j < c)).all() and np.unique(i * c + j).size == len(i):
                return (r, c), i, j, np.array(ijv[2], dtype=float)
    raise SchemaError("field 'K' is neither a matrix nor a sparse matrix block", field="K")


# ---------------------------------------------------------------------------
# reports


def _parts(x, pad, out):
    """Append json.dumps(x, indent=2, sort_keys=True) to ``out`` in pieces; str keys only.

    ndarrays and numpy scalars become their JSON values as the walk meets
    them, and tuples read as lists. Containers that hold no container, such as
    the three lists of a gain (``_sparse``), go to the C encoder in one call, with
    the indented item separator; only the nesting above them runs in Python, and
    no piece is copied into its parent.
    """
    x = x.tolist() if isinstance(x, np.ndarray) else x
    inner, nested = pad + "  ", (dict, list, tuple, np.ndarray)
    if isinstance(x, dict) and any(isinstance(v, nested) for v in x.values()):
        items, brackets = [(f"{json.dumps(k)}: ", v) for k, v in sorted(x.items())], "{}"
    elif isinstance(x, (list, tuple)) and any(isinstance(v, nested) for v in x):
        items, brackets = [("", v) for v in x], "[]"
    else:
        s = json.dumps(x, sort_keys=True, separators=(",\n" + inner, ": "), default=np.generic.item)
        if isinstance(x, (dict, list, tuple)) and x:
            s = s[0] + "\n" + inner + s[1:-1] + "\n" + pad + s[-1]
        return out.append(s)
    for i, (key, v) in enumerate(items):
        out.append((",\n" if i else brackets[0] + "\n") + inner + key)
        _parts(v, inner, out)
    out.append("\n" + pad + brackets[1])


def _text(x):
    """json.dumps(x, indent=2, sort_keys=True), str keys only: ``_parts``, joined once."""
    _parts(x, "", out := [])
    return "".join(out)


def _emit(doc, out_path):
    """Write a report to ``out_path``, or to stdout; text goes as is, documents as JSON."""
    text = doc if isinstance(doc, str) else _text(doc) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sparse(K: np.ndarray) -> dict:
    """A gain as its shape and the row, column and value of each entry that is not +0.0, by row."""
    rows, cols = np.nonzero((K != 0.0) | np.signbit(K))
    return {"shape": list(K.shape), "rows": rows.tolist(), "cols": cols.tolist(),
            "values": K[rows, cols].tolist()}


def _gain_report(gain: Gain) -> dict:
    pattern = verify.sparsity_pattern(gain)
    return {
        "K": _sparse(gain.K),
        "omega0": gain.omega0,
        "formula": gain.formula,
        "metadata": gain.metadata,
        "sparsity": {"zeros": pattern.zeros, "nonzeros": pattern.nonzeros},
    }


def _report(form, **fields) -> dict:
    """A report: the tool and model header, then ``fields``."""
    tool = {"name": "hinfkit", "version": __version__, "report_format": 2}
    return {"tool": tool, "model": form.header, **fields}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args, form):
    gain = form.gain(args.omega0)
    if args.weighted:
        if form.plant is None:
            raise InvalidInputError("weighted synthesis is not defined for machine networks")
        Q = _matrix(_read_json(args.weighted, "weight")[0], "Q")
        gain = synth.weighted_gain(form.plant, Q, args.omega0)
    report = _report(form, gain=_gain_report(gain))
    if form.disturbance_map is not None:
        report["disturbance_map"] = form.disturbance_map
    _emit(report, args.out)
    return EXIT_OK


def _cmd_verify(args, form):
    if args.gain and form.plant is None:
        raise InvalidInputError("machine networks certify their own modal law only")
    gain = _load_gain(args.gain, args.omega0, form.plant) if args.gain else form.gain(args.omega0)
    blocks, verdict = verify.certificate_blocks(form.plant, gain, tol=args.tol, grid=args.grid)
    _emit(_report(form, gain=_gain_report(gain), tolerances={"tol": args.tol}, **blocks), args.out)
    return {"optimal": EXIT_OK, "unstable": EXIT_UNSTABLE}.get(verdict, EXIT_SUBOPTIMAL)


def _cmd_lower_bound(args, form):
    if form.plant is None:
        raise InvalidInputError("lower-bound requires a model with a single plant form")
    bound = verify.lower_bound(form.plant, grid=args.grid)
    _emit(_report(form, lower_bound=bound._asdict()), args.out)
    return EXIT_OK


def _cmd_compare(args, form):
    if form.plant is None:
        raise InvalidInputError(
            "compare requires a model with a single descriptor form; "
            "machine networks are verified per mode"
        )
    desc = form.plant.descriptor
    if desc is None:
        raise InvalidInputError("compare requires a descriptor or network model")
    if not desc.state_space:
        raise SingularMatrixError(
            "E is singular; compare needs the state-space form the Riccati baseline is posed in"
        )
    gain = form.gain(args.omega0)
    cert = verify.certify_optimality(form.plant, gain, tol=args.tol, grid=args.grid)
    gamma_star, K_are = gamma_bisect(AreProblem.from_descriptor(desc), tol=args.tol)
    are_gain = Gain(K_are, 0.0, "external")
    closed = verify.sparsity_pattern(gain)
    dense = verify.sparsity_pattern(are_gain)
    report = _report(
        form,
        closed_form={"gain": _gain_report(gain), "certificate": asdict(cert)},
        baseline={
            "gamma_star": gamma_star,
            "K": _sparse(K_are),
            "sparsity": {"zeros": dense.zeros, "nonzeros": dense.nonzeros},
        },
        norm_ratio=cert.hinf_norm / gamma_star if gamma_star else None,
        sparsity_contrast={"closed_form_zeros": closed.zeros, "baseline_zeros": dense.zeros},
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_freqresp(args, form):
    if form.plant is None:
        raise InvalidInputError("freqresp requires a model with a single plant form")
    gain = _load_gain(args.gain, args.omega0, form.plant) if args.gain else form.gain(args.omega0)
    rows = verify.sigma_table(form.plant, gain, args.grid)
    _emit("omega,sigma_max,is_peak\n" + "".join(f"{w!r},{v!r},{p}\n" for w, v, p in rows), args.out)
    return EXIT_OK


def _cmd_generate(args):
    kind = args.network_kind
    weighted = lambda edges: [[i, j, 1.0 if w is None else w] for i, j, w in edges]
    if kind == "buffer":
        edges = [(i, j) for i, j, _ in args.edges]
        net = NetworkModel(kind, args.nodes or len(args.rates), edges, {"a": args.rates})
    elif kind == "irrigation":
        alpha, beta, tau = args.alpha, args.beta, args.tau
        n = args.nodes or max(len(alpha), len(beta), len(tau))
        expand = lambda v: v * n if len(v) == 1 else v
        params = {"alpha": expand(alpha), "beta": expand(beta), "tau": expand(tau)}
        net = NetworkModel(kind, n, [], params)
    elif kind == "thermal":
        params = {
            "masses": args.masses,
            "heat_capacity": args.heat_capacity,
            "leak": args.leak,
            "conduction": weighted(args.conduction),
            "outdoor": args.outdoor,
        }
        net = NetworkModel(kind, args.nodes or len(args.masses), [], params)
    elif kind == "machine":
        params = {
            "mass": args.mass,
            "damping": args.damping,
            "edges": weighted(args.edges),
        }
        net = NetworkModel(kind, args.nodes, [], params)
    else:
        net = NetworkModel(kind, 0, [], {"row": args.row})
    _resolve(net)  # validate before writing
    doc = {"format": 1, "kind": "network", "network_kind": kind}
    _emit({**doc, "nodes": net.nodes, "edges": net.edges, "params": net.params}, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def finite(text) -> float:
    """A command-line number that is neither NaN nor infinite."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def tolerance(text) -> float:
    x = finite(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    return x


def positive(text) -> float:
    x = finite(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return x


def grid_points(text) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"a grid needs at least two points: {text!r}")
    return n


def number_list(text) -> list:
    """'1,2.5' as [1.0, 2.5]; empty items are skipped."""
    return [float(x) for x in text.split(",") if x.strip()]


def edge_list(text) -> list:
    """'0-1:2.5,1-2' as [(0, 1, 2.5), (1, 2, None)]: node pairs, each with an optional weight."""
    out = []
    for item in filter(str.strip, text.split(",")):
        edge, _, w = item.strip().partition(":")
        i, j = edge.split("-")
        out.append((int(i), int(j), float(w) if w else None))
    return out


def _add_common(p, grid=True, tol=False):
    p.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    if tol:
        help = "certification tolerance; below about 5e-9 no gain passes on the state-space route"
        p.add_argument("--tol", type=tolerance, default=verify.CERT_RTOL, help=help)
    p.add_argument("--omega0", type=finite, default=0.0, help="target peak frequency")
    if grid:
        p.add_argument("--grid-min", type=positive, default=freqgrid.GRID_MIN)
        p.add_argument("--grid-max", type=positive, default=freqgrid.GRID_MAX)
        p.add_argument("--points", type=grid_points, default=freqgrid.GRID_POINTS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hinfkit",
        description="Closed-form H-infinity state feedback: synthesis, certification, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit the closed-form gain for a model")
    p.add_argument("model")
    p.add_argument("--weighted", default=None, help="JSON file with an output weight Q")
    p.add_argument(
        "--unit-h",
        action="store_true",
        help="irrigation: report the unit-entry disturbance map instead of the 1/alpha-scaled one",
    )
    _add_common(p, grid=False)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="certify the gain; exit code encodes the verdict")
    p.add_argument("model")
    p.add_argument("--gain", default=None, help="JSON file with a gain matrix K to verify")
    _add_common(p, tol=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lower-bound", help="synthesis lower bound over frequency")
    p.add_argument("model")
    _add_common(p)
    p.set_defaults(func=_cmd_lower_bound)

    p = sub.add_parser("compare", help="closed-form gain versus Riccati bisection baseline")
    p.add_argument("model")
    _add_common(p, tol=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("freqresp", help="per-frequency closed-loop gain table (CSV)")
    p.add_argument("model")
    p.add_argument("--gain", default=None, help="JSON file with a gain matrix K")
    _add_common(p)
    p.set_defaults(func=_cmd_freqresp)

    p = sub.add_parser("generate", help="write a network model file")
    p.add_argument("network_kind", choices=netgen.NETWORK_KINDS)
    p.add_argument("--nodes", type=int, default=0)
    p.add_argument(
        "--edges", type=edge_list, default="", help="comma list like 0-1,1-2 (machine: 0-1:w)"
    )
    p.add_argument("--rates", type=number_list, default="", help="buffer: per-node rates a_i")
    p.add_argument(
        "--alpha", type=number_list, default="", help="irrigation: per-pool alpha (or one value)"
    )
    p.add_argument("--beta", type=number_list, default="", help="irrigation: per-pool beta")
    p.add_argument("--tau", type=number_list, default="", help="irrigation: per-pool tau")
    p.add_argument("--masses", type=number_list, default="", help="thermal: per-room masses")
    p.add_argument("--heat-capacity", type=float, default=1.0)
    p.add_argument(
        "--leak", type=number_list, default="", help="thermal: per-room leak coefficients"
    )
    p.add_argument("--conduction", type=edge_list, default="", help="thermal: 0-1:p pairs")
    p.add_argument("--outdoor", type=float, default=0.0)
    p.add_argument("--mass", type=float, default=1.0, help="machine: inertia")
    p.add_argument("--damping", type=float, default=1.0, help="machine: damping")
    p.add_argument("--row", type=number_list, default="", help="circulant: generator row")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "grid_min" in vars(args) and not args.grid_min < args.grid_max:
        parser.error(f"argument --grid-max: must exceed --grid-min {args.grid_min!r}")
    if vars(args).get("network_kind") == "buffer" and any(w is not None for *_, w in args.edges):
        parser.error("argument --edges: buffer edges take no weights")
    try:
        if "grid_min" in vars(args):
            args.grid = freqgrid.default_grid(args.grid_min, args.grid_max, args.points)
        if "model" not in vars(args):
            return args.func(args)
        model, digest = _parse(args.model)
        form = _resolve(model, unit_h=vars(args).get("unit_h", False))
        form.header = {"path": str(args.model), "digest": digest, "kind": form.kind}
        return args.func(args, form)
    except SchemaError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"hinfkit: schema error: {exc}{field}", file=sys.stderr)
        return EXIT_SCHEMA
    except ModelError as exc:
        print(f"hinfkit: invalid model: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except HinfkitError as exc:
        print(f"hinfkit: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort mapping to exit 7
        print(f"hinfkit: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
