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

Each command resolves the loaded model once into its report kind,
certification plant (linked to its descriptor form, if any) and canonical
gain. freqresp tabulates sigma_max with the certificate's own evaluator on
its route; compare refuses a descriptor form with a singular E. Only synth
takes --weighted. --tol (>= 0), --omega0 and the grid bounds must be finite.

Exit codes: 0 ok/optimal, 2 schema violation, 3 model invariant violation,
4 certified suboptimal, 5 unstable, 7 internal error.
"""

from __future__ import annotations

import argparse
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
    HypothesisViolationError,
    InvalidInputError,
    NotRealGainError,
    PoleAtEvaluationError,
    PoleOnAxisError,
    SchemaError,
    SingularMatrixError,
    StandingAssumptionError,
    UnstabilizableError,
)
from .baseline import AreProblem, gamma_bisect
from .netgen import NetworkModel
from .sysmodel import DescriptorPlant, Gain, RationalPlant, modal_plant

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_SUBOPTIMAL = 4
EXIT_UNSTABLE = 5
EXIT_INTERNAL = 7

_INVARIANT_ERRORS = (
    InvalidInputError,
    HypothesisViolationError,
    SingularMatrixError,
    StandingAssumptionError,
    DimensionError,
    NotRealGainError,
    UnstabilizableError,
    PoleAtEvaluationError,
    PoleOnAxisError,
)


# ---------------------------------------------------------------------------
# model loading


def _matrix(doc, key, where):
    if key not in doc:
        raise SchemaError(f"missing required field '{where}{key}'", field=where + key)
    try:
        m = np.array(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"field '{where}{key}' is not a numeric matrix", field=where + key)
    if m.ndim != 2:
        raise SchemaError(f"field '{where}{key}' must be a 2-d array", field=where + key)
    return m


def _poly_entry(raw, where):
    if isinstance(raw, dict):
        num = raw.get("num")
        den = raw.get("den", [1.0])
    else:
        num, den = raw, [1.0]
    try:
        num = [float(x) for x in num]
        den = [float(x) for x in den]
    except (TypeError, ValueError):
        raise SchemaError(f"entry '{where}' must hold numeric coefficient arrays", field=where)
    return num, den


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
    model = _parse(path)
    _resolve(model)  # networks compile, and so validate, here
    return model


def _parse(path):
    """The model a file describes; networks are validated later, when they compile."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read model file {path}: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    if int(doc.get("format", 1)) != 1:
        raise SchemaError(f"unsupported format version {doc.get('format')}", field="format")
    kind = doc.get("kind")
    if kind == "descriptor":
        A = _matrix(doc, "A", "")
        B = _matrix(doc, "B", "")
        E = _matrix(doc, "E", "") if "E" in doc else np.eye(A.shape[0])
        return DescriptorPlant(E, A, B)
    if kind == "rational":
        plant = RationalPlant(_rational_matrix(doc, "M"), _rational_matrix(doc, "N"))
        plant.check_standing_assumptions()
        return plant
    if kind == "network":
        return NetworkModel(
            kind=doc.get("network_kind", ""),
            nodes=doc.get("nodes", 0),
            edges=doc.get("edges", []),
            params=doc.get("params", {}),
        )
    raise SchemaError(f"unknown model kind {kind!r}", field="kind")


@dataclass
class _Form:
    """A loaded model as the commands see it; built once by ``_resolve``."""

    kind: str  # the report header's model kind
    plant: RationalPlant | None  # linked to its descriptor form if any; None for machine networks
    gain: Callable[[float], Gain]  # canonical gain at the target frequency omega0
    disturbance_map: list | None = None  # irrigation: load disturbances into the states


def _resolve(model, unit_h=False) -> _Form:
    """The kind table: every per-kind decision the commands need, in one place."""
    if isinstance(model, RationalPlant):
        return _Form("rational", model, lambda w0: synth.closed_form_gain(model, w0))
    if isinstance(model, DescriptorPlant):
        return _Form("descriptor", model.to_rational(), lambda _: synth.descriptor_gain(model))
    kind = f"network/{model.kind}"
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
    return _Form(kind, desc.to_rational(), lambda _: synth.descriptor_gain(desc))


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read JSON file {path}: {exc}")


def _load_gain(path, omega0) -> Gain:
    doc = _load_json(path)
    K = _matrix(doc if isinstance(doc, dict) else {"K": doc}, "K", "")
    return Gain(K, omega0, "external")


# ---------------------------------------------------------------------------
# reports


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.bool_, np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


def _text(x, pad=""):
    """json.dumps(x, indent=2, sort_keys=True) for str-keyed documents.

    Containers that hold no container go to the C encoder in one call, with
    the indented item separator; only the nesting above them runs in Python.
    """
    inner = pad + "  "
    if isinstance(x, dict) and any(isinstance(v, (dict, list)) for v in x.values()):
        items = (f"{json.dumps(k)}: {_text(v, inner)}" for k, v in sorted(x.items()))
        s = "{" + (",\n" + inner).join(items) + "}"
    elif isinstance(x, list) and any(isinstance(v, (dict, list)) for v in x):
        s = "[" + (",\n" + inner).join(_text(v, inner) for v in x) + "]"
    else:
        s = json.dumps(x, sort_keys=True, separators=(",\n" + inner, ": "))
    if isinstance(x, (dict, list)) and x:
        s = s[0] + "\n" + inner + s[1:-1] + "\n" + pad + s[-1]
    return s


def _emit(doc, out_path):
    """Write a report to ``out_path``, or to stdout; text goes as is, documents as JSON."""
    text = doc if isinstance(doc, str) else _text(_jsonable(doc)) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _gain_report(gain: Gain) -> dict:
    pattern = verify.sparsity_pattern(gain)
    return {
        "K": gain.K,
        "omega0": gain.omega0,
        "formula": gain.formula,
        "metadata": _jsonable(gain.metadata),
        "sparsity": {"zeros": pattern.zeros, "nonzeros": pattern.nonzeros},
    }


def _report(path, form, **fields) -> dict:
    """A report: the tool and model header, then ``fields``."""
    model = {"path": str(path), "digest": _digest(path), "kind": form.kind}
    return {"tool": {"name": "hinfkit", "version": __version__}, "model": model, **fields}


def _structure_checks(plant) -> dict:
    """Descriptor-plant structure tests; the sweep-free route and its fallback."""
    desc = plant.descriptor if plant is not None else None
    if desc is None:
        return {}
    sym = verify.symmetric_commuting_check(desc)
    out = {"symmetric_commuting": {**asdict(sym), "holds": sym.holds}}
    if not sym.holds:
        if desc.state_space:
            pencil = verify.pencil_stability(desc, synth.descriptor_gain(desc))._asdict()
        else:
            pencil = {"applicable": False, "reason": "E is singular"}
        out["fallback"] = {
            "zero_peak_inequality": asdict(verify.zero_peak_inequality(desc)),
            "pencil_stability": pencil,
        }
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args):
    form = _resolve(_parse(args.model), unit_h=args.unit_h)
    gain = form.gain(args.omega0)
    if args.weighted:
        if form.plant is None:
            raise InvalidInputError("weighted synthesis is not defined for machine networks")
        Q = _matrix(_load_json(args.weighted), "Q", "")
        gain = synth.weighted_gain(form.plant, Q, args.omega0)
    report = _report(args.model, form, gain=_gain_report(gain))
    if form.disturbance_map is not None:
        report["disturbance_map"] = form.disturbance_map
    _emit(report, args.out)
    return EXIT_OK


def _grid_from(args):
    return freqgrid.default_grid(args.grid_min, args.grid_max, args.points)


def _cmd_verify(args):
    form = _resolve(_parse(args.model))
    if args.gain:
        if form.plant is None:
            raise InvalidInputError("machine networks certify their own modal law only")
        gain = _load_gain(args.gain, args.omega0)
    else:
        gain = form.gain(args.omega0)

    report = _report(
        args.model,
        form,
        gain=_gain_report(gain),
        tolerances={"tol": args.tol},
        checks=_structure_checks(form.plant),
    )

    if form.plant is None:
        verdict = _verify_machine(gain, args, report)
    else:
        cert = verify.certify_optimality(form.plant, gain, tol=args.tol, grid=_grid_from(args))
        report["certificate"] = asdict(cert)
        verdict = cert.verdict
    _emit(report, args.out)
    if verdict == "optimal":
        return EXIT_OK
    return EXIT_UNSTABLE if verdict == "unstable" else EXIT_SUBOPTIMAL


def _verify_machine(gain, args, report):
    """Certify every decoupled mode; the overall norm is the worst modal norm."""
    m, d = gain.metadata["mass"], gain.metadata["damping"]
    certs = []
    for mode in gain.metadata["modes"]:
        plant = modal_plant(m, d, mode["eigenvalue"])
        mode_gain = Gain([[mode["gain"]]], omega0=mode["omega0"], formula="modal")
        certs.append(
            verify.certify_optimality(plant, mode_gain, tol=args.tol, grid=_grid_from(args))
        )
    worst = max(certs, key=lambda c: c.hinf_norm)
    report["certificate"] = asdict(worst)
    report["modes"] = [asdict(c) for c in certs]
    if any(c.verdict == "unstable" for c in certs):
        return "unstable"
    if all(c.verdict == "optimal" for c in certs):
        return "optimal"
    return "stable-but-suboptimal"


def _cmd_lower_bound(args):
    form = _resolve(_parse(args.model))
    if form.plant is None:
        raise InvalidInputError("lower-bound requires a model with a single plant form")
    bound = verify.lower_bound(form.plant, grid=_grid_from(args))
    _emit(_report(args.model, form, lower_bound=bound._asdict()), args.out)
    return EXIT_OK


def _cmd_compare(args):
    form = _resolve(_parse(args.model))
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
    cert = verify.certify_optimality(form.plant, gain, tol=args.tol, grid=_grid_from(args))
    gamma_star, K_are = gamma_bisect(AreProblem.from_descriptor(desc), tol=args.tol)
    are_gain = Gain(K_are, 0.0, "external")
    closed = verify.sparsity_pattern(gain)
    dense = verify.sparsity_pattern(are_gain)
    report = _report(
        args.model,
        form,
        closed_form={"gain": _gain_report(gain), "certificate": asdict(cert)},
        baseline={
            "gamma_star": gamma_star,
            "K": K_are,
            "sparsity": {"zeros": dense.zeros, "nonzeros": dense.nonzeros},
        },
        norm_ratio=cert.hinf_norm / gamma_star if gamma_star else None,
        sparsity_contrast={"closed_form_zeros": closed.zeros, "baseline_zeros": dense.zeros},
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_freqresp(args):
    form = _resolve(_parse(args.model))
    gain = _load_gain(args.gain, args.omega0) if args.gain else form.gain(args.omega0)
    if form.plant is None:
        raise InvalidInputError("freqresp requires a model with a single plant form")
    _, smax = verify.closed_loop_sigma(form.plant, gain)
    rows = []
    for w in _grid_from(args):
        try:
            rows.append((float(w), smax(w)))
        except PoleAtEvaluationError:
            continue
    vmax = max(v for _, v in rows)
    lines = ["omega,sigma_max,is_peak"]
    marked = False
    for w, v in rows:
        peak = int(not marked and v >= vmax * (1.0 - freqgrid.TIE_RTOL))
        marked = marked or bool(peak)
        lines.append(f"{w!r},{v!r},{peak}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _floats(text):
    return [float(x) for x in str(text).split(",") if x.strip() != ""]


def _pairs(text):
    out = []
    if not str(text).strip():
        return out
    for item in str(text).split(","):
        i, j = item.strip().split("-")
        out.append((int(i), int(j)))
    return out


def _weighted_pairs(text):
    out = []
    if not str(text).strip():
        return out
    for item in str(text).split(","):
        edge, _, w = item.strip().partition(":")
        i, j = edge.split("-")
        out.append((int(i), int(j), float(w) if w else 1.0))
    return out


def _cmd_generate(args):
    kind = args.network_kind
    doc = {"format": 1, "kind": "network", "network_kind": kind}
    if kind == "buffer":
        rates = _floats(args.rates)
        doc.update(
            nodes=args.nodes or len(rates),
            edges=[list(e) for e in _pairs(args.edges)],
            params={"a": rates},
        )
    elif kind == "irrigation":
        alpha, beta, tau = _floats(args.alpha), _floats(args.beta), _floats(args.tau)
        n = args.nodes or max(len(alpha), len(beta), len(tau))
        expand = lambda v: v * n if len(v) == 1 else v
        doc.update(
            nodes=n,
            edges=[],
            params={"alpha": expand(alpha), "beta": expand(beta), "tau": expand(tau)},
        )
    elif kind == "thermal":
        masses = _floats(args.masses)
        leak = _floats(args.leak)
        n = args.nodes or len(masses)
        doc.update(
            nodes=n,
            edges=[],
            params={
                "masses": masses,
                "heat_capacity": args.heat_capacity,
                "leak": leak,
                "conduction": [list(t) for t in _weighted_pairs(args.conduction)],
                "outdoor": args.outdoor,
            },
        )
    elif kind == "machine":
        doc.update(
            nodes=args.nodes,
            edges=[],
            params={
                "mass": args.mass,
                "damping": args.damping,
                "edges": [list(t) for t in _weighted_pairs(args.edges)],
            },
        )
    elif kind == "circulant":
        doc.update(nodes=0, edges=[], params={"row": _floats(args.row)})
    else:
        raise SchemaError(f"unknown network kind {kind!r}")
    net = NetworkModel(
        kind=kind, nodes=doc.get("nodes", 0), edges=doc.get("edges", []), params=doc["params"]
    )
    _resolve(net)  # validate before writing
    _emit(doc, args.out)
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


def _add_common(p, grid=True, tol=False):
    p.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    if tol:
        help = "certification tolerance; below about 5e-9 no gain passes on the state-space route"
        p.add_argument("--tol", type=tolerance, default=verify.CERT_RTOL, help=help)
    p.add_argument("--omega0", type=finite, default=0.0, help="target peak frequency")
    if grid:
        p.add_argument("--grid-min", type=finite, default=freqgrid.GRID_MIN)
        p.add_argument("--grid-max", type=finite, default=freqgrid.GRID_MAX)
        p.add_argument("--points", type=int, default=freqgrid.GRID_POINTS)


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
    p.add_argument("--edges", default="", help="comma list like 0-1,1-2 (machine: 0-1:w)")
    p.add_argument("--rates", default="", help="buffer: per-node rates a_i")
    p.add_argument("--alpha", default="", help="irrigation: per-pool alpha (or one value)")
    p.add_argument("--beta", default="", help="irrigation: per-pool beta")
    p.add_argument("--tau", default="", help="irrigation: per-pool tau")
    p.add_argument("--masses", default="", help="thermal: per-room masses")
    p.add_argument("--heat-capacity", type=float, default=1.0)
    p.add_argument("--leak", default="", help="thermal: per-room leak coefficients")
    p.add_argument("--conduction", default="", help="thermal: 0-1:p pairs")
    p.add_argument("--outdoor", type=float, default=0.0)
    p.add_argument("--mass", type=float, default=1.0, help="machine: inertia")
    p.add_argument("--damping", type=float, default=1.0, help="machine: damping")
    p.add_argument("--row", default="", help="circulant: generator row")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"hinfkit: schema error: {exc}{field}", file=sys.stderr)
        return EXIT_SCHEMA
    except _INVARIANT_ERRORS as exc:
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
