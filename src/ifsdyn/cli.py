"""Command-line surface: `ifs <subcommand> ...`.

Exit codes: 0 for success / true verdicts, 1 for false verdicts, 2 for usage
or domain errors. Every numeric flag is echoed under "config" in JSON output
and as `# key=value` comment lines in CSV output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import experiments
from .averaging import cesaro_average, constant_series, harmonic_series, series_from_csv
from .chains import (
    build_chain_graph,
    chain_recurrent_set,
    edges_csv,
    find_chain,
    graph_to_dot,
    is_chain_transitive,
    witness_to_json,
)
from .core import (
    IFSSpec,
    estimate_contraction_ratio,
    ifs_from_json,
    orbit,
    selector_explicit,
    selector_periodic,
    selector_random,
)
from .errors import IFSError
from .models import list_models, make_system
from .pseudo_orbits import (
    perturbed_orbit,
    pseudo_orbit_record,
    record_from_json,
    record_csv,
    record_to_json,
    validate_aapo,
)
from .shadowing import (
    contracting_shadow,
    greedy_shadow_search,
    report_to_json,
    shadow_verify,
)
from .spaces import (
    Product,
    csv_lines,
    grid,
    point,
    point_to_json,
    value_repr,
)


def _load_ifs(args) -> IFSSpec:
    if getattr(args, "spec_file", None):
        return ifs_from_json(json.loads(Path(args.spec_file).read_text()))
    if getattr(args, "model", None):
        return make_system(args.model)
    raise IFSError("either --model or --spec-file is required")


def _parse_point(kind, text: str):
    """A point flag: JSON for a product (a pair, nested as the space is), the
    text itself for any other kind, which `point` reads."""
    return point(kind, json.loads(text) if isinstance(kind, Product) else text)


def _map_indices(text: str) -> list[int]:
    """Comma-separated map indices ("12,3,23", or "12," for one), or one digit
    per index ("0101")."""
    return [int(c) for c in (text.removesuffix(",").split(",") if "," in text else text)]


def _parse_selector(text: str, length: int, nmaps: int):
    if text.startswith("random:"):
        return selector_random(int(text.split(":", 1)[1]), length, nmaps)
    if text.startswith("periodic:"):
        return selector_periodic(_map_indices(text.split(":", 1)[1]), length, nmaps)
    entries = _map_indices(text)
    if len(entries) < length:
        raise IFSError(f"explicit selector has {len(entries)} entries, need {length}")
    return selector_explicit(entries[:length], nmaps)


def _config(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _comments(cfg: dict) -> list[str]:
    return [f"{k}={v}" for k, v in cfg.items()]


def _emit(chunks, output):
    """Write the text chunks unchanged to `output`, or to stdout ending in
    exactly one newline (CSV lines carry their own). If the reader closes
    stdout early, stdout moves to the null device, so the last flush passes."""
    if output:
        with open(output, "w") as fh:
            fh.writelines(chunks)
        return
    last = ""
    try:
        for last in chunks:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())


def _emit_json(payload: dict, output):
    _emit([json.dumps(payload, indent=2)], output)


# --- subcommands -------------------------------------------------------------

def _cmd_list_models(args) -> int:
    _emit((f"{name:24s} {desc}\n" for name, desc in list_models()), None)
    return 0


def _cmd_orbit(args) -> int:
    ifs = _load_ifs(args)
    x0 = _parse_point(ifs.space, args.x0)
    sel = _parse_selector(args.sigma, args.steps, ifs.nmaps)
    orb = orbit(ifs, sel, x0, args.steps)
    cfg = _config(args, ["model", "sigma", "x0", "steps"])
    if args.format == "csv":
        rows = ((i, value_repr(p), sel.entries[i] if i < args.steps else "")
                for i, p in enumerate(orb.points))
        _emit(csv_lines("index,coordinates,lambda", rows, _comments(cfg)), args.output)
    else:
        _emit_json({
            "config": cfg,
            "points": [point_to_json(p) for p in orb.points],
            "selector": list(sel.entries),
        }, args.output)
    return 0


def _make_schedule(noise: str, steps: int):
    if noise == "zero":
        return constant_series(steps, 0.0)
    if noise == "harmonic":
        return harmonic_series(steps)
    if noise.startswith("const:"):
        return constant_series(steps, float(noise.split(":", 1)[1]))
    raise IFSError(f"unknown noise schedule {noise!r}")


def _cmd_pseudo(args) -> int:
    ifs = _load_ifs(args)
    x0 = _parse_point(ifs.space, args.x0)
    sel = _parse_selector(args.sigma, args.steps, ifs.nmaps)
    schedule = _make_schedule(args.noise, args.steps)
    rec = perturbed_orbit(ifs, sel, x0, schedule, args.seed)
    report = validate_aapo(rec, args.steps, args.tol)
    cfg = _config(args, ["model", "sigma", "x0", "steps", "noise", "seed", "tol"])
    if args.format == "csv":
        _emit(record_csv(rec, _comments(cfg)), args.output)
    else:
        _emit_json({
            "config": cfg,
            "record": record_to_json(rec),
            "validation": {
                "final_average": report.final_average,
                "verdict": report.verdict,
            },
        }, args.output)
    return 0 if report.verdict else 1


def _cmd_shadow(args) -> int:
    ifs = _load_ifs(args)
    payload = json.loads(Path(args.pseudo_file).read_text())
    stored = record_from_json(payload.get("record", payload) if isinstance(payload, dict) else payload)
    rec = pseudo_orbit_record(ifs, stored.points, stored.selector)
    gaps = np.abs(rec.errors.values - stored.errors.values)
    if len(gaps) and gaps.max() > 1e-12:
        i = int(np.argmax(gaps > 1e-12))
        raise IFSError(f"stored step error {i} is {stored.errors.values[i]!r}, but the "
                       f"points give {rec.errors.values[i]!r}")
    n = rec.steps if args.horizon is None else args.horizon
    if args.mode == "search":
        starts = grid(ifs.space, args.grid_step)
        rep = greedy_shadow_search(ifs, rec, starts, n, tol_avg=args.tol)
    elif args.mode == "contracting":
        z = _parse_point(ifs.space, args.z0) if args.z0 else None
        rep = contracting_shadow(ifs, rec, y0=z, n=n, tol_avg=args.tol)
    else:
        if not args.z0:
            raise IFSError("verify mode requires --z0")
        z = _parse_point(ifs.space, args.z0)
        rep = shadow_verify(ifs, rec, z, rec.selector, n, tol_avg=args.tol)
    cfg = _config(args, ["model", "pseudo_file", "mode", "z0", "horizon", "tol", "grid_step"])
    if args.format == "csv":
        rows = enumerate(map(repr, rep.cesaro_curve.values.tolist()), start=1)
        _emit(csv_lines("n,average", rows, _comments(cfg)), args.output)
    else:
        _emit_json({"config": cfg, "report": report_to_json(rep)}, args.output)
    return 0 if rep.verdict_avg else 1


def _cmd_chain(args) -> int:
    if args.action != "graph" and (args.dot or args.format == "csv"):
        raise IFSError(f"--dot and --format csv apply to chain graph, not chain {args.action}")
    if args.dot and args.format == "csv":
        raise IFSError("--dot and --format csv each choose the output of chain graph; give one")
    if args.action == "find" and (getattr(args, "from") is None or args.to is None):
        raise IFSError("chain find requires --from and --to")
    ifs = _load_ifs(args)
    g = build_chain_graph(ifs, args.grid, args.epsilon)
    cfg = _config(args, ["model", "epsilon", "grid", "action", "from", "to"])
    if args.action == "graph":
        if args.dot:
            _emit(graph_to_dot(g), args.output)
        elif args.format == "csv":
            _emit(edges_csv(g, _comments(cfg)), args.output)
        else:
            _emit_json({"config": cfg, "nodes": g.size, "edges": g.edge_count}, args.output)
        return 0
    if args.action == "find":
        x = _parse_point(ifs.space, getattr(args, "from"))
        y = _parse_point(ifs.space, args.to)
        res = find_chain(g, x, y)
        payload = {
            "config": cfg,
            "found": res.found,
            "snap_from": res.snap_from,
            "snap_to": res.snap_to,
        }
        if res.found:
            payload["witness"] = witness_to_json(res.witness)
        else:
            payload["reachable_count"] = len(res.reachable)
        _emit_json(payload, args.output)
        return 0 if res.found else 1
    if args.action == "cr":
        nodes = chain_recurrent_set(g)
        _emit_json({
            "config": cfg,
            "count": len(nodes),
            "nodes": list(nodes),
            "coordinates": [value_repr(g.nodes[i]) for i in nodes],
        }, args.output)
        return 0
    if args.action == "transitive":
        rep = is_chain_transitive(g)
        payload = {"config": cfg, "transitive": rep.transitive}
        if rep.counterexample:
            payload["counterexample"] = [point_to_json(p) for p in rep.counterexample]
        _emit_json(payload, args.output)
        return 0 if rep.transitive else 1
    raise IFSError(f"unknown chain action {args.action!r}")


def _cmd_cesaro(args) -> int:
    s = series_from_csv(args.input)
    n = s.horizon if args.n is None else args.n
    avg = cesaro_average(s, n)
    _emit_json({"config": _config(args, ["input", "n"]), "average": avg}, args.output)
    return 0


def _cmd_ratio(args) -> int:
    ifs = _load_ifs(args)
    est = estimate_contraction_ratio(ifs, args.pairs, args.seed)
    _emit_json({"config": _config(args, ["model", "pairs", "seed"]),
                "estimate": est}, args.output)
    return 0


def _cmd_experiment(args) -> int:
    overrides = {}
    for item in args.set or []:
        key, _, raw = item.partition("=")
        overrides[key] = json.loads(raw)
    result = experiments.run(args.name, overrides or None,
                             output_root=args.output_root, seed=args.seed)
    _emit_json(asdict(result), args.output)
    return 0 if result.verdict else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ifs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def model_flags(sp):
        sp.add_argument("--model")
        sp.add_argument("--spec-file")
        sp.add_argument("--output")

    def common(sp):
        model_flags(sp)
        sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = sub.add_parser("list-models", help="enumerate the model catalog")
    sp.set_defaults(fn=_cmd_list_models)

    sigma_help = ("random:<seed> | periodic:<indices> | <indices>, where indices are "
                  "comma-separated (12,3,23) or one digit each (0101)")
    sp = sub.add_parser("orbit", help="iterate a true orbit")
    common(sp)
    sp.add_argument("--sigma", default="random:0", help=sigma_help)
    sp.add_argument("--x0", required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.set_defaults(fn=_cmd_orbit)

    sp = sub.add_parser("pseudo", help="generate and validate a pseudo-orbit")
    common(sp)
    sp.add_argument("--sigma", default="random:0", help=sigma_help)
    sp.add_argument("--x0", required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--noise", default="harmonic",
                    help="zero | harmonic | const:<value>")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-2)
    sp.set_defaults(fn=_cmd_pseudo)

    sp = sub.add_parser("shadow", help="verify or search for a shadowing point")
    common(sp)
    sp.add_argument("--pseudo-file", required=True)
    sp.add_argument("--mode", choices=["verify", "contracting", "search"],
                    default="verify")
    sp.add_argument("--z0")
    sp.add_argument("--horizon", type=int)
    sp.add_argument("--tol", type=float, default=1e-2)
    sp.add_argument("--grid-step", type=float, default=0.01)
    sp.set_defaults(fn=_cmd_shadow)

    sp = sub.add_parser("chain", help="epsilon-chain graph analysis")
    common(sp)
    sp.add_argument("action", choices=["graph", "find", "cr", "transitive"])
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--grid", type=float, required=True)
    sp.add_argument("--from", dest="from")
    sp.add_argument("--to")
    sp.add_argument("--dot", action="store_true")
    sp.set_defaults(fn=_cmd_chain)

    sp = sub.add_parser("cesaro", help="Cesàro average of a CSV series")
    sp.add_argument("--input", required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_cesaro)

    sp = sub.add_parser("ratio", help="sampled contraction ratio estimate")
    model_flags(sp)
    sp.add_argument("--pairs", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_ratio)

    sp = sub.add_parser("experiment", help="run a named experiment")
    sp.add_argument("name", choices=experiments.experiment_names())
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output-root", default="results")
    sp.add_argument("--set", action="append",
                    help="override a parameter: key=json-value")
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (IFSError, ValueError, OSError) as exc:
        # ValueError: a flag value that does not parse (`--x0 abc`, `--set k=bad`);
        # OSError: a file flag naming no file, or a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
