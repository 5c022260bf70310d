"""Command-line interface: compute, audit, gen, hunt.

Exit codes: 0 success, 1 a universal or mutual-exclusivity relation failed
during an audit, 2 usage or input errors.  Every run writes a
run_manifest.json recording the command, inputs, seed, and emitted files;
all payloads are rendered before anything touches the filesystem, so a
failing run leaves no partial output.

The argument parser is built once, when this module is imported, and every
``main`` call in the process parses with it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .errors import NetmatError, ParseError
from .fileio import (
    graph_to_text,
    load_dataset,
    matrix_to_csv,
    matrix_to_json_obj,
    read_text,
    trajectories_to_text,
)
from .generators import GenConfig, gen_dataset, gen_fully_utilized
from .identities import (
    SYMBOLS,
    audit_dataset,
    evaluate_on_dataset,
    get_identity,
    render_table,
    report_to_json_obj,
    search_counterexample,
    symbol_matrix,
)
from .structure import build_structure
from .utilization import build_utilization, is_fully_utilized

# Per GenConfig field, in order: its default, the JSON value types a config
# may give it (bool is no count) and their name in errors; null max_len is n.
_GEN_FIELDS = {
    "n": (6, (int,), "an integer"),
    "edge_prob": (0.3, (int, float), "a number"),
    "max_traj": (10, (int,), "an integer"),
    "max_len": (None, (int, type(None)), "an integer or null"),
    "allow_duplicates": (False, (bool,), "true or false"),
    "seed": (0, (int,), "an integer"),
}


def int_flag(text: str) -> int:
    """argparse type of every integer flag: an optional '-' and ASCII digits.

    int() alone would also take "+5", "1_0" and non-ASCII digits, which
    netmat never writes; a negative value reaches each flag's own check.
    """
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts from a string
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


# The shape repr(float) gives a finite float: an optional '-', ASCII digits,
# then an optional fraction and an optional exponent, as in 0.4 or 1e-05.
_FLOAT_SPELLING = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[-+]?[0-9]+)?", re.ASCII)


def float_flag(text: str) -> float:
    """argparse type of --edge-prob: a decimal as repr(float) spells it.

    float() alone would also take " 0.5", "0_0.5", "inf" and non-ASCII
    digits; a value outside [0, 1] reaches GenConfig's own check.
    """
    if _FLOAT_SPELLING.fullmatch(text):
        return float(text)
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _write_outputs(out_dir: Path, payloads: dict[str, str], manifest: dict) -> None:
    manifest = dict(manifest)
    manifest["files"] = sorted(payloads)
    payloads = dict(payloads)
    payloads["run_manifest.json"] = _json_text(manifest)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(payloads):
        (out_dir / name).write_text(payloads[name], encoding="utf-8")


def _manifest(args, command: str, inputs: list[str], seed: int | None = None) -> dict:
    return {
        "tool": "netmat",
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "out_dir": str(args.out),
    }


def _cmd_compute(args) -> int:
    dataset = load_dataset(args.graph, args.trajectories)
    s = build_structure(dataset.graph)
    u = build_utilization(dataset, s)
    summary = {
        "n": dataset.graph.n,
        "edge_count": len(dataset.graph.edges),
        "trajectory_count": len(dataset.trajectories),
        "fully_utilized": is_fully_utilized(u, s),
    }
    labels = dataset.graph.labels
    payloads: dict[str, str] = {"summary.json": _json_text(summary)}
    for name in SYMBOLS[:-1]:
        matrix = symbol_matrix(s, u, name)
        if args.format == "json":
            payloads[f"{name}.json"] = _json_text(matrix_to_json_obj(matrix, labels))
        else:
            payloads[f"{name}.csv"] = matrix_to_csv(matrix, labels)
    _write_outputs(
        args.out, payloads, _manifest(args, "compute", [str(args.graph), str(args.trajectories)])
    )
    if not args.quiet:
        print(
            f"wrote {len(payloads) + 1} files to {args.out} "
            f"(n={summary['n']}, edges={summary['edge_count']}, "
            f"trajectories={summary['trajectory_count']}, "
            f"fully_utilized={str(summary['fully_utilized']).lower()})"
        )
    return 0


def _cmd_audit(args) -> int:
    dataset = load_dataset(args.graph, args.trajectories)
    report = audit_dataset(dataset, name=f"{args.graph} + {args.trajectories}")
    obj = report_to_json_obj(report)
    obj["inputs"] = {"graph": str(args.graph), "trajectories": str(args.trajectories)}
    payloads = {"audit_report.json": _json_text(obj)}
    _write_outputs(
        args.out, payloads, _manifest(args, "audit", [str(args.graph), str(args.trajectories)])
    )
    if not args.quiet:
        print(render_table(report), end="")
    return 0 if report.sound else 1


def _merge_gen_config(args) -> GenConfig:
    merged = {field: default for field, (default, _, _) in _GEN_FIELDS.items()}
    if args.config is not None:
        try:
            loaded = json.loads(read_text(args.config))
        except (json.JSONDecodeError, RecursionError) as e:
            raise ParseError(f"invalid JSON: {e}", source=str(args.config)) from e
        if not isinstance(loaded, dict):
            raise ParseError("config must be a JSON object", source=str(args.config))
        unknown = loaded.keys() - _GEN_FIELDS
        if unknown:
            raise ParseError(
                f"unknown config fields: {', '.join(sorted(unknown))}",
                source=str(args.config),
            )
        for field, value in loaded.items():
            _, types, expected = _GEN_FIELDS[field]
            if type(value) not in types:
                raise ParseError(
                    f"config field {field} must be {expected}, got {json.dumps(value)}",
                    source=str(args.config),
                )
        merged.update(loaded)
    for field in _GEN_FIELDS:
        value = getattr(args, field)
        if value is not None:
            merged[field] = value
    if merged["max_len"] is None:
        merged["max_len"] = merged["n"]
    return GenConfig(**merged)


def _cmd_gen(args) -> int:
    cfg = _merge_gen_config(args)
    dataset = gen_fully_utilized(cfg) if args.fully_utilized else gen_dataset(cfg)
    payloads = {
        "graph.txt": graph_to_text(dataset.graph),
        "trajectories.txt": trajectories_to_text(
            dataset.trajectories, dataset.graph.labels
        ),
        "gen_config.json": _json_text(asdict(cfg)),
    }
    _write_outputs(args.out, payloads, _manifest(args, "gen", [], cfg.seed))
    if not args.quiet:
        print(
            f"wrote dataset to {args.out} "
            f"(n={dataset.graph.n}, edges={len(dataset.graph.edges)}, "
            f"trajectories={len(dataset.trajectories)})"
        )
    return 0


def _cmd_hunt(args) -> int:
    spec = get_identity(args.identity)
    found = search_counterexample(
        args.identity, args.budget, args.seed, allow_duplicates=args.allow_duplicates
    )
    report = {
        "identity": spec.id,
        "class": spec.kind.value,
        "statement": spec.statement(),
        "budget": args.budget,
        "seed": args.seed,
        "allow_duplicates": args.allow_duplicates,
        "found": found is not None,
        "witness": None,
    }
    payloads: dict[str, str] = {}
    message = f"no counterexample found for {spec.id} within {args.budget} instances"
    if found is not None:
        witness = evaluate_on_dataset(spec, found).witness
        labels = found.graph.labels
        report["witness"] = witness.to_json_obj(labels)
        payloads["graph.txt"] = graph_to_text(found.graph)
        payloads["trajectories.txt"] = trajectories_to_text(found.trajectories, labels)
        message = f"counterexample found for {spec.id} at cell {witness.describe(labels)}"
    payloads["hunt_report.json"] = _json_text(report)
    _write_outputs(args.out, payloads, _manifest(args, "hunt", [], args.seed))
    if not args.quiet:
        print(message)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", type=Path, default=Path("netmat_out"), help="output directory"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress stdout chatter")


class _CommandParser(argparse.ArgumentParser):
    # A subcommand rejects the arguments it does not know under its own usage
    # line; those before the subcommand are the top-level parser's to reject.
    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmat",
        description=(
            "Build network structure and utilization matrices from a directed "
            "graph and trajectories, and audit the identity catalogue."
        ),
    )
    parser.add_argument("--version", action="version", version=f"netmat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("compute", help="write all structure and utilization matrices")
    p.add_argument("--graph", required=True, type=Path, help="graph edge-list file")
    p.add_argument(
        "--trajectories", required=True, type=Path, help="trajectory file"
    )
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="matrix file format"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("audit", help="evaluate every catalogued identity")
    p.add_argument("--graph", required=True, type=Path)
    p.add_argument("--trajectories", required=True, type=Path)
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("gen", help="generate a random dataset")
    p.add_argument("--config", type=Path, default=None, help="GenConfig JSON file")
    p.add_argument("--n", type=int_flag, default=None, help="node count")
    p.add_argument("--edge-prob", dest="edge_prob", type=float_flag, default=None)
    p.add_argument("--max-traj", dest="max_traj", type=int_flag, default=None)
    p.add_argument("--max-len", dest="max_len", type=int_flag, default=None)
    p.add_argument(
        "--allow-duplicates",
        dest="allow_duplicates",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p.add_argument(
        "--fully-utilized",
        action="store_true",
        help="cover every edge and reachable pair with trajectories",
    )
    p.add_argument("--seed", type=int_flag, default=None, help="random seed")
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("hunt", help="search for a counterexample to one identity")
    p.add_argument("identity", help="catalogue id, e.g. X.EHAT_L_NEQ_L")
    p.add_argument("--budget", type=int_flag, default=1000, help="instances to try")
    p.add_argument(
        "--allow-duplicates",
        dest="allow_duplicates",
        action=argparse.BooleanOptionalAction,
        default=True,
    )
    p.add_argument("--seed", type=int_flag, default=0, help="random seed")
    _add_common(p)
    p.set_defaults(func=_cmd_hunt)

    return parser


# parse_args reads the parser and never changes it, so one serves every call.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (NetmatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
