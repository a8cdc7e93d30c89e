"""Command-line front end.

Subcommands: gen, verify, pair, family, experiment.  Exit codes follow a
fixed contract: 0 all checks pass, 1 a mathematical check failed, 2 bad
input (parameters or files), 3 depth/size/coverage problems or memory
exhaustion.

All outputs are JSON (CSV for experiment series); identical configuration
and seed reproduce byte-identical payloads, with timestamps confined to a
separate ``metadata`` block.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

from .construct import (
    FramePair,
    Paraunitary,
    bank_depth,
    certify_family,
    certify_pair,
    derive_pair,
    haar_bank,
    orthogonal_family,
    seeded_paraunitary,
)
from .errors import (
    ConstructionError,
    DepthError,
    FrameFieldError,
    ParameterError,
    SizeError,
)
from .galois import FieldParams
from .mask import (
    DEFAULT_CASCADE_TOL,
    DEFAULT_MATRIX_TOL,
    FilterBank,
    check_mixed_orthogonality,
    check_polyphase_unitary,
    check_subqmf,
    check_uep,
)
from .verify import (
    cascade_phihat,
    mixed_frame_experiment,
    parseval_experiment,
    partition_of_unity_check,
    partition_sums,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_ERROR = 3


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _open_output(path: Path):
    """``path`` opened for writing, its parent directories created."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w", newline="")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["metadata"] = {"created": _now()}
    with _open_output(path) as handle:
        # no indent: json's C encoder handles only compact output
        handle.write(json.dumps(payload, sort_keys=True) + "\n")


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed JSON in {path}: {exc}") from exc


def _field_params(args) -> FieldParams:
    modulus = ()
    if args.modulus:
        try:
            modulus = tuple(int(x) for x in args.modulus.split(","))
        except ValueError as exc:
            raise ParameterError(f"bad modulus list: {args.modulus!r}") from exc
    return FieldParams(p=args.p, c=args.c, modulus=modulus)


def _positive(value: float, name: str) -> float:
    if not math.isfinite(value) or value <= 0:
        raise ParameterError(f"{name} must be positive and finite, got {value}")
    return value


def _print_reports(reports) -> None:
    for report in reports:
        print(report)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    if args.kind != "haar":
        raise ParameterError(f"unknown generator kind: {args.kind}")
    params = _field_params(args)
    bank = haar_bank(params)
    payload = bank.to_json()
    payload["provenance"] = {"algorithm": "haar", "config": {"p": params.p, "c": params.c}}
    _write_json(Path(args.out), payload)
    print(f"wrote {args.out}: {bank.n_wavelets + 1} masks over GF({params.q})")
    return EXIT_OK


def cmd_verify(args) -> int:
    path = Path(args.bank)
    bank = FilterBank.from_json(_load_json(path))
    wanted = [name.strip() for name in args.checks.split(",") if name.strip()]
    known = {"uep", "subqmf", "polyphase", "mixed"}
    if not wanted:
        raise ParameterError("no checks requested")
    unknown = set(wanted) - known
    if unknown:
        raise ParameterError(f"unknown checks: {sorted(unknown)}")
    tol = _positive(args.tol, "tolerance")
    depth = args.depth if args.depth else bank_depth(bank)
    dual = None
    if "mixed" in wanted:
        if not args.dual:
            raise ParameterError("the mixed check needs --dual BANK")
        dual = FilterBank.from_json(_load_json(Path(args.dual)))
    reports = []
    for name in wanted:
        if name == "uep":
            reports.append(check_uep(bank, depth, tol))
        elif name == "subqmf":
            reports.append(check_subqmf(bank.m0, depth, tol))
        elif name == "polyphase":
            reports.append(check_polyphase_unitary(bank, depth, tol))
        elif name == "mixed":
            reports.append(check_mixed_orthogonality(bank, dual, depth, tol))
    _print_reports(reports)
    payload = {
        "bank": str(path),
        "reports": [r.to_json() for r in reports],
        "provenance": {
            "config": {"checks": wanted, "depth": depth, "tol": tol},
            "inputs": {str(path): _sha256(path)},
        },
    }
    _write_json(Path(args.out), payload)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _load_paraunitary(args, params, size: int) -> tuple[Paraunitary, dict]:
    if args.paraunitary:
        path = Path(args.paraunitary)
        pu = Paraunitary.from_json(_load_json(path), params=params)
        if pu.size != size:
            raise ParameterError(f"paraunitary size {pu.size} does not match required {size}")
        return pu, {str(path): _sha256(path)}
    return seeded_paraunitary(params, size, args.seed), {}


def cmd_pair(args) -> int:
    primal_path, dual_path = Path(args.primal), Path(args.dual)
    primal = FilterBank.from_json(_load_json(primal_path))
    dual = FilterBank.from_json(_load_json(dual_path))
    if primal.n_wavelets != dual.n_wavelets:
        raise ParameterError("primal and dual banks must have equal wavelet counts")
    tol = _positive(args.tol, "tolerance")
    matrix, extra_inputs = _load_paraunitary(args, primal.params, 2 * primal.n_wavelets)
    try:
        pair = derive_pair(primal.wavelets, dual.wavelets, primal.m0, dual.m0, matrix)
    except ConstructionError as exc:
        print(f"construction rejected: {exc}", file=sys.stderr)
        if exc.report is not None:
            _write_json(Path(args.out), {"rejected": str(exc), "report": exc.report.to_json()})
        return EXIT_CHECK_FAILED
    depth = args.depth if args.depth else None
    reports = certify_pair(pair, depth, tol)
    _print_reports(reports)
    inputs = {str(primal_path): _sha256(primal_path), str(dual_path): _sha256(dual_path)}
    inputs.update(extra_inputs)
    provenance = {
        "algorithm": "derive_pair",
        "seed": args.seed,
        "inputs": inputs,
        "config": {"tol": tol, "depth": depth},
    }
    payload = pair.to_json(provenance=provenance)
    payload["reports"] = [r.to_json() for r in reports]
    _write_json(Path(args.out), payload)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_family(args) -> int:
    bank_path, out_dir = Path(args.bank), Path(args.out_dir)
    bank = FilterBank.from_json(_load_json(bank_path))
    tol = _positive(args.tol, "tolerance")
    size = args.size or 2
    matrix, extra_inputs = _load_paraunitary(args, bank.params, size)
    try:
        families = orthogonal_family(bank, matrix)
    except ConstructionError as exc:
        print(f"construction rejected: {exc}", file=sys.stderr)
        if exc.report is not None:
            _write_json(out_dir / "reports.json", {"rejected": str(exc), "report": exc.report.to_json()})
        return EXIT_CHECK_FAILED
    depth = args.depth if args.depth else None
    reports = certify_family(families, depth, tol)
    _print_reports(reports)
    inputs = {str(bank_path): _sha256(bank_path)}
    inputs.update(extra_inputs)
    provenance = {
        "algorithm": "orthogonal_family",
        "seed": args.seed,
        "inputs": inputs,
        "config": {"tol": tol, "depth": depth, "size": matrix.size},
    }
    for r, family in enumerate(families):
        payload = family.to_json()
        payload["provenance"] = {**provenance, "column": r + 1}
        _write_json(out_dir / f"family_{r + 1}.json", payload)
    _write_json(
        out_dir / "reports.json",
        {"reports": [r.to_json() for r in reports], "provenance": provenance},
    )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _write_csv(path: Path, header, rows) -> None:
    """One data line per entry of ``rows``: its index, then the value, a
    complex one as its real and imaginary parts.  Floats print as ``repr``
    and every line ends in \\r\\n, as ``csv.writer`` writes them."""
    with _open_output(path) as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(
            f"{i},{x.real!r},{x.imag!r}\r\n" if isinstance(x, complex) else f"{i},{x!r}\r\n"
            for i, x in enumerate(rows)
        )


def cmd_experiment(args) -> int:
    tol = _positive(args.tol, "tolerance")
    out = Path(args.out)
    csv_path = out.with_suffix(".csv")
    inputs = {}
    if args.kind in ("parseval", "cascade", "partition"):
        if not args.bank:
            raise ParameterError(f"experiment {args.kind} needs --bank")
        bank_path = Path(args.bank)
        bank = FilterBank.from_json(_load_json(bank_path))
        inputs[str(bank_path)] = _sha256(bank_path)
    if args.kind == "mixed":
        if not args.pair:
            raise ParameterError("experiment mixed needs --pair")
        pair_path = Path(args.pair)
        pair = FramePair.from_json(_load_json(pair_path))
        inputs[str(pair_path)] = _sha256(pair_path)

    config = {
        "kind": args.kind,
        "signal_size": args.signal_size,
        "levels": args.levels,
        "trials": args.trials,
        "seed": args.seed,
        "tol": tol,
        "hat_neg": args.hat_neg,
        "hat_pos": args.hat_pos,
    }
    provenance = {"algorithm": f"experiment:{args.kind}", "inputs": inputs, "config": config}

    if args.kind in ("parseval", "mixed"):
        sizes = (args.signal_size, args.levels, args.trials, tol, args.seed)
        if args.kind == "parseval":
            report, column = parseval_experiment(bank, *sizes), "deviation"
        else:
            report, column = mixed_frame_experiment(pair, *sizes), "ratio"
        _write_csv(csv_path, ("trial", column), report.details["per_trial"])
        reports = [report]
    elif args.kind == "cascade":
        hat = cascade_phihat(bank.m0, args.levels, args.hat_neg, args.hat_pos)
        _write_csv(csv_path, ("index", "re", "im"), hat.values.tolist())
        payload = {
            "kind": "cascade",
            "stabilized_at": hat.stabilized_at,
            "j_neg": hat.j_neg,
            "j_pos": hat.j_pos,
            "points": len(hat.values),
            "provenance": provenance,
        }
        _write_json(out, payload)
        print(f"cascade sampled on {len(hat.values)} points, stabilized at {hat.stabilized_at}")
        return EXIT_OK
    elif args.kind == "partition":
        hat = cascade_phihat(bank.m0, args.levels, args.hat_neg, args.hat_pos)
        translates = args.trials
        report = partition_of_unity_check(hat, translates, tol)
        sums = partition_sums(hat, translates)
        _write_csv(csv_path, ("base_index", "sum"), sums.tolist())
        reports = [report]
    else:
        raise ParameterError(f"unknown experiment kind: {args.kind}")

    _print_reports(reports)
    _write_json(out, {"reports": [r.to_json() for r in reports], "provenance": provenance})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framefield",
        description="Construct and certify orthogonal wavelet frame pairs "
        "over Laurent-series local fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a built-in bank")
    gen.add_argument("kind", choices=["haar"])
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--c", type=int, default=1)
    gen.add_argument("--modulus", default="")
    gen.add_argument("--out", default="bank.json")
    gen.set_defaults(func=cmd_gen)

    ver = sub.add_parser("verify", help="run checks against a bank file")
    ver.add_argument("bank")
    ver.add_argument("--checks", default="uep,subqmf,polyphase")
    ver.add_argument("--dual", default="")
    ver.add_argument("--depth", type=int, default=0)
    ver.add_argument("--tol", type=float, default=DEFAULT_MATRIX_TOL)
    ver.add_argument("--out", default="report.json")
    ver.set_defaults(func=cmd_verify)

    pair = sub.add_parser("pair", help="derive an orthogonal frame pair")
    pair.add_argument("--primal", required=True)
    pair.add_argument("--dual", required=True)
    pair.add_argument("--paraunitary", default="")
    pair.add_argument("--seed", type=int, default=0)
    pair.add_argument("--depth", type=int, default=0)
    pair.add_argument("--tol", type=float, default=DEFAULT_MATRIX_TOL)
    pair.add_argument("--out", default="pair.json")
    pair.set_defaults(func=cmd_pair)

    fam = sub.add_parser("family", help="derive a family of orthogonal tight frames")
    fam.add_argument("--bank", required=True)
    fam.add_argument("--paraunitary", default="")
    fam.add_argument("--seed", type=int, default=0)
    fam.add_argument("--size", type=int, default=0)
    fam.add_argument("--depth", type=int, default=0)
    fam.add_argument("--tol", type=float, default=DEFAULT_MATRIX_TOL)
    fam.add_argument("--out-dir", default="family")
    fam.set_defaults(func=cmd_family)

    exp = sub.add_parser("experiment", help="run a functional experiment")
    exp.add_argument("--kind", required=True, choices=["parseval", "mixed", "cascade", "partition"])
    exp.add_argument("--bank", default="")
    exp.add_argument("--pair", default="")
    exp.add_argument("--signal-size", type=int, default=6, dest="signal_size")
    exp.add_argument("--levels", type=int, default=4)
    exp.add_argument("--trials", type=int, default=20)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--tol", type=float, default=DEFAULT_CASCADE_TOL)
    exp.add_argument("--hat-neg", type=int, default=2, dest="hat_neg")
    exp.add_argument("--hat-pos", type=int, default=3, dest="hat_pos")
    exp.add_argument("--out", default="experiment.json")
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (DepthError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE_ERROR
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ParameterError, FrameFieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
