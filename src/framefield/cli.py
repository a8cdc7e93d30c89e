"""Command-line front end.

Subcommands: gen, verify, pair, family, experiment.  Exit codes follow a
fixed contract: 0 all checks pass, 1 a mathematical check failed, 2 bad
input (parameters or files), 3 depth/size/coverage problems or memory
exhaustion.  Each subcommand declares its report file beside its
function: a construction or precondition it rejects exits 1, and that file
holds the ``rejected`` message and the failed ``report``.

All outputs are JSON (CSV for experiment series); identical configuration
and seed reproduce byte-identical payloads, with timestamps confined to a
separate ``metadata`` block.

The constructions (``construct``) and the experiments (``verify``) are
imported by the commands that run them, so ``verify`` starts without
either, and ``experiment`` imports ``verify`` alone: the frame-pair file
of ``experiment --kind mixed`` is read by ``mask.FramePair``.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import gc
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import kernels
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
    FramePair,
    check_mixed_orthogonality,
    check_polyphase_unitary,
    check_subqmf,
    check_uep,
    coeff_pairs,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_ERROR = 3
# random signals for parseval and mixed, and translates for partition, when
# --trials is not given; partition caps it at the q**J points of its ball
DEFAULT_TRIALS = 20


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _open_output(path: Path):
    """``path`` opened for writing, its parent directories created."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w", newline="")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


# json's text for the floats whose repr it does not use
_NON_FINITE_JSON = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _mask_json(coeffs: np.ndarray, stride: int, role: str | None = None) -> str:
    """``json.dumps(row_json(coeffs, stride, role), sort_keys=True)`` for a
    trimmed row, with each distinct coefficient float formatted once."""
    parts = []
    for column in (coeffs.real, coeffs.imag):
        text = _float_reprs(column)
        if not np.isfinite(column).all():
            text = [_NON_FINITE_JSON.get(t, t) for t in text]
        parts.append(text)
    fields = ['"coeffs": [' + ", ".join(map("[{}, {}]".format, *parts)) + "]"]
    if role is not None:
        fields.append('"role": ' + json.dumps(role))
    fields.append('"stride": ' + json.dumps(stride))
    return "{" + ", ".join(fields) + "}"


def _deferred(coeffs: np.ndarray, stride: int, role: str | None = None):
    """The JSON text of a trimmed row as a call that ``_write_json`` makes
    when it reaches the row."""
    return functools.partial(_mask_json, coeffs, stride, role)


def _write_value(write, value) -> None:
    """``json.dumps(value, sort_keys=True)`` written piecewise: a dict (with
    string keys) and a list holding a callable go item by item, and a
    callable stands for the JSON text it returns, made when it is reached."""
    if isinstance(value, dict):
        write("{")
        for i, key in enumerate(sorted(value)):
            write((", " if i else "") + json.dumps(key) + ": ")
            _write_value(write, value[key])
        write("}")
    elif isinstance(value, list) and any(map(callable, value)):
        write("[")
        for i, item in enumerate(value):
            write(", " if i else "")
            _write_value(write, item)
        write("]")
    else:
        write(value() if callable(value) else json.dumps(value, sort_keys=True))


def _write_json(path: Path, payload: dict) -> None:
    """``payload`` plus a ``metadata`` block, as the line that
    ``json.dumps(..., sort_keys=True)`` gives.  Rows passed as
    ``_deferred`` calls are converted and written one at a time."""
    payload = {**payload, "metadata": {"created": _now()}}
    with _open_output(path) as handle:
        _write_value(handle.write, payload)
        handle.write("\n")


def _coeff_arrays(obj: dict) -> dict:
    """``json.loads`` object hook: a mask's ``coeffs`` list becomes an
    (n, 2) array as soon as its object is parsed, so the lists of one mask
    at a time exist.  A list that is not [re, im] pairs stays, for the bank
    and matrix reader, ``CoefficientBlock._of_entries``, to reject."""
    coeffs = obj.get("coeffs")
    if isinstance(coeffs, list):
        try:
            obj["coeffs"] = coeff_pairs(coeffs)
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


def _load_json(path: Path, inputs: dict) -> dict:
    """The JSON object in ``path``, masks' coefficients as arrays.  The
    SHA-256 of the bytes it is parsed from goes to ``inputs[str(path)]``:
    the file is read once, so a rewrite cannot come between the two."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    inputs[str(path)] = _sha256(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path} is not UTF-8 text: {exc}") from exc
    del data  # the text alone is needed while the parse runs
    try:
        return json.loads(text, object_hook=_coeff_arrays)
    # a JSONDecodeError, an integer too long to convert, or nesting too deep
    except (ValueError, RecursionError) as exc:
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


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _finish(out: Path, payload: dict, reports) -> int:
    """Print the reports, write the payload, and give the exit code."""
    for report in reports:
        print(report)
    _write_json(out, payload)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _rejected(exc: ConstructionError, out: Path) -> int:
    """Report a rejected construction, and its failed check if any, in ``out``."""
    print(f"construction rejected: {exc}", file=sys.stderr)
    report = None if exc.report is None else exc.report.to_json()
    _write_json(out, {"rejected": str(exc), "report": report})
    return EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    from .construct import haar_bank

    params = _field_params(args)
    bank = haar_bank(params)
    payload = bank.to_json(_deferred)
    payload["provenance"] = {"algorithm": "haar", "config": {"p": params.p, "c": params.c}}
    _write_json(Path(args.out), payload)
    print(f"wrote {args.out}: {bank.n_wavelets + 1} masks over GF({params.q})")
    return EXIT_OK


# verify's checks by name, each a call on (bank, dual, depth, tol)
CHECKS = {
    "uep": lambda bank, dual, depth, tol: check_uep(bank, depth, tol),
    "subqmf": lambda bank, dual, depth, tol: check_subqmf(bank.m0, depth, tol),
    "polyphase": lambda bank, dual, depth, tol: check_polyphase_unitary(bank, depth, tol),
    "mixed": lambda bank, dual, depth, tol: check_mixed_orthogonality(bank, dual, depth, tol),
}


def cmd_verify(args) -> int:
    path = Path(args.bank)
    inputs = {}
    bank = FilterBank.from_json(_load_json(path, inputs))
    wanted = [name.strip() for name in args.checks.split(",") if name.strip()]
    if not wanted:
        raise ParameterError("no checks requested")
    unknown = set(wanted) - set(CHECKS)
    if unknown:
        raise ParameterError(f"unknown checks: {sorted(unknown)}")
    tol = _positive(args.tol, "tolerance")
    depth = args.depth if args.depth else bank.depth()
    dual = None
    if "mixed" in wanted:
        if not args.dual:
            raise ParameterError("the mixed check needs --dual BANK")
        dual = FilterBank.from_json(_load_json(Path(args.dual), inputs))
    reports = [CHECKS[name](bank, dual, depth, tol) for name in wanted]
    payload = {
        "bank": str(path),
        "reports": [r.to_json() for r in reports],
        "provenance": {"config": {"checks": wanted, "depth": depth, "tol": tol}, "inputs": inputs},
    }
    return _finish(Path(args.out), payload, reports)


def _load_paraunitary(args, params, size: int, inputs: dict):
    """The matrix over ``params`` of ``--paraunitary`` (its hash recorded in
    ``inputs``), rejected before any entry is read if it is of another field
    or, unless ``size`` is 0, of another size; else the seeded size x size
    matrix (2 x 2 for size 0)."""
    from .construct import Paraunitary, matrix_header, seeded_paraunitary

    if not args.paraunitary:
        return seeded_paraunitary(params, size or 2, args.seed)
    obj = _load_json(Path(args.paraunitary), inputs)
    file_params, file_size = matrix_header(obj)
    if file_params != params:
        raise ParameterError(f"{args.paraunitary} and the banks must share field parameters")
    if size and file_size != size:
        raise ParameterError(f"paraunitary size {file_size} does not match required {size}")
    return Paraunitary.from_json(obj)


def cmd_pair(args) -> int:
    from .construct import certify_family, derive_pair

    primal_path, dual_path = Path(args.primal), Path(args.dual)
    inputs = {}
    primal = FilterBank.from_json(_load_json(primal_path, inputs))
    dual = FilterBank.from_json(_load_json(dual_path, inputs))
    FramePair(primal, dual)  # one field, equal wavelet counts
    if not primal.n_wavelets:
        raise ParameterError(f"{primal_path} and {dual_path} hold no wavelet masks, "
                             "and a pair needs at least one")
    tol = _positive(args.tol, "tolerance")
    matrix = _load_paraunitary(args, primal.params, 2 * primal.n_wavelets, inputs)
    pair = derive_pair(primal, dual, matrix)
    depth = args.depth if args.depth else None
    reports = certify_family([pair.primal, pair.dual], depth, tol)
    provenance = {
        "algorithm": "derive_pair",
        "seed": args.seed,
        "inputs": inputs,
        "config": {"tol": tol, "depth": depth},
    }
    payload = pair.to_json(provenance, _deferred)
    payload["reports"] = [r.to_json() for r in reports]
    return _finish(Path(args.out), payload, reports)


def cmd_family(args) -> int:
    from .construct import certify_family, orthogonal_family

    bank_path, out_dir = Path(args.bank), Path(args.out_dir)
    inputs = {}
    bank = FilterBank.from_json(_load_json(bank_path, inputs))
    tol = _positive(args.tol, "tolerance")
    matrix = _load_paraunitary(args, bank.params, args.size, inputs)
    families = orthogonal_family(bank, matrix)
    depth = args.depth if args.depth else None
    reports = certify_family(families, depth, tol)
    provenance = {
        "algorithm": "orthogonal_family",
        "seed": args.seed,
        "inputs": inputs,
        "config": {"tol": tol, "depth": depth, "size": matrix.size},
    }
    for r, family in enumerate(families):
        payload = family.to_json(_deferred)
        payload["provenance"] = {**provenance, "column": r + 1}
        _write_json(out_dir / f"family_{r + 1}.json", payload)
    payload = {"reports": [r.to_json() for r in reports], "provenance": provenance}
    return _finish(out_dir / "reports.json", payload, reports)


def _float_reprs(column: np.ndarray) -> list:
    """``repr`` of every float in ``column``, formatted once per distinct bit
    pattern (so -0.0 keeps its sign)."""
    patterns, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([repr(x) for x in patterns.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_csv(path: Path, header, rows) -> None:
    """One data line per entry of ``rows``, a sized sequence of floats or
    complex numbers whose slices convert to arrays (a list, an array or a
    ``HatGrid``): its index, then the value, a complex one as its real and
    imaginary parts.  Floats print as ``repr`` and every line ends in
    \\r\\n, as ``csv.writer`` writes them.  The lines are built and written
    in blocks of ``kernels.BLOCK_BYTES`` at 64 bytes a line, each block from
    its own slice of ``rows``."""
    with _open_output(path) as handle:
        handle.write(",".join(header) + "\r\n")
        for block in kernels.blocks(len(rows), 64):
            values = np.asarray(rows[block])
            columns = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
            fields = [_float_reprs(column) for column in columns]
            lines = map(",".join, zip(map(str, range(block.start, block.stop)), *fields))
            handle.write("\r\n".join(lines) + "\r\n")


def cmd_experiment(args) -> int:
    from .verify import (
        cascade_phihat,
        mixed_frame_experiment,
        parseval_experiment,
        partition_of_unity_check,
    )

    tol = _positive(args.tol, "tolerance")
    out = Path(args.out)
    csv_path = out.with_suffix(".csv")
    flag, source_type = ("pair", FramePair) if args.kind == "mixed" else ("bank", FilterBank)
    if not getattr(args, flag):
        raise ParameterError(f"experiment {args.kind} needs --{flag}")
    inputs = {}
    source = source_type.from_json(_load_json(Path(getattr(args, flag)), inputs))
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    config = {
        "kind": args.kind,
        "signal_size": args.signal_size,
        "levels": args.levels,
        "trials": trials,
        "seed": args.seed,
        "tol": tol,
        "hat_neg": args.hat_neg,
        "hat_pos": args.hat_pos,
    }
    provenance = {"algorithm": f"experiment:{args.kind}", "inputs": inputs, "config": config}

    if args.kind in ("parseval", "mixed"):
        experiment, column = {"parseval": (parseval_experiment, "deviation"),
                              "mixed": (mixed_frame_experiment, "ratio")}[args.kind]
        report = experiment(source, args.signal_size, args.levels, trials, tol, args.seed)
        _write_csv(csv_path, ("trial", column), report.details["per_trial"])
        return _finish(out, {"reports": [report.to_json()], "provenance": provenance}, [report])
    hat = cascade_phihat(source.m0, args.levels, args.hat_neg, args.hat_pos)
    if args.kind == "partition":
        if args.trials is None:
            config["trials"] = trials = min(trials, hat.params.q ** hat.j_neg)
        report, sums = partition_of_unity_check(hat, trials, tol)
        _write_csv(csv_path, ("base_index", "sum"), sums)
        return _finish(out, {"reports": [report.to_json()], "provenance": provenance}, [report])
    _write_csv(csv_path, ("index", "re", "im"), hat)  # computed block by block as written
    payload = {
        "kind": "cascade",
        "stabilized_at": hat.stabilized_at,
        "j_neg": hat.j_neg,
        "j_pos": hat.j_pos,
        "points": len(hat),
        "provenance": provenance,
    }
    _write_json(out, payload)
    print(f"cascade sampled on {len(hat)} points, stabilized at {hat.stabilized_at}")
    return EXIT_OK


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
    gen.set_defaults(func=cmd_gen, report="{out}")

    ver = sub.add_parser("verify", help="run checks against a bank file")
    ver.add_argument("bank")
    ver.add_argument("--checks", default="uep,subqmf,polyphase")
    ver.add_argument("--dual", default="")
    ver.add_argument("--depth", type=int, default=0)
    ver.add_argument("--tol", type=float, default=DEFAULT_MATRIX_TOL)
    ver.add_argument("--out", default="report.json")
    ver.set_defaults(func=cmd_verify, report="{out}")

    pair = sub.add_parser("pair", help="derive an orthogonal frame pair")
    pair.add_argument("--primal", required=True)
    pair.add_argument("--dual", required=True)
    pair.add_argument("--paraunitary", default="")
    pair.add_argument("--seed", type=_seed, default=0)
    pair.add_argument("--depth", type=int, default=0)
    pair.add_argument("--tol", type=float, default=DEFAULT_MATRIX_TOL)
    pair.add_argument("--out", default="pair.json")
    pair.set_defaults(func=cmd_pair, report="{out}")

    fam = sub.add_parser("family", help="derive a family of orthogonal tight frames")
    fam.add_argument("--bank", required=True)
    fam.add_argument("--paraunitary", default="")
    fam.add_argument("--seed", type=_seed, default=0)
    fam.add_argument("--size", type=int, default=0,
                     help="size of the seeded matrix (default: 2); a --paraunitary file "
                     "has its own size, which an explicit --size must match")
    fam.add_argument("--depth", type=int, default=0)
    fam.add_argument("--tol", type=float, default=DEFAULT_MATRIX_TOL)
    fam.add_argument("--out-dir", default="family")
    fam.set_defaults(func=cmd_family, report="{out_dir}/reports.json")

    exp = sub.add_parser("experiment", help="run a functional experiment",
                         description="The default sizes suit parseval and mixed at q = 2 "
                         "or 3; at larger q, lower --signal-size and --trials.  partition "
                         f"takes {DEFAULT_TRIALS} translates by default, capped at q**J for "
                         "--hat-neg J; an explicit --trials must be at most q**J.")
    exp.add_argument("--kind", required=True, choices=["parseval", "mixed", "cascade", "partition"])
    exp.add_argument("--bank", default="", help="bank file, for parseval, cascade and partition")
    exp.add_argument("--pair", default="", help="frame-pair file, for mixed")
    exp.add_argument("--signal-size", type=int, default=6, dest="signal_size", metavar="N",
                     help="each trial's signal has q**N samples (default: %(default)s)")
    exp.add_argument("--levels", type=int, default=4,
                     help="analysis levels for parseval and mixed, cascade iterations for "
                     "cascade and partition (default: %(default)s)")
    exp.add_argument("--trials", type=int, default=None,
                     help=f"random signals for parseval and mixed (default: {DEFAULT_TRIALS}), "
                     f"translates for partition (default: {DEFAULT_TRIALS}, capped at q**J "
                     "for --hat-neg J)")
    exp.add_argument("--seed", type=_seed, default=0)
    exp.add_argument("--tol", type=float, default=DEFAULT_CASCADE_TOL)
    exp.add_argument("--hat-neg", type=int, default=2, dest="hat_neg", metavar="J",
                     help="the hat window is the ball |x| <= q**J (default: %(default)s)")
    exp.add_argument("--hat-pos", type=int, default=3, dest="hat_pos", metavar="J",
                     help="the hat is sampled at resolution q**-J (default: %(default)s)")
    exp.add_argument("--out", default="experiment.json")
    exp.set_defaults(func=cmd_experiment, report="{out}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        try:
            return args.func(args)
        except ConstructionError as exc:  # report is a template over the arguments
            return _rejected(exc, Path(args.report.format_map(vars(args))))
    except (DepthError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE_ERROR
    # an OSError here is a write that failed after its file opened: a full disk
    except (ParameterError, FrameFieldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main() -> None:
    # what is alive now (numpy and framefield's module state) leaves the
    # collector's generations, so the collections at interpreter exit skip
    # it; not in main(), which tests and the benchmark tracer call in process
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    console_main()
