"""End-to-end and per-layer benchmark of the framefield CLI pipelines.

    python3 perfbench/run.py --workload wide-sweep --seed 1 --seconds 25 --trace 0

Each op is one ``python -m framefield.cli`` child, because a CLI user pays
the interpreter start, the imports and the cold caches on every call.  One
client runs one child at a time in a closed loop, with BLAS threads fixed.

A run sets the workload up three times (``setup_s`` is the median), then
runs whole cycles of the workload's ops until another cycle would pass
``--seconds`` (at least one cycle), then checks every op's outcome outside
the timed region.  ``--trace 1`` runs each op twice, plain and under
``tracer.py``, and reports per-layer self times and counts per cycle; the
difference between the two is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
every op, every problem, the per-kind layer breakdown) goes to
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from proc import run_child
from workloads import GROUPS, WORKLOADS, cycle_ops, setup_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
# every child runs under an address-space cap, so a regression that blows
# up memory fails its op instead of exhausting a shared machine
SAFETY_AS = 4 << 30
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OP_TIMEOUT_S = 120
# children are stopped by this many seconds into a run, so that even with a
# hung op the run reports and exits within 180 s
RUN_DEADLINE_S = 150
KINDS = tuple(GROUPS)
GROUP_NAMES = tuple(dict.fromkeys(GROUPS.values()))

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    **{f"{group}_p50_s": "s" for group in GROUP_NAMES},
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    for var in ("FRAMEFIELD_BACKEND", "FRAMEFIELD_THREADS"):
        env.pop(var, None)
    return env


def cli_argv(args) -> list:
    return [sys.executable, "-m", "framefield.cli", *args]


def resolve(args, **dirs) -> list:
    return [a.format(**{k: str(v) for k, v in dirs.items()}) for a in args]


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history; never search above ROOT
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "framefield").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def op_timeout(deadline: float) -> float:
    return min(OP_TIMEOUT_S, deadline - time.perf_counter())


def run_setup(workload: str, seed: int, in_dir: Path, env: dict, deadline: float) -> float:
    in_dir.mkdir(parents=True)
    start = time.perf_counter()
    for i, (tool, args) in enumerate(setup_steps(workload, seed)):
        args = resolve(args, **{"in": in_dir})
        argv = cli_argv(args) if tool == "cli" else [sys.executable, str(HERE / "inputs.py"), *args]
        timeout = op_timeout(deadline)
        if timeout <= 0:
            raise SetupError("the run deadline passed during set-up")
        res = run_child(argv, env=env, cwd=ROOT, log_path=in_dir / f"step{i}.log",
                        timeout_s=timeout, rlimit_as=SAFETY_AS)
        if res.returncode != 0:
            raise SetupError(f"set-up step {' '.join(args)} exited {res.returncode}: "
                             f"{res.output.strip()[-300:]}")
    return time.perf_counter() - start


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}


def group_latency(entries):
    """Geometric mean over a group's op slots of each slot's median wall time.

    A group mixes inputs of different sizes; the median of the pooled
    samples would sit on one slot and carry that slot's noise alone.
    """
    walls = defaultdict(list)
    for e in entries:
        walls[e["op"].name].append(e["res"].wall_s)
    if not walls:
        return None
    logs = [math.log(statistics.median(w)) for w in walls.values()]
    return math.exp(sum(logs) / len(logs))


def run_cycles(args, env: dict, in_dir: Path, work: Path, deadline: float):
    """The timed region: whole cycles until another one would pass
    ``--seconds``.  With ``--trace 1`` each op also runs under the tracer.
    Past the run deadline no op starts, and the cycle is cut short."""
    ops, traced = [], []
    start = time.perf_counter()
    cycles = 0
    while True:
        cycle_dir = work / f"cycle{cycles}"
        for op in cycle_ops(args.workload, args.seed, cycles):
            timeout = op_timeout(deadline)
            if timeout <= 0:
                return ops, traced, cycles + 1, time.perf_counter() - start
            out = cycle_dir / op.name
            out.mkdir(parents=True)
            op_args = resolve(op.args, **{"in": in_dir, "out": out, "cycle": cycle_dir})
            res = run_child(cli_argv(op_args), env=env, cwd=ROOT, log_path=out / "log.txt",
                            timeout_s=timeout, rlimit_as=op.rlimit_as or SAFETY_AS)
            ops.append({"op": op, "args": op_args, "out": out, "res": res, "cycle": cycles})
            if args.trace:
                t_out = cycle_dir / f"{op.name}.traced"
                t_out.mkdir()
                t_args = resolve(op.args, **{"in": in_dir, "out": t_out, "cycle": cycle_dir})
                spans = t_out / "spans.npz"
                t_res = run_child(
                    [sys.executable, str(HERE / "tracer.py"), str(spans), f"{cycles}/{op.name}",
                     "--", *t_args],
                    env=env, cwd=ROOT, log_path=t_out / "log.txt",
                    timeout_s=max(op_timeout(deadline), 0.1), rlimit_as=op.rlimit_as or SAFETY_AS)
                traced.append({"name": op.name, "kind": op.kind, "spans": spans,
                               "wall_s": t_res.wall_s, "rc": t_res.returncode,
                               "plain_wall_s": res.wall_s, "plain_rc": res.returncode})
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > args.seconds:
            return ops, traced, cycles, elapsed


def check_outcomes(ops, seed: int) -> tuple:
    """Check every op (spot checks on the first cycle); return (correct, failed)."""
    from checks import check_op

    rng = np.random.default_rng([0xC4, seed])
    correct, failed = True, 0
    for entry in ops:
        problems = check_op(entry["op"], entry["args"], entry["res"], entry["out"], rng,
                            spot=entry["cycle"] == 0)
        entry["problems"] = problems
        correct &= not any(kind == "wrong" for kind, _ in problems)
        failed += bool(problems)
    return correct, failed


def end_to_end_metrics(ops, setup_times, elapsed: float) -> tuple:
    """The gated metrics, and one ungated line per op kind."""
    metrics = {"setup_s": statistics.median(setup_times),
               "ops_per_s": len(ops) / elapsed,
               "peak_rss_mb": max(e["res"].peak_rss_mb for e in ops)}
    # the memory-limited stress op and ops with problems are not latency samples
    timed = [e for e in ops if not e["op"].rlimit_as and not e["problems"]]
    for group in GROUP_NAMES:
        metrics[f"{group}_p50_s"] = group_latency([e for e in timed if e["op"].group == group])
    lines = []
    for kind in KINDS:
        samples = [e["res"].wall_s for e in timed if e["op"].kind == kind]
        if samples:
            lines.append(f"{kind}: p50 {statistics.median(samples):.4f} s, n={len(samples)}, "
                         f"tail {tail(samples)}")
    return metrics, lines


def layer_metrics(traced, cycles: int) -> tuple:
    """Per-layer metrics per cycle, and each kind's layer breakdown."""
    from tracer import COUNT_KEYS, NAMES, aggregate

    totals = defaultdict(float)
    by_kind = defaultdict(lambda: defaultdict(float))
    for rec in traced:
        agg, kind = aggregate(rec["spans"]), rec["kind"]
        other = rec["wall_s"] - agg["startup_s"] - agg["covered_s"]
        parts = {**{f"{n}.s": agg["self_s"][n] for n in NAMES},
                 "cli.startup_s": agg["startup_s"], "other.s": other}
        for key, value in parts.items():
            totals[key] += value
            by_kind[kind][key] += value
        by_kind[kind]["wall_s"] += rec["wall_s"]
        by_kind[kind]["ops"] += 1
        for key in COUNT_KEYS:
            totals[key] += agg["counts"][key]
        totals["trace.overhead_s"] += rec["wall_s"] - rec["plain_wall_s"]
    useful = totals.pop("mask.sweep.useful_points")
    handed = totals.pop("construct.paraunitary_cert.handed_back")
    points, certs = totals["mask.sweep.points"], totals["construct.paraunitary_cert.calls"]
    metrics = {key: value / cycles for key, value in totals.items()}
    metrics["mask.sweep.useful_ratio"] = useful / points if points else 0.0
    metrics["construct.paraunitary_cert.useful_ratio"] = handed / certs if certs else 0.0
    return metrics, {k: dict(v) for k, v in by_kind.items()}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="framefield CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "framefield" / "cli.py").is_file():
        print(f"error: no framefield sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = child_env()
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                  "environment": environment(args.seed)}
        setup_times = [run_setup(args.workload, args.seed, work / f"setup{i}", env, deadline)
                       for i in range(SETUP_REPEATS)]
        ops, traced, cycles, elapsed = run_cycles(args, env, work / "setup0", work, deadline)
        correct, failed = check_outcomes(ops, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    else:
        if args.trace:
            metrics, record["by_kind"] = layer_metrics(traced, cycles)
            units = {name: layer_unit(name) for name in metrics}
            lines = [f"note: traced {t['name']} exited {t['rc']}, plain run {t['plain_rc']}"
                     for t in traced if t["rc"] != t["plain_rc"]]
            for kind, parts in sorted(record["by_kind"].items()):
                top = sorted(((v, k) for k, v in parts.items() if k not in ("wall_s", "ops")),
                             reverse=True)[:5]
                shares = ", ".join(f"{k} {v / parts['wall_s']:.0%}" for v, k in top)
                lines.append(f"traced {kind}: {int(parts['ops'])} ops, {parts['wall_s']:.3f} s: {shares}")
        else:
            metrics, lines = end_to_end_metrics(ops, setup_times, elapsed)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update({
        "setup_s_all": setup_times, "cycles": cycles, "timed_s": elapsed,
        "ops": [{"name": e["op"].name, "kind": e["op"].kind, "cycle": e["cycle"],
                 "rc": e["res"].returncode, "wall_s": e["res"].wall_s,
                 "peak_rss_mb": e["res"].peak_rss_mb, "problems": e["problems"]} for e in ops],
        "metrics": metrics,
    })
    result_path = ROOT / ".perfbench" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{cycles} cycle(s), {len(ops)} ops in {elapsed:.2f} s")
    print("environment: " + json.dumps(record["environment"]))
    print("setup runs: " + ", ".join(f"{t:.3f} s" for t in setup_times))
    for e in ops:
        note = "; ".join(msg for _, msg in e["problems"])
        print(f"  {e['op'].name:<28} rc={e['res'].returncode} {e['res'].wall_s:8.3f} s "
              f"{e['res'].peak_rss_mb:8.1f} MB {note}")
    for line in lines:
        print(line)
    print(f"failed ops: {failed}/{len(ops)} (failed_ops_ratio {failed / len(ops):.4f})")
    for name, value in metrics.items():
        print(f"{name} = {value if value is None else format(value, '.6g')} {units[name]}")
    print(f"full record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
