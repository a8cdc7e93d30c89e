"""Outcome checks, run after the timed region.

Two kinds of problem:

- ``wrong``: the program gave a wrong answer.  A verdict (exit 0 or 1)
  other than the expected one, a report whose ``pass`` disagrees with
  ``max_deviation <= tolerance``, or a fast-path value that disagrees with
  the independent reference route (``modulation_matrix`` / ``eval_mask`` at
  the reported worst point, ``cascade_value`` at sampled hat points).
- ``failed``: the op gave no answer.  A traceback, a signal, a timeout, or
  an exit code outside the contract's verdicts.

``correct`` in the benchmark result means no ``wrong`` problem; every op
with either kind counts in ``failed``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from framefield.construct import FramePair
from framefield.errors import FrameFieldError
from framefield.localfield import FieldElement
from framefield.mask import FilterBank, modulation_matrix, polyphase_matrix
from framefield.verify import cascade_value

SPOT_ATOL = 1e-9
SPOT_RTOL = 1e-6
CASCADE_SAMPLES = 8


def _load(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _arg(args, flag, default=None):
    return args[args.index(flag) + 1] if flag in args else default


def reference_deviation(condition: str, bank: FilterBank, dual: FilterBank | None, point) -> float:
    """The deviation a checker reports at one point, by the reference route."""
    q = bank.params.q
    if condition == "uep":
        h = modulation_matrix(bank, point).entries
        return float(np.abs(h.conj().T @ h - np.eye(q)).max())
    if condition == "subqmf":
        h = modulation_matrix(FilterBank(bank.params, bank.m0, ()), point).entries[0]
        return max(0.0, float(np.sum(np.abs(h) ** 2)) - 1.0)
    if condition == "polyphase_unitary":
        p = polyphase_matrix(bank, point).entries
        return float(np.abs(p @ p.conj().T - np.eye(q)).max())
    if condition == "mixed_orthogonality":
        a = modulation_matrix(bank, point).entries[1:]
        b = modulation_matrix(dual, point).entries[1:]
        cross = a.conj().T @ b
        sel = np.eye(q, dtype=bool)
        sel[0, :] = sel[:, 0] = True
        return float(np.abs(cross[sel]).max())
    raise ValueError(f"no reference for condition {condition!r}")


def _report_problems(reports, rc: int) -> list:
    problems = []
    for r in reports:
        if r["pass"] != (r["max_deviation"] <= r["tolerance"]):
            problems.append(("wrong", f"{r['condition']}: pass={r['pass']} but deviation "
                                      f"{r['max_deviation']:.3e} vs tolerance {r['tolerance']:.1e}"))
    if reports and (rc == 0) != all(r["pass"] for r in reports):
        problems.append(("wrong", f"exit {rc} disagrees with the reports"))
    return problems


def _spot_report(report, bank, dual) -> list:
    point = FieldElement.from_json(bank.params, report["worst_point"])
    ref = reference_deviation(report["condition"], bank, dual, point)
    got = report["max_deviation"]
    if abs(ref - got) > SPOT_ATOL + SPOT_RTOL * abs(ref):
        return [("wrong", f"{report['condition']} at the worst point: reported {got:.6e}, "
                          f"reference {ref:.6e}")]
    return []


def _reports_and_banks(op, args, out: Path):
    """Reports an op wrote, each with the bank(s) its spot check needs."""
    if op.kind == "verify":
        bank = FilterBank.from_json(_load(args[1]))
        dual_path = _arg(args, "--dual")
        dual = FilterBank.from_json(_load(dual_path)) if dual_path else None
        return [(r, bank, dual) for r in _load(out / "report.json")["reports"]]
    if op.kind == "pair":
        payload = _load(out / "pair.json")
        pair = FramePair.from_json(payload)
        banks = [(pair.primal, None), (pair.dual, None), (pair.primal, pair.dual)]
        return [(r, b, d) for r, (b, d) in zip(payload["reports"], banks)]
    if op.kind == "family":
        fam = out / "fam"
        reports = _load(fam / "reports.json")["reports"]
        n = sum(1 for r in reports if r["condition"] == "uep")
        banks = [FilterBank.from_json(_load(fam / f"family_{i + 1}.json")) for i in range(n)]
        pairs = [(banks[i], None) for i in range(n)]
        pairs += [(banks[i], banks[j]) for i in range(n) for j in range(i + 1, n)]
        return [(r, b, d) for r, (b, d) in zip(reports, pairs)]
    if op.kind in ("parseval", "mixed"):
        return [(r, None, None) for r in _load(out / "exp.json")["reports"]]
    return []


def _cascade_problems(args, out: Path, rng, spot: bool) -> list:
    payload = _load(out / "exp.json")
    if payload.get("stabilized_at") is None:
        return [("wrong", "cascade did not stabilize within its levels")]
    if not spot:
        return []
    bank = FilterBank.from_json(_load(_arg(args, "--bank")))
    params, q = bank.params, bank.params.q
    j_neg, j_pos = int(_arg(args, "--hat-neg")), int(_arg(args, "--hat-pos"))
    width = j_neg + j_pos
    lines = (out / "exp.csv").read_text().splitlines()
    problems = []
    for h in rng.integers(q ** width, size=CASCADE_SAMPLES):
        idx, re, im = lines[int(h) + 1].split(",")
        x = FieldElement(params, -j_neg, tuple((int(h) // q ** i) % q for i in range(width)))
        ref = cascade_value(bank.m0, x)
        if int(idx) != h or abs(ref - complex(float(re), float(im))) > SPOT_ATOL:
            problems.append(("wrong", f"cascade at hat point {int(h)}: {re},{im} vs reference {ref}"))
    return problems


def check_op(op, args, result, out: Path, rng, spot: bool) -> list:
    """Problems with one executed op; ``spot`` also runs the reference checks."""
    if result.timed_out:
        return [("failed", "timeout")]
    if result.returncode < 0:
        return [("failed", f"killed by signal {-result.returncode}")]
    if "Traceback (most recent call last)" in result.output:
        return [("failed", "traceback: " + result.output.strip().splitlines()[-1][:160])]
    rc = result.returncode
    if rc not in op.expect:
        return [("wrong" if rc in (0, 1) else "failed", f"exit {rc}, expected {sorted(op.expect)}")]
    if rc not in (0, 1):
        return []
    try:
        if op.kind == "cascade":
            return _cascade_problems(args, out, rng, spot and op.spot)
        found = _reports_and_banks(op, args, out)
        problems = _report_problems([r for r, _, _ in found], rc)
        if spot and op.spot and not problems:
            checkable = [f for f in found if f[1] is not None and f[0].get("worst_point")]
            if checkable:
                problems += _spot_report(*checkable[int(rng.integers(len(checkable)))])
        return problems
    except (OSError, ValueError, KeyError, IndexError, FrameFieldError) as exc:
        return [("wrong", f"unreadable output: {exc!r}")]
