"""Traced child: wraps each layer's public functions, then runs the CLI.

    python perfbench/tracer.py SPANS.npz OP_ID -- <framefield arguments>

Wrappers go in before ``cli.main`` runs.  A function is replaced on every
``framefield`` module that holds it, because ``from .x import f`` makes a
second binding: patching only the defining module would miss the calls
that ``construct``, ``verify`` and ``cli`` make through theirs.

Each call becomes a span (layer, start, end, parent) kept in memory.  When
the CLI returns, the spans go to SPANS.npz with the op id, the counts taken
from argument shapes at the layer boundary, and the start-up time (spawn to
``main``, with the spawn time passed by the parent in ``PERFBENCH_SPAWN``).
``aggregate`` turns one such file into self times and counts.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

import numpy as np

from framefield import cli, construct, galois, kernels, localfield, mask, verify
from framefield.construct import FramePair, Paraunitary, covering_depth
from framefield.mask import FilterBank, Mask

perf_counter = time.perf_counter

# layer -> functions whose calls are its spans, as (owner, attribute)
LAYERS = {
    "galois.field_tables": [(galois, "field_tables")],
    "localfield.index_add": [(localfield, "index_add")],
    "localfield.grid_digits": [(localfield, "grid_digits")],
    "kernels.exponent_table": [(kernels, "exponent_table")],
    "kernels.conj_char_matrix": [(kernels, "conj_char_matrix")],
    "kernels.analysis_apply": [(kernels, "analysis_apply")],
    "kernels.synthesis_apply": [(kernels, "synthesis_apply")],
    "mask.eval": [(mask, "mask_values_on_grid"), (mask, "mask_values_at_digits")],
    "mask.sweep": [(mask, "check_uep"), (mask, "check_subqmf"),
                   (mask, "check_polyphase_unitary"), (mask, "check_mixed_orthogonality")],
    "mask.algebra": [(mask, "mask_mul"), (mask, "mask_add"), (mask, "trim_mask")],
    "construct.compose": [(construct, "compose")],
    "construct.paraunitary_cert": [(Paraunitary, "unitarity_report")],
    "construct.mix": [(construct, "derive_pair"), (construct, "_mix_wavelets"),
                      (construct, "orthogonal_family")],
    "verify.cascade": [(verify, "cascade_phihat")],
    "verify.transform": [(verify, "analysis_step"), (verify, "synthesis_step")],
    "verify.experiment": [(verify, "parseval_experiment"), (verify, "mixed_frame_experiment")],
    "cli.load": [(cli, "_load_json"), (cli, "_sha256"), (FilterBank, "from_json"),
                 (FramePair, "from_json"), (Paraunitary, "from_json")],
    "cli.write_json": [(cli, "_write_json")],
    "cli.write_csv": [(cli, "_write_csv")],
}
NAMES = list(LAYERS)
# count keys aggregated across calls; all start at zero so every key is present
COUNT_KEYS = (
    "galois.field_tables.calls", "localfield.index_add.calls", "localfield.grid_points",
    "kernels.exponent_table.entries", "kernels.exponent_table.bytes",
    "kernels.analysis_apply.macs", "kernels.analysis_apply.bytes", "kernels.synthesis_apply.macs",
    "mask.eval.values", "mask.sweep.points", "mask.sweep.useful_points", "mask.sweep.bytes",
    "mask.mask_mul.calls", "mask.mask_mul.term_pairs", "mask.masks_created",
    "construct.compose.calls", "construct.paraunitary_cert.calls",
    "construct.paraunitary_cert.handed_back", "verify.cascade.factors", "verify.signal_samples",
    "cli.write_json.bytes", "cli.write_csv.rows",
)
COMPLEX_BYTES = 16


class Recorder:
    """Spans in four parallel lists, a stack of open spans, and counts."""

    def __init__(self):
        self.layer, self.parent, self.t0, self.t1 = [], [], [], []
        self.stack = []
        self.counts = Counter({key: 0 for key in COUNT_KEYS})

    def wrap(self, fn, layer_id: int, count=None):
        def traced(*args, **kwargs):
            idx = len(self.t0)
            self.layer.append(layer_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.t1.append(0.0)  # set when the call returns
            self.stack.append(idx)
            self.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[idx] = perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return functools.update_wrapper(traced, fn)

    def wrap_cached(self, fn, layer_id: int):
        """Span only the calls of an lru_cache function that build a value."""

        def traced(*args):
            misses = fn.cache_info().misses
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
            if fn.cache_info().misses != misses:
                self.layer.append(layer_id)
                self.parent.append(self.stack[-1] if self.stack else -1)
                self.t0.append(t0)
                self.t1.append(t1)
            return result

        return functools.update_wrapper(traced, fn)


# ---------------------------------------------------------------------------
# counts from argument shapes at the layer boundary


def _grid_points(c, result, params, depth):
    c["localfield.grid_points"] += params.q ** depth


def _exponent_table(c, result, a_digits, b_digits, tmod, p):
    entries = a_digits.shape[0] * b_digits.shape[0]
    c["kernels.exponent_table.entries"] += entries
    # int64 result plus one gathered int64 temporary per digit
    c["kernels.exponent_table.bytes"] += 8 * entries * (a_digits.shape[1] + 1)


def _analysis(c, result, coeffs, signal, idx):
    c["kernels.analysis_apply.macs"] += coeffs.shape[0] * idx.size
    # the gathered signal[idx] (complex) plus the index table (int64)
    c["kernels.analysis_apply.bytes"] += idx.size * (COMPLEX_BYTES + 8)


def _synthesis(c, result, coeffs, branches, idx, n_out):
    c["kernels.synthesis_apply.macs"] += coeffs.shape[0] * idx.size


def _eval_values(c, result, masks, point_digits):
    c["mask.eval.values"] += len(masks) * point_digits.shape[0]


def _sweep(c, params, depth, max_index, shifted_masks, gram_side):
    q = params.q
    points = q ** depth
    c["mask.sweep.points"] += points
    # one representative per coset xi + t*u(k) at covering depth
    c["mask.sweep.useful_points"] += q ** (covering_depth(max_index, q) - 1)
    c["mask.sweep.bytes"] += COMPLEX_BYTES * points * (shifted_masks * q + gram_side * gram_side)


def _uep(c, result, bank, depth, *a, **k):
    # also the polyphase check: its gamma (L+1, q, G) has the size of the
    # shifted array, and its Gram is (G, q, q) too
    _sweep(c, bank.params, depth, bank.max_index, len(bank.masks), bank.params.q)


def _subqmf(c, result, m0, depth, *a, **k):
    _sweep(c, m0.params, depth, m0.max_index, 1, 0)


def _mixed(c, result, bank_a, bank_b, depth, *a, **k):
    top = max(bank_a.max_index, bank_b.max_index)
    shifted = bank_a.n_wavelets + bank_b.n_wavelets
    _sweep(c, bank_a.params, depth, top, shifted, bank_a.params.q)


def _mask_mul(c, result, a, b):
    c["mask.mask_mul.calls"] += 1
    c["mask.mask_mul.term_pairs"] += int(np.count_nonzero(a.coeffs)) * int(np.count_nonzero(b.coeffs))


def _increment(key):
    def count(c, result, *args, **kwargs):
        c[key] += 1

    return count


def _cascade(c, result, m0, iterations, *a, **k):
    done = result.stabilized_at - 1 if result.stabilized_at is not None else iterations
    c["verify.cascade.factors"] += done


def _experiment(c, result, first, size_exponent, levels, trials, *a, **k):
    c["verify.signal_samples"] += trials * first.params.q ** size_exponent


def _write_json(c, result, path, payload):
    c["cli.write_json.bytes"] += os.path.getsize(path)


def _write_csv(c, result, path, header, rows):
    c["cli.write_csv.rows"] += len(rows)


COUNTERS = {
    (localfield, "index_add"): _increment("localfield.index_add.calls"),
    (localfield, "grid_digits"): _grid_points,
    (kernels, "exponent_table"): _exponent_table,
    (kernels, "analysis_apply"): _analysis,
    (kernels, "synthesis_apply"): _synthesis,
    (mask, "mask_values_at_digits"): _eval_values,
    (mask, "check_uep"): _uep,
    (mask, "check_subqmf"): _subqmf,
    (mask, "check_polyphase_unitary"): _uep,
    (mask, "check_mixed_orthogonality"): _mixed,
    (mask, "mask_mul"): _mask_mul,
    (construct, "compose"): _increment("construct.compose.calls"),
    (Paraunitary, "unitarity_report"): _increment("construct.paraunitary_cert.calls"),
    (verify, "cascade_phihat"): _cascade,
    (verify, "parseval_experiment"): _experiment,
    (verify, "mixed_frame_experiment"): _experiment,
    (cli, "_write_json"): _write_json,
    (cli, "_write_csv"): _write_csv,
}


def _rebind(original, replacement) -> None:
    """Replace ``original`` on every framefield module that holds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "framefield" or name.startswith("framefield.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder) -> None:
    for layer_id, layer in enumerate(NAMES):
        for owner, attr in LAYERS[layer]:
            raw = vars(owner)[attr]
            count = COUNTERS.get((owner, attr))
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(rec.wrap(raw.__func__, layer_id, count)))
                else:
                    setattr(owner, attr, rec.wrap(raw, layer_id, count))
            elif hasattr(raw, "cache_info"):
                _rebind(raw, rec.wrap_cached(raw, layer_id))
            else:
                _rebind(raw, rec.wrap(raw, layer_id, count))

    post_init = Mask.__post_init__

    def counted_post_init(self):
        rec.counts["mask.masks_created"] += 1
        post_init(self)

    Mask.__post_init__ = counted_post_init

    load_paraunitary = cli._load_paraunitary

    def counted_load(*args, **kwargs):
        result = load_paraunitary(*args, **kwargs)
        rec.counts["construct.paraunitary_cert.handed_back"] += 1
        return result

    cli._load_paraunitary = counted_load


def save(path: str, op_id: str, rec: Recorder, entry: float, tables) -> None:
    rec.counts["galois.field_tables.calls"] = tables.cache_info().misses
    np.savez(
        path,
        op=np.asarray(op_id),
        layer=np.asarray(rec.layer, dtype=np.int32),
        parent=np.asarray(rec.parent, dtype=np.int64),
        t0=np.asarray(rec.t0),
        t1=np.asarray(rec.t1),
        names=np.asarray(NAMES),
        counts=np.asarray(json.dumps(rec.counts)),
        startup=np.asarray(entry - float(os.environ.get("PERFBENCH_SPAWN", entry))),
    )


def aggregate(path: str) -> dict:
    """Self time per layer, top-level covered time, start-up time and counts."""
    with np.load(path) as data:
        layer, parent, t0, t1 = data["layer"], data["parent"], data["t0"], data["t1"]
        names = [str(x) for x in data["names"]]
        counts = json.loads(str(data["counts"]))
        startup = float(data["startup"])
    dur = t1 - t0
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = np.bincount(layer, weights=dur - child, minlength=len(names))
    return {
        "self_s": {name: float(self_time[i]) for i, name in enumerate(names)},
        "covered_s": float(dur[~nested].sum()),
        "startup_s": startup,
        "counts": counts,
    }


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        raise SystemExit("usage: tracer.py SPANS.npz OP_ID -- <framefield arguments>")
    out_path, op_id = sys.argv[1], sys.argv[2]
    tables = galois.field_tables
    rec = Recorder()
    install(rec)
    entry = perf_counter()
    try:
        return cli.main(sys.argv[4:])
    finally:
        save(out_path, op_id, rec, entry, tables)


if __name__ == "__main__":
    sys.exit(main())
