"""Benchmark inputs: the seeded banks and pair files that no ``framefield``
subcommand generates.

Each call runs in its own child process during set-up, so its import and
field-table costs land in ``setup_s`` the way a user's would.

    python perfbench/inputs.py perturb --seed N BANK.json OUT.json [BANK.json OUT.json ...]
    python perfbench/inputs.py split PAIR.json PRIMAL.json DUAL.json
    python perfbench/inputs.py long OUT.json --p P --c C --delay D --seed N
    python perfbench/inputs.py longpair OUT.json --p P --c C --delay D --seed N
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from framefield.construct import FramePair, haar_bank
from framefield.galois import FieldParams
from framefield.mask import FilterBank, Mask

NOISE = 1e-2


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _unitary(rng: np.random.Generator, size: int) -> np.ndarray:
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    qmat, rmat = np.linalg.qr(z)
    diag = np.diagonal(rmat)
    return qmat * (diag / np.abs(diag))


def perturbed(bank: FilterBank, seed: int) -> FilterBank:
    """Noise of about ``NOISE`` on one wavelet; m0 stays normalized, so the
    bank loads but fails the UEP and polyphase checks."""
    rng = np.random.default_rng([0x5E, seed, bank.params.q])
    j = int(rng.integers(bank.n_wavelets))
    w = bank.wavelets[j]
    bump = rng.standard_normal(len(w.coeffs)) + 1j * rng.standard_normal(len(w.coeffs))
    wavelets = list(bank.wavelets)
    wavelets[j] = Mask(bank.params, w.coeffs + NOISE * bump, w.stride)
    return FilterBank(bank.params, bank.m0, tuple(wavelets))


def long_bank(params: FieldParams, delay: int, seed: int) -> FilterBank:
    """Haar character rows spread over delayed polyphase components.

    Component r of every mask moves to slot q*d_r + r.  The last component
    takes the full ``delay``, so the support is q*delay + q whatever the
    seed; the other delays are seeded.  Each column of the polyphase matrix
    only gains a unimodular factor, so the bank stays tight and m0 stays
    normalized.
    """
    q = params.q
    rng = np.random.default_rng([0x10, seed, q])
    delays = rng.integers(0, delay + 1, size=q)
    delays[-1] = delay
    rows = np.array([m.coeffs for m in haar_bank(params).masks])
    coeffs = np.zeros((q, q * delay + q), dtype=np.complex128)
    for r in range(q):
        coeffs[:, q * int(delays[r]) + r] = rows[:, r]
    masks = [Mask(params, coeffs[l]) for l in range(q)]
    return FilterBank(params, masks[0], tuple(masks[1:]))


def long_pair(params: FieldParams, delay: int, seed: int) -> FramePair:
    """Orthogonal pair from two long banks and the split columns of a
    seeded constant 2L x 2L unitary: primal wavelet k is sum_l A[k, l] w_l,
    dual wavelet k is sum_l A[k, L + l] w'_l."""
    primal = long_bank(params, delay, seed)
    dual = long_bank(params, delay, seed + 1)
    size = 2 * primal.n_wavelets
    a = _unitary(np.random.default_rng([0xA1, seed]), size)

    def mix(bank: FilterBank, cols: slice) -> FilterBank:
        w = np.array([m.coeffs for m in bank.wavelets])
        mixed = a[:, cols] @ w
        return FilterBank(params, bank.m0, tuple(Mask(params, row) for row in mixed))

    length = primal.n_wavelets
    return FramePair(mix(primal, slice(0, length)), mix(dual, slice(length, size)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    pert = sub.add_parser("perturb")
    pert.add_argument("--seed", type=int, required=True)
    pert.add_argument("paths", nargs="+", help="BANK OUT [BANK OUT ...]")
    split = sub.add_parser("split")
    split.add_argument("pair")
    split.add_argument("primal")
    split.add_argument("dual")
    for name in ("long", "longpair"):
        cmd = sub.add_parser(name)
        cmd.add_argument("out")
        cmd.add_argument("--p", type=int, required=True)
        cmd.add_argument("--c", type=int, default=1)
        cmd.add_argument("--delay", type=int, required=True)
        cmd.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    if args.what == "perturb":
        if len(args.paths) % 2:
            parser.error("perturb takes BANK OUT pairs")
        for src, out in zip(args.paths[::2], args.paths[1::2]):
            with open(src) as handle:
                bank = FilterBank.from_json(json.load(handle))
            _write(out, perturbed(bank, args.seed).to_json())
    elif args.what == "split":
        with open(args.pair) as handle:
            pair = FramePair.from_json(json.load(handle))
        _write(args.primal, pair.primal.to_json())
        _write(args.dual, pair.dual.to_json())
    elif args.what == "long":
        _write(args.out, long_bank(FieldParams(args.p, args.c), args.delay, args.seed).to_json())
    else:
        _write(args.out, long_pair(FieldParams(args.p, args.c), args.delay, args.seed).to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
