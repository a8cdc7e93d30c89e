"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here and match the library defaults where applicable.
"""

import time

import numpy as np
import pytest

from framefield.construct import (
    compose,
    constant_paraunitary,
    delay_block,
    derive_pair,
    haar_bank,
    orthogonal_family,
    seeded_paraunitary,
)
from framefield.galois import FieldParams
from framefield.localfield import FieldElement, index_add
from framefield.mask import check_mixed_orthogonality, check_polyphase_unitary, check_uep
from framefield.verify import (
    analysis_step,
    cascade_phihat,
    mixed_frame_experiment,
    parseval_experiment,
    partition_of_unity_check,
    random_signal,
    synthesis_step,
)
from framefield.reference import cascade_value, chi, eval_mask, lf_add, lf_mul, u_map

from helpers import code_tables, random_bank


def report_line(number, passed, text):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {text}")
    assert passed, f"criterion {number}: {text}"


@pytest.fixture(scope="module", autouse=True)
def warm_up_kernels():
    # exclude table construction from the timed criteria
    for p, c in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        params = FieldParams(p, c)
        bank = haar_bank(params)
        check_uep(bank, 1)
        check_polyphase_unitary(bank, 1)
    bank2 = haar_bank(FieldParams(2, 1))
    v = random_signal(bank2.params, 3, np.random.default_rng(0))
    synthesis_step(analysis_step(v, bank2), bank2)


def test_criterion_1_haar_exactness():
    worst = 0.0
    slowest = 0.0
    for p, c in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        params = FieldParams(p, c)
        start = time.perf_counter()
        bank = haar_bank(params)
        uep = check_uep(bank, 3, tol=1e-12)
        poly = check_polyphase_unitary(bank, 3, tol=1e-12)
        elapsed = time.perf_counter() - start
        worst = max(worst, uep.max_deviation, poly.max_deviation)
        slowest = max(slowest, elapsed)
        assert uep.passed and poly.passed
    report_line(
        1,
        worst < 1e-12 and slowest < 1.0,
        f"Haar banks exact for q in (2,3,4,5): max deviation {worst:.2e}, "
        f"slowest field {slowest * 1000:.0f} ms",
    )


def test_criterion_2_polyphase_modulation_equivalence():
    agreements = 0
    total = 0
    for q in (2, 3):
        params = FieldParams(q, 1)
        for i in range(100):
            unitary = i < 50
            bank = random_bank(
                params, seed=1000 * q + i, unitary=unitary, max_delay=i % 3, noise=1e-2
            )
            uep = check_uep(bank, 3, tol=1e-8)
            poly = check_polyphase_unitary(bank, 3, tol=1e-8)
            assert uep.passed == unitary
            agreements += int(uep.passed == poly.passed)
            total += 1
    report_line(
        2,
        agreements == total == 200,
        f"modulation and polyphase verdicts agree on {agreements}/{total} random banks",
    )


def test_criterion_3_pair_pipeline():
    params = FieldParams(2, 1)
    haar = haar_bank(params)
    # an L = 2 tight bank derived from the Haar wavelet through a constant DFT
    dft = constant_paraunitary(params, 2, seed=902)
    two_wavelet = orthogonal_family(haar, dft)[0]
    start = time.perf_counter()
    worst_matrix = 0.0
    worst_ratio = 0.0
    for case in range(20):
        bank = haar if case < 10 else two_wavelet
        matrix = seeded_paraunitary(params, 2 * bank.n_wavelets, seed=case)
        pair = derive_pair(bank, bank, matrix)
        depth = 3
        r1 = check_uep(pair.primal, depth, tol=1e-10)
        r2 = check_uep(pair.dual, depth, tol=1e-10)
        r3 = check_mixed_orthogonality(pair.primal, pair.dual, depth, tol=1e-10)
        assert r1.passed and r2.passed and r3.passed
        worst_matrix = max(worst_matrix, r1.max_deviation, r2.max_deviation, r3.max_deviation)
        exp = mixed_frame_experiment(pair, 6, 4, trials=20, tol=1e-8, seed=case)
        assert exp.passed
        worst_ratio = max(worst_ratio, exp.max_deviation)
    elapsed = time.perf_counter() - start
    report_line(
        3,
        worst_matrix < 1e-10 and worst_ratio < 1e-8 and elapsed < 30.0,
        f"20 derived pairs certified: matrix deviation {worst_matrix:.2e}, "
        f"cross-frame ratio {worst_ratio:.2e}, {elapsed:.1f} s",
    )


def test_criterion_4_family_pipeline():
    params = FieldParams(2, 1)
    haar = haar_bank(params)
    worst_matrix = 0.0
    worst_energy = 0.0
    for case in range(10):
        size = 2 if case < 5 else 3
        matrix = seeded_paraunitary(params, size, seed=100 + case)
        families = orthogonal_family(haar, matrix)
        assert len(families) == size
        depth = 3
        for bank in families:
            rep = check_uep(bank, depth, tol=1e-10)
            assert rep.passed
            worst_matrix = max(worst_matrix, rep.max_deviation)
            par = parseval_experiment(bank, 6, 4, trials=5, tol=1e-10, seed=case)
            assert par.passed
            worst_energy = max(worst_energy, par.max_deviation)
        for i in range(size):
            for j in range(i + 1, size):
                rep = check_mixed_orthogonality(families[i], families[j], depth, tol=1e-10)
                assert rep.passed
                worst_matrix = max(worst_matrix, rep.max_deviation)
    report_line(
        4,
        worst_matrix < 1e-10 and worst_energy < 1e-10,
        f"orthogonal families for L in (2,3): matrix deviation {worst_matrix:.2e}, "
        f"Parseval deviation {worst_energy:.2e}",
    )


def test_criterion_5_cascade_partition_telescoping():
    params = FieldParams(2, 1)
    haar = haar_bank(params)
    # cascade on the ring of integers: identically one, no rounding at all
    hat_d = cascade_phihat(haar.m0, 10, j_neg=0, j_pos=3)
    cascade_dev = float(np.abs(hat_d.values - 1.0).max())
    # partition of unity over q**2 translates
    hat = cascade_phihat(haar.m0, 10, j_neg=2, j_pos=3)
    partition, _ = partition_of_unity_check(hat, 4, tol=1e-12)
    # telescoping: wavelet energy equals the scaling energy drop, 128 points
    wide = cascade_phihat(haar.m0, 12, j_neg=3, j_pos=4)
    telescope_dev = 0.0
    for h in range(len(wide.values)):
        x = wide.point(h)
        tx = FieldElement(params, x.v + 1, x.digits)
        phi_x = cascade_value(haar.m0, x)
        phi_tx = cascade_value(haar.m0, tx)
        lhs = sum(abs(eval_mask(m, tx) * phi_tx) ** 2 for m in haar.wavelets)
        rhs = abs(phi_tx) ** 2 - abs(phi_x) ** 2
        telescope_dev = max(telescope_dev, abs(lhs - rhs))
    report_line(
        5,
        cascade_dev == 0.0 and partition.passed and telescope_dev < 1e-8,
        f"cascade exact on the integer ring (deviation {cascade_dev}), partition "
        f"{partition.max_deviation:.2e}, telescoping over {len(wide.values)} points "
        f"{telescope_dev:.2e}",
    )


def test_criterion_6_perfect_reconstruction_equivalence():
    params = FieldParams(2, 1)
    rng = np.random.default_rng(77)
    disagreements = 0
    for i in range(100):
        bank = random_bank(params, seed=i, unitary=i < 50, max_delay=i % 3, noise=1e-2)
        v = random_signal(params, 4, rng)
        rec = synthesis_step(analysis_step(v, bank), bank)
        pr_ok = bool(np.max(np.abs(rec - v)) < 1e-10)
        uep_ok = check_uep(bank, 3).passed
        disagreements += int(pr_ok != uep_ok)
    report_line(
        6,
        disagreements == 0,
        f"perfect reconstruction matches the tight-frame verdict on 100 banks "
        f"({disagreements} disagreements)",
    )


def test_criterion_7_group_law_suite():
    # index group law, exhaustive below q**4
    for q in (2, 3):
        params = FieldParams(q, 1)
        reps = [u_map(params, n) for n in range(params.q ** 4)]
        for m in range(params.q ** 4):
            for n in range(params.q ** 4):
                assert lf_add(reps[m], reps[n]) == reps[index_add(params, m, n)]
    # character additivity on random pairs
    params = FieldParams(3, 1)
    rng = np.random.default_rng(11)
    chi_dev = 0.0
    for _ in range(1000):
        x = FieldElement(params, int(rng.integers(-4, 4)),
                         tuple(int(d) for d in rng.integers(0, 3, size=4)))
        y = FieldElement(params, int(rng.integers(-4, 4)),
                         tuple(int(d) for d in rng.integers(0, 3, size=4)))
        chi_dev = max(chi_dev, abs(chi(lf_add(x, y)) - chi(x) * chi(y)))
    # field axioms, exhaustive for q <= 16, through the carry-free sum and
    # the exp/log product of digit codes
    fields = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]
    for p, c in fields:
        q = p ** c
        add, mul = code_tables(FieldParams(p, c))
        a = np.arange(q)
        assert np.array_equal(add[0], a) and np.array_equal(mul[1], a)
        assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
        assert np.array_equal(add[add][:, :, :], add[:, add])  # associativity
        assert np.array_equal(mul[mul][:, :, :], mul[:, mul])
        assert np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])
        assert all(1 in mul[d] for d in range(1, q))  # inverses exist
    report_line(
        7,
        chi_dev < 1e-15,
        f"index group law exhaustive below q**4, character additivity {chi_dev:.2e}, "
        f"field axioms exhaustive for q <= 16",
    )
