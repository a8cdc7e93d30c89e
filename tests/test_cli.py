"""End-to-end CLI behavior: subcommands, files, exit codes, determinism."""

import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framefield
from framefield import cli, galois, kernels, reference
from framefield.cli import _load_json, _write_csv, main
from framefield.construct import (
    constant_paraunitary,
    derive_pair,
    haar_bank,
    orthogonal_family,
    seeded_paraunitary,
)
from framefield.errors import ParameterError
from framefield.galois import FieldParams
from framefield.mask import (
    FilterBank,
    FramePair,
    _character_factor,
    check_mixed_orthogonality,
    mask_values_on_grid,
    zero_mask,
)
from framefield.verify import cascade_phihat, parseval_experiment, partition_sums

from helpers import long_pair, mask_scale, random_bank


def run(args):
    return main([str(a) for a in args])


def load(path):
    return json.loads(path.read_text())


def canonical(payload):
    payload = dict(payload)
    payload.pop("metadata", None)
    return json.dumps(payload, sort_keys=True)


def test_gen_haar(tmp_path):
    out = tmp_path / "haar2.json"
    assert run(["gen", "haar", "--p", 2, "--c", 1, "--out", out]) == 0
    obj = load(out)
    assert len(obj["masks"]) == 2
    assert obj["field"] == {"p": 2, "c": 1, "modulus": [0, 1]}
    out3 = tmp_path / "haar3.json"
    assert run(["gen", "haar", "--p", 3, "--out", out3]) == 0
    assert len(load(out3)["masks"]) == 3
    # no table lists GF(256): its modulus is the least-code irreducible
    out256 = tmp_path / "haar256.json"
    assert run(["gen", "haar", "--p", 2, "--c", 8, "--out", out256]) == 0
    assert load(out256)["field"] == {"p": 2, "c": 8, "modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1]}


def test_unknown_kinds_exit_2(tmp_path, capsys):
    # argparse refuses them before any command runs
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    assert run(["gen", "daubechies", "--p", 2, "--out", tmp_path / "x.json"]) == 2
    assert run(["experiment", "--kind", "energy", "--bank", bank,
                "--out", tmp_path / "e.json"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "e.json").exists()


def test_gen_rejects_nonprime(tmp_path):
    assert run(["gen", "haar", "--p", 4, "--out", tmp_path / "x.json"]) == 2


def test_gen_rejects_field_beyond_address_space(tmp_path):
    # 2**61 - 1 is prime; its q*q tables cannot be addressed, and the CLI
    # says so before any primality search
    start = time.perf_counter()
    done = _run_limited(["gen", "haar", "--p", 2 ** 61 - 1, "--out", tmp_path / "x.json"])
    assert time.perf_counter() - start < 2.0
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    # tables that fit the address space but not the memory cap still exit 3
    done = _run_limited(["gen", "haar", "--p", 1000003, "--out", tmp_path / "y.json"])
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr


def _clear_field_caches():
    """Empty every cache in the package, so each command builds its field
    state anew."""
    for name, module in list(sys.modules.items()):
        if name == "framefield" or name.startswith("framefield."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.mark.parametrize("p, c", [(3, 2), (2, 4)], ids=["GF9", "GF16"])
def test_commands_search_no_discrete_log(tmp_path, monkeypatch, p, c):
    # the discrete logarithm serves only the per-point reference route
    def refuse(params):
        raise RuntimeError("discrete-log search on the CLI path")

    monkeypatch.setattr(reference, "_primitive_powers", refuse)
    _clear_field_caches()
    bank, pair = tmp_path / "bank.json", tmp_path / "pair.json"
    signal = ["--signal-size", 3, "--levels", 2, "--trials", 4]
    commands = [
        ["gen", "haar", "--p", p, "--c", c, "--out", bank],
        ["verify", bank, "--checks", "uep,subqmf,polyphase", "--out", tmp_path / "report.json"],
        ["pair", "--primal", bank, "--dual", bank, "--seed", 5, "--out", pair],
        ["family", "--bank", bank, "--seed", 3, "--size", 2, "--out-dir", tmp_path / "family"],
        ["experiment", "--kind", "parseval", "--bank", bank, *signal,
         "--out", tmp_path / "parseval.json"],
        ["experiment", "--kind", "mixed", "--pair", pair, *signal,
         "--out", tmp_path / "mixed.json"],
        ["experiment", "--kind", "cascade", "--bank", bank, "--levels", 6, "--hat-neg", 2,
         "--hat-pos", 2, "--out", tmp_path / "cascade.json"],
    ]
    assert [run(args) for args in commands] == [0] * len(commands)


def test_verify_haar_all_checks(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    report = tmp_path / "report.json"
    code = run(["verify", bank, "--checks", "uep,subqmf,polyphase", "--out", report])
    assert code == 0
    obj = load(report)
    assert len(obj["reports"]) == 3
    assert all(r["pass"] for r in obj["reports"])
    assert obj["provenance"]["inputs"]


def test_verify_zero_wavelet_fails(tmp_path, p2, haar2):
    bank_obj = FilterBank(p2, haar2.m0, (zero_mask(p2),)).to_json()
    bank = tmp_path / "zero.json"
    bank.write_text(json.dumps(bank_obj))
    report = tmp_path / "report.json"
    code = run(["verify", bank, "--checks", "uep", "--out", report])
    assert code == 1
    obj = load(report)
    assert obj["reports"][0]["max_deviation"] == pytest.approx(1.0, abs=1e-12)


def test_verify_malformed_json(tmp_path):
    bank = tmp_path / "broken.json"
    bank.write_text('{"field": {"p": 2')
    assert run(["verify", bank, "--out", tmp_path / "r.json"]) == 2


def _error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]


def test_verify_directory_input(tmp_path, capsys):
    assert run(["verify", tmp_path, "--out", tmp_path / "r.json"]) == 2
    assert len(_error_lines(capsys)) == 1


def test_verify_non_utf8_input(tmp_path, capsys):
    bank = tmp_path / "latin1.json"
    bank.write_bytes(b'{"field": "\xe9"}')
    assert run(["verify", bank, "--out", tmp_path / "r.json"]) == 2
    assert len(_error_lines(capsys)) == 1


def test_load_json_hashes_the_bytes_it_parsed(tmp_path, monkeypatch):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    reads = []
    read_bytes = Path.read_bytes

    def counted(path):
        data = read_bytes(path)
        reads.append(data)
        return data

    monkeypatch.setattr(Path, "read_bytes", counted)
    inputs = {}
    obj = _load_json(bank, inputs)
    assert len(reads) == 1
    # the coefficients come back as (n, 2) arrays of the parsed pairs
    for mask in obj["masks"]:
        assert mask["coeffs"].dtype == np.float64
        mask["coeffs"] = mask["coeffs"].tolist()
    assert obj == json.loads(reads[0])
    assert inputs == {str(bank): hashlib.sha256(reads[0]).hexdigest()}


def test_verify_output_is_directory(tmp_path, capsys):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    out = tmp_path / "taken"
    out.mkdir()
    assert run(["verify", bank, "--out", out]) == 2
    assert len(_error_lines(capsys)) == 1


def test_pair_rejects_banks_without_wavelets(tmp_path, capsys, p2, haar2):
    # the seeded matrix would have size 2L = 0, a size the user never gave:
    # the banks are refused before any matrix is built
    bank = tmp_path / "m0_only.json"
    bank.write_text(json.dumps(FilterBank(p2, haar2.m0, ()).to_json()))
    out = tmp_path / "pair.json"
    assert run(["pair", "--primal", bank, "--dual", bank, "--out", out]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(bank) in errors[0], err
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_mixed_on_banks_without_wavelets_sweeps_an_empty_cross_gram(tmp_path, capsys,
                                                                          p2, haar2):
    # no wavelet rows on either side: the cross Gram is empty, so it vanishes everywhere
    bank = tmp_path / "m0_only.json"
    bank.write_text(json.dumps(FilterBank(p2, haar2.m0, ()).to_json()))
    report = tmp_path / "report.json"
    assert run(["verify", bank, "--checks", "mixed", "--dual", bank, "--out", report]) == 0
    assert "Traceback" not in capsys.readouterr().err
    (mixed,) = load(report)["reports"]
    assert mixed["condition"] == "mixed_orthogonality"
    assert mixed["pass"] and mixed["max_deviation"] == 0.0


# a bank that cannot be paired with a GF(2) Haar bank, and FramePair's message
MISMATCHED_DUALS = pytest.mark.parametrize("dual, message", [
    ("haar3", "pair members must share field parameters"),
    ("two_wavelets", "pair members must have equal wavelet counts"),
], ids=["two-fields", "unequal-counts"])


def mismatched_dual(name, p2, p3, haar2):
    matrix = seeded_paraunitary(p2, 2, seed=1)
    return {"haar3": haar_bank(p3), "two_wavelets": orthogonal_family(haar2, matrix)[0]}[name]


@MISMATCHED_DUALS
@pytest.mark.parametrize("entry", ["FramePair", "check_mixed_orthogonality", "derive_pair"])
def test_two_banks_are_a_pair_by_one_rule(p2, p3, haar2, entry, dual, message):
    # every function that takes two banks as a pair refuses banks of two
    # fields or of unequal wavelet counts with FramePair's message
    dual = mismatched_dual(dual, p2, p3, haar2)
    call = {"FramePair": lambda: FramePair(haar2, dual),
            "check_mixed_orthogonality": lambda: check_mixed_orthogonality(haar2, dual, 2),
            "derive_pair": lambda: derive_pair(haar2, dual, seeded_paraunitary(p2, 2, seed=1))}
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call[entry]()


@MISMATCHED_DUALS
@pytest.mark.parametrize("command", ["pair", "verify"])
def test_commands_pair_banks_by_one_rule(tmp_path, capsys, p2, p3, haar2, command, dual, message):
    # as above, and the command exits 2 with that message as its one error line
    primal_path, dual_path = tmp_path / "primal.json", tmp_path / "dual.json"
    primal_path.write_text(json.dumps(haar2.to_json()))
    dual_path.write_text(json.dumps(mismatched_dual(dual, p2, p3, haar2).to_json()))
    args = {"pair": ["pair", "--primal", primal_path, "--dual", dual_path],
            "verify": ["verify", primal_path, "--checks", "mixed", "--dual", dual_path]}
    out = tmp_path / "out.json"
    assert run([*args[command], "--out", out]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {message}"], err
    assert "Traceback" not in err and not out.exists()


def test_verify_depth_too_small(tmp_path, p2, haar2):
    matrix = seeded_paraunitary(p2, 2, seed=1)
    pair = derive_pair(haar2, haar2, matrix)
    bank = tmp_path / "long.json"
    bank.write_text(json.dumps(pair.primal.to_json()))
    assert run(["verify", bank, "--depth", 1, "--out", tmp_path / "r.json"]) == 3


def test_verify_rejects_nan_refinement_mask(tmp_path, haar2):
    obj = haar2.to_json()
    obj["masks"][0]["coeffs"][0] = [math.nan, 0.0]
    bank = tmp_path / "nan.json"
    bank.write_text(json.dumps(obj))
    out = tmp_path / "r.json"
    assert run(["verify", bank, "--out", out]) == 2
    assert not out.exists()


def test_verify_rejects_infinite_wavelet(tmp_path, haar2):
    obj = haar2.to_json()
    obj["masks"][1]["coeffs"][1] = [0.0, math.inf]
    bank = tmp_path / "inf.json"
    bank.write_text(json.dumps(obj))
    assert run(["verify", bank, "--out", tmp_path / "r.json"]) == 2


def test_verify_rejects_nan_tolerance(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    assert run(["verify", bank, "--tol", "nan", "--out", tmp_path / "r.json"]) == 2


AS_LIMIT = 1 << 30


def _child_env(**extra):
    """Environment for a CLI child that imports the framefield checkout under test."""
    src = str(Path(framefield.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_limited(args, timeout=120):
    """The CLI in a child process whose address space is capped."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))

    return subprocess.run(
        [sys.executable, "-m", "framefield.cli", *map(str, args)],
        env=_child_env(), preexec_fn=limit, capture_output=True, text=True, timeout=timeout,
    )


def test_memory_exhaustion_exits_3(tmp_path, haar2):
    # a parseval run on a q = 2 signal of 2**27 complex samples allocates
    # 2 GiB, far beyond the 1 GiB cap
    bank = tmp_path / "haar2.json"
    bank.write_text(json.dumps(haar2.to_json()))
    small = ["experiment", "--kind", "parseval", "--bank", bank, "--levels", 1, "--trials", 1]
    # the same cap leaves ample room for an ordinary run
    assert _run_limited([*small, "--out", tmp_path / "small_r.json"]).returncode == 0
    done = _run_limited([*small, "--signal-size", 27, "--out", tmp_path / "big_r.json"])
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert "out of memory" in done.stderr


@pytest.mark.parametrize("power", [28, 62])
def test_banks_and_matrices_wider_than_any_grid_exit_3(tmp_path, p2, haar2, power):
    # a two-coefficient wavelet of stride 2**power spans 2**power + 1 block
    # columns: the block is refused before it is allocated, under a cap
    # far below its size
    obj = haar2.to_json()
    obj["masks"][1] = {"role": "wavelet", "stride": 2 ** power, "coeffs": [[1.0, 0.0], [1.0, 0.0]]}
    bank = tmp_path / "wide.json"
    bank.write_text(json.dumps(obj))
    pu = seeded_paraunitary(p2, 2, seed=1).to_json()
    pu["entries"][1][0] = obj["masks"][1]
    pu_file = tmp_path / "pu.json"
    pu_file.write_text(json.dumps(pu))
    haar = tmp_path / "haar2.json"
    haar.write_text(json.dumps(haar2.to_json()))
    for args in (["verify", bank, "--out", tmp_path / "r.json"],
                 ["experiment", "--kind", "parseval", "--bank", bank, "--out", tmp_path / "e.json"],
                 ["family", "--bank", haar, "--paraunitary", pu_file, "--out-dir", tmp_path / "f"]):
        done = _run_limited(args)
        assert done.returncode == 3, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr


def _without_depth(payload, depth):
    """``payload`` without its metadata and the places its depth appears."""
    payload = {key: value for key, value in payload.items() if key != "metadata"}
    assert payload["provenance"]["config"].pop("depth") == depth
    for report in payload["reports"]:
        assert report.pop("grid_depth") == depth
    return payload


@pytest.mark.parametrize("command", ["verify", "pair"])
def test_depth_far_above_covering_depth_reports_as_covering_depth(tmp_path, haar3, command):
    # the requested depth is only compared with the covering depth and the
    # worst point takes only its grid index's digits, so 10**9 and 10**5
    # (which ran past 20 s) report as depth 7 does, apart from the depth
    banks = {"haar16": haar_bank(galois.FieldParams(2, 4)),
             "family3": orthogonal_family(haar3, seeded_paraunitary(haar3.params, 2, 3))[0]}
    for name, bank in banks.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bank.to_json()))
        args = (["verify", path] if command == "verify"
                else ["pair", "--primal", path, "--dual", path, "--seed", 3])
        payloads = []
        for depth in (7, 10 ** 9 if command == "verify" else 10 ** 5):
            out = tmp_path / f"{name}-{depth}.json"
            done = _run_limited([*args, "--depth", depth, "--out", out], timeout=20)
            assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
            payloads.append(_without_depth(load(out), depth))
        assert payloads[0] == payloads[1]


@pytest.mark.parametrize("kind, flag", [("cascade", "--hat-pos"), ("partition", "--hat-neg")])
def test_hat_window_past_the_grid_cap_exits_3_at_once(tmp_path, haar3, kind, flag):
    # a window of 10**8 powers is past the cap; its 3**(10**8) points are never counted
    bank = tmp_path / "haar3.json"
    bank.write_text(json.dumps(haar3.to_json()))
    done = _run_limited(["experiment", "--kind", kind, "--bank", bank, flag, 10 ** 8,
                         "--out", tmp_path / "e.json"], timeout=20)
    assert done.returncode == 3, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: grid of 3^"), done.stderr


@pytest.mark.parametrize("command", ["parseval", "family"])
def test_arrays_past_the_address_space_exit_3(tmp_path, haar3, command):
    # past the address space numpy raises ValueError, not MemoryError: such
    # sizes are refused first, while sizes that fit still meet the memory cap
    bank = tmp_path / "haar3.json"
    bank.write_text(json.dumps(haar3.to_json()))
    if command == "parseval":
        args = ["experiment", "--kind", "parseval", "--bank", bank, "--levels", 1, "--trials", 1,
                "--out", tmp_path / "e.json", "--signal-size"]
        sizes = (100, 30)
    else:
        args = ["family", "--bank", bank, "--out-dir", tmp_path / "f", "--size"]
        sizes = (10 ** 10, 10 ** 6)
    for size, message in zip(sizes, ("exceeds the address space", "out of memory")):
        done = _run_limited([*args, size], timeout=20)
        assert done.returncode == 3, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
        assert message in lines[0]


def test_unknown_backend_variable_is_ignored(tmp_path):
    # the CLI reads no backend setting: a leftover FRAMEFIELD_BACKEND is inert
    out = subprocess.run(
        [sys.executable, "-m", "framefield.cli", "gen", "haar", "--p", "2",
         "--out", str(tmp_path / "bank.json")],
        env=_child_env(FRAMEFIELD_BACKEND="cuda"), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


def test_verify_mixed_needs_dual(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    assert run(["verify", bank, "--checks", "mixed", "--out", tmp_path / "r.json"]) == 2


def test_verify_unknown_check(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    assert run(["verify", bank, "--checks", "qqq", "--out", tmp_path / "r.json"]) == 2


def test_pair_roundtrip(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    out = tmp_path / "pair.json"
    code = run(["pair", "--primal", bank, "--dual", bank, "--seed", 5, "--out", out])
    assert code == 0
    obj = load(out)
    assert {r["condition"] for r in obj["reports"]} == {"uep", "mixed_orthogonality"}
    assert all(r["pass"] for r in obj["reports"])
    assert obj["provenance"]["algorithm"] == "derive_pair"
    assert len(obj["primal"]["masks"]) == 3  # m0 + 2L wavelets


def test_pair_self_dual_via_mixed_check(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    pair_file = tmp_path / "pair.json"
    run(["pair", "--primal", bank, "--dual", bank, "--seed", 7, "--out", pair_file])
    # the two derived banks are cross-verifiable through the CLI as well
    obj = load(pair_file)
    primal = tmp_path / "primal.json"
    dual = tmp_path / "dual.json"
    primal.write_text(json.dumps(obj["primal"]))
    dual.write_text(json.dumps(obj["dual"]))
    code = run([
        "verify", primal, "--checks", "uep,mixed", "--dual", dual,
        "--out", tmp_path / "r.json",
    ])
    assert code == 0


def test_family_outputs(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    out_dir = tmp_path / "fam"
    code = run([
        "family", "--bank", bank, "--seed", 3, "--size", 3, "--out-dir", out_dir,
    ])
    assert code == 0
    banks = sorted(out_dir.glob("family_*.json"))
    assert len(banks) == 3
    reports = load(out_dir / "reports.json")["reports"]
    assert len(reports) == 3 + 3  # 3 UEP + C(3,2) mixed
    assert all(r["pass"] for r in reports)


def test_paraunitary_file_input(tmp_path, p2):
    matrix = seeded_paraunitary(p2, 2, seed=11)
    pu = tmp_path / "pu.json"
    pu.write_text(json.dumps(matrix.to_json()))
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    out = tmp_path / "pair.json"
    code = run([
        "pair", "--primal", bank, "--dual", bank, "--paraunitary", pu, "--out", out,
    ])
    assert code == 0
    assert str(pu) in load(out)["provenance"]["inputs"]


def test_family_takes_its_size_from_the_paraunitary_file(tmp_path, p2, capsys):
    # no --size: the file's header gives the size, and an explicit --size
    # only has to agree with it
    pu = tmp_path / "pu3.json"
    pu.write_text(json.dumps(constant_paraunitary(p2, 3, seed=1).to_json()))
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    for extra, out_dir in (([], tmp_path / "fam"), (["--size", 3], tmp_path / "fam3")):
        assert run(["family", "--bank", bank, "--paraunitary", pu, *extra,
                    "--out-dir", out_dir]) == 0
        assert len(list(out_dir.glob("family_*.json"))) == 3
        assert load(out_dir / "reports.json")["provenance"]["config"]["size"] == 3
    assert "Traceback" not in capsys.readouterr().err
    assert canonical(load(tmp_path / "fam" / "family_2.json")) == canonical(
        load(tmp_path / "fam3" / "family_2.json"))


def test_paraunitary_file_of_another_field_is_input_error(tmp_path, capsys):
    # the matrix keeps the field its file names: GF(4) entries, of stride
    # 4 = 2**2, are not read as GF(2) masks and mixed into GF(2) banks
    bank, pu = tmp_path / "haar2.json", tmp_path / "pu4.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    pu.write_text(json.dumps(seeded_paraunitary(FieldParams(2, 2), 2, seed=4).to_json()))
    for args, out in (
        (["pair", "--primal", bank, "--dual", bank, "--out"], tmp_path / "pair.json"),
        (["family", "--bank", bank, "--out-dir"], tmp_path / "family"),
    ):
        assert run([*args, out, "--paraunitary", pu]) == 2
        errors = _error_lines(capsys)
        assert len(errors) == 1 and "field parameters" in errors[0], errors
        assert not out.exists()


def test_paraunitary_bad_size(tmp_path, p2, capsys):
    obj = seeded_paraunitary(p2, 2, seed=11).to_json()
    obj["size"] = "x"
    pu = tmp_path / "pu.json"
    pu.write_text(json.dumps(obj))
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    code = run([
        "pair", "--primal", bank, "--dual", bank, "--paraunitary", pu,
        "--out", tmp_path / "pair.json",
    ])
    assert code == 2
    assert len(_error_lines(capsys)) == 1


def test_paraunitary_file_is_checked_before_its_entries_are_read(tmp_path, capsys, monkeypatch):
    # a matrix of the wrong size or field is rejected from its size and
    # field alone: no entry row is read and nothing is certified
    from framefield import construct

    def refuse(*args, **kwargs):
        raise AssertionError("entry read or certified")

    bank, pu3, pu4 = tmp_path / "haar2.json", tmp_path / "pu3.json", tmp_path / "pu4.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    pu3.write_text(json.dumps(seeded_paraunitary(FieldParams(2, 1), 3, seed=1).to_json()))
    pu4.write_text(json.dumps(seeded_paraunitary(FieldParams(2, 2), 2, seed=1).to_json()))
    monkeypatch.setattr(construct.Paraunitary, "_of_entries", refuse)
    monkeypatch.setattr(construct.Paraunitary, "unitarity_report", refuse)
    for args, out in (
        (["pair", "--primal", bank, "--dual", bank, "--paraunitary", pu3, "--out"],
         tmp_path / "pair.json"),
        (["family", "--bank", bank, "--size", 2, "--paraunitary", pu3, "--out-dir"],
         tmp_path / "family"),
        (["family", "--bank", bank, "--paraunitary", pu4, "--out-dir"], tmp_path / "family"),
    ):
        assert run([*args, out]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in err, err
        assert not out.exists()


@pytest.mark.parametrize("fault, message", [
    ({"coeffs": [[float("nan"), 0.0]]}, "mask coefficients must be finite"),
    ({"stride": 3}, "stride must be a power of q, got 3"),
])
def test_paraunitary_file_fault_in_its_last_entry_exits_2(tmp_path, capsys, gf4, fault, message):
    # the whole-array checks reach the last entry of a 6 x 6 matrix file
    bank, pu = tmp_path / "haar4.json", tmp_path / "pu6.json"
    run(["gen", "haar", "--p", 2, "--c", 2, "--out", bank])
    obj = constant_paraunitary(gf4, 6, 1).to_json()
    obj["entries"][-1][-1].update(fault)
    pu.write_text(json.dumps(obj))
    out = tmp_path / "pair.json"
    assert run(["pair", "--primal", bank, "--dual", bank, "--paraunitary", pu, "--out", out]) == 2
    assert _error_lines(capsys) == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("size", [0, -1])
def test_paraunitary_file_of_no_size_names_it(tmp_path, capsys, p2, size):
    obj = seeded_paraunitary(p2, 2, seed=11).to_json()
    obj["size"], obj["entries"] = size, []
    pu = tmp_path / "pu.json"
    pu.write_text(json.dumps(obj))
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    out = tmp_path / "family"
    assert run(["family", "--bank", bank, "--paraunitary", pu, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: matrix size must be at least 1, got {size}"]
    assert not out.exists()


def test_experiment_parseval(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    out = tmp_path / "exp.json"
    code = run([
        "experiment", "--kind", "parseval", "--bank", bank,
        "--signal-size", 5, "--levels", 3, "--trials", 4, "--out", out,
    ])
    assert code == 0
    rows = (tmp_path / "exp.csv").read_text().strip().splitlines()
    assert rows[0] == "trial,deviation"
    assert len(rows) == 5


def test_experiment_mixed(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    pair_file = tmp_path / "pair.json"
    run(["pair", "--primal", bank, "--dual", bank, "--seed", 2, "--out", pair_file])
    out = tmp_path / "exp.json"
    code = run([
        "experiment", "--kind", "mixed", "--pair", pair_file,
        "--signal-size", 5, "--levels", 3, "--trials", 4, "--out", out,
    ])
    assert code == 0
    assert load(out)["reports"][0]["condition"] == "mixed_frame"


def test_experiment_cascade_and_partition(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    cas = tmp_path / "cascade.json"
    assert run(["experiment", "--kind", "cascade", "--bank", bank, "--out", cas]) == 0
    obj = load(cas)
    assert obj["stabilized_at"] == 3
    rows = (tmp_path / "cascade.csv").read_text().strip().splitlines()
    assert rows[0] == "index,re,im"
    assert len(rows) == 1 + 2 ** 5

    part = tmp_path / "part.json"
    code = run([
        "experiment", "--kind", "partition", "--bank", bank, "--trials", 4, "--out", part,
    ])
    assert code == 0
    assert load(part)["reports"][0]["pass"] is True


def test_partition_run_computes_its_sums_once(tmp_path, monkeypatch):
    # the report and the CSV come from one partition_sums call
    from framefield import verify

    calls = []

    def counted(phihat, translates):
        calls.append(translates)
        return partition_sums(phihat, translates)

    monkeypatch.setattr(verify, "partition_sums", counted)
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 3, "--out", bank])
    out = tmp_path / "part.json"
    assert run(["experiment", "--kind", "partition", "--bank", bank, "--trials", 9,
                "--out", out]) == 0
    assert calls == [9]
    sums = partition_sums(cascade_phihat(haar_bank(FieldParams(3, 1)).m0, 4), 9)
    rows = (tmp_path / "part.csv").read_text().splitlines()
    assert rows == ["base_index,sum", *(f"{i},{s!r}" for i, s in enumerate(sums.tolist()))]
    assert load(out)["reports"][0]["max_deviation"] == float(np.abs(sums - 1.0).max())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_partition_default_translates_fit_the_ball(tmp_path, capsys, p):
    # 20 translates, capped at the q**2 points of the default --hat-neg 2
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", p, "--out", bank])
    out = tmp_path / "part.json"
    assert run(["experiment", "--kind", "partition", "--bank", bank, "--out", out]) == 0
    assert len((tmp_path / "part.csv").read_text().splitlines()) == p ** 3 + 1
    obj = load(out)
    assert obj["provenance"]["config"]["trials"] == min(20, p ** 2)
    assert obj["reports"][0]["details"]["translates"] == min(20, p ** 2)
    # an explicit count past the ball is still refused
    past = max(20, p ** 2 + 1)
    assert run(["experiment", "--kind", "partition", "--bank", bank, "--trials", past,
                "--out", tmp_path / "past.json"]) == 3
    assert f"{past} translates exceed the coverage ball" in capsys.readouterr().err


def _csv_writer_bytes(header, rows):
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode()


def test_experiment_csv_bytes_match_csv_writer(tmp_path, p3):
    # a random bank, its m0 scaled to m0(0) = 1, gives cascade values with
    # full-length float reprs
    raw = random_bank(p3, 5, max_delay=2)
    at_zero = mask_values_on_grid([raw.m0], 1)[0, 0]
    bank_file = tmp_path / "bank.json"
    normalized = FilterBank(p3, mask_scale(raw.m0, 1 / at_zero), raw.wavelets)
    bank_file.write_text(json.dumps(normalized.to_json()))
    bank = FilterBank.from_json(load(bank_file))
    haar_file = tmp_path / "haar.json"
    run(["gen", "haar", "--p", 3, "--out", haar_file])
    hat_args = ["--levels", 6, "--hat-neg", 2, "--hat-pos", 2]

    assert run(["experiment", "--kind", "cascade", "--bank", bank_file, *hat_args,
                "--out", tmp_path / "cas.json"]) == 0
    hat = cascade_phihat(bank.m0, 6, 2, 2)
    rows = [(h, z.real, z.imag) for h, z in enumerate(hat.values)]
    expected = _csv_writer_bytes(("index", "re", "im"), rows)
    assert (tmp_path / "cas.csv").read_bytes() == expected

    run(["experiment", "--kind", "partition", "--bank", bank_file, *hat_args,
         "--trials", 5, "--out", tmp_path / "part.json"])
    sums = partition_sums(hat, 5)
    expected = _csv_writer_bytes(("base_index", "sum"), list(enumerate(sums)))
    assert (tmp_path / "part.csv").read_bytes() == expected

    assert run(["experiment", "--kind", "parseval", "--bank", haar_file, "--signal-size", 4,
                "--levels", 2, "--trials", 3, "--seed", 4, "--out", tmp_path / "pv.json"]) == 0
    report = parseval_experiment(FilterBank.from_json(load(haar_file)), 4, 2, 3, seed=4)
    rows = list(enumerate(report.details["per_trial"]))
    assert (tmp_path / "pv.csv").read_bytes() == _csv_writer_bytes(("trial", "deviation"), rows)


def test_write_csv_bytes_match_csv_writer_across_blocks(tmp_path, rng):
    csv_block = kernels.BLOCK_BYTES // 64
    n = 2 * csv_block + 17
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e308, -1e308,
                        np.inf, -np.inf, np.nan, 0.1, 1 / 3])
    reals = np.where(rng.random(n) < 0.5, rng.choice(special, n), rng.standard_normal(n))
    reals[csv_block - 3:csv_block + 3] = [-0.0, 0.0, -0.0, 1e308, -0.0, 0.0]
    imags = np.where(rng.random(n) < 0.5, rng.choice(special, n), rng.standard_normal(n))
    values = np.empty(n, dtype=np.complex128)  # reals + 1j * imags would turn inf into nan
    values.real, values.imag = reals, imags
    series = {
        "float array": (("k", "v"), reals, [(i, x) for i, x in enumerate(reals.tolist())]),
        "float list": (("k", "v"), reals.tolist(), [(i, x) for i, x in enumerate(reals.tolist())]),
        "complex array": (("k", "re", "im"), values,
                          list(zip(range(n), reals.tolist(), imags.tolist()))),
        "empty": (("k", "v"), np.zeros(0), []),
    }
    for name, (header, rows, expected) in series.items():
        path = tmp_path / f"{name}.csv"
        _write_csv(path, header, rows)
        assert path.read_bytes() == _csv_writer_bytes(header, expected), name


def test_write_csv_memory_is_one_block(tmp_path, haar2):
    values = cascade_phihat(haar2.m0, 12, 8, 10).values
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "cascade.csv", ("index", "re", "im"), values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


class _Blocks:
    """A sized sequence of values held as separate blocks: a slice is put
    together from the blocks it crosses, as a new array."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.starts = np.cumsum([0, *map(len, blocks)])

    def __len__(self):
        return int(self.starts[-1])

    def __getitem__(self, index):
        start, stop, _ = index.indices(len(self))
        parts = [block[max(start - at, 0):max(stop - at, 0)]
                 for block, at in zip(self.blocks, self.starts)]
        return np.concatenate([part for part in parts if len(part)] or [self.blocks[0][:0]])


CSV_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324]))


@given(
    reals=st.lists(CSV_FLOATS, min_size=1, max_size=40),
    data=st.data(),
    is_complex=st.booleans(),
    csv_block=st.integers(1, 5),
)
def test_write_csv_from_blocks_matches_the_whole_array(tmp_path_factory, reals, data, is_complex,
                                                       csv_block):
    values = np.array(reals)
    header = ("k", "v")
    if is_complex:
        imags = data.draw(st.lists(CSV_FLOATS, min_size=len(reals), max_size=len(reals)))
        values = np.empty(len(reals), dtype=np.complex128)  # keeps inf and -0.0 apart
        values.real, values.imag = reals, imags
        header = ("k", "re", "im")
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=4)))
    blocks = _Blocks([values[a:b] for a, b in zip([0, *cuts], [*cuts, len(values)])])
    tmp = tmp_path_factory.mktemp("csv")
    _write_csv(tmp / "whole.csv", header, values)
    for size in (1, csv_block):
        with mock.patch.object(kernels, "BLOCK_BYTES", 64 * size):
            _write_csv(tmp / "blocks.csv", header, blocks)
        assert (tmp / "blocks.csv").read_bytes() == (tmp / "whole.csv").read_bytes()


def _hat_command_peak(tmp_path, kind, bank, hat_neg, hat_pos):
    """Traced peak of a GF(2) cascade or partition run in process."""
    out = tmp_path / f"{kind}-{hat_neg}-{hat_pos}.json"
    tracemalloc.start()
    try:
        assert run(["experiment", "--kind", kind, "--bank", bank, "--levels", 12,
                    "--hat-neg", hat_neg, "--hat-pos", hat_pos, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = 2 ** (hat_neg + hat_pos) if kind == "cascade" else 2 ** hat_pos
    assert len(out.with_suffix(".csv").read_text().splitlines()) == lines + 1
    return peak


def test_cascade_command_memory_does_not_grow_with_the_window(tmp_path):
    # the CSV is computed as it is written, one block of lines at a time:
    # a window four times larger (4 MB of values more, were they held)
    # costs less than one cascade block of values (512 kB) more
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    _hat_command_peak(tmp_path, "cascade", bank, 2, 2)  # field tables and imports
    small = _hat_command_peak(tmp_path, "cascade", bank, 8, 8)
    large = _hat_command_peak(tmp_path, "cascade", bank, 8, 10)
    assert abs(large - small) < 2 * kernels.BLOCK_BYTES


def test_partition_command_computes_only_its_translates(tmp_path):
    # at --hat-neg 11 the sums read 20 x 2**11 of the 2**22 hat points, a
    # 64 MB window were it held: the run costs as much as one with a window
    # of 2**13 points, within 2 MB
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    _hat_command_peak(tmp_path, "partition", bank, 2, 2)  # field tables and imports
    small = _hat_command_peak(tmp_path, "partition", bank, 2, 11)
    large = _hat_command_peak(tmp_path, "partition", bank, 11, 11)
    assert large - small < 2 * 2 ** 20


def _block_outputs(root, bank, pair, primal, dual):
    """Run every command that runs a blocked loop, with its outputs under
    ``root``; returns each output: a JSON payload without ``metadata``, or
    the bytes of a CSV."""
    signal = ["--signal-size", 4, "--levels", 2, "--trials", 2, "--seed", 1]
    hat = ["--levels", 12, "--hat-neg", 2, "--hat-pos", 3]
    commands = {
        "verify": ["verify", primal, "--checks", "uep,subqmf,polyphase,mixed", "--dual", dual],
        "pair": ["pair", "--primal", bank, "--dual", bank, "--seed", 3],
        "family": ["family", "--bank", bank, "--size", 3, "--seed", 2],
        "parseval": ["experiment", "--kind", "parseval", "--bank", primal, *signal],
        "mixed": ["experiment", "--kind", "mixed", "--pair", pair, *signal],
        "cascade": ["experiment", "--kind", "cascade", "--bank", primal, *hat],
        "partition": ["experiment", "--kind", "partition", "--bank", primal, *hat],
    }
    root.mkdir()
    for name, args in commands.items():
        out = ["--out-dir", root / name] if name == "family" else ["--out", root / f"{name}.json"]
        assert run([*args, *out]) in (0, 1), name
    return {path.relative_to(root): canonical(load(path)) if path.suffix == ".json"
            else path.read_bytes() for path in root.rglob("*.*")}


def test_outputs_do_not_depend_on_the_block_size(tmp_path):
    # every blocked loop sizes its blocks through kernels.BLOCK_BYTES: at 16
    # bytes a block holds one item (a value, a row, a representative, a
    # residue, a translate or a CSV line) or two hat points, and each
    # command still writes what it writes at the default
    pair = long_pair(FieldParams(3), 4, 1)  # 15 slots: the polyphase table has 9 residues
    files = {name: tmp_path / f"{name}.json" for name in ("bank", "pair", "primal", "dual")}
    run(["gen", "haar", "--p", 3, "--out", files["bank"]])
    for name, value in (("pair", pair), ("primal", pair.primal), ("dual", pair.dual)):
        files[name].write_text(json.dumps(value.to_json()))
    outputs = []
    for block_bytes in (kernels.BLOCK_BYTES, 16):
        _character_factor.cache_clear()  # the factor is built in blocks too
        with mock.patch.object(kernels, "BLOCK_BYTES", block_bytes):
            outputs.append(_block_outputs(tmp_path / str(block_bytes), **files))
    assert len(outputs[0]) == 14, sorted(outputs[0])
    assert outputs[0] == outputs[1]


def test_experiment_missing_input(tmp_path):
    assert run(["experiment", "--kind", "parseval", "--out", tmp_path / "x.json"]) == 2


def test_determinism_modulo_metadata(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run(["pair", "--primal", bank, "--dual", bank, "--seed", 9, "--out", out]) == 0
    pa, pb = load(a), load(b)
    assert pa["metadata"]["created"]  # timestamps live only here
    assert canonical(pa) == canonical(pb)


def test_cli_rejects_bad_flags():
    assert run(["gen", "haar", "--p", "two"]) == 2
    assert run(["nonsense"]) == 2


def test_verify_rejects_empty_check_list(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    for checks in ("", " , "):
        assert run(["verify", bank, "--checks", checks, "--out", tmp_path / "r.json"]) == 2
    assert not (tmp_path / "r.json").exists()


def _experiment_sources(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    pair_file = tmp_path / "pair.json"
    run(["pair", "--primal", bank, "--dual", bank, "--seed", 2, "--out", pair_file])
    return {"parseval": ["--bank", bank], "mixed": ["--pair", pair_file]}


@pytest.mark.parametrize("kind", ["parseval", "mixed"])
@pytest.mark.parametrize(
    "sizes",
    [["--trials", 0], ["--levels", 0], ["--signal-size", -1, "--levels", -2]],
    ids=["no-trials", "no-levels", "negative-sizes"],
)
def test_experiment_rejects_empty_sizes(tmp_path, capsys, kind, sizes):
    source = _experiment_sources(tmp_path)[kind]
    out = tmp_path / "exp.json"
    assert run(["experiment", "--kind", kind, *source, *sizes, "--out", out]) == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["cascade", "partition"])
@pytest.mark.parametrize(
    "flag, value, message",
    [("--hat-neg", -1, "non-negative"), ("--hat-pos", -1, "non-negative"),
     ("--levels", 0, "at least 1")],
)
def test_experiment_rejects_bad_hat_window(tmp_path, capsys, kind, flag, value, message):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    out = tmp_path / "exp.json"
    assert run(["experiment", "--kind", kind, "--bank", bank, flag, value, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pair", "family", "experiment"])
def test_negative_seed_is_input_error(tmp_path, capsys, command):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    args = {
        "pair": ["pair", "--primal", bank, "--dual", bank, "--out", tmp_path / "pair.json"],
        "family": ["family", "--bank", bank, "--out-dir", tmp_path / "fam"],
        "experiment": ["experiment", "--kind", "parseval", "--bank", bank,
                       "--out", tmp_path / "exp.json"],
    }[command]
    assert run([*args, "--seed", -1]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bank]


def _with_number(obj, path, text):
    """``obj`` as JSON text with the entry at ``path`` replaced by the
    literal ``text`` (JSON has no way to write 1e999 as a Python float)."""
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "@NUMBER@"
    return json.dumps(obj).replace('"@NUMBER@"', text)


@pytest.mark.parametrize("path", [("field", "p"), ("masks", 1, "stride")], ids=["p", "stride"])
def test_overflowing_bank_number_is_input_error(tmp_path, capsys, haar2, path):
    bank = tmp_path / "bank.json"
    bank.write_text(_with_number(haar2.to_json(), path, "1e999"))
    out = tmp_path / "r.json"
    assert run(["verify", bank, "--out", out]) == 2
    assert len(_error_lines(capsys)) == 1
    assert not out.exists()


@pytest.mark.parametrize("path, text, name", [
    (("field", "p"), "3.9", "p"),
    (("field", "p"), '"3"', "p"),
    (("field", "c"), "2.2", "c"),
    (("field", "modulus", 0), "true", "modulus coefficient"),
    (("masks", 1, "stride"), "1.5", "stride"),
    (("masks", 1, "stride"), "true", "stride"),
    (("masks", 1, "stride"), '"1"', "stride"),
    (("size",), "2.7", "size"),
], ids=["p-float", "p-string", "c-float", "modulus-bool", "stride-float", "stride-bool",
        "stride-string", "size-float"])
def test_file_numbers_must_be_json_integers(tmp_path, capsys, path, text, name):
    # each of these was once read through int(): as GF(3), GF(9), stride 1, size 2
    params = FieldParams(3, 2)
    bank, pu = tmp_path / "bank.json", tmp_path / "pu.json"
    matrix = constant_paraunitary(params, 2, 1).to_json()
    if path[0] == "size":
        bank.write_text(json.dumps(haar_bank(params).to_json()))
        pu.write_text(_with_number(matrix, path, text))
    else:
        bank.write_text(_with_number(haar_bank(params).to_json(), path, text))
        pu.write_text(json.dumps(matrix))
    out = tmp_path / "fam"
    assert run(["family", "--bank", bank, "--paraunitary", pu, "--out-dir", out]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and f"{name} must be an integer" in lines[0], lines
    assert not out.exists()


def test_pair_with_a_dual_that_is_not_tight_is_rejected(tmp_path, capsys, p2, haar2):
    primal, dual = tmp_path / "primal.json", tmp_path / "dual.json"
    primal.write_text(json.dumps(haar2.to_json()))
    halved = FilterBank(p2, haar2.m0, [mask_scale(m, 0.5) for m in haar2.wavelets])
    dual.write_text(json.dumps(halved.to_json()))
    out = tmp_path / "pair.json"
    assert run(["pair", "--primal", primal, "--dual", dual, "--out", out]) == 1
    message = "dual input bank fails the tight-frame check"
    assert f"construction rejected: {message}" in capsys.readouterr().err
    obj = load(out)
    assert obj["rejected"] == message
    assert obj["report"]["condition"] == "uep" and obj["report"]["pass"] is False


def test_family_on_a_bank_that_is_not_tight_is_rejected(tmp_path, capsys, p2, haar2):
    bank = tmp_path / "bank.json"
    halved = FilterBank(p2, haar2.m0, [mask_scale(m, 0.5) for m in haar2.wavelets])
    bank.write_text(json.dumps(halved.to_json()))
    out = tmp_path / "fam"
    assert run(["family", "--bank", bank, "--out-dir", out]) == 1
    message = "input bank fails the tight-frame check"
    assert f"construction rejected: {message}" in capsys.readouterr().err
    obj = load(out / "reports.json")
    assert obj["rejected"] == message
    assert obj["report"]["condition"] == "uep" and obj["report"]["pass"] is False
    assert sorted(p.name for p in out.iterdir()) == ["reports.json"]


@pytest.mark.parametrize("text", [
    "9" * 5000,  # more digits than Python converts to an int
    "[" * 100000 + "]" * 100000,  # deeper than the parser recurses
], ids=["long-integer", "deep-nesting"])
def test_json_the_parser_refuses_is_input_error(tmp_path, capsys, haar2, text):
    bank = tmp_path / "bank.json"
    bank.write_text(_with_number(haar2.to_json(), ("field", "p"), text))
    out = tmp_path / "r.json"
    assert run(["verify", bank, "--out", out]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and "malformed JSON" in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("path, text, message", [
    (("field",), "null", "field must be a JSON object"),
    (("field",), "[3, 2]", "field must be a JSON object"),
    (("field",), '"GF(9)"', "field must be a JSON object"),
    (("field", "modulus"), "{}", "field modulus must be a JSON list"),
    (("field", "modulus"), '"1,0,1"', "field modulus must be a JSON list"),
], ids=["field-null", "field-list", "field-string", "modulus-object", "modulus-string"])
def test_field_is_an_object_and_its_modulus_a_list(tmp_path, capsys, path, text, message):
    bank = tmp_path / "bank.json"
    bank.write_text(_with_number(haar_bank(FieldParams(3, 2)).to_json(), path, text))
    out = tmp_path / "r.json"
    assert run(["verify", bank, "--out", out]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and message in lines[0], lines
    assert not out.exists()


def _rejection(capsys, out, condition) -> str:
    """Check for one ``construction rejected:`` line and no error line, and
    that ``out`` holds its message and a failed ``condition`` report; give
    the message."""
    err = capsys.readouterr().err.splitlines()
    lines = [line for line in err if line.startswith(("construction rejected: ", "error:"))]
    assert len(lines) == 1 and lines[0].startswith("construction rejected: "), err
    message = lines[0].removeprefix("construction rejected: ")
    obj = load(out)
    assert obj["rejected"] == message
    assert obj["report"]["condition"] == condition and obj["report"]["pass"] is False
    return message


def test_experiment_on_a_bank_that_is_not_tight_is_rejected(tmp_path, capsys):
    obj = haar_bank(FieldParams(3, 2)).to_json()
    obj["masks"][1]["coeffs"][0][0] += 0.1
    bank, out = tmp_path / "bank.json", tmp_path / "parseval.json"
    bank.write_text(json.dumps(obj))
    assert run(["experiment", "--kind", "parseval", "--bank", bank, "--signal-size", 2,
                "--levels", 1, "--trials", 2, "--out", out]) == 1
    assert _rejection(capsys, out, "uep") == "input bank fails the tight-frame check"
    assert not out.with_suffix(".csv").exists()


def test_family_with_a_matrix_that_is_not_paraunitary_is_rejected(tmp_path, capsys):
    params = FieldParams(3, 2)
    matrix = constant_paraunitary(params, 2, 1).to_json()
    matrix["entries"][0][0]["coeffs"][0][0] += 0.1
    bank, pu, out = tmp_path / "bank.json", tmp_path / "pu.json", tmp_path / "fam"
    bank.write_text(json.dumps(haar_bank(params).to_json()))
    pu.write_text(json.dumps(matrix))
    assert run(["family", "--bank", bank, "--paraunitary", pu, "--out-dir", out]) == 1
    message = _rejection(capsys, out / "reports.json", "paraunitary")
    assert message.startswith("matrix is not paraunitary"), message
    assert sorted(p.name for p in out.iterdir()) == ["reports.json"]


@pytest.mark.parametrize("full", [False, True], ids=["unopenable", "full-disk"])
def test_a_rejection_that_cannot_be_written_is_input_error(tmp_path, capsys, p2, haar2, full):
    if full and not os.path.exists("/dev/full"):
        pytest.skip("needs a device that is always full")
    bank, blocker, out = tmp_path / "bank.json", tmp_path / "file", tmp_path / "fam"
    halved = FilterBank(p2, haar2.m0, [mask_scale(m, 0.5) for m in haar2.wavelets])
    bank.write_text(json.dumps(halved.to_json()))
    if full:  # the report opens, and its first write fails
        out.mkdir()
        (out / "reports.json").symlink_to("/dev/full")
    else:  # the report's directory cannot be made
        blocker.write_text("")
        out = blocker / "fam"
    assert run(["family", "--bank", bank, "--out-dir", out]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1, lines


def test_overflowing_paraunitary_size_is_input_error(tmp_path, capsys, p2):
    pu = tmp_path / "pu.json"
    pu.write_text(_with_number(seeded_paraunitary(p2, 2, seed=11).to_json(), ("size",), "1e999"))
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    out = tmp_path / "pair.json"
    assert run(["pair", "--primal", bank, "--dual", bank, "--paraunitary", pu, "--out", out]) == 2
    assert len(_error_lines(capsys)) == 1
    assert not out.exists()


def test_verify_rejects_overflowing_refinement_mask(tmp_path, capsys, haar2):
    # finite coefficients whose sum overflows: m0(0) evaluates to NaN
    obj = haar2.to_json()
    obj["masks"][0]["coeffs"] = [[1e308, 1e308], [1e308, 1e308]]
    bank = tmp_path / "huge.json"
    bank.write_text(json.dumps(obj))
    out = tmp_path / "r.json"
    assert run(["verify", bank, "--out", out]) == 2
    assert "not normalized" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_refinement_mask_prints_one_error_line(tmp_path, haar2):
    # numpy warns once per call site and process: only a child shows it
    obj = haar2.to_json()
    obj["masks"][0]["coeffs"] = [[1e308, 1e308], [1e308, 1e308]]
    bank = tmp_path / "huge.json"
    bank.write_text(json.dumps(obj))
    done = subprocess.run(
        [sys.executable, "-m", "framefield.cli", "verify", str(bank), "--out",
         str(tmp_path / "r.json")],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr


def test_verify_mixed_records_dual_hash(tmp_path):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    pair_file = tmp_path / "pair.json"
    run(["pair", "--primal", bank, "--dual", bank, "--seed", 7, "--out", pair_file])
    primal, dual = tmp_path / "primal.json", tmp_path / "dual.json"
    primal.write_text(json.dumps(load(pair_file)["primal"]))
    dual.write_text(json.dumps(load(pair_file)["dual"]))
    out = tmp_path / "r.json"
    assert run(["verify", primal, "--checks", "mixed", "--dual", dual, "--out", out]) == 0
    inputs = load(out)["provenance"]["inputs"]
    assert inputs == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in (primal, dual)
    }


def test_benchmark_tracer_runs_a_cli_op(tmp_path, p2):
    # perfbench/tracer.py wraps framefield functions by name before it runs
    # the CLI, so renaming or deleting one of them fails here; the pair and
    # family ops reach the construction's and the matrix loader's wrappers
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    bank, pu = tmp_path / "bank.json", tmp_path / "pu.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    pu.write_text(json.dumps(seeded_paraunitary(p2, 2, seed=1).to_json()))
    signal = ["--signal-size", 4, "--levels", 2, "--trials", 3]
    ops = {
        "verify": ["verify", bank, "--out", tmp_path / "r.json"],
        "pair": ["pair", "--primal", bank, "--dual", bank, "--out", tmp_path / "pair.json"],
        "family": ["family", "--bank", bank, "--paraunitary", pu, "--out-dir", tmp_path / "family"],
        # the tracer reads len() of the rows passed to _write_csv and the
        # stabilized_at of the cascade's result
        "cascade": ["experiment", "--kind", "cascade", "--bank", bank, "--levels", 6,
                    "--out", tmp_path / "cascade.json"],
        "mixed": ["experiment", "--kind", "mixed", "--pair", tmp_path / "pair.json", *signal,
                  "--out", tmp_path / "mixed.json"],
    }
    counts = {}
    for name, args in ops.items():
        spans = tmp_path / f"{name}.npz"
        done = subprocess.run(
            [sys.executable, str(tracer), str(spans), f"0/{name}", "--", *map(str, args)],
            env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (name, done.stderr)
        with np.load(spans) as saved:
            counts[name] = json.loads(str(saved["counts"]))
    cascade = load(tmp_path / "cascade.json")
    assert counts["cascade"]["cli.write_csv.rows"] == cascade["points"] == 2 ** 5
    assert counts["cascade"]["verify.cascade.factors"] == cascade["stabilized_at"] - 1 > 0
    assert counts["mixed"]["cli.write_csv.rows"] == 3
    assert counts["mixed"]["verify.signal_samples"] == 3 * 2 ** 4


def test_experiments_run_without_the_construction_module(tmp_path):
    # verify needs only the mask layer, and the frame-pair file of a mixed
    # experiment is read by the mask layer's FramePair: neither the import
    # nor a cascade or mixed run loads construct
    bank, pair = tmp_path / "bank.json", tmp_path / "pair.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    run(["pair", "--primal", bank, "--dual", bank, "--seed", 3, "--out", pair])
    out = str(tmp_path / "experiment.json")
    cascade = ["experiment", "--kind", "cascade", "--bank", str(bank), "--out", out]
    mixed = ["experiment", "--kind", "mixed", "--pair", str(pair), "--out", out]
    script = "\n".join([
        "import sys",
        "import framefield.verify",
        "assert 'framefield.construct' not in sys.modules, 'import'",
        "from framefield.cli import main",
        f"assert main({cascade!r}) == 0",
        "assert 'framefield.construct' not in sys.modules, 'cascade'",
        f"assert main({mixed!r}) == 0",
        "assert 'framefield.construct' not in sys.modules, 'mixed'",
    ])
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_no_command_loads_the_reference_route(tmp_path):
    # the per-point oracle serves the tests and the benchmark's spot checks;
    # every command and check runs on the grid routes alone
    bank, pair, fam = (str(tmp_path / name) for name in ("bank.json", "pair.json", "fam"))
    signal = ["--signal-size", "3", "--levels", "2", "--trials", "4"]
    commands = [
        ["gen", "haar", "--p", "3", "--out", bank],
        ["pair", "--primal", bank, "--dual", bank, "--seed", "5", "--out", pair],
        ["family", "--bank", bank, "--seed", "3", "--size", "2", "--out-dir", fam],
        ["verify", f"{fam}/family_1.json", "--dual", f"{fam}/family_2.json",
         "--checks", "uep,subqmf,polyphase,mixed", "--out", str(tmp_path / "report.json")],
        ["experiment", "--kind", "parseval", "--bank", bank, *signal,
         "--out", str(tmp_path / "parseval.json")],
        ["experiment", "--kind", "mixed", "--pair", pair, *signal,
         "--out", str(tmp_path / "mixed.json")],
        ["experiment", "--kind", "cascade", "--bank", bank, "--out", str(tmp_path / "c.json")],
        ["experiment", "--kind", "partition", "--bank", bank, "--out", str(tmp_path / "p.json")],
    ]
    script = "\n".join([
        "import sys",
        "from framefield.cli import main",
        "assert 'framefield.reference' not in sys.modules, 'import'",
        f"for args in {commands!r}:",
        "    assert main(args) == 0, args",
        "    assert 'framefield.reference' not in sys.modules, args",
        "import framefield.reference",
    ])
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_console_main_freezes_the_start_up_objects(tmp_path, monkeypatch):
    # the collections at interpreter exit then skip numpy's and framefield's
    # module state; main() itself, which runs in process here, never freezes
    codes = []
    monkeypatch.setattr(sys, "argv", ["framefield", "gen", "haar", "--p", "2",
                                      "--out", str(tmp_path / "bank.json")])
    monkeypatch.setattr(sys, "exit", codes.append)
    try:
        framefield.cli.console_main()
        assert codes == [0]
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_benchmark_inputs_load_in_the_cli(tmp_path):
    # perfbench/inputs.py writes its pair with json.dump of to_json() and
    # the CLI reads it back: the plain-JSON contract between them
    inputs = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    pair = tmp_path / "lpair.json"
    for args in (
        [str(inputs), "longpair", str(pair), "--p", "3", "--delay", "4", "--seed", "1"],
        ["-m", "framefield.cli", "experiment", "--kind", "mixed", "--pair", str(pair),
         "--out", str(tmp_path / "exp.json")],
    ):
        done = subprocess.run([sys.executable, *args], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
