"""End-to-end CLI behavior: subcommands, files, exit codes, determinism."""

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import framefield
from framefield.cli import main
from framefield.construct import derive_pair, random_bank, seeded_paraunitary
from framefield.mask import FilterBank, mask_scale, mask_values_on_grid, zero_mask
from framefield.verify import cascade_phihat, parseval_experiment, partition_sums


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


def test_gen_rejects_nonprime(tmp_path):
    assert run(["gen", "haar", "--p", 4, "--out", tmp_path / "x.json"]) == 2


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


def test_verify_output_is_directory(tmp_path, capsys):
    bank = tmp_path / "bank.json"
    run(["gen", "haar", "--p", 2, "--out", bank])
    out = tmp_path / "taken"
    out.mkdir()
    assert run(["verify", bank, "--out", out]) == 2
    assert len(_error_lines(capsys)) == 1


def test_verify_depth_too_small(tmp_path, p2, haar2):
    matrix = seeded_paraunitary(p2, 2, seed=1)
    pair = derive_pair(haar2.wavelets, haar2.wavelets, haar2.m0, haar2.m0, matrix)
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


def _run_limited(args):
    """The CLI in a child process whose address space is capped."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))

    return subprocess.run(
        [sys.executable, "-m", "framefield.cli", *map(str, args)],
        env=_child_env(), preexec_fn=limit, capture_output=True, text=True, timeout=120,
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
