import json
import os
import subprocess
import sys

import numpy as np
import pytest

from schmidt_norms import fixtures
from schmidt_norms.cli import main
from schmidt_norms.linalg import BipartiteOperator
from schmidt_norms.matio import dump_bipartite, dump_ensemble, dump_map, write_json
from schmidt_norms.maps import reduction_map


@pytest.fixture()
def workdir(tmp_path):
    write_json(str(tmp_path / "ex51.json"), dump_bipartite(fixtures.example51(3)))
    write_json(str(tmp_path / "swap3.json"),
               dump_bipartite(fixtures.swap_operator(3)))
    write_json(str(tmp_path / "iso9.json"),
               dump_bipartite(fixtures.isotropic(0.9, 3)))
    write_json(str(tmp_path / "id2.json"),
               {"m": 1, "n": 2, "rows": 2, "cols": 2,
                "re": [[1.0, 0.0], [0.0, 1.0]]})
    write_json(str(tmp_path / "red3.json"), dump_map(reduction_map(3, 0.5)))
    return tmp_path


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_norm_sk_identity(workdir, capsys):
    code, report, err = _run(capsys, [
        "norm", "sk", str(workdir / "id2.json"), "--k", "1", "--seed", "1",
        "--restarts", "4"])
    assert code == 0
    assert report["command"] == "norm sk"
    assert report["result"]["value"] == pytest.approx(1.0, abs=1e-8)
    assert "sha256" in report["inputs"]["file"]
    assert "exit=0" in err


def test_fixture_emit_then_minorder(workdir, capsys):
    out = workdir / "gen.json"
    code = main(["fixtures", "emit", "example51", "--n", "3",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0 and out.exists()
    code, report, _ = _run(capsys, [
        "norm", "minorder", str(out), "--k", "2", "--seed", "7",
        "--restarts", "8"])
    assert code == 0
    assert report["result"]["value"] == pytest.approx(0.5, abs=1e-6)


def test_blockpos_refutation_exit_2_with_witness(workdir, capsys):
    code, report, _ = _run(capsys, [
        "cone", "blockpos", str(workdir / "swap3.json"), "--k", "2",
        "--seed", "3", "--restarts", "6"])
    assert code == 2
    res = report["result"]
    assert res["status"] == "refuted"
    assert res["min_value"] == pytest.approx(-1.0, abs=1e-6)
    # embedded witness reproduces the value independently
    wit = res["witness_vector"]
    v = np.asarray(wit["re"]) + 1j * np.asarray(wit["im"])
    swap = fixtures.swap_operator(3)
    assert np.real(v.conj() @ swap.mat @ v) == pytest.approx(res["min_value"],
                                                             abs=1e-6)


def test_recheck_round_trip(workdir, capsys):
    code, report, _ = _run(capsys, [
        "cone", "blockpos", str(workdir / "swap3.json"), "--k", "2",
        "--seed", "3", "--restarts", "6"])
    assert code == 2
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    code, recheck, _ = _run(capsys, [
        "oracle", "recheck", "--report", str(rp),
        "--file", str(workdir / "swap3.json")])
    assert code == 0
    assert recheck["result"]["match"] is True
    assert recheck["result"]["difference"] <= 1e-6


def test_witness_subcommand_detects_isotropic(workdir, capsys):
    from schmidt_norms.cones import reduction_witness
    write_json(str(workdir / "w32.json"), dump_bipartite(reduction_witness(3, 2)))
    code, report, _ = _run(capsys, [
        "cone", "witness", "--witness", str(workdir / "w32.json"),
        "--state", str(workdir / "iso9.json"), "--k", "2", "--seed", "5",
        "--restarts", "8"])
    assert code == 2
    assert report["result"]["pairing"] == pytest.approx(-0.35, abs=1e-9)
    assert report["result"]["sn_lower_bound"] == 3


def test_detect_subcommand(workdir, capsys):
    code, report, _ = _run(capsys, [
        "map", "detect", "--state", str(workdir / "iso9.json"),
        "--map", str(workdir / "red3.json"), "--k", "2", "--seed", "2",
        "--restarts", "8"])
    assert code == 2
    assert report["result"]["status"] == "detected"
    assert report["result"]["trace_norm_value"] > 1.0 + 1e-8


def test_determinism_modulo_runtime(workdir, capsys):
    argv = ["norm", "minorder", str(workdir / "ex51.json"), "--k", "1",
            "--seed", "11", "--restarts", "6"]
    _, r1, _ = _run(capsys, argv)
    _, r2, _ = _run(capsys, argv)
    r1.pop("runtime_ms")
    r2.pop("runtime_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_env_seed_default(workdir, capsys, monkeypatch):
    argv = ["norm", "minorder", str(workdir / "ex51.json"), "--k", "1",
            "--restarts", "6"]
    monkeypatch.setenv("SCHMIDT_NORMS_SEED", "11")
    _, env_run, _ = _run(capsys, argv)
    monkeypatch.delenv("SCHMIDT_NORMS_SEED")
    _, flag_run, _ = _run(capsys, argv + ["--seed", "11"])
    assert env_run["result"] == flag_run["result"]
    assert env_run["parameters"]["seed"] == 11


def test_malformed_input_exit_1(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text('{"rows": 2}')
    code, report, err = _run(capsys, [
        "norm", "sk", str(bad), "--k", "1"])
    assert code == 1
    assert report is None
    assert "cols" in err


def test_non_object_ensemble_exit_1(workdir, capsys):
    bad = workdir / "list.json"
    bad.write_text('["m", "n", "k", "terms"]')
    code, report, err = _run(capsys, [
        "cone", "verify-sn", "--state", str(workdir / "iso9.json"),
        "--ensemble", str(bad)])
    assert code == 1
    assert report is None
    assert err.startswith("error:") and "JSON object" in err


def test_verify_sn_non_psd_state_exit_1(workdir, capsys):
    # Hermitian with unit trace, but one negative eigenvalue
    not_psd = BipartiteOperator((3, 3), np.diag([2.0] + [-1.0 / 8] * 8))
    write_json(str(workdir / "notpsd.json"), dump_bipartite(not_psd))
    write_json(str(workdir / "ens.json"),
               dump_ensemble(fixtures.basis_product_ensemble(3, 3)))
    code, report, err = _run(capsys, [
        "cone", "verify-sn", "--state", str(workdir / "notpsd.json"),
        "--ensemble", str(workdir / "ens.json")])
    assert code == 1
    assert report is None
    assert err.startswith("error:") and "positive semidefinite" in err


def test_missing_file_exit_1(workdir, capsys):
    code, _, err = _run(capsys, [
        "norm", "sk", str(workdir / "absent.json"), "--k", "1"])
    assert code == 1
    assert "absent.json" in err


def test_bad_flag_exit_1(capsys):
    code, _, err = _run(capsys, ["norm", "sk"])
    assert code == 1
    assert err


@pytest.mark.parametrize("variant, flags", [
    ("minorder", ["--restarts", "0"]), ("minorder", ["--restarts", "-2"]),
    ("minorder", ["--max-iters", "-5"]), ("minorder", ["--tol", "nan"]),
    ("maxspace", ["--restarts", "0"])],
    ids=["restarts0", "restarts-2", "max-iters-5", "tol-nan", "maxspace-restarts0"])
def test_bad_budget_exit_1(workdir, capsys, variant, flags):
    code, report, err = _run(capsys, [
        "norm", variant, str(workdir / "ex51.json"), "--k", "1"] + flags)
    assert code == 1
    assert report is None
    assert err.startswith("error: ")


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--polish-steps", "-5"]],
                         ids=["samples0", "polish-steps-5"])
def test_oracle_bad_budget_exit_1(workdir, capsys, flags):
    code, report, err = _run(capsys, [
        "oracle", "sk", str(workdir / "ex51.json"), "--k", "1"] + flags)
    assert code == 1
    assert report is None
    assert err.startswith("error: ")


@pytest.mark.parametrize("variant, fname, k", [
    ("sk", "ex51.json", "0"), ("sk", "ex51.json", "4"),
    ("minorder", "ex51.json", "0"), ("blockmin", "swap3.json", "4"),
    ("omin", "ex51.json", "4"), ("idk", "red3.json", "0")],
    ids=["sk-k0", "sk-k4", "minorder-k0", "blockmin-k4", "omin-k4", "idk-k0"])
def test_oracle_out_of_range_k_exit_1(workdir, capsys, variant, fname, k):
    code, report, err = _run(capsys, [
        "oracle", variant, str(workdir / fname), "--k", k, "--samples", "200",
        "--polish-steps", "2"])
    assert code == 1
    assert report is None
    assert err.startswith("error: k=%s" % k)


def test_fixture_emit_isotropic_n1_exit_1(capsys):
    code = main(["fixtures", "emit", "isotropic", "--n", "1", "--fidelity", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_fixture_emit_example51_n1_exit_1(capsys):
    code = main(["fixtures", "emit", "example51", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_maxspace_reports_only_k(workdir, capsys):
    # closed-form bounds: the budget flags are validated but shape nothing
    code, report, _ = _run(capsys, [
        "norm", "maxspace", str(workdir / "swap3.json"), "--k", "1",
        "--seed", "1", "--restarts", "6", "--max-iters", "120"])
    assert code == 0
    assert set(report["parameters"]) == {"k"}
    res = report["result"]
    assert res["lower"]["value"] <= res["upper"]["value"]
    assert res["lower"]["value"] == pytest.approx(3.0, abs=1e-12)


def test_console_script_wiring(workdir):
    # the child finds the package from the checkout, installed or not
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-m", "schmidt_norms.cli", "norm", "sk",
         str(workdir / "id2.json"), "--k", "1", "--seed", "0",
         "--restarts", "2"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["value"] == pytest.approx(1.0, abs=1e-8)
    assert proc.stderr.strip()


def test_minorder_nan_input_exit_1(workdir, capsys):
    obj = dump_bipartite(fixtures.example51(3))
    obj["re"][0][0] = float("nan")
    write_json(str(workdir / "nan.json"), obj)
    code, report, err = _run(capsys, [
        "norm", "minorder", str(workdir / "nan.json"), "--k", "1"])
    assert code == 1
    assert report is None
    assert "'re'" in err


def _result_keys(capsys, argv):
    code, report, _ = _run(capsys, argv + ["--seed", "4", "--restarts", "2"])
    return code, set(report["result"])


def test_map_and_certificate_result_keys(workdir, capsys):
    from schmidt_norms.cones import reduction_witness
    from schmidt_norms.maps import depolarizing_map, transpose_map
    write_json(str(workdir / "w32.json"), dump_bipartite(reduction_witness(3, 2)))
    write_json(str(workdir / "tmap.json"), dump_map(transpose_map(3)))
    write_json(str(workdir / "omega.json"), dump_map(depolarizing_map(3)))
    estimate = {"value", "direction", "converged", "restarts_used", "iterations"}
    certificate = {"pairing", "k", "valid", "block_pos_evidence"}
    assert _result_keys(capsys, [
        "map", "idk-norm", str(workdir / "tmap.json"), "--k", "2"]) == (0, estimate)
    assert _result_keys(capsys, [
        "map", "trnorm-h", str(workdir / "red3.json"), "--k", "1"]) \
        == (0, estimate | {"attaining_input"})
    assert _result_keys(capsys, [
        "cone", "witness", "--witness", str(workdir / "w32.json"),
        "--state", str(workdir / "iso9.json"), "--k", "2"]) \
        == (2, certificate | {"sn_lower_bound"})
    assert _result_keys(capsys, [
        "map", "kpeb", str(workdir / "omega.json"), "--k", "1"]) \
        == (0, certificate | {"witness_operator"})


@pytest.mark.parametrize("field, bad", [("seed", "abc"), ("seed", 1.5),
                                        ("restarts", "2")])
def test_recheck_detect_rejects_malformed_parameters(workdir, capsys, field, bad):
    code, report, _ = _run(capsys, [
        "map", "detect", "--state", str(workdir / "iso9.json"),
        "--map", str(workdir / "red3.json"), "--k", "2", "--seed", "2",
        "--restarts", "2"])
    assert code == 2
    report["parameters"][field] = bad
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    code, recheck, err = _run(capsys, [
        "oracle", "recheck", "--report", str(rp),
        "--map", str(workdir / "red3.json"), "--state", str(workdir / "iso9.json")])
    assert code == 1
    assert recheck is None
    assert err.startswith("error:") and repr(field) in err


@pytest.mark.parametrize("corrupt", ["top_level", "command", "result", "parameters",
                                     "trace_norm_value"])
def test_recheck_rejects_malformed_report(workdir, capsys, corrupt):
    code, report, _ = _run(capsys, [
        "map", "detect", "--state", str(workdir / "iso9.json"),
        "--map", str(workdir / "red3.json"), "--k", "2", "--seed", "2",
        "--restarts", "2"])
    assert code == 2
    if corrupt == "top_level":
        report = 7
    elif corrupt == "command":
        report["command"] = ["map", "detect"]
    elif corrupt == "trace_norm_value":
        report["result"][corrupt] = "0.5"
    else:
        report[corrupt] = [1]
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    code, recheck, err = _run(capsys, [
        "oracle", "recheck", "--report", str(rp),
        "--map", str(workdir / "red3.json"), "--state", str(workdir / "iso9.json")])
    assert code == 1
    assert recheck is None
    assert err.startswith("error:")
    if corrupt not in ("top_level", "command"):
        assert repr(corrupt) in err


@pytest.mark.parametrize("corrupt", ["length", "nan"])
def test_recheck_rejects_malformed_witness_vector(workdir, capsys, corrupt):
    code, report, _ = _run(capsys, [
        "cone", "blockpos", str(workdir / "swap3.json"), "--k", "2",
        "--seed", "3", "--restarts", "2"])
    assert code == 2
    wit = report["result"]["witness_vector"]
    if corrupt == "length":
        wit["re"] = wit["re"][:-1]
    else:
        wit["im"][0] = float("nan")
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    code, recheck, err = _run(capsys, [
        "oracle", "recheck", "--report", str(rp),
        "--file", str(workdir / "swap3.json")])
    assert code == 1
    assert recheck is None
    assert ("'re'" if corrupt == "length" else "'im'") in err
