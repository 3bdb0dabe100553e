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
    # a verdict reports its search as an estimate does
    verdict = {"status", "min_value", "k", "witness_vector", "converged",
               "restarts_used", "iterations"}
    assert _result_keys(capsys, [
        "cone", "blockpos", str(workdir / "swap3.json"), "--k", "2"]) == (2, verdict)
    assert _result_keys(capsys, [
        "map", "kpos", str(workdir / "tmap.json"), "--k", "1"]) == (0, verdict)
    _, report, _ = _run(capsys, ["cone", "witness", "--witness", str(workdir / "w32.json"),
                                 "--state", str(workdir / "iso9.json"), "--k", "2",
                                 "--seed", "4", "--restarts", "2"])
    assert set(report["result"]["block_pos_evidence"]) == verdict
    # a proved closed form is "exact", in maps as in norms
    _, report, _ = _run(capsys, ["map", "idk-norm", str(workdir / "omega.json"), "--k", "1",
                                 "--seed", "4", "--restarts", "2"])
    assert report["result"]["direction"] == "exact"


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


def test_recheck_rejects_witness_of_other_dims(workdir, capsys):
    code, report, _ = _run(capsys, [
        "cone", "blockpos", str(workdir / "swap3.json"), "--k", "2",
        "--seed", "3", "--restarts", "2"])
    assert code == 2
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    write_json(str(workdir / "op23.json"),
               dump_bipartite(BipartiteOperator((2, 3), np.eye(6))))
    code, recheck, err = _run(capsys, [
        "oracle", "recheck", "--report", str(rp),
        "--file", str(workdir / "op23.json")])
    assert code == 1
    assert recheck is None
    assert err.startswith("error:") and "(3, 3)" in err and "(2, 3)" in err


def test_recheck_witness_rejects_other_dims(workdir, capsys):
    # a (2,3) witness against a (3,2) state: equal sizes, so only the dims
    # tell them apart, as in `cone witness` itself
    from schmidt_norms.cones import reduction_witness
    write_json(str(workdir / "w32.json"), dump_bipartite(reduction_witness(3, 2)))
    code, report, _ = _run(capsys, [
        "cone", "witness", "--witness", str(workdir / "w32.json"),
        "--state", str(workdir / "iso9.json"), "--k", "2", "--seed", "5",
        "--restarts", "2"])
    assert code == 2
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    write_json(str(workdir / "w23.json"),
               dump_bipartite(BipartiteOperator((2, 3), np.eye(6))))
    write_json(str(workdir / "rho32.json"),
               dump_bipartite(BipartiteOperator((3, 2), np.eye(6) / 6)))
    code, recheck, err = _run(capsys, [
        "oracle", "recheck", "--report", str(rp),
        "--witness", str(workdir / "w23.json"), "--state", str(workdir / "rho32.json")])
    assert code == 1
    assert recheck is None
    assert err.startswith("error:")
    assert "witness dims (2, 3) do not match state dims (3, 2)" in err


def test_recheck_kpeb_rejects_other_dims(workdir, capsys):
    # the report's (3,3) witness operator relabelled (1,9) against the
    # (3,3) Choi matrix of the map
    from schmidt_norms.maps import depolarizing_map
    write_json(str(workdir / "omega.json"), dump_map(depolarizing_map(3)))
    code, report, _ = _run(capsys, [
        "map", "kpeb", str(workdir / "omega.json"), "--k", "1", "--seed", "4",
        "--restarts", "2"])
    assert code == 0
    report["result"]["witness_operator"].update(m=1, n=9)
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    code, recheck, err = _run(capsys, [
        "oracle", "recheck", "--report", str(rp), "--map", str(workdir / "omega.json")])
    assert code == 1
    assert recheck is None
    assert err.startswith("error:")
    assert "witness dims (1, 9) do not match state dims (3, 3)" in err


def test_recheck_kpeb_rejects_zero_trace_map(workdir, capsys):
    # the zero map's Choi matrix has trace 0: an input error, as in `map
    # kpeb` itself, not a report with a NaN value
    import warnings
    from schmidt_norms.maps import MapRepr, depolarizing_map
    write_json(str(workdir / "omega.json"), dump_map(depolarizing_map(3)))
    code, report, _ = _run(capsys, [
        "map", "kpeb", str(workdir / "omega.json"), "--k", "1", "--seed", "4",
        "--restarts", "2"])
    assert code == 0
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    zero = MapRepr.from_choi(BipartiteOperator((3, 3), np.zeros((9, 9))))
    write_json(str(workdir / "zero.json"), dump_map(zero))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["oracle", "recheck", "--report", str(rp),
                     "--map", str(workdir / "zero.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "nonpositive trace" in captured.err


def test_verify_sn_ensemble_k0_exit_1(workdir, capsys):
    ens = dump_ensemble(fixtures.basis_product_ensemble(3, 3))
    ens["k"] = 0
    write_json(str(workdir / "ens0.json"), ens)
    code, report, err = _run(capsys, [
        "cone", "verify-sn", "--state", str(workdir / "iso9.json"),
        "--ensemble", str(workdir / "ens0.json")])
    assert code == 1
    assert report is None
    assert err.startswith("error:") and "'k'" in err


# recheck kind: (the command's argv, the recheck's input flags, with "@" for
# the input they share; that input genuine and bad; the command's message
# on the bad one)
_RECHECKED = {
    "cone witness": (["cone", "witness", "--witness", "w32.json", "--state", "@", "--k", "2"],
                     ["--witness", "w32.json", "--state", "@"], "iso9.json", "notpsd.json",
                     "state must be positive semidefinite"),
    "cone blockpos": (["cone", "blockpos", "@", "--k", "2"], ["--file", "@"],
                      "swap3.json", "nonherm.json",
                      "k-block positivity needs a Hermitian operator"),
    "map kpos": (["map", "kpos", "@", "--k", "2"], ["--file", "@"], "tmap.json", "nonhp.json",
                 "k-positivity needs a Hermiticity-preserving map"),
    "map kpeb": (["map", "kpeb", "@", "--k", "1"], ["--map", "@"], "omega.json", "tiny.json",
                 "state must be positive semidefinite"),
    "map detect": (["map", "detect", "--state", "@", "--map", "red3.json", "--k", "2"],
                   ["--map", "red3.json", "--state", "@"], "iso9.json", "notpsd.json",
                   "state must be positive semidefinite"),
}


def _argv(workdir, argv, shared):
    return [str(workdir / a) if a.endswith(".json") else a
            for a in (shared if a == "@" else a for a in argv)]


def _write_recheck_inputs(workdir):
    from schmidt_norms.cones import reduction_witness
    from schmidt_norms.maps import MapRepr, depolarizing_map, transpose_map
    write_json(str(workdir / "w32.json"), dump_bipartite(reduction_witness(3, 2)))
    write_json(str(workdir / "tmap.json"), dump_map(transpose_map(3)))
    write_json(str(workdir / "omega.json"), dump_map(depolarizing_map(3)))
    # isotropic(0.9, 3) plus 0.1 (|01><01| - |10><10|): unit trace, Hermitian,
    # the same pairing with reduction_witness(3, 2), and <10|.|10> = -0.0875
    shift = np.zeros((9, 9))
    shift[1, 1], shift[3, 3] = 0.1, -0.1
    write_json(str(workdir / "notpsd.json"), dump_bipartite(
        BipartiteOperator((3, 3), fixtures.isotropic(0.9, 3).mat + shift)))
    # a skew part that leaves every <v|X|v> real part as it is
    skewed = fixtures.swap_operator(3).mat + 0.5j * np.eye(9)
    write_json(str(workdir / "nonherm.json"),
               dump_bipartite(BipartiteOperator((3, 3), skewed)))
    skewed = transpose_map(3).choi.mat + 0.5j * np.eye(9)
    write_json(str(workdir / "nonhp.json"),
               dump_map(MapRepr.from_choi(BipartiteOperator((3, 3), skewed))))
    # J = diag(1e-8, -5e-9, 0, ...) passes is_cp; J / Tr J has eigenvalue -1
    tiny = np.diag([1e-8, -5e-9] + [0.0] * 7)
    write_json(str(workdir / "tiny.json"),
               dump_map(MapRepr.from_choi(BipartiteOperator((3, 3), tiny))))


@pytest.mark.parametrize("kind", sorted(_RECHECKED))
def test_recheck_runs_the_commands_input_checks(workdir, capsys, kind):
    # a genuine report rechecks to a match on its own inputs; on an input
    # that its command rejects, the recheck exits 1 with the command's error
    _write_recheck_inputs(workdir)
    command, flags, genuine, bad, message = _RECHECKED[kind]
    seeded = ["--seed", "3", "--restarts", "2"]
    code, report, _ = _run(capsys, _argv(workdir, command, genuine) + seeded)
    assert report["command"] == kind and code in (0, 2)
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    recheck = ["oracle", "recheck", "--report", str(rp)]
    code, rechecked, _ = _run(capsys, recheck + _argv(workdir, flags, genuine))
    assert code == 0
    assert rechecked["result"]["match"] is True
    code, rechecked, err = _run(capsys, recheck + _argv(workdir, flags, bad))
    assert code == 1
    assert rechecked is None
    assert err == "error: %s\n" % message
    code, _, command_err = _run(capsys, _argv(workdir, command, bad) + seeded)
    assert code == 1
    assert command_err == err


@pytest.mark.parametrize("reference", [float("nan"), float("inf")], ids=["nan", "infinity"])
def test_recheck_rejects_a_non_finite_reference(workdir, capsys, reference):
    # json reads NaN and Infinity; a forged reference is an input error
    code, report, _ = _run(capsys, [
        "cone", "blockpos", str(workdir / "swap3.json"), "--k", "2",
        "--seed", "3", "--restarts", "2"])
    assert code == 2
    report["result"]["min_value"] = reference
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    code = main(["oracle", "recheck", "--report", str(rp),
                 "--file", str(workdir / "swap3.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and "'min_value'" in captured.err


def test_recheck_names_a_missing_report_field(workdir, capsys):
    code, report, _ = _run(capsys, [
        "cone", "blockpos", str(workdir / "swap3.json"), "--k", "2",
        "--seed", "3", "--restarts", "2"])
    assert code == 2
    del report["result"]["witness_vector"]
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    code, recheck, err = _run(capsys, [
        "oracle", "recheck", "--report", str(rp), "--file", str(workdir / "swap3.json")])
    assert code == 1
    assert recheck is None
    assert err == "error: report is missing field 'witness_vector'\n"


def test_verify_sn_and_kpeb_certify_with_an_ensemble(workdir, capsys):
    # the basis product ensemble reconstructs I/9, the Choi state of the
    # completely depolarizing channel
    from schmidt_norms.maps import depolarizing_map
    write_json(str(workdir / "ens.json"),
               dump_ensemble(fixtures.basis_product_ensemble(3, 3)))
    write_json(str(workdir / "mixed.json"),
               dump_bipartite(BipartiteOperator((3, 3), np.eye(9) / 9)))
    write_json(str(workdir / "omega.json"), dump_map(depolarizing_map(3)))
    code, report, _ = _run(capsys, [
        "cone", "verify-sn", "--state", str(workdir / "mixed.json"),
        "--ensemble", str(workdir / "ens.json")])
    assert code == 0
    assert report["result"] == {"verified": True, "k": 1}
    code, report, _ = _run(capsys, [
        "map", "kpeb", str(workdir / "omega.json"), "--k", "1",
        "--ensemble", str(workdir / "ens.json")])
    assert code == 0
    assert report["result"] == {"certified": True, "k": 1}
    assert set(report["inputs"]) == {"file", "ensemble"}
    code, report, _ = _run(capsys, [
        "cone", "verify-sn", "--state", str(workdir / "iso9.json"),
        "--ensemble", str(workdir / "ens.json")])
    assert code == 0
    assert report["result"] == {"verified": False, "k": 1}


def test_fixture_emit_swap_to_stdout(capsys):
    code = main(["fixtures", "emit", "swap", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == json.loads(
        json.dumps(dump_bipartite(fixtures.swap_operator(3))))
    assert captured.err == ""


def test_fixture_emit_isotropic_needs_fidelity(capsys):
    code = main(["fixtures", "emit", "isotropic", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: fixtures emit isotropic needs --fidelity\n"


def test_recheck_names_the_input_flags_it_needs(workdir, capsys):
    from schmidt_norms.cones import reduction_witness
    write_json(str(workdir / "w32.json"), dump_bipartite(reduction_witness(3, 2)))
    code, report, _ = _run(capsys, [
        "cone", "witness", "--witness", str(workdir / "w32.json"),
        "--state", str(workdir / "iso9.json"), "--k", "2", "--seed", "5",
        "--restarts", "2"])
    assert code == 2
    rp = workdir / "report.json"
    rp.write_text(json.dumps(report))
    code, recheck, err = _run(capsys, [
        "oracle", "recheck", "--report", str(rp), "--witness", str(workdir / "w32.json")])
    assert code == 1
    assert recheck is None
    assert err == "error: recheck of 'cone witness' needs --witness and --state\n"
