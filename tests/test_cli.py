"""CLI surface: subcommands, exit codes, JSON stability."""

import json
import subprocess
import sys

import pytest

from toric_deform.cli import run


@pytest.fixture()
def pentagon_tangent(tmp_path):
    path = tmp_path / "pentagon_tangent.json"
    path.write_text(json.dumps(
        {"vertices": [[0, 0], [1, 0], [2, 2], [0, 3], [-3, 2]]}))
    return str(path)


@pytest.fixture()
def doubled_square(tmp_path):
    path = tmp_path / "doubled_square.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]}))
    return str(path)


def test_classify_text_output(pentagon_tangent, capsys):
    assert run(["classify", pentagon_tangent]) == 0
    out = capsys.readouterr().out
    assert "Case2b" in out
    assert "x^2, x*y, y^3" in out


def test_classify_json_envelope(pentagon_tangent, capsys):
    assert run(["classify", pentagon_tangent, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "ok"
    assert data["tool"] == "toric-deform"
    assert data["result"]["tag"] == "Case2b"


def test_analyze_json_is_byte_stable(pentagon_tangent, capsys):
    assert run(["analyze", pentagon_tangent, "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["analyze", pentagon_tangent, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == first
    assert parsed["result"]["embedding_dimension"] == 2
    assert parsed["result"]["hilbert"] == [1, 2, 1, 0, 0]


def test_analyze_accepts_dmax_and_drop(pentagon_tangent, capsys):
    assert run(["analyze", pentagon_tangent, "--dmax", "6", "--drop", "0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["result"]["hilbert"]) == 7


def test_family_json(capsys):
    assert run(["family", "--r", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    bounds = data["result"]["bounds"]
    assert bounds["stack_lower"] >= 16
    assert bounds["space_lower"] >= 4
    assert data["result"]["vertex_count"] == 12


def test_family_rejects_negative_r(capsys):
    assert run(["family", "--r", "-1"]) == 2


def test_fano_command(pentagon_tangent, capsys):
    assert run(["fano", pentagon_tangent, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["fano"] is True
    assert data["result"]["prism"] is False
    assert len(data["result"]["polytope"]["vertices"]) == 10


def test_cyclic_quotient(capsys):
    assert run(["cyclic-quotient", "5", "3"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "3 (hull C[[x,y,z]])"


def test_cyclic_quotient_domain_error(capsys):
    assert run(["cyclic-quotient", "4", "2"]) == 1


def test_verify_paper(capsys):
    assert run(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_paper_json(capsys):
    assert run(["verify-paper", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    checks = data["result"]["checks"]
    assert data["result"]["all_passed"] is True
    assert len(checks) >= 26
    assert all(c["passed"] for c in checks)
    assert len({c["id"] for c in checks}) == len(checks)


def test_non_unit_edge_is_domain_error(doubled_square, capsys):
    assert run(["classify", doubled_square]) == 1
    err = capsys.readouterr().err
    assert "unit edges" in err


def test_missing_file_is_domain_error(capsys):
    assert run(["classify", "/nonexistent/polygon.json"]) == 1


def test_invalid_polygon_is_domain_error(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 1], [2, 2]]}))
    assert run(["analyze", str(path)]) == 1


@pytest.mark.parametrize("text", [
    '{"vertices": [[0.5, 0], [1, 0], [0, 1]]}',
    '{"vertices": [[true, 0], [1, 0], [0, 1]]}',
    '{"vertices": [["1", 0], [1, 0], [0, 1]]}',
    '{"vertices": 5}',
    '{"vertices": [null, [1, 0], [0, 1]]}',
    '{"vertices": [[0, 0, 0], [1, 0], [0, 1]]}',
    '[[0, 0], [1, 0], [0, 1]]',
])
def test_malformed_polygon_is_domain_error(tmp_path, capsys, text):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    assert run(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_cap_error_reports_count(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("TORIC_DEFORM_CAP", "4")
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(
        {"vertices": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]}))
    assert run(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert "6" in err and "cap" in err


def test_invalid_cap_names_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("TORIC_DEFORM_CAP", "abc")
    assert run(["family", "--r", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: TORIC_DEFORM_CAP")
    assert captured.err.count("\n") == 1


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["family"]) == 2
    assert run(["cyclic-quotient", "five", "3"]) == 2
    assert run(["newton-check", "0", "7"]) == 2  # removed subcommand is a usage error


def test_repeated_runs_do_not_share_state(pentagon_tangent, capsys):
    outputs = []
    for _ in range(2):
        assert run(["family", "--r", "x"]) == 2
        assert run(["family", "--r", "-1"]) == 2
        assert run(["classify", pentagon_tangent, "--json"]) == 0
        assert run(["classify", pentagon_tangent]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "invalid int value" in outputs[0].err
    assert outputs[0].out.count("Case2b") == 2


def test_console_script_installed():
    result = subprocess.run([sys.executable, "-m", "toric_deform.cli", "--version"],
                            capture_output=True, text=True)
    assert result.returncode == 0


def test_json_output_is_stable_across_processes(pentagon_tangent):
    import os
    outputs = []
    for seed in ("0", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-m", "toric_deform.cli", "analyze",
             pentagon_tangent, "--json"],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
