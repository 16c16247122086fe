import hashlib
import json

import pytest

from kromatic.cli import main

GOLDEN_K2 = {
    (2,): "-1", (1, 1): "1",
    (3,): "2", (2, 1): "-2",
    (4,): "-4", (3, 1): "4", (2, 2): "1", (2, 1, 1): "-1",
    (5,): "6", (4, 1): "-8", (3, 2): "-2", (3, 1, 1): "2", (2, 2, 1): "2",
}


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_expand_golden_table(capsys):
    rc, data = run_json(capsys, ["expand", "--graph", "k2", "--basis",
                                 "pbar", "--degree", "5", "--vars", "5"])
    assert rc == 0
    assert data["basis"] == "pbar" and data["N"] == 5 and data["M"] == 5
    got = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    assert got == GOLDEN_K2


def test_expand_deterministic(capsys):
    argv = ["expand", "--graph", "p3", "--degree", "4"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_expand_jobs_flag_does_not_change_output(capsys):
    main(["expand", "--graph", "p3", "--degree", "4"])
    base = capsys.readouterr().out
    main(["expand", "--graph", "p3", "--degree", "4", "--jobs", "4"])
    assert capsys.readouterr().out == base


def test_expand_omega_p_basis(capsys):
    rc, data = run_json(capsys, ["expand", "--graph", "k2", "--basis", "p",
                                 "--omega", "--degree", "2"])
    assert rc == 0
    got = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    # omega image, classical p-basis: lowest slice is the h-positive side
    assert got == {(1, 1): "1", (2,): "1"}


def test_qexpand_model(capsys):
    rc, data = run_json(capsys, ["qexpand", "--model", "ui-k2", "--basis",
                                 "pbarprime", "--degree", "4"])
    assert rc == 0
    got = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    assert got[(2,)] == ["-1/2", "-1/2"]  # -(1+q)/2, exact
    assert got[(1, 1)] == ["1/2", "1/2"]


def test_qexpand_q_specialization(capsys):
    rc, data = run_json(capsys, ["qexpand", "--model", "ui-k2", "--basis",
                                 "pbar", "--omega", "--degree", "3",
                                 "--q", "1"])
    assert rc == 0
    got = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    # at q=1 these are the distinct-cover counts; zero terms are dropped
    assert got == {(2,): "1", (1, 1): "1", (3,): "2", (2, 1): "4"}


def test_qexpand_rejects_non_unit_interval():
    with pytest.raises(SystemExit) as e:
        main(["qexpand", "--graph", "c4", "--degree", "4"])
    assert e.value.code == 2


def test_lyndon_words(capsys):
    rc, data = run_json(capsys, ["lyndon", "--graph", "k2", "--degree", "5"])
    assert rc == 0
    assert data["counts"] == {"1": 2, "2": 1, "3": 2, "4": 3, "5": 6}
    assert len(data["words"]["5"]) == 6
    assert data["words"]["2"] == ["12"]


@pytest.mark.parametrize("graph, degree, digest", [
    ("paw", 7,
     "55816d8041ca505de0b93d0b8754d408c23600b1c712b3e0a2627ea1a2848ec0"),
    ("c4", 6,
     "55448474d43108855cc1d7d072927c8925c265cd45d076579b4b6cfc5842d739"),
])
def test_lyndon_stdout_digest(capsys, graph, degree, digest):
    # sha256 of the full stdout (counts and every canonical word) as
    # produced by the per-pyramid is_lyndon filter
    assert main(["lyndon", "--graph", graph, "--degree", str(degree)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_independence_dump(capsys):
    rc, data = run_json(capsys, ["independence", "--graph", "k2"])
    assert rc == 0
    assert [e["independence"] for e in data["entries"]] == \
        [[1], [1, 1], [1, 1], [1, 2]]
    assert [e["size"] for e in data["entries"]] == [0, 1, 1, 2]


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "exp.json"
    rc = main(["expand", "--graph", "k2", "--degree", "3",
               "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    main(["expand", "--graph", "k2", "--degree", "3"])
    assert target.read_text() == capsys.readouterr().out


def test_custom_graph_file(tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
    rc, data = run_json(capsys, ["expand", "--graph", str(path),
                                 "--degree", "3"])
    assert rc == 0
    assert data["graph"] == "edge"
    got = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    assert got[(2,)] == "-1" and got[(3,)] == "2"


def test_malformed_input_file_exits_two(tmp_path, capsys):
    graph = tmp_path / "bad-graph.json"
    graph.write_text(json.dumps({"n": 2, "edges": [[1, "2"]]}))
    assert main(["expand", "--graph", str(graph), "--degree", "3"]) == 2
    model = tmp_path / "bad-model.json"
    model.write_text(json.dumps({"n": 2, "bounds": [2, "2"]}))
    assert main(["qexpand", "--model", str(model), "--degree", "3"]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_graph_directory_exits_two(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["verify", "--graph", str(tmp_path), "--suite", "heaps"])
    assert e.value.code == 2


def test_verify_numbers_suite(capsys):
    rc = main(["verify", "--suite", "numbers"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS dirichlet-inverse-64" in out
    assert out.strip().endswith("2/2 checks passed")


def test_verify_single_graph_heaps(capsys):
    rc = main(["verify", "--graph", "k2", "--suite", "heaps", "--degree", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS rotation-example-P3-2311" in out
    assert "PASS lyndon-counts-K2" in out
    assert "PASS canonical-invariance-K2" in out


def test_verify_check_names_mirror_anchors(capsys):
    rc = main(["verify", "--graph", "k2", "--suite", "theorems",
               "--degree", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS thm-1.2-K2-lambda-41" in out
    assert "FAIL" not in out


def test_verify_report_out(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = main(["verify", "--suite", "numbers", "--out", str(target)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(target.read_text())
    assert report["failed"] == 0 and report["passed"] == 2
    assert all(c["ok"] for c in report["checks"])


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    import kromatic.cli as cli

    def fake_checks(named, N, suites):
        return [("numbers", "always-true", lambda: True),
                ("numbers", "always-false", lambda: False),
                ("numbers", "raises", lambda: 1 / 0)]

    monkeypatch.setattr(cli, "build_checks", fake_checks)
    rc = main(["verify", "--suite", "numbers"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "PASS always-true" in out
    assert "FAIL always-false" in out
    assert "FAIL raises (ZeroDivisionError" in out
    assert "1/3 checks passed" in out


def test_config_errors_exit_two():
    for argv in (["expand", "--degree", "3"],
                 ["expand", "--graph", "k2", "--degree", "0"],
                 ["expand", "--graph", "k2", "--degree", "5", "--vars", "3"],
                 ["expand", "--graph", "nosuch"],
                 ["qexpand", "--model", "ui-k2", "--q", "1/0"],
                 ["verify", "--suite", "nosuchsuite"],
                 ["expand", "--graph", "k2", "--jobs", "0"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
