"""Tests of the benchmark itself: input generation, the correctness gate and
an end-to-end run of every workload at a reduced size.

    python3 -m pytest perfbench/tests
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL_EXPAND = ("expand", "--graph", "k2", "--basis", "p", "--degree", "3")


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    run.prepare_work()


def test_wide_graphs_are_deterministic_and_fixed_in_size():
    for slot, n, base in workloads.WIDE_SLOTS:
        first = workloads.wide_graph(7, n, base)
        assert first == workloads.wide_graph(7, n, base)
        assert len(first) == len(base)
        assert (workloads.independence_counts(n, first)
                == workloads.independence_counts(n, base))
    assert any(workloads.wide_graph(7, n, base)
               != workloads.wide_graph(8, n, base)
               for _, n, base in workloads.WIDE_SLOTS)


def test_wide_graph_files_are_named_by_slot(at_root):
    for seed in (1, 2):
        job_list = workloads.jobs("verify-wide", seed, run.WORK)
        keys = [workloads.job_key(j) for j in job_list]
        assert keys[0] == "verify --graph wide-n5 --suite heaps --degree 5"
        assert all(k in run.load_golden() for k in keys)


def test_corrupt_digest_and_nonzero_exit_count_as_errors(at_root):
    golden = {workloads.job_key(SMALL_EXPAND): {"stdout": "0" * 64}}
    bad_exit = ("expand", "--graph", "no-such-graph", "--degree", "3")
    _, _, attempted, failed = run.run_loop([SMALL_EXPAND, bad_exit], 0,
                                           False, golden)
    assert (attempted, failed) == (2, 2)

    job = run.spawn(SMALL_EXPAND)
    golden = {workloads.job_key(SMALL_EXPAND):
              workloads.golden_record(SMALL_EXPAND, job.stdout)}
    assert workloads.check_job(SMALL_EXPAND, 0, job.stdout, golden) == []
    assert workloads.check_job(SMALL_EXPAND, 1, job.stdout, golden)


def test_verify_gate_rejects_fail_lines_and_wrong_counts():
    job = ("verify", "--graph", "k2", "--suite", "heaps", "--degree", "3")
    good = b"PASS a\nPASS b\n2/2 checks passed\n"
    golden = {workloads.job_key(job): workloads.golden_record(job, good)}
    assert workloads.check_job(job, 0, good, golden) == []
    assert workloads.check_job(job, 1, b"PASS a\nFAIL b\n1/2 checks passed\n",
                               golden)
    assert workloads.check_job(job, 0, b"PASS a\n1/1 checks passed\n", golden)
    assert workloads.check_job(job, 0, b"PASS a\nPASS c\n2/2 checks passed\n",
                               golden)


def test_every_workload_runs_at_reduced_size(at_root, monkeypatch, tmp_path,
                                              capsys):
    monkeypatch.setattr(workloads, "VERIFY_DEEP_DEGREE", 3)
    monkeypatch.setattr(workloads, "VERIFY_WIDE_DEGREE", 3)
    monkeypatch.setattr(workloads, "EXPAND_DEGREE", 4)
    monkeypatch.setattr(workloads, "QEXPAND_JOBS", (
        ("--model", "ui-p3", "--degree", "3"),
        ("--model", "ui-k2", "--basis", "pbar", "--omega", "--q", "1",
         "--degree", "3")))
    monkeypatch.setattr(run, "GOLDEN", tmp_path / "golden.json")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    run.write_golden()
    names = {0: [m["name"] for m in BENCHMARK["end_to_end"]],
             1: [m["name"] for m in BENCHMARK["per_layer"]]}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            assert run.main(["--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", str(trace)]) == 0
            result = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0
            assert sorted(result["metrics"]) == sorted(names[trace])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            assert all(isinstance(v, (int, float)) for v in values.values())
            if trace == 0:
                assert all(v > 0 for v in values.values())
            elif workload.startswith(("expand", "qexpand")):
                assert values["heaps.calls"] == 0


def test_reference_checksum_and_host_speed_correction(at_root):
    assert reference.work() == reference.CHECKSUM
    wall, cpu = run.spawn_reference()
    assert wall > 0 and cpu > 0

    def job(wall, ref, setup):
        return run.Job(wall, wall, 20.0, setup, 0, b"", b"", None,
                       ref_wall=ref, ref_cpu=ref)

    slow = 2 * run.REFERENCE_S  # a host at half the reference speed
    untraced = [[job(2.0, slow, 0.2), job(9.0, slow, 0.4),
                 job(3.0, slow, 0.2)], [job(1.0, slow, 0.2)]]
    probes = [job(0.2, slow, 0.2)]
    values = run.end_to_end(untraced, probes)
    assert values["wall_s"] == pytest.approx(1.5 + 0.5)
    assert values["cpu_s"] == pytest.approx(1.5 + 0.5)
    assert values["setup_s"] == pytest.approx(0.1 * 2)
    assert values["peak_rss_mb"] == 20.0


def test_missing_program_exits_nonzero(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "verify-deep"]) != 0


TRACER_PROBE = """
import inspect, time
import kromatic.cli, kromatic.core, kromatic.heaps, kromatic.symfunc
from kromatic import bundled_graph
del kromatic.heaps.rotate  # as if a later version had renamed it
import tracer
tr, modules = tracer.install()
h = kromatic.heaps
assert kromatic.cli.enumerate_lyndon is h.enumerate_lyndon
assert kromatic.core.enumerate_lyndon is h.enumerate_lyndon
assert h.enumerate_lyndon.__wrapped__ is not None
assert kromatic.symfunc.basis_element.cache_info().currsize == 0
colorings = kromatic.core.proper_set_colorings(bundled_graph("k2"), 3, 3)
assert inspect.isgenerator(colorings)
next(colorings)
assert tr.yields["core.proper_set_colorings"] == 1
start = time.perf_counter()
h.enumerate_heaps(bundled_graph("paw"), 6)
elapsed = time.perf_counter() - start
assert 0 < tr.self_s["heaps"] <= elapsed, (tr.self_s, elapsed)
snap = tr.snapshot(modules)
assert snap["heaps.rotation_steps"] is None
assert snap["heaps.canonicalizations"] > 0
assert snap["heaps.enum_calls"] == 7 and snap["heaps.enum_repeats"] == 0
print("ok")
"""


def test_tracer_rebinds_keeps_generators_lazy_and_tolerates_renames():
    env = {"PYTHONPATH": f"{run.ROOT / 'src'}:{run.HERE}", "PATH": ""}
    out = subprocess.run([sys.executable, "-c", TRACER_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "ok", out.stderr
