"""Benchmark for the `kromatic` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

The program is imported from the `src/` next to this directory; inputs,
outputs and reports go to `.perfbench_work/` beside it.

One client runs the workload's jobs one after another in a closed loop,
cycling through them until `--seconds` have passed and every job has run at
least once.  Each job is a fresh interpreter (`launch.py`), timed from
spawn to exit by this process, with user + sys CPU time and peak resident
set from its rusage.  Every job's output is checked against `golden.json`;
a job fails on a nonzero exit status, any FAIL line, a wrong check count or
an output digest that differs.

The speed of a shared host drifts by tens of per cent over seconds to
minutes, so untraced jobs alternate with runs of a fixed reference program
(`reference.py`, which does not import kromatic).  Each job's times are
divided by the median times of the reference runs on either side of it and
multiplied by `REFERENCE_S`: they are seconds at the host speed at which
the reference takes `REFERENCE_S`.

With `--trace 0` the last line reports the end-to-end metrics, all times
corrected for host speed: wall and CPU time as per-job medians summed over
one pass of the workload; set-up time (spawn until `kromatic.cli` is
imported) as the median over a few import-only probes and every job, times
the jobs in a pass; and the median peak resident set of the largest job.
With `--trace 1` every job runs once untraced and once under the layer
tracer (`tracer.py`), with no reference runs, and the last line reports the
per-layer metrics of the traced runs plus `trace.overhead`, traced over
untraced wall time minus one.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_work")
GOLDEN = HERE / "golden.json"
JOB_TIMEOUT_S = 120
SETUP_PROBES = 5
# Wall time of one reference.py run at the host speed the corrected times
# are given at: its median on the 2-vCPU host of the recorded baseline.
REFERENCE_S = 0.27
# Least share of a job's wall time spent on the reference runs after it.
REFERENCE_SHARE = 0.3

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
RATIOS = {"heaps.lyndon_yield": ("heaps.lyndon_found",
                                 "heaps.pyramids_tested"),
          "heaps.enum_hit_ratio": ("heaps.enum_repeats", "heaps.enum_calls"),
          "symfunc.basis_hit_ratio": ("symfunc.basis_hits",
                                      "symfunc.basis_lookups")}


def per_layer_units():
    """Unit of every per-layer metric, in report order."""
    units = {}
    for layer in tracer.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for name in tracer.GROUPS:
        units[name] = "s"
    for name in (*tracer.COUNTS, *tracer.TRUTHY, *tracer.YIELDS,
                 *tracer.REPEATS, "symfunc.basis_hits",
                 "symfunc.basis_lookups", "cli.check_samples"):
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    units["cli.check_p50_ms"] = "ms"
    units["cli.check_p99_ms"] = "ms"
    units["trace.overhead"] = "ratio"
    return units


@dataclass
class Job:
    """One finished CLI invocation."""
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None
    returncode: int
    stdout: bytes
    stderr: bytes
    trace: dict | None
    ref_wall: float | None = None
    ref_cpu: float | None = None


def spawn(argv, trace=False):
    """Run `kromatic argv` (or, with no argv, only its import) in a fresh
    interpreter and wait for it."""
    report, out, err = (WORK / "report.json", WORK / "stdout",
                        WORK / "stderr")
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "launch.py"), str(report),
           "1" if trace else "0", *argv]
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        info = json.loads(report.read_text())
    except (OSError, ValueError):
        info = {}
    ready = info.get("ready")
    return Job(end - start, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024, None if ready is None else
               ready - start, proc.returncode, out.read_bytes(),
               err.read_bytes(), info.get("trace"))


def spawn_reference():
    """Run reference.py in a fresh interpreter; return its (wall, cpu)."""
    out = WORK / "reference.out"
    with open(out, "wb") as fo:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                stdout=fo)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or out.read_text().strip() != str(reference.CHECKSUM):
        raise RuntimeError(f"reference.py exited {code} or printed a wrong "
                           "checksum")
    return wall, usage.ru_utime + usage.ru_stime


class Referenced:
    """Spawns jobs with reference runs after each one and gives every job
    the median reference times of the runs before and after it."""

    def __init__(self):
        self.last = self.references(0)

    @staticmethod
    def references(job_wall):
        """At least one reference run, and as many as take REFERENCE_SHARE
        of the wall time of the job before them: one short reference run
        says little about the host's speed during a long job."""
        runs = [spawn_reference()]
        while sum(wall for wall, _ in runs) < REFERENCE_SHARE * job_wall:
            runs.append(spawn_reference())
        return runs

    def spawn(self, argv):
        job = spawn(argv)
        before, self.last = self.last, self.references(job.wall)
        job.ref_wall = statistics.median(w for w, _ in before + self.last)
        job.ref_cpu = statistics.median(c for _, c in before + self.last)
        return job


def prepare_work():
    WORK.mkdir(exist_ok=True)
    for p in WORK.iterdir():
        p.unlink()


def run_loop(job_list, seconds, trace, golden, referenced=None):
    """Closed loop over the jobs, untraced ones through `referenced` if it
    is given.  Returns (untraced, traced, attempted, failed), the first two
    as per-job lists of finished runs."""
    untraced = [[] for _ in job_list]
    traced = [[] for _ in job_list]
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(job_list) or time.perf_counter() < deadline:
        k = i % len(job_list)
        for flag in ((False, True) if trace else (False,)):
            job = (referenced.spawn(job_list[k])
                   if referenced and not flag else
                   spawn(job_list[k], trace=flag))
            attempted += 1
            errors = workloads.check_job(job_list[k], job.returncode,
                                         job.stdout, golden)
            if errors:
                failed += 1
                print(f"FAILED {workloads.job_key(job_list[k])}"
                      f"{' (traced)' if flag else ''}: {'; '.join(errors)}"
                      f"\n{job.stderr.decode(errors='replace')[-2000:]}",
                      file=sys.stderr)
            (traced if flag else untraced)[k].append(job)
        i += 1
    return untraced, traced, attempted, failed


def sum_of_medians(runs, value):
    """Sum over jobs of the median of `value` over that job's runs, or None
    if any value is None."""
    total = 0
    for job_runs in runs:
        vals = [value(r) for r in job_runs]
        if any(v is None for v in vals):
            return None
        total += statistics.median(vals)
    return total


def end_to_end(untraced, probes):
    """End-to-end metrics, every time corrected for host speed."""
    setups = [j.setup / j.ref_wall
              for j in probes + [r for rs in untraced for r in rs]
              if j.setup is not None]
    return {
        "wall_s": REFERENCE_S * sum_of_medians(
            untraced, lambda r: r.wall / r.ref_wall),
        "cpu_s": REFERENCE_S * sum_of_medians(
            untraced, lambda r: r.cpu / r.ref_cpu),
        "setup_s": (REFERENCE_S * statistics.median(setups) * len(untraced)
                    if setups else None),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in rs)
                           for rs in untraced),
    }


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def per_layer(untraced, traced, units):
    out = {}
    for name in units:
        if name in RATIOS or name.startswith(("cli.check_", "trace.")):
            continue
        out[name] = sum_of_medians(
            traced, lambda r, name=name: (r.trace or {}).get(name))
    for name, (num, den) in RATIOS.items():
        out[name] = (None if out[num] is None or out[den] is None
                     else out[num] / out[den] if out[den] else 0.0)
    checks = [None if r.trace is None else r.trace.get("cli.check_ms")
              for rs in traced for r in rs]
    if any(c is None for c in checks):
        out["cli.check_samples"] = out["cli.check_p50_ms"] = None
        out["cli.check_p99_ms"] = None
    else:
        pooled = [ms for c in checks for ms in c]
        out["cli.check_samples"] = len(pooled)
        out["cli.check_p50_ms"] = percentile(pooled, 50) if pooled else 0.0
        out["cli.check_p99_ms"] = percentile(pooled, 99) if pooled else 0.0
    out["trace.overhead"] = (sum_of_medians(traced, lambda r: r.wall)
                             / sum_of_medians(untraced, lambda r: r.wall) - 1)
    return out


def load_golden():
    return json.loads(GOLDEN.read_text())


def write_golden():
    """Record the golden table from one run of every job at the default
    seed."""
    prepare_work()
    table = {}
    for name in workloads.WORKLOADS:
        for argv in workloads.jobs(name, workloads.DEFAULT_SEED, WORK):
            job = spawn(argv)
            if job.returncode != 0:
                raise SystemExit(f"{workloads.job_key(argv)} exited "
                                 f"{job.returncode}")
            table[workloads.job_key(argv)] = workloads.golden_record(
                argv, job.stdout)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record golden.json from the program as it is")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if not (Path("src") / "kromatic" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'kromatic' / 'cli.py'} not found; "
              "perfbench/ must sit in a kromatic checkout", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    prepare_work()
    job_list = workloads.jobs(args.workload, args.seed, WORK)
    golden = load_golden()
    referenced = None if args.trace else Referenced()
    probes = ([] if args.trace else
              [referenced.spawn([]) for _ in range(SETUP_PROBES)])
    untraced, traced, attempted, failed = run_loop(
        job_list, args.seconds, args.trace == 1, golden, referenced)

    if args.trace:
        units = per_layer_units()
        values = per_layer(untraced, traced, units)
    else:
        units = END_TO_END
        values = end_to_end(untraced, probes)
    runs = [len(rs) for rs in untraced]
    print(f"workload {args.workload}: {len(job_list)} jobs per pass, "
          f"{min(runs)}-{max(runs)} untraced runs per job, 1 client")
    if referenced:
        jobs_run = [r for rs in untraced for r in rs]
        print("uncorrected wall_s "
              f"{sum_of_medians(untraced, lambda r: r.wall)} s, "
              "reference.py median "
              f"{statistics.median(r.ref_wall for r in jobs_run)} s")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    for name, unit in units.items():
        print(f"{name} {values[name]} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
