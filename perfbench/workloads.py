"""The benchmark's workloads, their seeded inputs and the correctness gate.

A job is the argument list of one `kromatic` CLI invocation.  Every job runs
in its own fresh interpreter, so the package's module caches start empty on
each one, as they do for a user.

Why each workload exists:

* verify-deep: `verify --suite all` over the seven bundled graphs.  Heap,
  pyramid and Lyndon enumeration and rotation are the largest layer, so a
  rewrite of the heap layer must show here.
* verify-wide: the heaps, factorization and theorems suites on seeded graphs
  with 5, 6 and 7 vertices read from files.  Wide alphabets and the 2^n
  vertex-subset loops make Lyndon counts by support the hot path.
* expand-highdeg: `expand` at high degree, direct and omega, on three bases.
  Monomial products, basis elements and extraction do the work and the heap
  layer is never called: the control for heap changes.
* qexpand-ui: `qexpand` on unit-interval models.  Set-coloring enumeration
  and ascent counting dominate, and extraction runs on q-polynomials.
"""
import hashlib
import itertools
import json
import random
from pathlib import Path

DEFAULT_SEED = 1

VERIFY_DEEP_DEGREE = 6
VERIFY_WIDE_DEGREE = 5
VERIFY_WIDE_SUITES = ("heaps", "factorization", "theorems")
EXPAND_DEGREE = 11

# (slot, vertices, base edges).  A seed draws a random graph with the same
# vertex and edge counts and the same independence polynomial as the base:
# that polynomial fixes the number of heaps, pyramids and Lyndon heaps of
# every size, so seeds change which edges a graph has, and often its
# isomorphism class, but not how much enumeration a job does.
WIDE_SLOTS = (
    ("wide-n5", 5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 3))),
    ("wide-n6", 6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5))),
    ("wide-n7", 7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7),
                    (2, 5), (3, 6))),
)

QEXPAND_JOBS = (
    ("--model", "ui-p3", "--basis", "pbarprime", "--degree", "8"),
    ("--model", "ui-p3", "--basis", "pbar", "--omega", "--degree", "8"),
    ("--model", "ui-p4", "--basis", "pbarprime", "--degree", "6"),
    ("--model", "ui-p4", "--basis", "pbar", "--omega", "--q", "1",
     "--degree", "6"),
    ("--model", "ui-paw", "--degree", "6"),
    ("--model", "ui-k3", "--degree", "7"),
)

WORKLOADS = ("verify-deep", "verify-wide", "expand-highdeg", "qexpand-ui")


def independence_counts(n, edges):
    """Number of independent vertex sets of each size (index = size)."""
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    counts = [0] * (n + 1)
    for mask in range(1 << n):
        if all(not (mask >> v) & 1 or not adj[v] & mask for v in range(n)):
            counts[bin(mask).count("1")] += 1
    return counts


def wide_graph(seed, n, base):
    """Edges of the seeded graph for one verify-wide slot."""
    target = independence_counts(n, base)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rng = random.Random(seed * 7919 + n)
    for _ in range(100000):
        edges = sorted(rng.sample(pairs, len(base)))
        if independence_counts(n, edges) == target:
            return edges
    raise RuntimeError(f"no graph found for n={n} seed={seed}")


def write_wide_graphs(seed, work):
    """Write one graph file per slot into `work`; return their paths.
    Files are named by slot because `verify` names checks after the file
    stem, so check names do not depend on the seed."""
    paths = []
    for slot, n, base in WIDE_SLOTS:
        path = work / f"{slot}.json"
        path.write_text(json.dumps({"n": n, "edges": wide_graph(seed, n,
                                                               base)}))
        paths.append(path)
    return paths


def jobs(workload, seed, work):
    """Argument lists of one pass over the workload, in order.  Inputs are
    written under `work`, given as a path relative to the checkout."""
    if workload == "verify-deep":
        return [("verify", "--suite", "all",
                 "--degree", str(VERIFY_DEEP_DEGREE))]
    if workload == "verify-wide":
        return [("verify", "--graph", str(path), "--suite", suite,
                 "--degree", str(VERIFY_WIDE_DEGREE))
                for path in write_wide_graphs(seed, work)
                for suite in VERIFY_WIDE_SUITES]
    if workload == "expand-highdeg":
        return [("expand", "--graph", graph, "--basis", basis, *omega,
                 "--degree", str(EXPAND_DEGREE))
                for graph in ("paw", "c4", "p4")
                for basis in ("p", "pbar", "pbarprime")
                for omega in ((), ("--omega",))]
    if workload == "qexpand-ui":
        return [("qexpand",) + job for job in QEXPAND_JOBS]
    raise KeyError(f"unknown workload {workload!r}")


def job_key(job):
    """Golden-table key of a job: its arguments, with a graph file named by
    its slot rather than its location."""
    return " ".join(Path(a).stem if a.endswith(".json") else a for a in job)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def verify_record(stdout):
    """(PASS count, digest of the check names) of a verify run's output."""
    lines = stdout.decode(errors="replace").splitlines()
    names = [line.split(" ", 1)[1].split(" (", 1)[0] for line in lines
             if line.startswith(("PASS ", "FAIL "))]
    passed = sum(line.startswith("PASS ") for line in lines)
    return passed, sha256("\n".join(names).encode())


def golden_record(job, stdout):
    """What the golden table stores for one job's output."""
    if job[0] == "verify":
        passed, names = verify_record(stdout)
        return {"passed": passed, "names": names}
    return {"stdout": sha256(stdout)}


def check_job(job, returncode, stdout, golden):
    """Reasons the job's result is wrong; empty when it is right."""
    errors = []
    if returncode != 0:
        errors.append(f"exit status {returncode}")
    want = golden.get(job_key(job))
    if want is None:
        errors.append("no golden record")
        return errors
    if job[0] == "verify":
        lines = stdout.decode(errors="replace").splitlines()
        if any(line.startswith("FAIL") for line in lines):
            errors.append("FAIL line")
        passed, names = verify_record(stdout)
        summary = f"{passed}/{passed} checks passed"
        if not lines or lines[-1] != summary:
            errors.append(f"summary {lines[-1:]!r} is not {summary!r}")
        if passed != want["passed"]:
            errors.append(f"{passed} checks passed, want {want['passed']}")
        if names != want["names"]:
            errors.append("check names differ from the golden record")
    elif sha256(stdout) != want["stdout"]:
        errors.append("stdout differs from the golden digest")
    return errors
