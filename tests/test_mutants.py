"""Pinned mutants: one-line edits of the package that `kromatic verify`
must catch on its own.

Each row copies src/kromatic, applies one edit and runs
`verify --suite all --degree 6` on the copy in a fresh interpreter; the
run must fail a check and exit 1.

Known escapes, which verify passes and tier-1 catches:
- three q-layer mutants that swap ascents for descents: the covering
  walk's cross term taken over the lower neighbours, `coloring_ascents`
  with its two colorings swapped, and `ascent_count` counting descents.
  Every pyramid and prop-* check runs on a unit-interval graph, where the
  class tables cannot tell ascents from descents, and clans-vs-brute-*
  calls `coloring_ascents` on both of its sides;
- `series_exponents` without its exactness raise: the log derivative of
  an integral series with constant term 1, as every image_log is, always
  solves in integer exponents, so verify never reaches it.
  tests/test_core.py pins the raise.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kromatic

PACKAGE = Path(kromatic.__file__).parent

# (module, text, replacement, what goes wrong)
MUTANTS = [
    ("numbers.py", "for m in range(1, room // k + 1):",
     "for m in range(1, room // k):",
     "family_sums stops one multiplicity short"),
    ("numbers.py",
     "if not (terms := {v: terms[v] for v, p in below if p}):",
     "if len(terms) > len(terms := {v: terms[v] for v, p in below if p}):",
     "family_sums prunes a branch once any vector leaves it"),
    ("numbers.py", "terms[v[:k + 1]] = terms.get(v[:k + 1], 0) + w",
     "terms[v[:k]] = terms.get(v[:k], 0) + w",
     "family_sums merges vectors that differ at the next part"),
    ("core.py", "for s in range(g.full_mask + 1)",
     "for s in range(g.full_mask)",
     "an exponent column drops the full vertex set"),
    ("core.py", "pick_table(g, k, which, i).items()",
     "pick_table(g, k, which, 1).items()",
     "the count reads the one-heap pick table at every multiplicity"),
    ("symfunc.py", "if d + e > N:", "if d + e >= N:",
     "a product drops its top degree"),
    ("symfunc.py", "family_sums(logs, N, pow)",
     "family_sums(logs, N, lambda x, m: x * m)",
     "a product over variables takes d_k m_k for d_k^m_k"),
    ("symfunc.py", "(d[:a + 1] + (0,) * (N - a), w)",
     "(d[:a] + (0,) * (N - a + 1), w)",
     "the projection zeroes part a too"),
    ("core.py", "-c if k % 2 == 0 else c", "-c if k % 2 else c",
     "the omega image_log negates the odd entries, not the even"),
    ("symfunc.py", "if max(lam, default=0) <= a}",
     "if max(lam, default=0) < a}",
     "extraction projects away the parts equal to max_part"),
    ("heaps.py", "_upper_closure(_deps(g), w, 0)",
     "_upper_closure(_deps(g), w, len(w) - 1)",
     "the pyramid test reads the closure of the last piece"),
    ("numbers.py", "return (1 << (j - 1)) * mobius(n)",
     "return (1 << j) * mobius(n)",
     "mu_hat doubles at even n"),
    ("core.py", "lam = sizes(sub + tuple((v, u) for u, v in sub))",
     "lam = sizes(sub)",
     "the edge-subset oracle reads components along one direction"),
    ("heaps.py", "        p = len(out)\n",
     "        p = len(out) - (len(out) > 2)\n",
     "insertion never tries the last place of a long word"),
    ("core.py", "for x_k in range(u_k + 1)]", "for x_k in range(u_k)]",
     "the recovery peel pushes a row off its down-set short of each top"),
    ("core.py", "range(c, -1, -1) for c in caps",
     "range(c + 1) for c in caps",
     "the recovery peel walks the box bottom-up"),
    ("cli.py", "for v_k, c in zip(v, caps):",
     "for v_k, c in zip(v[:3], caps):",
     "the recover-*-k4 forward map leaves out part 4"),
]


def _verify_copy(tmp_path, module=None, text=None, replacement=None):
    """Run verify on a copy of the package, with text replaced in module if
    one is given."""
    copy = tmp_path / "kromatic"
    shutil.copytree(PACKAGE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if module:
        source = (copy / module).read_text()
        assert source.count(text) == 1, f"{module} no longer holds {text!r}"
        (copy / module).write_text(source.replace(text, replacement))
    env = dict(os.environ, PYTHONPATH=str(tmp_path),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "kromatic.cli", "verify", "--suite", "all",
         "--degree", "6"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_verify_passes_the_unmutated_copy(tmp_path):
    run = _verify_copy(tmp_path)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


@pytest.mark.parametrize("module, text, replacement, why", MUTANTS,
                         ids=[row[3] for row in MUTANTS])
def test_verify_kills_mutant(tmp_path, module, text, replacement, why):
    run = _verify_copy(tmp_path, module, text, replacement)
    assert run.returncode == 1, (why, run.stderr[-2000:])
    assert "\nFAIL " in "\n" + run.stdout, why
