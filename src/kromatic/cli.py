"""Command-line front end.

Modes:
  expand        basis coefficients of the set-coloring series (or its omega
                image) of a graph, as JSON
  qexpand       same for the q-refined series of a unit-interval graph
  verify        run named invariant checks and report pass/fail per check
  lyndon        Lyndon heap counts and canonical words up to a size
  independence  the induced-subgraph independence-polynomial multiset

Exit status: 0 success, 1 failed verification (or failed computation, or
a closed stdout), 2 configuration error.
"""

import argparse
import functools
import gc
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import BUNDLED_GRAPHS, BUNDLED_MODELS, bundled_graph, bundled_model
from .core import (CLAIMS, RULES, chromatic_p_expansion_oracles, exponent,
                   independence_multiset, kromatic, kromatic_expansion,
                   kromatic_from_multiset, peel_signed_family,
                   recover_signed_exponent_multiset, rule_sign,
                   signed_exponent_family, theorem_coefficient,
                   theorem_coefficient_subsets, verify_factorization)
from .graphs import (acyclic_orientations, graph_from_json, model_from_json,
                     unit_interval_bounds)
from .heaps import (enumerate_lyndon, heap_from_word, is_lyndon,
                    lyndon_count, lyndon_mobius_check, rotation_class,
                    word_str)
from .numbers import QPoly, binomial, divisors, mu_hat, partitions_up_to
from .quasisym import (RULES_Q, kromatic_q, kromatic_q_vectors,
                       kromatic_q_via_clans, power_sum_coefficient_q,
                       pyramid_p_expansion_q, specialize_q)
from .symfunc import (Expansion, extract, omega, sympoly_from_vector_counts,
                      verify_omega_basis_identities)

DISPLAY = {"k1": "K1", "k2": "K2", "k3": "K3", "p3": "P3", "p4": "P4",
           "c4": "C4", "paw": "paw"}


def _load(spec, model=False):
    """(display name, graph) for a bundled name or a path to a JSON file:
    a graph, or with model a unit-interval model."""
    names, bundled, from_json = (
        (BUNDLED_MODELS, bundled_model, model_from_json) if model
        else (BUNDLED_GRAPHS, bundled_graph, graph_from_json))
    key = spec.lower()
    if key in names:
        return DISPLAY.get(key, key), bundled(key)
    path = Path(spec)
    return path.stem, from_json(json.loads(path.read_text()))


def _coeff_json(c):
    """Scalars as strings; q-polynomials as coefficient arrays by q-power
    (array entries are ints, or strings for the fractional coefficients that
    genuinely occur in q-extractions)."""
    if isinstance(c, QPoly):
        return [x if isinstance(x, int) else str(x) for x in c.c]
    return str(c)


def _expansion_json(exp, name, omega_applied, q_value=None):
    terms = [{"partition": list(lam), "coeff": _coeff_json(c)}
             for lam, c in exp.items_sorted()]
    out = {"graph": name, "basis": exp.basis, "N": exp.N, "M": exp.N,
           "omega": omega_applied, "terms": terms}
    if q_value is not None:
        out["q"] = str(q_value)
    return out


def _emit(obj, out_path):
    text = json.dumps(obj, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# modes

def run_expand(args, parser):
    name, g = _load(args.graph)
    N = args.degree
    ms, image = independence_multiset(g), "omega" if args.omega else "direct"
    if args.basis == "p":
        exp = Expansion("p", N, kromatic_from_multiset(ms, N, image).terms())
    else:
        exp = kromatic_expansion(ms, N, image, args.basis)
    _emit(_expansion_json(exp, name, args.omega), args.out)
    return 0


def run_qexpand(args, parser):
    name, g = (_load(args.model, model=True) if args.model
               else _load(args.graph))
    if unit_interval_bounds(g) is None:
        parser.error(f"graph {name} has no natural unit-interval model; "
                     "its q-refined series is not symmetric")
    F = kromatic_q(g, args.degree)
    if args.q is not None:
        F = specialize_q(F, args.q)
    if args.omega:
        F = omega(F)
    exp = extract(F, args.basis)
    _emit(_expansion_json(exp, name, args.omega, args.q), args.out)
    return 0


def run_lyndon(args, parser):
    name, g = _load(args.graph)
    words = {str(n): [word_str(w) for w in enumerate_lyndon(g, n)]
             for n in range(1, args.degree + 1)}
    _emit({"graph": name, "degree": args.degree,
           "counts": {n: len(ws) for n, ws in words.items()},
           "words": words}, args.out)
    return 0


def run_independence(args, parser):
    name, g = _load(args.graph)
    entries = [{"independence": list(poly), "size": size}
               for poly, size in independence_multiset(g)]
    _emit({"graph": name, "n": g.n, "entries": entries}, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify

def _lambda_tag(lam):
    if any(p >= 10 for p in lam):
        return "-".join(str(p) for p in lam)
    return "".join(str(p) for p in lam)


def _invariant_word_shuffles(g):
    if not g.n:
        return heap_from_word(g, ()) == ()  # the one word on no letters
    rng = random.Random(97 + 131 * g.n + len(g.edges))
    for _ in range(40):
        word = [rng.randint(1, g.n) for _ in range(rng.randint(1, 7))]
        h = heap_from_word(g, word)
        w = list(word)
        for _ in range(15):
            if len(w) < 2:
                break
            i = rng.randrange(len(w) - 1)
            a, b = w[i], w[i + 1]
            if a != b and not g.adjacent(a, b):
                w[i], w[i + 1] = b, a
        if heap_from_word(g, w) != h:
            return False
    return True


def binomial_box_sums(family, caps):
    """{u: sum of w * prod_k binomial(v_k, u_k)} over the (v, w) of a signed
    family, at the vectors u of the box 0 <= u <= caps: the forward map of
    the recover-*-k4 checks.  Each v adds the outer product of its per-part
    rows of binomial over the box, without their zero entries; no partition
    is built."""
    sums = {}
    for v, w in family.items():
        terms = {(): w}
        for v_k, c in zip(v, caps):
            row = [binomial(v_k, m) for m in range(c + 1)]
            terms = {u + (m,): t * b for u, t in terms.items()
                     for m, b in enumerate(row) if b}
        for u, t in terms.items():
            sums[u] = sums.get(u, 0) + t
    return sums


def build_checks(named_graphs, N, selection):
    """List of (suite, check-name, thunk) for the suite named by selection,
    or for every suite if it is "all".  Thunks return truthy on pass."""
    checks = []

    def add(suite, name, fn):
        if selection in ("all", suite):
            checks.append((suite, name, fn))

    K2 = bundled_graph("k2")
    P3 = bundled_graph("p3")

    # --- numbers ---------------------------------------------------------
    add("numbers", "dirichlet-inverse-64",
        lambda: all(sum(mu_hat(d) * (-1) ** (n // d + 1) for d in divisors(n))
                    == (n == 1) for n in range(1, 65)))
    add("numbers", "omega-basis-rules-k4",
        lambda: all(verify_omega_basis_identities(k, 8)
                    for k in range(1, 5)))

    # --- heaps -----------------------------------------------------------
    def rotation_example():
        cls = rotation_class(P3, heap_from_word(P3, (2, 3, 1, 1)))
        return (sorted(map(word_str, cls)) == ["1123", "1231", "2311", "3211"]
                and [word_str(x) for x in cls if is_lyndon(P3, x)] == ["1123"])

    add("heaps", "rotation-example-P3-2311", rotation_example)
    add("heaps", "lyndon-counts-K2",
        lambda: [lyndon_count(K2, n) for n in range(1, 6)] == [2, 1, 2, 3, 6])
    for name, g in named_graphs:
        add("heaps", f"lyndon-mobius-{name}",
            lambda g=g: all(lhs == rhs for lhs, rhs in
                            (lyndon_mobius_check(g, n) for n in range(1, 6))))
        add("heaps", f"canonical-invariance-{name}",
            lambda g=g: _invariant_word_shuffles(g))

    # --- factorization ---------------------------------------------------
    for name, g in named_graphs:
        for variant in CLAIMS:
            add("factorization", f"claim-{variant}-{name}-N{N}",
                lambda g=g, v=variant: verify_factorization(g, v, N))

    def exponent_spots():
        def row(rule):
            return [exponent(K2, k, rule) for k in range(1, 6)]

        return (row("1.5") == [2, 1, 2, 3, 6]
                and row("1.3") == [2, 3, 2, 6, 6]
                and exponent(K2, 2, "1.4") == -3
                and row("1.2") == [2, -1, 2, -4, 6])

    add("factorization", "exponents-K2", exponent_spots)

    # --- theorems --------------------------------------------------------
    def extractions(images, rules):
        """{rule: extraction of the rule's image on the rule's basis}."""
        return {rule: extract(images[RULES[rule][0]], RULES[rule][1])
                for rule in rules}

    @functools.cache
    def theorem_targets(g):
        return extractions(
            {"direct": kromatic(g, N), "omega": kromatic(g, N, "omega")},
            CLAIMS.values())

    @functools.cache
    def theorem_expansions(g):
        ms = independence_multiset(g)
        return {rule: kromatic_expansion(ms, N, *RULES[rule])
                for rule in CLAIMS.values()}

    def theorem_check(g, lam, rule):
        count = theorem_coefficient(g, lam, rule)
        subsets = theorem_coefficient_subsets(g, lam, rule)
        sign = rule_sign(rule, lam)
        got = sign * theorem_targets(g)[rule].coeff(lam)
        expanded = sign * theorem_expansions(g)[rule].coeff(lam)
        if not 0 <= count == subsets == got == expanded:
            raise AssertionError(f"counted {count}, subsets {subsets}, "
                                 f"extracted {got}, expanded {expanded}")
        return True

    for name, g in named_graphs:
        for lam in partitions_up_to(N):
            if not lam:
                continue
            for rule in CLAIMS.values():
                add("theorems",
                    f"thm-{rule}-{name}-lambda-{_lambda_tag(lam)}",
                    lambda g=g, lam=lam, rule=rule:
                    theorem_check(g, lam, rule))

    # --- classical -------------------------------------------------------
    classical_oracles = functools.cache(chromatic_p_expansion_oracles)

    def classical_reduction(g):
        n = g.n
        E = extract(kromatic(g, n), "pbar")
        by_edges, by_orientations = classical_oracles(g)
        if by_edges.coeffs != by_orientations.coeffs:
            return False
        return all(E.coeff(lam) == by_edges.coeff(lam)
                   for lam in partitions_up_to(n) if sum(lam) == n)

    for name, g in named_graphs:
        add("classical", f"classical-reduction-{name}",
            lambda g=g: classical_reduction(g))
        # |AO(G)| = |chi_G(-1)|, and p_lam at x ones is x^len(lam)
        add("classical", f"orientation-count-{name}",
            lambda g=g: len(acyclic_orientations(g))
            == abs(sum(c * (-1) ** len(lam) for lam, c in
                       classical_oracles(g)[0].coeffs.items())))

    # --- recovery --------------------------------------------------------
    for name, g in named_graphs:
        def roundtrip(g=g):
            ms = independence_multiset(g)
            F = sympoly_from_vector_counts(
                {v: p(1) for v, p in kromatic_q_vectors(g, 4, 4).items()}, 4)
            return (kromatic_from_multiset(ms, 4) == F
                    and kromatic_from_multiset(ms, 4, image="omega")
                    == omega(F))

        add("recovery", f"multiset-roundtrip-{name}", roundtrip)

    for name, g, n, caps in (("K2", K2, 8, (2, 3)), ("P3", P3, 13, (3, 5))):
        add("recovery", f"recover-{name}-honest",
            lambda g=g, n=n, caps=caps: recover_signed_exponent_multiset(
                extract(kromatic(g, n, "omega", 2), "pbar", max_part=2),
                caps) == signed_exponent_family(g, "1.3", (1, 2)))

    def recover_k4(g):
        family = signed_exponent_family(g, "1.3", (1, 2, 3, 4))
        caps = tuple(exponent(g, k, "1.3") for k in range(1, 5))
        return peel_signed_family(binomial_box_sums(family, caps),
                                  caps) == family

    add("recovery", "recover-K2-k4", lambda: recover_k4(K2))
    add("recovery", "recover-P3-k4", lambda: recover_k4(P3))

    # --- q ---------------------------------------------------------------
    for name, g in named_graphs:
        add("q", f"clans-vs-brute-{name}",
            lambda g=g: kromatic_q_via_clans(g, 4, 3)
            == kromatic_q_vectors(g, 4, 3))
        if unit_interval_bounds(g) is not None:
            add("q", f"pyramid-expansion-{name}",
                lambda g=g: pyramid_p_expansion_q(g, g.n + 1)
                == omega(kromatic_q(g, g.n + 1)))
            add("q", f"q1-collapse-{name}",
                lambda g=g: specialize_q(kromatic_q(g, 4), 1)
                == kromatic(g, 4))

    @functools.cache
    def q_extraction(g):
        X = kromatic_q(g, 4)
        return extractions({"direct": X, "omega": omega(X)}, RULES_Q)

    def prop_check(g, lam, rule):
        count = power_sum_coefficient_q(g, lam, rule)
        got = q_extraction(g)[rule].coeff(lam)
        if count != got:
            raise AssertionError(f"counted {count}, extracted {got}")
        return True

    for name, g in (("K2", K2), ("P3", P3)):
        for lam in partitions_up_to(4):
            if not lam:
                continue
            for rule in RULES_Q:
                add("q", f"prop-{rule}-{name}-lambda-{_lambda_tag(lam)}",
                    lambda g=g, lam=lam, rule=rule:
                    prop_check(g, lam, rule))

    return checks


SUITES = ("numbers", "heaps", "factorization", "theorems", "classical",
          "recovery", "q")


def run_verify(args, parser):
    named = [_load(spec) for spec in
             ([args.graph] if args.graph else BUNDLED_GRAPHS)]
    checks = build_checks(named, args.degree, args.suite)
    failed = 0
    report = []
    for suite, name, fn in checks:
        try:
            ok = bool(fn())
            detail = ""
        except Exception as e:  # a crashed check is a failed check
            ok = False
            detail = f" ({type(e).__name__}: {e})"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        print(f"{status} {name}{detail}")
        report.append({"suite": suite, "name": name, "ok": ok})
    total = len(checks)
    print(f"{total - failed}/{total} checks passed")
    if args.out:
        _emit({"degree": args.degree, "suite": args.suite,
               "graphs": [n for n, _ in named],
               "passed": total - failed, "failed": failed,
               "checks": report}, args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------

def positive_int(text):
    """An argparse type: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def rational(text):
    """An argparse type: a Fraction.  argparse reports a ValueError as an
    invalid value, so a zero denominator is turned into one."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def make_parser():
    parser = argparse.ArgumentParser(
        prog="kromatic",
        description="Exact expansions and verification for set-coloring "
                    "symmetric functions.")
    sub = parser.add_subparsers(dest="mode", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # every mode's options
    shared.add_argument("--degree", type=positive_int, default=5,
                        help="truncation degree N (default 5)")
    shared.add_argument("--out", default=None, help="write JSON here "
                        "instead of stdout")
    shared.add_argument("--jobs", type=positive_int, default=1,
                        help="parallelism hint (accepted; runs sequentially)")

    def mode(name, help, model=False, basis=None, q=False):
        p = sub.add_parser(name, parents=[shared], help=help)
        graph_help = (f"bundled graph name ({', '.join(BUNDLED_GRAPHS)}) "
                      "or JSON path")
        if model:
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--graph", help=graph_help)
            source.add_argument("--model", help="bundled unit-interval model "
                                f"name ({', '.join(BUNDLED_MODELS)}) or JSON "
                                "path")
        else:
            p.add_argument("--graph", required=True, help=graph_help)
        if basis:
            p.add_argument("--basis", choices=("p", "pbar", "pbarprime"),
                           default=basis)
            p.add_argument("--omega", action="store_true",
                           help="expand the omega image instead")
        if q:
            p.add_argument("--q", type=rational, default=None,
                           help="evaluate q-polynomials at this rational; "
                           "give a negative fraction as --q=-2/3")

    mode("expand", "basis coefficients of the series", basis="pbar")
    mode("qexpand", "basis coefficients, q-refined", model=True,
         basis="pbarprime", q=True)

    pv = sub.add_parser("verify", parents=[shared],
                        help="run named invariant checks")
    pv.add_argument("--graph", help="restrict to one graph (bundled name or "
                    "JSON path); default: all bundled graphs")
    pv.add_argument("--suite", choices=("all",) + SUITES, default="all")

    mode("lyndon", "Lyndon heap counts and words")
    mode("independence", "independence multiset dump")
    return parser


RUNNERS = {"expand": run_expand, "qexpand": run_qexpand,
           "verify": run_verify, "lyndon": run_lyndon,
           "independence": run_independence}


def main(argv=None):
    """Run one mode and return its exit status.

    The first statement freezes the heap: every object alive once the
    modules are imported (the interpreter's, the stdlib's and kromatic's
    modules, functions and tables, about 12,900 tracked objects) moves to
    the collector's permanent generation, in about 4 microseconds.  No
    collection in the run walks them again, and at exit the interpreter no
    longer collects and frees their cycles one by one.  Exit after `import
    kromatic.cli` took 9.5-10.1 ms, and 3.0-3.2 ms with the freeze
    (medians of 20 fresh interpreters, two probes, 2-vCPU host).  In a CLI
    process these objects live until exit anyway, and reference counting
    still frees any that die sooner, so outputs and peak memory do not
    change; a long-lived caller of `main` can hand them back with
    `gc.unfreeze()`.  Nothing is collected first (2.7-2.9 ms that freed no
    object), and the collector stays on: `numbers.family_sums` and
    `quasisym._covering_walk` leave a cycle behind on every call.

    A reader that closes stdout early (`kromatic verify | head -1`) ends
    the run with status 1 and no message, as SIGPIPE would: stdout is
    flushed here so that the closed pipe shows here, and then pointed at
    the null device so that the flush at exit does not fail again.
    """
    gc.freeze()
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = RUNNERS[args.mode](args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as e:
        parser.error(f"cannot access file: {e}")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
