"""Outside-in layer tracer for one kromatic process.

`install()` wraps the functions of each layer module from outside the
package: every module-level function defined there, the lru_cache'd ones
included, plus the arithmetic methods of `SymPoly` and `QPoly`.  Each call is
a span on one stack, so a layer's self time is its spans' time minus the
time of the spans they caused, and recursion is never counted twice.  Code
that is not wrapped (private helpers, bit helpers, `Graph.adjacent`, `Heap`
properties) is charged to the layer of the span that called it.

Nothing under `src/` is changed and no private cache is read or cleared.
A function that a later version of the package removes or renames turns the
metrics built on it into `None` instead of failing.
"""
import functools
import inspect
import sys
import time

LAYERS = ("cli", "core", "quasisym", "symfunc", "heaps", "graphs", "numbers")

# Wrapped methods of the classes defined in the layer modules.  Other
# methods stay unwrapped: they are tiny and hot, so they belong to their
# caller's time.
METHODS = {
    "symfunc.SymPoly": ("__add__", "__sub__", "__neg__", "__mul__",
                        "__rmul__", "scale", "map_coeffs", "__eq__"),
    "numbers.QPoly": ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                      "__mul__", "__rmul__", "__call__", "divexact"),
}

# One-line bit helpers called millions of times: a span would cost more than
# the call, so their time is charged to the caller.
UNWRAPPED = {"graphs.popcount", "graphs.mask_of", "graphs.mask_vertices"}

# Private functions wrapped because a metric below is built on them.
PRIVATE = {"cli._emit", "core._subset_signed_products",
           "quasisym._single_coloring_ascents"}

# Inclusive-time groups: seconds from the outermost entry into any member to
# its exit, so nested members (enumerate_lyndon -> enumerate_pyramids ->
# enumerate_heaps) count once.
GROUPS = {
    "heaps.enumerate_s": ("heaps.enumerate_heaps", "heaps.enumerate_pyramids",
                          "heaps.enumerate_lyndon"),
    "symfunc.mul_s": ("symfunc.SymPoly.__mul__",),
    "symfunc.extract_s": ("symfunc.extract",),
    "symfunc.omega_s": ("symfunc.omega",),
    "core.subset_sum_s": ("core._subset_signed_products",
                          "core.kromatic_from_multiset",
                          "core.omega_pbar_coefficients_via_subsets",
                          "core.signed_exponent_family"),
    "core.rule_count_s": ("core.theorem_coefficient",
                          "core.theorem_coefficient_subsets"),
    "core.factorization_s": ("core.verify_factorization",),
    "quasisym.brute_s": ("quasisym.kromatic_q_vectors",),
    "quasisym.clans_s": ("quasisym.kromatic_q_via_clans",),
    "quasisym.pyramid_s": ("quasisym.ascent_polynomial",
                           "quasisym.pyramid_p_expansion_q",
                           "quasisym.power_sum_coefficient_q"),
    "cli.emit_s": ("cli._emit",),
}

# Call counters: calls into any member.
COUNTS = {
    "heaps.canonicalizations": ("heaps.canonical_word_with_perm",),
    "heaps.rotation_steps": ("heaps.rotate",),
    "heaps.lyndon_queries": ("heaps.lyndon_count",),
    "heaps.pyramids_tested": ("heaps.is_lyndon",),
    "heaps.enum_calls": GROUPS["heaps.enumerate_s"],
    "symfunc.mul_calls": ("symfunc.SymPoly.__mul__",),
    "numbers.partition_walks": ("numbers.partitions_up_to",),
    "numbers.qpoly_ops": tuple("numbers.QPoly." + m
                               for m in METHODS["numbers.QPoly"]),
    "quasisym.ascent_evals": ("quasisym.coloring_ascents",
                              "quasisym._single_coloring_ascents"),
    "graphs.independence_calls": ("graphs.independence_polynomial",),
}

# Counters of outcomes rather than calls.
TRUTHY = {"heaps.lyndon_found": "heaps.is_lyndon"}
YIELDS = {"core.colorings": "core.proper_set_colorings"}
REPEATS = {"heaps.enum_repeats": GROUPS["heaps.enumerate_s"]}


class Tracer:
    """Span stack and counters for one process."""

    def __init__(self):
        self.stack = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.fn_calls = {}
        self.truthy = {}
        self.yields = {}
        self.group_s = {}
        self.group_depth = {}
        self.group_start = {}
        self.seen_keys = set()
        self.repeats = 0
        self.check_ms = []
        self.present = set()

    # -- spans ------------------------------------------------------------

    def enter(self, layer, groups, key, now):
        for g in groups:
            d = self.group_depth.get(g, 0)
            if d == 0:
                self.group_start[g] = now
            self.group_depth[g] = d + 1
        self.stack.append([layer, now, 0.0, key])

    def leave(self, groups, now):
        layer, start, child, _ = self.stack.pop()
        dur = now - start
        self.self_s[layer] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        for g in groups:
            d = self.group_depth[g] - 1
            self.group_depth[g] = d
            if d == 0:
                self.group_s[g] = (self.group_s.get(g, 0.0) + now
                                   - self.group_start[g])

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, key, layer):
        groups = tuple(g for g, keys in GROUPS.items() if key in keys)
        clock = time.perf_counter
        fn_calls, calls = self.fn_calls, self.calls
        enter, leave = self.enter, self.leave
        stack = self.stack
        fn_calls[key] = 0

        if inspect.isgeneratorfunction(fn):
            yields = self.yields
            yields[key] = 0

            def wrapper(*args, **kwargs):
                fn_calls[key] += 1
                calls[layer] += 1
                it = fn(*args, **kwargs)
                if stack and stack[-1][3] is key:
                    return it  # direct recursion: resumed inside our span
                return spans(it)

            def spans(it):
                while True:
                    enter(layer, groups, key, clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        leave(groups, clock())
                        return
                    except BaseException:
                        leave(groups, clock())
                        raise
                    leave(groups, clock())
                    yields[key] += 1
                    yield item
        else:
            truthy = key in TRUTHY.values()
            repeats = any(key in keys for keys in REPEATS.values())
            if truthy:
                self.truthy[key] = 0

            def wrapper(*args, **kwargs):
                fn_calls[key] += 1
                calls[layer] += 1
                if repeats:
                    self._note_key(key, args)
                if stack and stack[-1][3] is key:
                    result = fn(*args, **kwargs)  # direct recursion
                else:
                    enter(layer, groups, key, clock())
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        leave(groups, clock())
                if truthy and result:
                    self.truthy[key] += 1
                return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _note_key(self, key, args):
        k = (key,) + tuple(args[:2])
        if k in self.seen_keys:
            self.repeats += 1
        else:
            self.seen_keys.add(k)

    def time_checks(self, build_checks):
        """Wrap `cli.build_checks` so every check thunk it returns is
        timed."""
        clock = time.perf_counter

        def timed(fn):
            def check():
                t = clock()
                try:
                    return fn()
                finally:
                    self.check_ms.append((clock() - t) * 1e3)
            return check

        @functools.wraps(build_checks)
        def wrapper(*args, **kwargs):
            return [(suite, name, timed(fn))
                    for suite, name, fn in build_checks(*args, **kwargs)]
        return wrapper

    # -- results ----------------------------------------------------------

    def snapshot(self, modules):
        """Additive per-process quantities; `None` where the functions a
        metric is built on no longer exist."""
        out = {}
        for layer in LAYERS:
            ok = layer in modules
            out[f"{layer}.self_s"] = self.self_s[layer] if ok else None
            out[f"{layer}.calls"] = self.calls[layer] if ok else None

        def known(keys):
            return any(k in self.present for k in keys)

        for name, keys in GROUPS.items():
            out[name] = self.group_s.get(name, 0.0) if known(keys) else None
        for name, keys in COUNTS.items():
            out[name] = (sum(self.fn_calls.get(k, 0) for k in keys)
                         if known(keys) else None)
        for name, key in TRUTHY.items():
            out[name] = self.truthy.get(key)
        for name, key in YIELDS.items():
            out[name] = self.yields.get(key)
        for name, keys in REPEATS.items():
            out[name] = self.repeats if known(keys) else None
        info = getattr(getattr(modules.get("symfunc"), "basis_element", None),
                       "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (None, None)
        out["symfunc.basis_hits"] = hits
        out["symfunc.basis_lookups"] = None if info is None else hits + misses
        out["cli.check_ms"] = (list(self.check_ms)
                               if "cli.build_checks" in self.present else None)
        return out


def _targets(modules):
    """(key, layer, owner, attribute) for every function to wrap."""
    out = []
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            key = f"{layer}.{name}"
            if (callable(obj) and getattr(obj, "__module__", None)
                    == mod.__name__ and not inspect.isclass(obj)
                    and key not in UNWRAPPED
                    and (not name.startswith("_") or key in PRIVATE)):
                out.append((key, layer, mod, name))
        for qual, methods in METHODS.items():
            cls_layer, cls_name = qual.split(".")
            cls = getattr(mod, cls_name, None) if cls_layer == layer else None
            if cls is None:
                continue
            for m in methods:
                if m in vars(cls):
                    out.append((f"{qual}.{m}", layer, cls, m))
    return out


def install():
    """Wrap the layer modules of the imported `kromatic` package and rebind
    every copy of a wrapped function held by a `kromatic.*` module global or
    a function default.  Returns the tracer and the layer modules found."""
    modules = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"kromatic.{layer}")
        if mod is not None:
            modules[layer] = mod
    tracer = Tracer()
    wrapped = {}
    for key, layer, owner, attr in _targets(modules):
        original = vars(owner)[attr]
        tracer.present.add(key)
        if id(original) not in wrapped:
            w = tracer.wrap(original, key, layer)
            if key == "cli.build_checks":
                w = tracer.time_checks(w)
            wrapped[id(original)] = (original, w)
        setattr(owner, attr, wrapped[id(original)][1])

    # `from .heaps import enumerate_lyndon` copies the binding; so does a
    # default argument such as `statistic=ascent_count`.
    for name, mod in list(sys.modules.items()):
        if name != "kromatic" and not name.startswith("kromatic."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    for original, _ in wrapped.values():
        defaults = getattr(original, "__defaults__", None)
        if defaults:
            original.__defaults__ = tuple(
                wrapped[id(d)][1] if id(d) in wrapped
                and wrapped[id(d)][0] is d else d for d in defaults)
    return tracer, modules
