"""Layer spans recorded from outside the package.

`Tracer.install` replaces each wrapped function under every name the
package binds it to (a module's own global, another module's
`from .x import f`, the package re-export), so calls between layers are
seen wherever they happen. Each call becomes a span with a name, start,
end and parent. Self time (span time minus the time of its child spans) and
call counts are folded into per-bucket totals as spans close; full span
lists are kept only while `record` is on, so a long run stays small.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (module, function) -> bucket. A bucket's self time is reported as
# `<bucket>_s`; functions left out charge their time to the caller's bucket.
WRAPPED = {
    ("field", "make_field"): "field.build",
    ("field", "mat_rank_det"): "field.linalg",
    ("field", "mat_solve"): "field.linalg",
    ("field", "subgroup_basis"): "field.linalg",
    ("field", "subgroup_span"): "field.linalg",
    ("field", "trace_orthogonal_complement"): "field.linalg",
    ("curves", "enumerate_curves"): "curves.enumerate",
    ("curves", "enumerate_regular"): "curves.enumerate",
    ("curves", "enumerate_exceptional"): "curves.enumerate",
    ("curves", "assert_admissible"): "curves.admissible",
    ("curves", "is_admissible"): "curves.admissible",
    ("curves", "classify"): "curves.classify",
    ("curves", "classify_points"): "curves.classify",
    ("curves", "explicit_curve"): "curves.forms",
    ("curves", "explicit_form"): "curves.forms",
    ("curves", "structural_equations"): "curves.forms",
    ("pauli", "factorization_partition"): "pauli.partition",
    ("pauli", "transform_curve"): "pauli.transform",
    ("bundles", "make_bundle"): "bundles.build",
    ("bundles", "build_regular_bundle"): "bundles.build",
    ("bundles", "ray_bundle"): "bundles.build",
    ("bundles", "closure_bundle"): "bundles.build",
    ("bundles", "search_bundles"): "bundles.search",
    ("verify", "eigenbasis"): "verify.eigenbasis",
    ("verify", "check_trace_orthogonality"): "verify.trace_orth",
    ("verify", "check_unbiased"): "verify.overlap",
    ("verify", "unbiasedness_overlaps"): "verify.overlap",
    ("verify", "verify_bundle"): "verify.bundle",
    ("verify", "verify_atlas"): "verify.bundle",
    ("cli", "main"): "cli.self",
    ("cli", "build_parser"): "cli.parse",
    ("cli", "parse_explicit"): "cli.parse",
    ("cli", "parse_curve_arg"): "cli.parse",
    ("cli", "parse_ops"): "cli.parse",
    ("cli", "load_seed_curves"): "cli.parse",
}


def _labelled_pairs(args, result) -> int:
    """check_trace_orthogonality compares every pair (with repeats) of the
    nonidentity labels of all curves."""
    labels = sum(len(c) - 1 for c in args[1])
    return labels * (labels + 1) // 2


# Counters derived from a wrapped call's arguments or result.
COUNTERS = {
    ("curves", "enumerate_curves"): ("curves.enumerated", lambda a, r: len(r)),
    ("bundles", "search_bundles"): ("bundles.found", lambda a, r: len(r)),
    ("verify", "check_trace_orthogonality"): ("verify.trace_orth_pairs", _labelled_pairs),
    ("verify", "unbiasedness_overlaps"): ("verify.overlaps", lambda a, r: len(r)),
}

LAYERS = ("field", "curves", "pauli", "bundles", "verify", "cli")


class Tracer:
    def __init__(self, now=perf_counter) -> None:
        self.now = now
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.record = False
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, bucket: str, fn, counter=None):
        """`fn` wrapped so that each call is a span charged to `bucket`."""
        stack, now = self._stack, self.now

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            frame = [now(), 0.0, sid]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                dur = end - frame[0]
                self.self_s[bucket] += dur - frame[1]
                self.calls[bucket] += 1
                if stack:
                    stack[-1][1] += dur
                if self.record:
                    self.spans.append((sid, parent, name, frame[0], end))
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self, package: str = "mubcurves") -> None:
        mods = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{m}") for m in LAYERS]
        for (layer, fname), bucket in WRAPPED.items():
            orig = getattr(importlib.import_module(f"{package}.{layer}"), fname)
            wrapper = self.span(f"{layer}.{fname}", bucket, orig,
                                COUNTERS.get((layer, fname)))
            if (layer, fname) == ("cli", "build_parser"):
                wrapper = self._parser_wrapper(wrapper)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
        # Backtracking disjointness tests: the search's own binding only,
        # counted without a span because there are ~10^5 per search.
        bundles = importlib.import_module(f"{package}.bundles")
        test = bundles.nonintersecting
        counts = self.counts

        def counted(c1, c2):
            counts["bundles.disjoint_tests"] += 1
            return test(c1, c2)

        self._patch(bundles, "nonintersecting", counted)

    def _parser_wrapper(self, build):
        def build_traced(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = self.span("cli.parse_args", "cli.parse", parser.parse_args)
            return parser
        return build_traced

    def _patch(self, mod, attr: str, value) -> None:
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)

    def op(self, name: str):
        """Root span of one benchmark op: spans of one op share its id."""
        return self.span(name, "op", lambda fn: fn())
