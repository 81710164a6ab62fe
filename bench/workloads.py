"""The benchmark's workloads: seeded op cycles and the oracle check of each op.

Every workload is a fixed cycle of ops generated from the seed; a run
repeats the cycle. An op is either one in-process `mubc` call
(`mubcurves.cli.main(argv)` with stdout and stderr captured) or one library
call. Each op carries its own check, which compares the answer with
`oracle` and never with another answer of the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import oracle as O

CONFIG_ENV = "MUBC_FIELD_CONFIG"


@dataclass
class Result:
    value: object = None        # library return value
    rc: Optional[int] = None    # CLI exit code
    out: str = ""
    err: str = ""
    exc: Optional[BaseException] = None


@dataclass
class Op:
    kind: str
    run: Callable[[], Result]
    check: Callable[[Result], Optional[str]]   # None when the answer is right
    wellformed: bool = True


@dataclass
class Workload:
    cycle: list[Op]
    post_check: Optional[Callable[[list], Optional[str]]] = None
    probes: list[tuple[str, Op]] = field(default_factory=list)   # run once, not counted


def cli_op(lib, kind: str, argv: list[str], check, env: Optional[dict] = None,
           wellformed: bool = True) -> Op:
    def run() -> Result:
        out, err = io.StringIO(), io.StringIO()
        saved = {k: os.environ.get(k) for k in (env or {})}
        os.environ.update(env or {})
        res = Result()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                res.rc = lib.cli.main(argv)
        except SystemExit as exc:        # argparse rejects bad arguments this way
            res.rc = exc.code
        except Exception as exc:         # an uncaught error is a failed op, not a crash
            res.exc = exc
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        res.out, res.err = out.getvalue(), err.getvalue()
        return res

    def checked(res: Result) -> Optional[str]:
        if res.exc is not None:
            return f"uncaught {type(res.exc).__name__}: {res.exc}"
        return check(res)

    return Op(kind, run, checked, wellformed)


def lib_op(kind: str, call: Callable[[], object], check) -> Op:
    def run() -> Result:
        try:
            return Result(value=call())
        except Exception as exc:
            return Result(exc=exc)

    def checked(res: Result) -> Optional[str]:
        if res.exc is not None:
            return f"uncaught {type(res.exc).__name__}: {res.exc}"
        return check(res.value)

    return Op(kind, run, checked)


def _lines(res: Result, rc: int = 0) -> list[str]:
    if res.rc != rc:
        raise _Wrong(f"exit code {res.rc}, expected {rc}; stderr {res.err.strip()[-200:]!r}")
    return res.out.splitlines()


class _Wrong(Exception):
    pass


def _guard(check):
    def run(*args):
        try:
            return check(*args)
        except _Wrong as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"
    return run


# -- atlas ---------------------------------------------------------------------

_SUMMARY = re.compile(r"(\d+) curves: (\d+) regular, (?:(\d+) exceptional"
                      r"|(\d+) exceptional\(2,2\), (\d+) exceptional\(mixed\))$")


def curves_check(n: int):
    """`mubc curves` text: census against the counting oracles, one line per
    curve, 2^n + 1 rays, and the same bytes every time for the same argv."""
    total, regular, rays = O.atlas_size(n), O.regular_count(n), (1 << n) + 1
    digests: dict[tuple, str] = {}

    @_guard
    def check(res: Result, key=None):
        lines = _lines(res)
        m = _SUMMARY.match(lines[0])
        if not m:
            return f"bad summary {lines[0]!r}"
        exceptional = [int(g) for g in m.groups()[2:] if g is not None]
        if (int(m[1]), int(m[2]), sum(exceptional)) != (total, regular, total - regular):
            return f"census {lines[0]!r}, expected {total} curves, {regular} regular"
        body = lines[1:]
        if len(body) != total:
            return f"{len(body)} curve lines, expected {total}"
        if sum(line.startswith("  [Ray]") for line in body) != rays:
            return f"expected {rays} rays"
        if sum(line.startswith(("  [Ray]", "  [Regular")) for line in body) != regular:
            return "regular curve lines disagree with the census"
        digest = hashlib.sha256(res.out.encode()).hexdigest()
        if digests.setdefault(key, digest) != digest:
            return "output differs from an earlier run of the same command"
        return None

    return check


def build_atlas(lib, seed: int) -> Workload:
    rng = random.Random(seed)
    moduli = ["10011", "11001"]
    for bits in moduli:
        lib.field.make_field(4, lib.field.modulus_from_bits(bits))
    check = curves_check(4)
    cycle = []
    for _ in range(4):
        modulus = rng.choice(moduli)
        argv = ["curves", "--n", "4", "--modulus", modulus]
        cycle.append(cli_op(lib, f"curves-{modulus}", argv,
                            lambda res, key=modulus: check(res, key)))
    return Workload(cycle)


# -- verify --------------------------------------------------------------------

PASS_LINES = ("nonintersecting: pass", "commuting sets: pass",
              "trace orthogonality: pass", "unbiasedness: pass")


def bundle_text_check(n: int, verdict: bool):
    """Text report of a genuine bundle: every check passes."""
    @_guard
    def check(res: Result):
        lines = _lines(res)
        curves = sum(line.startswith("  [") for line in lines)
        if curves != (1 << n) + 1:
            return f"{curves} curves listed, expected {(1 << n) + 1}"
        missing = [p for p in PASS_LINES if p not in lines]
        if missing:
            return f"genuine bundle failed {missing}"
        if verdict and lines[-1] != "all checks pass":
            return f"verdict {lines[-1]!r}"
        return None
    return check


def tail_bundle(F: O.Field, phi: int) -> list[frozenset]:
    """The bundle the CLI's regular-tail strategy builds from --phi, computed
    independently: beta = l*a + tail(a) for every l, plus the ray a = 0."""
    tail = [0] * F.n
    if F.n == 2:
        tail[1] = phi
    elif F.n > 2:
        tail[1], tail[-1] = F.mul(phi, phi), phi
    curves = [F.explicit_points([lam] + tail[1:]) for lam in range(F.order)]
    return curves + [frozenset((0, b) for b in range(F.order))]


NEGATIVE_EVERY = 4   # every 4th verify op is the negative control
SEARCH_CURVES = 32   # seed curves per search cycle


def build_verify(lib, seed: int) -> Workload:
    """Three CLI verifications, then one library negative control, per cycle."""
    rng = random.Random(seed)
    F = O.Field(4)
    F_lib = lib.field.make_field(4)
    cycle = []
    for _ in range(NEGATIVE_EVERY - 1):
        if rng.random() < 0.5:
            argv = ["verify", "--n", "4", "--strategy", "rays"]
        else:
            argv = ["verify", "--n", "4", "--strategy", "regular-tail",
                    "--phi", F.name(rng.randrange(1, F.order))]
        cycle.append(cli_op(lib, "verify-" + argv[4], argv, bundle_text_check(4, True)))

    # Negative control: a genuine bundle with one curve swapped for an
    # atlas curve that meets another member away from the origin.
    curves = tail_bundle(F, rng.randrange(F.order))
    swap = rng.randrange(len(curves))
    while True:
        intruder = F.random_lagrangian(rng)
        rest = curves[:swap] + curves[swap + 1:]
        if intruder not in curves and any(not O.disjoint(intruder, c) for c in rest):
            break
    bad = rest[:swap] + [intruder] + rest[swap:]

    def must_fail(report) -> Optional[str]:
        if report.ok or report.unbiased:
            return (f"intersecting curves passed: ok={report.ok}, "
                    f"unbiased={report.unbiased}")
        return None

    cycle.append(lib_op("negative-control",
                        lambda: lib.verify.verify_bundle(F_lib, bad), must_fail))
    return Workload(cycle)


# -- search --------------------------------------------------------------------


def build_search(lib, seed: int) -> Workload:
    """Exhaustive completions of distinct seeded n = 3 curves."""
    rng = random.Random(seed)
    F = O.Field(3)
    F_lib = lib.field.make_field(3)
    per_curve = O.BUNDLES_N3 * (F.order + 1) // O.atlas_size(3)
    seeds: list[frozenset] = []
    while len(seeds) < SEARCH_CURVES:
        c = F.random_lagrangian(rng)
        if c not in seeds:
            seeds.append(c)
    valid: dict[frozenset, bool] = {}

    def check_for(c):
        def check(bundles) -> Optional[str]:
            if len(bundles) != per_curve:
                return f"{len(bundles)} bundles, expected {per_curve}"
            sets = {frozenset(b.curves) for b in bundles}
            if len(sets) != len(bundles):
                return "duplicate bundles"
            for b in sets:
                if c not in b or len(b) != F.order + 1:
                    return "bundle misses the seed curve or has the wrong size"
                for curve in b:
                    if curve not in valid:
                        valid[curve] = F.is_lagrangian(curve)
                    if not valid[curve]:
                        return "bundle holds a non-Lagrangian curve"
                members = list(b)
                if any(not O.disjoint(members[i], members[j])
                       for i in range(len(members)) for j in range(i)):
                    return "bundle curves intersect"
            return None
        return check

    cycle = [lib_op("search",
                    lambda c=c: lib.bundles.search_bundles(F_lib, [c], limit=sys.maxsize),
                    check_for(c)) for c in seeds]

    def post_check(first_answer) -> Optional[str]:
        """Once per run, after the timed loop: the networkx clique count over
        an independently enumerated atlas, and the first op's bundles equal
        to the cliques that contain its seed curve."""
        atlas = O.lagrangians_n3(F)
        if len(atlas) != O.atlas_size(3):
            return f"independent atlas has {len(atlas)} curves"
        cliques = O.bundle_cliques(atlas)
        if len(cliques) != O.BUNDLES_N3:
            return f"networkx finds {len(cliques)} bundles, expected {O.BUNDLES_N3}"
        want = {b for b in cliques if seeds[0] in b}
        got = {frozenset(b.curves) for b in first_answer}
        return None if got == want else "first op's bundles differ from the cliques"

    return Workload(cycle, post_check)


# -- requests ------------------------------------------------------------------


def error_check(res: Result) -> Optional[str]:
    """Malformed input: exit 2, nothing on stdout, exactly one error: line."""
    errors = [line for line in res.err.splitlines() if "error:" in line]
    if res.rc != 2 or res.out or len(errors) != 1:
        return f"exit {res.rc} with {len(errors)} error lines, expected exit 2 and one"
    return None


def field_check(F: O.Field, fmt: str):
    @_guard
    def check(res: Result):
        lines = _lines(res)
        if fmt == "json":
            got = json.loads(res.out)
            one_plus_s = 1 ^ F.primitive
            want = {"n": F.n, "modulus_bits": F.bits, "primitive": F.primitive,
                    "antilog_table": F.antilog, "trace_table": F.trace_table,
                    "selfdual_basis": list(F.selfdual),
                    "jacobi_L1": F.log[one_plus_s] if one_plus_s else None}
            return None if got == want else "field tables differ from the oracle"
        return None if lines == F.field_text() else "field text differs from the oracle"
    return check


def transform_check(F: O.Field, pts, image, fmt: str):
    kind = "regular" if O.is_regular(F, image) else "exceptional"

    @_guard
    def check(res: Result):
        lines = _lines(res)
        if fmt == "json":
            got = json.loads(res.out)
            if (got["input"] != [list(p) for p in sorted(pts)]
                    or got["image"] != [list(p) for p in sorted(image)]):
                return "transformed points differ from the oracle"
            return None if got["kind"] == kind else f"kind {got['kind']}, expected {kind}"
        if lines[:2] != [f"input: {F.fmt_points(pts)}", f"image: {F.fmt_points(image)}"]:
            return "transformed points differ from the oracle"
        prefixes = ("class: ", "equation: ", "partition: ")
        if len(lines) != 5 or not all(l.startswith(p) for l, p in zip(lines[2:], prefixes)):
            return "bad transform report layout"
        return None
    return check


def bundle_json_check(F: O.Field, curves: list[frozenset]):
    want = {frozenset(F.fmt_points([p])[1:-1] for p in c) for c in curves}

    @_guard
    def check(res: Result):
        _lines(res)
        got = json.loads(res.out)
        if not all(got["checks"].values()):
            return f"genuine bundle failed {got['checks']}"
        if {frozenset(rec["points"]) for rec in got["curves"]} != want:
            return "bundle curves differ from the oracle"
        if sum(got["structure"]) != len(curves):
            return "structure histogram does not count every curve"
        return None
    return check


def _curve_spec(F: O.Field, rng: random.Random):
    """A random curve as a JSON point list, or as an explicit form."""
    if rng.random() < 0.5:
        pts = F.random_lagrangian(rng)
        pairs = [list(p) for p in pts]
        rng.shuffle(pairs)
        return json.dumps(pairs), pts
    phi = F.random_symmetric_phi(rng)
    dep, ind = rng.choice([("b", "a"), ("a", "b")])
    terms = []
    for m, c in enumerate(phi):
        if c:
            power = ind if m == 0 else f"{ind}^{1 << m}"
            terms.append(power if c == 1 and rng.random() < 0.5 else f"{F.name(c)}*{power}")
    pts = F.explicit_points(phi)
    if dep == "a":
        pts = frozenset((b, a) for a, b in pts)
    return f"{dep} = " + (" + ".join(terms) if terms else "0"), pts


def malformed(lib) -> list[Op]:
    """Each malformed request once; every one must exit 2."""
    cases = [
        ["field", "--n", "0"],
        ["field", "--n", "6"],
        ["field", "--n", "3", "--modulus", "1111"],
        ["field", "--n", "2", "--modulus", "1a1"],
        ["transform", "--n", "2", "--curve", "b = q*a", "--ops", "x@1"],
        ["transform", "--n", "2", "--curve", "[[0, 0], [1, 0]]", "--ops", "x@1"],
        ["transform", "--n", "2", "--curve", "b = a", "--ops", "w@1"],
        ["transform", "--n", "2", "--curve", "b = a", "--ops", "x@9"],
        ["bundle", "--n", "3", "--strategy", "regular-tail", "--phi", "t"],
        ["verify", "--n", "3", "--strategy", "regular-tail", "--phi", "s^x"],
        ["curves", "--n", "5"],
        ["curves", "--n", "2", "--format", "yaml"],
        ["field", "--n", "2", "--format", "xml"],
    ]
    return [cli_op(lib, "malformed", argv, error_check, wellformed=False) for argv in cases]


def known_defects(lib, workdir: str) -> list[tuple[str, Op]]:
    """The four known front-door defects: malformed requests that raise
    instead of exiting 2. A run makes each call once, untimed and outside
    the op count, and reports whether it still fails."""
    bad_config = os.path.join(workdir, "bad-config.json")
    with open(bad_config, "w", encoding="utf-8") as fh:
        json.dump({"3": 5}, fh)
    missing = os.path.join(workdir, "no-such-seed.json")
    cases = [
        ("bad JSON --curve",
         ["transform", "--n", "2", "--curve", "[[0, 0], [1,", "--ops", "x@1"], None),
        ("--ops x@q", ["transform", "--n", "2", "--curve", "b = a", "--ops", "x@q"], None),
        ("missing --seed file", ["verify", "--n", "2", "--seed", missing], None),
        ('config {"3": 5}', ["field", "--n", "3"], {CONFIG_ENV: bad_config}),
    ]
    return [(label, cli_op(lib, "malformed", argv, error_check, env, wellformed=False))
            for label, argv, env in cases]


def build_requests(lib, seed: int, workdir: str) -> Workload:
    """130 small calls at n = 1..4, one in ten malformed, in seeded order."""
    rng = random.Random(seed)
    fields = {n: O.Field(n) for n in range(1, 5)}
    for n in fields:
        lib.field.make_field(n)
    preset = {1: "11", 2: "111", 3: "1011", 4: "10011"}
    config = os.path.join(workdir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({str(n): {"modulus": bits} for n, bits in preset.items()}, fh)

    cycle = malformed(lib)
    for _ in range(33):
        n, fmt = rng.randrange(1, 5), rng.choice(["text", "json", "tsv"])
        argv, env, bits = ["field", "--n", str(n), "--format", fmt], None, None
        how = rng.randrange(3)
        if how == 1:
            bits = rng.choice(O.irreducible_bits(n))
            argv += ["--modulus", bits]
        elif how == 2:
            env, bits = {CONFIG_ENV: config}, preset[n]
        F = fields[n] if bits is None else O.Field(n, bits)
        cycle.append(cli_op(lib, "field", argv, field_check(F, fmt), env))
    for n in (1, 2, 3, 1, 2, 3):
        cycle.append(cli_op(lib, "curves", ["curves", "--n", str(n)], curves_check(n)))
    for _ in range(45):
        F = fields[rng.randrange(1, 5)]
        spec, pts = _curve_spec(F, rng)
        ops = [(rng.choice("xyz"), rng.randrange(1, F.n + 1)) for _ in range(rng.randrange(1, 4))]
        fmt = rng.choice(["text", "json"])
        argv = ["transform", "--n", str(F.n), "--curve", spec,
                "--ops", ";".join(f"{a}@{q}" for a, q in ops), "--format", fmt]
        cycle.append(cli_op(lib, "transform", argv,
                            transform_check(F, pts, F.transform(pts, ops), fmt)))
    for n in (1, 2, 3) * 11:
        F = fields[n]
        command, fmt = rng.choice(["bundle", "verify"]), rng.choice(["text", "json"])
        argv = [command, "--n", str(n), "--format", fmt]
        phi = 0
        if n > 1 and rng.random() < 0.5:
            phi = rng.randrange(2 if n == 2 else F.order)
            argv += ["--strategy", "regular-tail", "--phi", F.name(phi)]
        check = (bundle_json_check(F, tail_bundle(F, phi)) if fmt == "json"
                 else bundle_text_check(n, command == "verify"))
        cycle.append(cli_op(lib, command, argv, check))
    rng.shuffle(cycle)
    return Workload(cycle, probes=known_defects(lib, workdir))


def build(lib, name: str, seed: int, workdir: str) -> Workload:
    if name == "atlas":
        return build_atlas(lib, seed)
    if name == "verify":
        return build_verify(lib, seed)
    if name == "search":
        return build_search(lib, seed)
    if name == "requests":
        return build_requests(lib, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("atlas", "verify", "search", "requests")
