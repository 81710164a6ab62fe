"""Command-line front end: `mubc field|curves|transform|bundle|verify`.

All output is deterministic for a fixed invocation; `--format` selects
text (default), json, or tsv rendering and `--out` redirects to a file.
Exit codes: 0 on success (and all requested verifications passing),
1 when a verification fails, 2 on configuration or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Optional, Sequence

from . import bundles as B
from . import curves as C
from . import pauli as P
from . import verify as V
from .errors import EmptyResult, InputError, MubcError, clip, reason
from .field import GF2n, field_from_config, make_field, modulus_from_bits, modulus_to_bits

ENV_FIELD_CONFIG = "MUBC_FIELD_CONFIG"


def _build_field(args: argparse.Namespace) -> GF2n:
    if args.modulus is not None:
        return make_field(args.n, modulus_from_bits(args.modulus))
    config = os.environ.get(ENV_FIELD_CONFIG)
    if config:
        return field_from_config(args.n, config)
    return make_field(args.n)


def _emit(args: argparse.Namespace, text_lines: Callable[[], list[str]],
          payload: Callable[[], dict],
          tsv_rows: Optional[Callable[[], list[list[str]]]] = None) -> None:
    """Render only what --format asks for: `text_lines`, `payload` and
    `tsv_rows` are called lazily, and tsv falls back to one text line per row."""
    if args.format == "json":
        out = json.dumps(payload(), indent=2, sort_keys=True) + "\n"
    elif args.format == "tsv":
        rows = tsv_rows() if tsv_rows is not None else [[line] for line in text_lines()]
        out = "".join("\t".join(r) + "\n" for r in rows)
    else:
        out = "".join(line + "\n" for line in text_lines())
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise InputError(f"cannot write {clip(args.out)}: {reason(exc)}") from None
    else:
        sys.stdout.write(out)


# -- rendering helpers ---------------------------------------------------------


def fmt_point(F: GF2n, p: C.Point) -> str:
    return f"({F.format_element(p[0])}, {F.format_element(p[1])})"


def fmt_points(F: GF2n, pts: C.PointSet) -> list[str]:
    return [fmt_point(F, p) for p in sorted(pts)]


def fmt_curve_points(F: GF2n, pts: C.PointSet) -> str:
    return "{" + ", ".join(fmt_points(F, pts)) + "}"


@functools.lru_cache(maxsize=16)
def _term_table(F: GF2n, var: str) -> tuple[tuple[str, ...], ...]:
    """Row m, entry c: the term c*var^(2^m) of an additive polynomial, with
    var^1 written var and a coefficient 1 left out.  Built once per field
    and variable."""
    powers = [var] + [f"{var}^{1 << m}" for m in range(1, F.n)]
    return tuple(tuple(power if c == 1 else f"{F.format_element(c)}*{power}"
                       for c in F.elements()) for power in powers)


def _additive_terms(F: GF2n, coeffs: Sequence[int], var: str) -> list[str]:
    """The nonzero terms c*var^(2^m) of an additive polynomial, lowest power
    first, read from the field's `_term_table`."""
    return [row[c] for row, c in zip(_term_table(F, var), coeffs) if c]


def fmt_explicit(F: GF2n, ec: C.ExplicitCurve) -> str:
    dep, ind = ("b", "a") if ec.orientation == "alpha_form" else ("a", "b")
    terms = _additive_terms(F, ec.coeffs, ind)
    return f"{dep} = " + (" + ".join(terms) if terms else "0")


@functools.lru_cache(maxsize=4096)
def fmt_partition(part: tuple[tuple[int, ...], ...]) -> str:
    return "{" + ",".join(str(len(b)) for b in part) + "}"


def curve_record(F: GF2n, pts: C.PointSet) -> dict:
    """Class, ranks, partition and equation of a curve; the JSON record adds
    `"points": fmt_points(F, pts)`.  One Curve serves every step, so a
    plain point set is checked once."""
    pts = C.assert_admissible(F, pts)
    cls = C.classify_points(F, pts)
    rec = {
        "class": cls.variant,
        "kind": cls.kind,
        "ranks": [cls.rank_alpha, cls.rank_beta],
        "partition": fmt_partition(P.factorization_partition(F, pts)),
    }
    if cls.kind == "regular":
        rec["explicit"] = fmt_explicit(F, C.explicit_curve(F, pts))
    else:
        ea, eb = C.structural_equations(F, pts)
        rec["structural"] = [_fmt_structural(F, ea, "a"), _fmt_structural(F, eb, "b")]
    return rec


def _equation(rec: dict) -> str:
    return rec.get("explicit") or "; ".join(rec.get("structural", []))


def _fmt_structural(F: GF2n, eq: C.StructuralEquation, var: str) -> str:
    text = " + ".join(_additive_terms(F, eq.coeffs + (1,), var)) + " = 0"
    if eq.xi is not None:
        text += f"; tr({F.format_element(eq.xi)}*{var}) = 0"
    return text


# -- curve / op parsing --------------------------------------------------------


def parse_explicit(F: GF2n, text: str) -> C.PointSet:
    """Parse "b = s^2*a + a^2" (or "a = ...") into a point set."""
    if "=" not in text:
        raise InputError(f"curve spec {clip(text)} has no '='")
    lhs, rhs = (side.strip() for side in text.split("=", 1))
    if lhs not in ("a", "b"):
        raise InputError(f"curve spec must start with 'a =' or 'b =', got {clip(lhs)}")
    ind = "a" if lhs == "b" else "b"
    coeffs = [0] * F.n
    rhs = rhs.replace(" ", "")
    if rhs != "0":
        for term in rhs.split("+"):
            if "*" in term:
                coeff_s, power_s = term.split("*", 1)
            elif term.startswith(ind):
                coeff_s, power_s = "1", term
            else:
                raise InputError(f"bad term {clip(term)} in curve spec")
            if power_s == ind:
                m = 0
            elif power_s.startswith(f"{ind}^"):
                try:
                    e = int(power_s[2:])
                except ValueError:
                    raise InputError(f"bad exponent in {clip(term)}") from None
                m = e.bit_length() - 1
                if e < 1 or 1 << m != e or m >= F.n:
                    raise InputError(f"exponent in {clip(term)} must be 2^m, m < {F.n}")
            else:
                raise InputError(f"bad term {clip(term)} in curve spec")
            coeffs[m] ^= F.parse_element(coeff_s)
    pts = C.point_set(F, C.curve_from_phi(F, coeffs))
    if lhs == "a":
        pts = frozenset((b, a) for a, b in pts)
    return C.assert_admissible(F, pts)


def parse_curve_arg(F: GF2n, text: str) -> C.PointSet:
    """Explicit-form string, or a JSON list of [alpha, beta] integer pairs."""
    text = text.strip()
    if text.startswith("["):
        try:
            pairs = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"bad JSON curve {clip(text)}: {exc}") from None
        return _curve_from_pairs(F, pairs)
    return parse_explicit(F, text)


def _curve_from_pairs(F: GF2n, pairs: object) -> C.PointSet:
    """A curve given as a JSON list of [alpha, beta] pairs of field elements."""
    try:
        pts = frozenset((a, b) for a, b in pairs)
    except (TypeError, ValueError):
        raise InputError(f"curve {clip(pairs)} is not a list of [alpha, beta] pairs") from None
    if any(type(c) is not int for p in pts for c in p):
        raise InputError(f"curve {clip(pairs)} has coordinates that are not integers")
    if any(not (0 <= c < F.order) for p in pts for c in p):
        raise InputError(f"curve {clip(pairs)} has coordinates outside 0..{F.order - 1}")
    return C.assert_admissible(F, pts)


def parse_ops(text: str) -> list[tuple[str, int]]:
    """Parse "x@1;y@2" into [('x', 1), ('y', 2)]."""
    ops = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" not in chunk:
            raise InputError(f"bad op {clip(chunk)}; expected axis@qubit like x@1")
        axis, qubit = chunk.split("@", 1)
        try:
            ops.append((axis.strip(), int(qubit)))
        except ValueError:
            raise InputError(f"bad op {clip(chunk)}; the qubit must be an integer") from None
    return ops


def load_seed_curves(F: GF2n, path: str) -> list[C.PointSet]:
    """Seed file: JSON list of curves, each a list of [alpha, beta] pairs
    or an explicit-form string."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read seed file {clip(path)}: {reason(exc)}") from None
    if not isinstance(raw, list):
        raise InputError(f"seed file {clip(path)} must hold a JSON list of curves")
    return [parse_explicit(F, entry) if isinstance(entry, str) else _curve_from_pairs(F, entry)
            for entry in raw]


# -- subcommands -----------------------------------------------------------------


def cmd_field(args: argparse.Namespace) -> int:
    F = _build_field(args)
    lines = [
        f"GF(2^{F.n}): {F.order} elements, modulus bits {modulus_to_bits(F.modulus)}",
        f"primitive s = element {F.primitive}",
        "powers: " + ", ".join(
            f"s^{k}={F.antilog_table[k]}" for k in range(F.order - 1)),
        "trace-1 elements: " + ", ".join(
            F.format_element(a) for a in F.elements() if F.trace(a)),
        "selfdual basis: (" + ", ".join(
            F.format_element(t) for t in F.selfdual_basis) + ")",
        f"L(1) = {F.jacobi_L1}" if F.jacobi_L1 is not None else "L(1) undefined (1+s=0)",
    ]
    payload = {
        "n": F.n,
        "modulus_bits": modulus_to_bits(F.modulus),
        "primitive": F.primitive,
        "antilog_table": list(F.antilog_table),
        "trace_table": list(F.trace_table),
        "selfdual_basis": list(F.selfdual_basis),
        "jacobi_L1": F.jacobi_L1,
    }
    _emit(args, lambda: lines, lambda: payload)
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    F = _build_field(args)
    C.require_enumerable(F)
    atlas = C.enumerate_curves(F)
    records = [curve_record(F, pts) for pts in atlas]
    kinds = [r["kind"] for r in records]
    n_reg = kinds.count("regular")
    n_exc = kinds.count("exceptional")
    # equal degeneracies 2^(n - rank) on both axes means equal ranks
    equal_deg = sum(1 for r in records
                    if r["kind"] == "exceptional" and r["ranks"][0] == r["ranks"][1])
    summary = f"{len(atlas)} curves: {n_reg} regular, {n_exc} exceptional"
    if n_exc and F.n != 2:
        summary = (f"{len(atlas)} curves: {n_reg} regular, "
                   f"{equal_deg} exceptional(2,2), {n_exc - equal_deg} exceptional(mixed)")

    def text_lines() -> list[str]:
        return [summary] + [f"  [{r['class']}] {_equation(r)}  partition {r['partition']}"
                            for r in records]

    def payload() -> dict:
        return {"summary": summary, "curves": [dict(r, points=fmt_points(F, pts))
                                               for r, pts in zip(records, atlas)]}

    def tsv_rows() -> list[list[str]]:
        return [["class", "ranks", "partition", "equation", "points"]] + [
            [r["class"], f"{r['ranks'][0]},{r['ranks'][1]}", r["partition"], _equation(r),
             " ".join(fmt_points(F, pts))] for r, pts in zip(records, atlas)]

    _emit(args, text_lines, payload, tsv_rows)
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    F = _build_field(args)
    pts = parse_curve_arg(F, args.curve)
    image = P.transform_curve(F, pts, parse_ops(args.ops))
    rec = curve_record(F, image)
    lines = [
        f"input: {fmt_curve_points(F, pts)}",
        f"image: {fmt_curve_points(F, image)}",
        f"class: {rec['class']}",
        f"equation: {_equation(rec)}",
        f"partition: {rec['partition']}",
    ]
    _emit(args, lambda: lines, lambda: {"input": sorted(pts), "image": sorted(image),
                                        "points": fmt_points(F, image), **rec})
    return 0


def _build_bundle(args: argparse.Namespace, F: GF2n) -> B.Bundle:
    if args.strategy == "rays":
        return B.ray_bundle(F)
    if args.strategy == "regular-tail":
        phi = F.parse_element(args.phi) if args.phi else 0
        tail = [0] * (F.n - 1)
        # beta = phi_0 a + phi^2 a^2 + phi a^(2^(n-1)), symmetric by design
        if F.n == 2:
            tail[0] = phi
        elif F.n > 2:
            tail[-1] = phi
            tail[0] = F.mul(phi, phi)
        return B.build_regular_bundle(F, tail)
    if args.strategy == "closure":
        if not args.seed:
            raise InputError("closure strategy needs --seed with 3 explicit curves")
        ecs = [C.explicit_curve(F, s) for s in load_seed_curves(F, args.seed)]
        bad = [fmt_explicit(F, ec) for ec in ecs if ec.orientation != "alpha_form"]
        if bad:
            raise InputError(f"closure seed {bad[0]!r} is not of the form b = f(a)")
        return B.closure_bundle(F, [ec.coeffs for ec in ecs])
    if args.strategy == "search":
        C.require_enumerable(F)
        seeds = load_seed_curves(F, args.seed) if args.seed else None
        return B.search_bundles(F, seeds, limit=1)[0]
    raise InputError(f"unknown strategy {args.strategy!r}")


def _report_lines(F: GF2n, curves: Sequence[C.Curve], report: V.BundleReport) -> list[str]:
    lines = [f"bundle of {len(curves)} curves over GF(2^{F.n})"]
    for pts in curves:
        rec = curve_record(F, pts)
        lines.append(f"  [{rec['class']}] {_equation(rec)}  partition {rec['partition']}")
    lines += [
        f"structure: {report.structure}",
        f"nonintersecting: {_pf(report.nonintersecting)}",
        f"commuting sets: {_pf(report.commuting_sets_valid)}",
        f"trace orthogonality: {_pf(report.trace_orthogonal)}",
        f"unbiasedness: {_pf(report.unbiased)}",
        "operator table:",
    ]
    lines += ["  " + "  ".join(row) for row in report.operator_table]
    return lines


def _pf(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _report_payload(F: GF2n, curves: Sequence[C.Curve], report: V.BundleReport) -> dict:
    return {
        "n": F.n,
        "curves": [dict(curve_record(F, pts), points=fmt_points(F, pts)) for pts in curves],
        "structure": list(report.structure),
        "checks": {
            "nonintersecting": report.nonintersecting,
            "commuting_sets": report.commuting_sets_valid,
            "trace_orthogonality": report.trace_orthogonal,
            "unbiasedness": report.unbiased,
        },
        "operator_table": [list(r) for r in report.operator_table],
    }


def cmd_bundle(args: argparse.Namespace) -> int:
    F = _build_field(args)
    try:
        bundle = _build_bundle(args, F)
    except EmptyResult:
        _emit(args, lambda: ["no bundle found"], lambda: {"bundles": []})
        return 0
    report = V.verify_bundle(F, bundle.curves)
    _emit(args, lambda: _report_lines(F, bundle.curves, report),
          lambda: _report_payload(F, bundle.curves, report))
    return 0 if report.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    F = _build_field(args)
    # a seed file is the whole bundle, except for the strategies that grow
    # one from their seeds, as `bundle` does; its curves may intersect,
    # which the report then shows as failed checks
    if args.seed and args.strategy not in ("closure", "search"):
        curves = B.bundle_candidates(F, load_seed_curves(F, args.seed))
    else:
        curves = _build_bundle(args, F).curves
    report = V.verify_bundle(F, curves)
    verdict = "all checks pass" if report.ok else "verification FAILED"
    _emit(args, lambda: _report_lines(F, curves, report) + [verdict],
          lambda: _report_payload(F, curves, report))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubc",
        description="Additive commutative curves and mutually unbiased bases over GF(2^n).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=2, help="extension degree, 1..5")
        p.add_argument("--modulus", help="little-endian modulus bits, e.g. 111 for x^2+x+1")
        p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_field = sub.add_parser("field", help="field tables, selfdual basis and L(1)")
    common(p_field)
    p_field.set_defaults(func=cmd_field)

    p_curves = sub.add_parser("curves", help="enumerate and classify the curve atlas")
    common(p_curves)
    p_curves.set_defaults(func=cmd_curves)

    p_tr = sub.add_parser("transform", help="apply local rotations to a curve")
    common(p_tr)
    p_tr.add_argument("--curve", required=True,
                      help='explicit form like "b = s*a + a^2" or JSON point list')
    p_tr.add_argument("--ops", required=True, help='rotations like "x@1;y@2"')
    p_tr.set_defaults(func=cmd_transform)

    for name, func, help_text in (
            ("bundle", cmd_bundle, "build a bundle and verify it"),
            ("verify", cmd_verify, "verify a bundle (built or loaded from --seed)")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--strategy", choices=("rays", "regular-tail", "closure", "search"),
                       default="rays")
        p.add_argument("--phi", help='regular-tail coefficient, e.g. "s" or "s^3"')
        p.add_argument("--seed", help="JSON file with seed curves "
                                      "(explicit strings or [alpha, beta] point lists)")
        p.add_argument("--limit", type=int, default=1, help="max bundles for search")
        p.set_defaults(func=func)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MubcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
