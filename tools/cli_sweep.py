"""Run a fixed list of `mubc` calls and print one digest line per call.

Each line is tab-separated: the call (a JSON list; a leading "VAR=value"
entry is an environment setting), the sha256 of its stdout, the sha256 of
its stderr, and its exit code.  A call with `--out` has the bytes of the
written file appended to its stdout.  Seed and config files live in a
temporary directory whose path reads `<tmp>` in every printed and hashed
text, so two checkouts give the same lines exactly when `mubc` behaves the
same on every call:

    PYTHONPATH=src python tools/cli_sweep.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/cli_sweep.py > before.txt
    diff before.txt after.txt

The calls cover every subcommand, format and bundle strategy at n = 1..5,
the degrees and moduli on either side of the supported range, the curve
records in every format under each n = 3 and n = 4 modulus, one and several
rotations of an exceptional curve per degree n = 2..5, and good and
malformed curves, ops, seed files and field configs.  They run in process,
through `mubcurves.cli.main`; an argparse refusal records its SystemExit
code, and an uncaught exception records `raised <type>` as the exit code
and its type and message, without the traceback, as its stderr.
The `mubcurves` that was imported is named on stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import sys
import tempfile

from mubcurves import cli

CONFIG_ENV = cli.ENV_FIELD_CONFIG
FORMATS = ("text", "json", "tsv")
# little-endian modulus bits per degree: primitive, irreducible but not
# primitive, reducible, wrong degree, and not a bit string
MODULI = {
    1: ["11", "01", "111"],
    2: ["111", "101", "11", "1x1"],
    3: ["1101", "1011", "1111", "11"],
    4: ["11001", "10011", "11111", "10101", "1101"],
    5: ["101001", "100101", "111101", "100001", "11"],
}
SEEDS = {
    "closure3": ["b = s^6*a + s^3*a^2 + s^5*a^4", "b = s^2*a + s^5*a^2 + s^6*a^4", "b = s^3*a"],
    "closure3-a-form": ["a = s^2*b + s^3*b^2 + s^5*b^4", "b = 0", "b = a"],
    "closure2-vertical": ["a = 0", "b = a", "b = s*a"],
    "closure2": ["b = a", "b = s*a", "b = s^2*a"],
    "closure2-short": ["b = a", "b = s*a"],
    "closure2-exceptional": [[[0, 0], [2, 0], [0, 3], [2, 3]], "b = a", "b = s*a"],
    "pair3": ["b = s^3*a", "b = s^6*a + s^3*a^2 + s^5*a^4"],
    "bundle2": ["b = 0", "b = a", "b = s*a", "b = s^2*a", [[0, 0], [0, 1], [0, 2], [0, 3]]],
    "bundle2-repeated": ["b = 0", "b = a", "b = s*a", "b = a", "a = 0"],
    "bundle2-intersecting": ["b = 0", "b = a", "b = s*a", "b = a^2", "a = 0"],
    "bundle2-short": ["b = 0", "b = a", "a = 0"],
    "bundle2-non-isotropic": [[[0, 0], [1, 2], [2, 1], [3, 3]], "b = a", "b = s*a",
                              "b = s^2*a", "a = 0"],
    "bundle1": ["b = 0", "b = a", "a = 0"],
    "not-a-list": {"b": "a"},
    "bad-term": ["b = q*a", "b = a", "b = s*a"],
}
# one exceptional curve per degree with a mixed partition where the degree
# has one, as the sorted point list that the atlas gives; local rotations
# keep the partition, so n = 5 takes one curve of each mixed type shown
EXCEPTIONAL = {
    "n2-{2}": (2, [[0, 0], [0, 1], [1, 0], [1, 1]]),
    "n3-{1,2}": (3, [[0, 0], [0, 1], [0, 4], [0, 5], [4, 0], [4, 1], [4, 4], [4, 5]]),
    "n4-{1,3}": (4, [[0, 0], [0, 1], [0, 10], [0, 11], [2, 0], [2, 1], [2, 10], [2, 11],
                     [5, 0], [5, 1], [5, 10], [5, 11], [7, 0], [7, 1], [7, 10], [7, 11]]),
    "n5-{1,4}": (5, [[0, 0], [0, 1], [0, 4], [0, 5], [0, 10], [0, 11], [0, 14], [0, 15],
                     [0, 18], [0, 19], [0, 22], [0, 23], [0, 24], [0, 25], [0, 28], [0, 29],
                     [4, 0], [4, 1], [4, 4], [4, 5], [4, 10], [4, 11], [4, 14], [4, 15],
                     [4, 18], [4, 19], [4, 22], [4, 23], [4, 24], [4, 25], [4, 28], [4, 29]]),
    "n5-{2,3}": (5, [[0, 0], [0, 1], [0, 8], [0, 9], [2, 0], [2, 1], [2, 8], [2, 9],
                     [9, 0], [9, 1], [9, 8], [9, 9], [11, 0], [11, 1], [11, 8], [11, 9],
                     [16, 0], [16, 1], [16, 8], [16, 9], [18, 0], [18, 1], [18, 8], [18, 9],
                     [25, 0], [25, 1], [25, 8], [25, 9], [27, 0], [27, 1], [27, 8], [27, 9]]),
}
CONFIGS = {
    "config-good": {"2": {"modulus": "111", "primitive": 3}, "3": {"modulus": "1101"}},
    "config-not-object": [1, 2],
    "config-bad-entry": {"3": 5},
    "config-bad-primitive": {"3": {"modulus": "1011", "primitive": "s"}},
    "config-bad-modulus": {"3": {"modulus": "1111"}},
}


def calls() -> list[tuple[dict, list[str]]]:
    """The fixed call list: (environment, argv) pairs; "@name" in an argv
    or environment value stands for the file name.json in the temporary
    directory, which holds SEEDS[name] or CONFIGS[name] where one exists."""
    out: list[tuple[dict, list[str]]] = []

    def add(*argv: str, env: dict | None = None) -> None:
        out.append((env or {}, list(argv)))

    for n, fmt in itertools.product(range(0, 7), FORMATS):
        add("field", "--n", str(n), "--format", fmt)
        add("curves", "--n", str(n), "--format", fmt)
    for n, bits in ((n, b) for n, bs in MODULI.items() for b in bs):
        add("field", "--n", str(n), "--modulus", bits)
        if n in (3, 4):
            add("curves", "--n", str(n), "--modulus", bits)
            for fmt in FORMATS[1:]:
                add("curves", "--n", str(n), "--modulus", bits, "--format", fmt)
            add("verify", "--n", str(n), "--modulus", bits)
    for name, n, fmt in itertools.product(CONFIGS, (2, 3), ("text", "json")):
        add("field", "--n", str(n), "--format", fmt, env={CONFIG_ENV: f"@{name}"})
    for command in ("curves", "bundle", "verify"):
        add(command, "--n", "3", env={CONFIG_ENV: "@config-good"})
    add("field", "--n", "3", env={CONFIG_ENV: "@no-such-config"})
    for command, fmt in itertools.product(("field", "curves", "verify"), FORMATS):
        add(command, "--n", "2", "--format", fmt, "--out", "@out")
    add("field", "--n", "2", "--out", "@no-such-dir/out")

    for n in range(1, 6):
        curves = ["b = a", "b = 0", "a = 0", "b = s*a", "a = s^2*b", "b = a + a^2",
                  "b = s*a + s^3*a^2", json.dumps([[0, 0], [1, 1]]), "b = q*a",
                  "b a", "b = a^3", "[[0, 0], [1,"]
        ops = ["x@1", "y@1", "z@1", f"x@1;y@{n}", "z@1; x@1", "", "w@1", "x@q",
               f"x@{n + 1}", "x1"]
        for k, (curve, op) in enumerate(itertools.product(curves, ops)):
            add("transform", "--n", str(n), "--curve", curve, "--ops", op,
                "--format", FORMATS[k % 3])

    for (n, points), fmt in itertools.product(EXCEPTIONAL.values(), FORMATS):
        for op in ("y@2", f"x@1;z@{n};y@2;x@2"):
            add("transform", "--n", str(n), "--curve", json.dumps(points), "--ops", op,
                "--format", fmt)

    for command, n in itertools.product(("bundle", "verify"), range(1, 6)):
        for fmt in FORMATS:
            add(command, "--n", str(n), "--format", fmt)
        for phi in (None, "0", "1", "s", "s^3", "t", "s^x"):
            phi_arg = ["--phi", phi] if phi is not None else []
            add(command, "--n", str(n), "--strategy", "regular-tail", *phi_arg)
        for seed in ("closure3", "closure3-a-form", "closure2-vertical", "closure2",
                     "closure2-short", "closure2-exceptional", "not-a-list", "bad-term",
                     "no-such-seed"):
            add(command, "--n", str(n), "--strategy", "closure", "--seed", f"@{seed}")
        add(command, "--n", str(n), "--strategy", "closure")
        add(command, "--n", str(n), "--strategy", "search")
        add(command, "--n", str(n), "--strategy", "search", "--limit", "3", "--format", "json")
        add(command, "--n", str(n), "--strategy", "search", "--seed", "@pair3")
    for seed, n in itertools.product(
            ("bundle2", "bundle2-repeated", "bundle2-intersecting", "bundle2-short",
             "bundle2-non-isotropic", "bundle1", "not-a-list", "bad-term", "no-such-seed"),
            (1, 2, 3)):
        add("verify", "--n", str(n), "--seed", f"@{seed}")
        add("verify", "--n", str(n), "--seed", f"@{seed}", "--format", "tsv")

    for argv in ([], ["nope"], ["field", "--n", "x"], ["field", "--n"],
                 ["curves", "--format", "yaml"], ["transform", "--n", "2", "--curve", "b = a"],
                 ["transform", "--n", "2"], ["bundle", "--strategy", "greedy"],
                 ["bundle", "--limit", "many"], ["verify", "--n", "2", "--bogus"],
                 ["--help"], ["field", "--help"]):
        add(*argv)
    return out


def _write_inputs(tmp: str) -> None:
    for name, payload in {**SEEDS, **CONFIGS}.items():
        with open(_resolve(f"@{name}", tmp), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _resolve(text: str, tmp: str) -> str:
    """"@name" is the file name.json in the temporary directory."""
    return os.path.join(tmp, f"{text[1:]}.json") if text.startswith("@") else text


def _run(env: dict[str, str], argv: list[str]) -> tuple[bytes, bytes, str]:
    out, err = io.StringIO(), io.StringIO()
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = str(cli.main(argv))
    except SystemExit as exc:
        code = str(exc.code)
    except Exception as exc:    # recorded, not raised: the sweep goes on
        code = f"raised {type(exc).__name__}"
        err.write(f"{type(exc).__name__}: {exc}\n")
    finally:
        for key in env:
            del os.environ[key]
    return out.getvalue().encode(), err.getvalue().encode(), code


def main() -> int:
    os.environ.pop(CONFIG_ENV, None)
    os.environ["COLUMNS"] = "80"    # argparse wraps its help to the terminal width
    tmp = tempfile.mkdtemp(prefix="sweep")
    try:
        _write_inputs(tmp)
        out_file = _resolve("@out", tmp)
        for env, argv in calls():
            real_env = {k: _resolve(v, tmp) for k, v in env.items()}
            real_argv = [_resolve(a, tmp) for a in argv]
            stdout, stderr, code = _run(real_env, real_argv)
            if os.path.exists(out_file):
                with open(out_file, "rb") as fh:
                    stdout += fh.read()
                os.remove(out_file)
            shown = [f"{k}={v}" for k, v in real_env.items()] + real_argv
            digests = (hashlib.sha256(b.replace(tmp.encode(), b"<tmp>")).hexdigest()
                       for b in (stdout, stderr))
            print(json.dumps([s.replace(tmp, "<tmp>") for s in shown]), *digests, code,
                  sep="\t")
    finally:
        shutil.rmtree(tmp)
    print(f"mubcurves from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
