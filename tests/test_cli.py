"""CLI surface: subcommands, formats, parsing, exit codes, determinism."""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mubcurves import bundles as B
from mubcurves import cli
from mubcurves import curves as C
from mubcurves.errors import InputError, MubcError
from mubcurves.field import load_field_config, make_field, modulus_from_bits

F4 = make_field(2)
F8 = make_field(3)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFieldCommand:
    def test_text(self, capsys):
        code, out, err = run(capsys, "field", "--n", "3")
        assert code == 0 and err == ""
        assert "GF(2^3): 8 elements" in out
        assert "s^1=2" in out and "s^6=5" in out
        assert "selfdual basis" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "field", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["n"] == 2
        assert payload["antilog_table"] == [1, 2, 3]
        assert payload["selfdual_basis"] == [2, 3]
        assert payload["jacobi_L1"] == 2

    def test_custom_modulus(self, capsys):
        code, out, _ = run(capsys, "field", "--n", "3", "--modulus", "1101",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["modulus_bits"] == "1101"

    def test_bad_degree_exit_2(self, capsys):
        code, _, err = run(capsys, "field", "--n", "6")
        assert code == 2 and "error:" in err

    def test_bad_modulus_exit_2(self, capsys):
        # x^2 + 1 = (x + 1)^2 is reducible
        code, _, err = run(capsys, "field", "--n", "2", "--modulus", "101")
        assert code == 2 and "error:" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "field.txt"
        code, out, _ = run(capsys, "field", "--n", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert "GF(2^2)" in target.read_text()

    def test_env_config(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "fields.json"
        config.write_text(json.dumps({"3": {"modulus": "1101"}}))
        monkeypatch.setenv(cli.ENV_FIELD_CONFIG, str(config))
        code, out, _ = run(capsys, "field", "--n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["modulus_bits"] == "1101"


class TestCurvesCommand:
    def test_gf4_summary(self, capsys):
        code, out, _ = run(capsys, "curves", "--n", "2")
        assert code == 0
        assert out.splitlines()[0] == "15 curves: 12 regular, 3 exceptional"

    def test_gf8_summary(self, capsys):
        code, out, _ = run(capsys, "curves", "--n", "3")
        assert code == 0
        assert out.splitlines()[0] == (
            "135 curves: 100 regular, 21 exceptional(2,2), 14 exceptional(mixed)")

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "curves", "--n", "2", "--format", "tsv")
        rows = [line.split("\t") for line in out.splitlines()]
        assert code == 0
        assert rows[0] == ["class", "ranks", "partition", "equation", "points"]
        assert len(rows) == 16

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "curves", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        kinds = [r["kind"] for r in payload["curves"]]
        assert kinds.count("regular") == 12 and kinds.count("exceptional") == 3
        for r in payload["curves"]:
            assert ("explicit" in r) == (r["kind"] == "regular")
            assert ("structural" in r) == (r["kind"] == "exceptional")

    def test_n5_rejected(self, capsys):
        code, _, err = run(capsys, "curves", "--n", "5")
        assert code == 2 and "n <= 4" in err


class TestCurveParsing:
    def test_explicit_roundtrip(self):
        pts = cli.parse_explicit(F4, "b = s*a + a^2")
        want = C.point_set(F4, C.curve_from_phi(F4, [F4.sigma_pow(1), 1]))
        assert pts == want

    def test_mirrored_form(self):
        pts = cli.parse_explicit(F4, "a = s^2*b")
        assert pts == frozenset((F4.mul(F4.sigma_pow(2), b), b) for b in F4.elements())

    def test_zero_rhs(self):
        assert cli.parse_explicit(F4, "b = 0") == frozenset(
            (a, 0) for a in F4.elements())

    def test_json_point_list(self):
        pts = cli.parse_curve_arg(F4, "[[0,0],[1,1],[2,2],[3,3]]")
        assert pts == frozenset({(0, 0), (1, 1), (2, 2), (3, 3)})

    @pytest.mark.parametrize("bad", [
        "b is a", "c = a", "b = a^3", "b = q*a", "b = a^2 / 2", "b = a^0"])
    def test_bad_specs(self, bad):
        with pytest.raises(InputError):
            cli.parse_explicit(F4, bad)

    def test_ops(self):
        assert cli.parse_ops("x@1;y@2") == [("x", 1), ("y", 2)]
        assert cli.parse_ops(" z@3 ") == [("z", 3)]
        with pytest.raises(InputError):
            cli.parse_ops("x1")


def oracle_additive_terms(F, coeffs, var):
    """The terms of an additive polynomial, formatted one by one as the
    record text was before the per-field term tables."""
    terms = []
    for m, c in enumerate(coeffs):
        if c == 0:
            continue
        power = var if m == 0 else f"{var}^{1 << m}"
        terms.append(power if c == 1 else f"{F.format_element(c)}*{power}")
    return terms


class TestTermTable:
    """`cli._term_table` against the per-term formatter it replaced."""

    @pytest.mark.parametrize("n,bits", [(1, None), (2, None), (3, None), (4, "11001"),
                                        (4, "10011"), (5, None)])
    def test_every_term(self, n, bits):
        F = make_field(n, modulus_from_bits(bits) if bits else None)
        for var in ("a", "b"):
            table = cli._term_table(F, var)
            assert len(table) == n
            for m, c in itertools.product(range(n), F.elements()):
                coeffs = [0] * n
                coeffs[m] = c
                expected = oracle_additive_terms(F, coeffs, var)
                assert cli._additive_terms(F, coeffs, var) == expected
                if c:
                    assert [table[m][c]] == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([make_field(n) for n in range(1, 6)]), st.data())
    def test_polynomials(self, F, data):
        """Whole polynomials, also shorter than n terms (a structural
        equation's), keep their terms in order."""
        coeffs = data.draw(st.lists(st.integers(0, F.order - 1), min_size=0, max_size=F.n))
        assert cli._additive_terms(F, coeffs, "b") == oracle_additive_terms(F, coeffs, "b")

    def test_tables_are_per_field(self):
        """Two moduli of one degree name the same element differently."""
        F_a, F_b = (make_field(4, modulus_from_bits(bits)) for bits in ("11001", "10011"))
        assert cli._term_table(F_a, "a") != cli._term_table(F_b, "a")
        assert cli._term_table(F_a, "a") is cli._term_table(make_field(4), "a")


class TestTransformCommand:
    def test_x_rotation_of_diagonal(self, capsys):
        code, out, _ = run(capsys, "transform", "--n", "2",
                           "--curve", "b = 0", "--ops", "x@1;x@2")
        assert code == 0
        assert "equation: b = a" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "transform", "--n", "2", "--format", "json",
                           "--curve", "b = s*a", "--ops", "z@1")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["image"]) == 4
        assert payload["partition"] == "{2}"

    def test_bad_curve_exit_2(self, capsys):
        code, _, err = run(capsys, "transform", "--n", "2",
                           "--curve", "b = s", "--ops", "x@1")
        assert code == 2 and "error:" in err

    def test_sixteenth_power_is_printed_whole(self, capsys):
        # the monic a^16 term of a five-qubit annihilator keeps its exponent
        want = ("s^9*a + s^27*a^2 + s*a^4 + s^11*a^8 + a^16 = 0; tr(s^18*a) = 0; "
                "s^18*b + b^2 = 0")
        argv = ("transform", "--n", "5", "--curve", "b = 0", "--ops", "y@1")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and f"equation: {want}\n" in out
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and "; ".join(json.loads(out)["structural"]) == want


class TestBundleCommand:
    def test_rays_text(self, capsys):
        code, out, _ = run(capsys, "bundle", "--n", "2")
        assert code == 0
        assert "bundle of 5 curves over GF(2^2)" in out
        assert "structure: (3, 2)" in out
        assert "unbiasedness: pass" in out

    def test_regular_tail(self, capsys):
        code, out, _ = run(capsys, "bundle", "--n", "3",
                           "--strategy", "regular-tail", "--phi", "s^3")
        assert code == 0
        assert "structure: (1, 6, 2)" in out

    def test_closure(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps([
            "b = s^6*a + s^3*a^2 + s^5*a^4",
            "b = s^2*a + s^5*a^2 + s^6*a^4",
            "b = s^3*a",
        ]))
        code, out, _ = run(capsys, "bundle", "--n", "3",
                           "--strategy", "closure", "--seed", str(seeds))
        assert code == 0
        assert "structure: (2, 3, 4)" in out

    @pytest.mark.parametrize("n, seed", [
        (3, ["a = s^2*b + s^3*b^2 + s^5*b^4", "b = 0", "b = a"]),
        (2, ["a = 0", "b = a", "b = s*a"])], ids=["n3-singular-g", "n2-vertical-ray"])
    def test_closure_refuses_seed_not_b_of_a(self, capsys, tmp_path, n, seed):
        """Closure adds coefficient tuples of b = f(a); a seed with no such
        form is refused by name, not read as if it were b = g(a)."""
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps(seed))
        code, out, err = run(capsys, "bundle", "--n", str(n),
                             "--strategy", "closure", "--seed", str(seeds))
        assert code == 2 and out == ""
        assert err == f"error: closure seed {seed[0]!r} is not of the form b = f(a)\n"

    def test_closure_without_seed_exit_2(self, capsys):
        code, _, err = run(capsys, "bundle", "--n", "3", "--strategy", "closure")
        assert code == 2 and "error:" in err

    def test_search(self, capsys):
        code, out, _ = run(capsys, "bundle", "--n", "2", "--strategy", "search")
        assert code == 0
        assert "bundle of 5 curves" in out

    def test_search_four_qubits(self, capsys):
        # sha256 of the stdout of the set-intersection search that the
        # bitset search replaced (about 90 s there, under 1 s now)
        code, out, err = run(capsys, "bundle", "--n", "4", "--strategy", "search")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8e082ed7d52030ea65ad0c0d162e60ff76574ef706ff828537e0c7984e26f32d")

    def test_search_no_result(self, capsys, tmp_path):
        atlas = C.enumerate_curves(F8)
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps(
            [[list(p) for p in sorted(atlas[i])] for i in (124, 91, 0, 117, 102)]))
        code, out, _ = run(capsys, "bundle", "--n", "3",
                           "--strategy", "search", "--seed", str(seeds))
        assert code == 0
        assert "no bundle found" in out


class TestVerifyCommand:
    def test_rays(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2")
        assert code == 0
        assert "all checks pass" in out

    def test_seed_bundle(self, capsys, tmp_path):
        seeds = tmp_path / "bundle.json"
        curves = ["b = 0", "b = a", "b = s*a", "b = s^2*a",
                  [[0, 0], [0, 1], [0, 2], [0, 3]]]
        seeds.write_text(json.dumps(curves))
        code, out, _ = run(capsys, "verify", "--n", "2", "--seed", str(seeds))
        assert code == 0
        assert "all checks pass" in out

    @pytest.mark.parametrize("strategy,seeds", [
        ("closure", ["b = s^6*a + s^3*a^2 + s^5*a^4", "b = s^2*a + s^5*a^2 + s^6*a^4",
                     "b = s^3*a"]),
        ("search", ["b = s^3*a", "b = s^6*a + s^3*a^2 + s^5*a^4"]),
    ])
    def test_seeds_grow_a_bundle_as_in_bundle(self, capsys, tmp_path, strategy, seeds):
        """With --strategy closure or search, --seed holds the seeds that the
        strategy grows into a bundle, not the bundle: `verify` reports what
        `bundle` does, then its verdict."""
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps(seeds))
        argv = ("--n", "3", "--strategy", strategy, "--seed", str(path))
        built = run(capsys, "bundle", *argv)
        code, out, err = run(capsys, "verify", *argv)
        assert built[0] == code == 0 and err == ""
        assert out == built[1] + "all checks pass\n"
        # the same file read as a whole bundle is too short
        code, _, err = run(capsys, "verify", "--n", "3", "--seed", str(path))
        assert code == 2 and "a bundle needs 9 distinct curves" in err

    def test_incomplete_seed_exit_2(self, capsys, tmp_path):
        seeds = tmp_path / "bundle.json"
        seeds.write_text(json.dumps(["b = 0", "b = a"]))
        code, _, err = run(capsys, "verify", "--n", "2", "--seed", str(seeds))
        assert code == 2 and "error:" in err

    INTERSECTING = ["b = 0", "b = a", "b = s*a", "b = a^2", "a = 0"]

    @pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
    def test_intersecting_seed_bundle_fails_with_exit_1(self, capsys, tmp_path, fmt):
        """2^n + 1 distinct admissible curves that meet away from the origin
        are a bundle that fails verification, not bad input."""
        seeds = tmp_path / "bundle.json"
        seeds.write_text(json.dumps(self.INTERSECTING))
        code, out, err = run(capsys, "verify", "--n", "2", "--seed", str(seeds),
                             "--format", fmt)
        assert code == 1 and err == ""
        if fmt == "json":
            payload = json.loads(out)
            assert payload["checks"] == {"nonintersecting": False, "commuting_sets": True,
                                         "trace_orthogonality": False, "unbiasedness": False}
            assert len(payload["curves"]) == 5
        else:
            lines = out.splitlines()
            assert lines[0] == "bundle of 5 curves over GF(2^2)"
            for line in ("nonintersecting: FAIL", "unbiasedness: FAIL", "verification FAILED"):
                assert line in lines
            assert lines[-1] == "verification FAILED"
        # `make_bundle` still refuses the same curves
        with pytest.raises(InputError, match="intersect away from the origin"):
            B.make_bundle(F4, cli.load_seed_curves(F4, str(seeds)))

    @pytest.mark.parametrize("seed", [
        ["b = 0", "b = a", "b = s*a", "b = a", "a = 0"],
        ["b = 0", "b = a", "b = s*a", "b = a^2", "a = 0", "b = s^2*a"],
        ["b = 0", "b = a", "b = s*a", "b = a^2", [[0, 0], [2, 0], [0, 2], [2, 2]]],
    ], ids=["repeated", "too-many", "non-isotropic"])
    def test_intersecting_seed_of_wrong_size_or_curve_exit_2(self, capsys, tmp_path, seed):
        seeds = tmp_path / "bundle.json"
        seeds.write_text(json.dumps(seed))
        for fmt in ("text", "json", "tsv"):
            code, out, err = run(capsys, "verify", "--n", "2", "--seed", str(seeds),
                                 "--format", fmt)
            assert code == 2 and out == "" and err.startswith("error: ")

    def test_json_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert all(payload["checks"].values())
        assert payload["structure"] == [3, 0, 6]
        assert len(payload["operator_table"]) == 7

    @pytest.mark.parametrize("argv", [
        (), ("--strategy", "regular-tail", "--phi", "s")], ids=["rays", "regular-tail"])
    def test_five_qubits(self, capsys, argv):
        code, out, _ = run(capsys, "verify", "--n", "5", "--format", "json", *argv)
        payload = json.loads(out)
        assert code == 0
        assert len(payload["curves"]) == 33
        assert payload["checks"] == {"nonintersecting": True, "commuting_sets": True,
                                     "trace_orthogonality": True, "unbiasedness": True}


class TestMalformedInput:
    """Malformed input exits 2 with one `error:` line and no traceback."""

    def assert_input_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("curve", [
        "[[0, 0], [1,", "[1, 2]", "[[0, 0], [1, 1, 1]]", "[[0, 0], [99, 1], [5, 5], [102, 4]]"],
        ids=["bad-json", "not-pairs", "long-pair", "outside-field"])
    def test_bad_json_curve(self, capsys, curve):
        self.assert_input_error(capsys, "transform", "--n", "2", "--curve", curve,
                                "--ops", "x@1")

    @pytest.mark.parametrize("curve", [
        "[[1e400, 0]]", "[[Infinity, 0]]", "[[0.5, 0]]", "[[true, 0]]",
        "[[0.0, 0], [1, 1], [2, 2], [3, 3]]", "[[false, false], [true, true], [2, 2], [3, 3]]"],
        ids=["overflow", "infinity", "fraction", "bool", "float-curve", "bool-curve"])
    def test_non_integer_json_coordinates(self, capsys, tmp_path, curve):
        self.assert_input_error(capsys, "transform", "--n", "2", "--curve", curve,
                                "--ops", "x@1")
        seeds = tmp_path / "seeds.json"
        seeds.write_text(f'[{curve}, "b = a", "b = s*a", "b = s^2*a", "a = 0"]')
        self.assert_input_error(capsys, "verify", "--n", "2", "--seed", str(seeds))

    @pytest.mark.parametrize("exponent", ["0", "-0", "-1"])
    def test_exponent_below_one(self, capsys, tmp_path, exponent):
        curve = f"b = a^{exponent}"
        self.assert_input_error(capsys, "transform", "--n", "2", "--curve", curve,
                                "--ops", "x@1")
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps([curve, "b = s*a", "b = s^2*a"]))
        self.assert_input_error(capsys, "verify", "--n", "2", "--seed", str(seeds))
        self.assert_input_error(capsys, "bundle", "--n", "2", "--strategy", "closure",
                                "--seed", str(seeds))

    def test_bad_op_qubit(self, capsys):
        self.assert_input_error(capsys, "transform", "--n", "2", "--curve", "b = a",
                                "--ops", "x@q")
        with pytest.raises(InputError):
            cli.parse_ops("x@q")

    def test_non_isotropic_seed_curve(self, capsys, tmp_path):
        # Z and X on qubit 1: an additive subgroup of order 4 that fails the
        # generator-pair isotropy check, the only commutation check left
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps(["b = 0", "b = a", "b = s*a", "b = s^2*a",
                                     [[0, 0], [2, 0], [0, 2], [2, 2]]]))
        err = self.assert_input_error(capsys, "verify", "--n", "2", "--seed", str(seeds))
        assert "not isotropic" in err

    def test_missing_seed_file(self, capsys, tmp_path):
        self.assert_input_error(capsys, "verify", "--n", "2",
                                "--seed", str(tmp_path / "no-such-seed.json"))

    @pytest.mark.parametrize("text", ["5", "[[0, 0], 5]", "not json"])
    def test_bad_seed_file(self, capsys, tmp_path, text):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(text)
        self.assert_input_error(capsys, "verify", "--n", "2", "--seed", str(seeds))

    @pytest.mark.parametrize("config", [
        {"3": 5}, {"3": {"modulus": 1011}}, {"3": {"primitive": "s"}}, {"x": {}}, [3]],
        ids=["entry-not-object", "modulus-not-string", "primitive-not-int",
             "key-not-degree", "not-object"])
    def test_bad_field_config(self, capsys, tmp_path, monkeypatch, config):
        path = tmp_path / "fields.json"
        path.write_text(json.dumps(config))
        monkeypatch.setenv(cli.ENV_FIELD_CONFIG, str(path))
        self.assert_input_error(capsys, "field", "--n", "3")

    def test_long_primitive_is_clipped(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "fields.json"
        path.write_text(json.dumps({"2": {"primitive": 10 ** 3000}}))
        monkeypatch.setenv(cli.ENV_FIELD_CONFIG, str(path))
        err = self.assert_input_error(capsys, "field", "--n", "2")
        assert len(err.encode()) < 200 and "..." in err

    def test_missing_field_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_FIELD_CONFIG, str(tmp_path / "no-such-config.json"))
        self.assert_input_error(capsys, "field", "--n", "3")

    @pytest.mark.parametrize("argv", [
        ("field", "--n", "2"), ("curves", "--n", "2", "--format", "json"),
        ("transform", "--n", "2", "--curve", "b = a", "--ops", "x@1"),
        ("bundle", "--n", "2"), ("verify", "--n", "2", "--format", "tsv")],
        ids=["field", "curves", "transform", "bundle", "verify"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out(self, capsys, tmp_path, argv, target):
        out = tmp_path / "no-such-dir" / "x.txt" if target == "missing-dir" else tmp_path
        self.assert_input_error(capsys, *argv, "--out", str(out))

    @pytest.mark.parametrize("where", ["out", "seed", "seed-not-list", "config",
                                       "config-not-object"])
    def test_long_path_is_named_once(self, capsys, tmp_path, monkeypatch, where):
        directory = tmp_path / ("d" * (189 - len(str(tmp_path))))
        path = directory / "file.json"
        assert len(str(path)) == 200
        if where.endswith("-not-list") or where.endswith("-not-object"):
            directory.mkdir()
            path.write_text("5")
        argv = ["verify", "--n", "2"]
        if where == "out":
            argv += ["--out", str(path)]
        elif where.startswith("seed"):
            argv += ["--seed", str(path)]
        else:
            monkeypatch.setenv(cli.ENV_FIELD_CONFIG, str(path))
        err = self.assert_input_error(capsys, *argv)
        assert len(err.encode()) < 200 and err.count(str(path)[:60]) == 1

    @pytest.mark.parametrize("argv", [
        ("curves", "--n", "5"), ("bundle", "--n", "5", "--strategy", "search"),
        ("verify", "--n", "5", "--strategy", "search", "--format", "json")],
        ids=["curves", "bundle", "verify"])
    def test_enumeration_refused_above_four_qubits(self, capsys, argv):
        # the search holds one atlas-sized bitset per atlas curve: about 0.7 GB at n = 5
        assert run(capsys, *argv) == (2, "", "error: curve enumeration supported for n <= 4\n")

    def test_deeply_nested_json(self, capsys, tmp_path, monkeypatch):
        deep = "[" * 100_000
        err = self.assert_input_error(capsys, "transform", "--n", "2", "--curve", deep,
                                      "--ops", "x@1")
        assert len(err.encode()) < 200
        seeds = tmp_path / "seeds.json"
        seeds.write_text(deep)
        self.assert_input_error(capsys, "verify", "--n", "2", "--seed", str(seeds))
        monkeypatch.setenv(cli.ENV_FIELD_CONFIG, str(seeds))
        self.assert_input_error(capsys, "field", "--n", "3")

    def test_field_config_key_too_long_for_int(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "fields.json"
        path.write_text(json.dumps({"1" * 5000: {}}))
        monkeypatch.setenv(cli.ENV_FIELD_CONFIG, str(path))
        err = self.assert_input_error(capsys, "field", "--n", "3")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("argv", [
        ("--curve", "b = " + "s" * 100_000 + "*a", "--ops", "x@1"),
        ("--curve", "b = a + " + "a" * 100_000, "--ops", "x@1"),
        ("--curve", "[" + "[0, 0], " * 20_000 + "[1]]", "--ops", "x@1"),
        ("--curve", "b = a", "--ops", "q" * 100_000),
        ("--curve", "b = a", "--ops", "w" * 100_000 + "@1"),
        ("--curve", "b = a", "--ops", "x@1", "--modulus", "2" * 100_000),
        ("--curve", "b = a", "--ops", "x@1", "--modulus", "1" * 100_000)],
        ids=["element", "term", "pairs", "op", "rotation", "modulus", "modulus-degree"])
    def test_long_input_is_clipped_in_the_error_line(self, capsys, argv):
        err = self.assert_input_error(capsys, "transform", "--n", "2", *argv)
        assert len(err.encode()) < 200 and "..." in err


def json_values():
    scalars = (st.none() | st.booleans() | st.integers(-2, 40) | st.floats()
               | st.text(max_size=12) | st.sampled_from(["b = a", "b = s*a", "a = 0"]))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=6)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                        max_leaves=24)


# fragments of well-formed inputs, so that examples get past the first check
SPEC_TOKENS = st.sampled_from(["a", "b", " = ", "=", "+", "*", "^", "s", "sigma", "0", "1",
                               "2", "4", "8", "-", " ", "s^3", "a^2", "x@1", ";", "@", "y",
                               "z", "[", "]", ",", "9" * 5000])
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def only_mubc_errors(call, *args):
    """Run a parser on fuzzed input: anything but a MubcError escapes."""
    try:
        call(*args)
    except MubcError:
        pass


class TestParserFuzz:
    """No malformed input makes a parser raise anything but a MubcError."""

    @FUZZ
    @given(st.sampled_from([F4, F8]),
           st.text(max_size=40) | st.lists(SPEC_TOKENS, max_size=12).map("".join))
    def test_parse_explicit(self, F, text):
        only_mubc_errors(cli.parse_explicit, F, text)

    @FUZZ
    @given(st.sampled_from([F4, F8]),
           st.text(max_size=40) | json_values().map(json.dumps)
           | st.lists(SPEC_TOKENS, max_size=12).map(lambda t: "[" + "".join(t)))
    def test_parse_curve_arg(self, F, text):
        only_mubc_errors(cli.parse_curve_arg, F, text)

    @FUZZ
    @given(st.text(max_size=40) | st.lists(SPEC_TOKENS, max_size=12).map("".join))
    def test_parse_ops(self, text):
        only_mubc_errors(cli.parse_ops, text)

    @FUZZ
    @given(st.sampled_from([F4, F8]), json_values().map(json.dumps) | st.binary(max_size=40))
    def test_load_seed_curves(self, tmp_path, F, content):
        path = tmp_path / "seeds.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        only_mubc_errors(cli.load_seed_curves, F, str(path))

    @FUZZ
    @given(json_values().map(json.dumps) | st.binary(max_size=40)
           | st.dictionaries(st.sampled_from(["2", "3", "x", "٣", "1" * 5000]),
                             st.fixed_dictionaries({}, optional={
                                 "modulus": st.sampled_from(["111", "1101", "12", "", 5]),
                                 "primitive": st.integers(-1, 9) | st.text(max_size=2)}))
           .map(json.dumps))
    def test_load_field_config(self, tmp_path, content):
        path = tmp_path / "fields.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        only_mubc_errors(load_field_config, str(path))


class TestGoldenOutputs:
    """sha256 of the stdout of `mubc curves`, captured before the atlas
    enumerator was rewritten, and of `mubc bundle|verify|transform`; they
    pin the curves, their order and every rendered record."""

    @pytest.mark.parametrize("argv,digest", [
        (("--n", "1"), "faf8fff1be31dce756b411d5d9a364893246bb1d2529dd5eaccf2a84581a84a3"),
        (("--n", "2"), "8bd32d88cc02d02a5e1ca5b301231297b5470154edf7e6561006ffd7e7e035d3"),
        (("--n", "3"), "c68628467f2d3740ee7fae72559144932b70f075825e5ef9c62073d806250645"),
        (("--n", "3", "--modulus", "1011"),
         "b30564d33bb7f82f186ec054f990ace9e8a0a32d50253dab0875a4ba906cf90c"),
        (("--n", "3", "--format", "json"),
         "29d54190e1c4000b34a2ebd913f7361cb35d2148a26de1ba6290b9d2ed3407b8"),
        (("--n", "3", "--format", "tsv"),
         "78869d23b83921a93a76eca2f39854220cd2c5f027a919c802f850322dba70f5"),
        (("--n", "4"), "7981a62a8855106a48ec41d5c79cd45047e25d6a7adc428b8281d66cc4c63e0a"),
        (("--n", "4", "--modulus", "11001"),
         "7981a62a8855106a48ec41d5c79cd45047e25d6a7adc428b8281d66cc4c63e0a"),
        (("--n", "4", "--modulus", "10011"),
         "7fe1bc75e4c770596a3ed29d6655ec7ed69fb03eb8602f86e9629c445823b613"),
        # captured before the records were read from per-field tables
        (("--n", "4", "--modulus", "11001", "--format", "json"),
         "5bd20a63b71e16ad77308d8b89559849f3c01801aaa616219ed89fdfe7c40859"),
        (("--n", "4", "--modulus", "11001", "--format", "tsv"),
         "753571a0ff52ba4facbc4a2876c90963b2c9aff3667b492485836002b2860f33"),
        (("--n", "4", "--modulus", "10011", "--format", "json"),
         "594409bf75f64dfec0cbf94beef6967dcf4b7aa0e53fed7f1220b29288eedb96"),
        (("--n", "4", "--modulus", "10011", "--format", "tsv"),
         "bfcc371af78ebe7e746d3f4ac1c97de549ee6731bb171ea283f508d2a57e6efe"),
    ], ids=["n1", "n2", "n3", "n3-1011", "n3-json", "n3-tsv", "n4", "n4-11001", "n4-10011",
            "n4-11001-json", "n4-11001-tsv", "n4-10011-json", "n4-10011-tsv"])
    def test_curves(self, capsys, argv, digest):
        code, out, err = run(capsys, "curves", *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_five_qubit_records(self):
        """`mubc curves` refuses n = 5, so the records of every 7th curve of
        the n = 5 atlas are pinned as sorted-key JSON, captured before the
        records were read from per-field tables."""
        F = make_field(5)
        records = [cli.curve_record(F, curve) for curve in C.enumerate_curves(F)[::7]]
        assert len(records) == 10820
        assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() == (
            "1bbedc8f35f42ffba7b00f9a506b3310186241dd75cb5ae9f36a7db7acccfd48")

    # seed files: "@name" in an argv is replaced by the path of SEEDS[name]
    SEEDS = {
        "closure": ["b = s^6*a + s^3*a^2 + s^5*a^4", "b = s^2*a + s^5*a^2 + s^6*a^4",
                    "b = s^3*a"],
        "pair": ["b = s^3*a", "b = s^6*a + s^3*a^2 + s^5*a^4"],
        "bundle": ["b = 0", "b = a", "b = s*a", "b = s^2*a", [[0, 0], [0, 1], [0, 2], [0, 3]]],
    }

    @pytest.mark.parametrize("argv,digest", [
        (("bundle", "--n", "1"),
         "62b4f488ac1226f6e36a6506d231a2aaf92ed304123e52500b562f470ba987af"),
        (("bundle", "--n", "2"),
         "9657146953fb8fe0a91deafc3a0b05e5aa70d8873d29b2ae0dbff62aad842a30"),
        (("bundle", "--n", "3"),
         "914306e7fe711422168d4406f178884aca38c917cc09f74082d8c27fd15e7320"),
        (("bundle", "--n", "4"),
         "7c68c3d36de1a2131da2e6e2375a84bf367482cafe327321ecb0e52b5eb05f02"),
        (("bundle", "--n", "3", "--format", "json"),
         "56de01ff498d3ca5d27af856230e3d938e552d1ce9e32fe7a15cfcc6e0fd5de0"),
        (("bundle", "--n", "2", "--strategy", "regular-tail", "--phi", "1"),
         "afc4cdf7802a6614340b5e0501b4fe69733bc1fc74458cb2c71576a26869249f"),
        (("bundle", "--n", "3", "--strategy", "regular-tail", "--phi", "s"),
         "6648007493ad853905782b8390e9abf0dc7b96aadfac42148f6c6485fb8070ae"),
        (("bundle", "--n", "4", "--strategy", "regular-tail", "--phi", "s", "--format", "json"),
         "1c2ca79e7b338e8146b91a3d7c4596ec2b708ae732995c7ef4ca463d47ca2f2e"),
        (("bundle", "--n", "3", "--strategy", "closure", "--seed", "@closure"),
         "62bcfb09bf15f8207aa562e551e659fdf69910ccecaba8040f9d76fdad79cb07"),
        (("bundle", "--n", "3", "--strategy", "closure", "--seed", "@closure", "--format", "json"),
         "c1f010e432dc316a538568d70ef8f166907ae3bbaf492bf67108d07fe5abc6e6"),
        (("bundle", "--n", "2", "--strategy", "search"),
         "9657146953fb8fe0a91deafc3a0b05e5aa70d8873d29b2ae0dbff62aad842a30"),
        (("bundle", "--n", "3", "--strategy", "search", "--format", "json"),
         "56de01ff498d3ca5d27af856230e3d938e552d1ce9e32fe7a15cfcc6e0fd5de0"),
        (("bundle", "--n", "3", "--strategy", "search", "--seed", "@pair"),
         "62bcfb09bf15f8207aa562e551e659fdf69910ccecaba8040f9d76fdad79cb07"),
        (("verify", "--n", "1"),
         "97ebcf705efcd36fb02c03060c4002a63ac4e97672fa926fb46af1d4cd4e82fc"),
        (("verify", "--n", "2", "--format", "tsv"),
         "8f83cba8980840cd06f8a8a2a12b71e83e6cfbf778621f9f0da6abf380d4a871"),
        (("verify", "--n", "3", "--format", "tsv"),
         "297324cf810dac34b64b6ae84a512dc8a5c4026e323a844c359b621863da7662"),
        (("verify", "--n", "4"),
         "edf939161b43ccfcbbb7572885d1ff3ad96fde21764a1df94209c477df24a64f"),
        (("verify", "--n", "3", "--strategy", "regular-tail", "--phi", "s", "--format", "json"),
         "4ce077b7915d513b64a186d68adaedbac4bf687867479f483ca1cb67e3e67613"),
        (("verify", "--n", "4", "--strategy", "regular-tail", "--phi", "s"),
         "c8e4b2b1d8214ffff0395c29007e0fbfa708e9331e8a190e4503eaf2561f8f4f"),
        (("verify", "--n", "2", "--strategy", "regular-tail", "--phi", "1", "--format", "json"),
         "c7eff9ec496422aab92619e777cbda34e4ed1912597dbd2dff509e0622b892e5"),
        (("verify", "--n", "2", "--seed", "@bundle"),
         "8f83cba8980840cd06f8a8a2a12b71e83e6cfbf778621f9f0da6abf380d4a871"),
        (("verify", "--n", "3", "--strategy", "search"),
         "297324cf810dac34b64b6ae84a512dc8a5c4026e323a844c359b621863da7662"),
        (("verify", "--n", "5"),
         "e5b98fc78d02cda5271a8fb5f982e03c1ce52ea284e1207d6969830cee09e498"),
        (("verify", "--n", "5", "--format", "json"),
         "7360adda02a7c9c865f00c6f0a88a4109e6a337795e86fa37d5a8480b366ddc2"),
        (("transform", "--n", "2", "--curve", "b = 0", "--ops", "x@1;x@2"),
         "35764c84cad43703796eed2913b36b00194f74b368c99f343ea7c267315d0bc7"),
        (("transform", "--n", "3", "--curve", "b = s^3*a", "--ops", "z@1;y@2;x@3",
          "--format", "json"),
         "04268e7240709fe184737374d3d526cbe6d99f3753619eaab2f3333d61895695"),
        (("transform", "--n", "4", "--curve", "a = 0", "--ops", "x@1;z@3;y@4"),
         "1f38d5d86ce203fc5710c999a7501406c4c74d15a241ef782f61360838383e52"),
    ], ids=["bundle-n1", "bundle-n2", "bundle-n3", "bundle-n4", "bundle-n3-json",
            "bundle-tail-n2", "bundle-tail-n3", "bundle-tail-n4-json", "bundle-closure-n3",
            "bundle-closure-n3-json", "bundle-search-n2", "bundle-search-n3-json",
            "bundle-search-seeded-n3", "verify-n1", "verify-n2-tsv", "verify-n3-tsv",
            "verify-n4", "verify-tail-n3-json", "verify-tail-n4", "verify-tail-n2-json",
            "verify-seed-n2", "verify-search-n3", "verify-n5", "verify-n5-json",
            "transform-n2", "transform-n3-json", "transform-n4"])
    def test_bundle_verify_transform(self, capsys, tmp_path, argv, digest):
        """Captured before curves were carried as validated `Curve` values;
        the n = 5 `verify` digests before `verify_atlas` streamed its bases."""
        for name, curves in self.SEEDS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(curves))
        argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("field", "--n", "3", "--format", "json"),
        ("curves", "--n", "3"),
        ("bundle", "--n", "3", "--strategy", "search"),
        ("verify", "--n", "2", "--format", "tsv"),
    ], ids=["field", "curves", "bundle", "verify"])
    def test_repeated_runs_byte_identical(self, capsys, argv):
        runs = [run(capsys, *argv) for _ in range(2)]
        assert runs[0] == runs[1]


def load_cli_sweep():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_sweep.py"
    spec = importlib.util.spec_from_file_location("cli_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCliSweep:
    """`tools/cli_sweep.py`, the byte-for-byte comparison of two checkouts."""

    sweep = load_cli_sweep()

    @staticmethod
    def option(argv, flag, default):
        return argv[argv.index(flag) + 1] if flag in argv else default

    def test_call_list_covers_every_command_format_and_strategy(self):
        calls = self.sweep.calls()
        assert len(calls) >= 500
        assert len({json.dumps(c, sort_keys=True) for c in calls}) == len(calls)
        seen = {(a[0], a[2], self.option(a, "--format", "text"),
                 self.option(a, "--strategy", "rays") if a[0] in ("bundle", "verify") else "")
                for _, a in calls if len(a) > 2 and a[1] == "--n"}
        for n in map(str, range(1, 6)):
            for fmt in ("text", "json", "tsv"):
                for command in ("field", "curves", "transform", "bundle", "verify"):
                    strategy = "rays" if command in ("bundle", "verify") else ""
                    assert (command, n, fmt, strategy) in seen
            for strategy in ("regular-tail", "closure", "search"):
                assert ("bundle", n, "text", strategy) in seen
        # one and several rotations of an exceptional curve per degree 2..5
        rotated = {(a[2], a[4], self.option(a, "--format", "text"), ";" in a[6])
                   for _, a in calls if a[:1] == ["transform"] and "--ops" in a}
        for name, (n, points) in self.sweep.EXCEPTIONAL.items():
            for fmt, several in itertools.product(("text", "json", "tsv"), (False, True)):
                assert (str(n), json.dumps(points), fmt, several) in rotated
            F = make_field(n)
            rec = cli.curve_record(F, cli.parse_curve_arg(F, json.dumps(points)))
            assert rec["kind"] == "exceptional" and name == f"n{n}-{rec['partition']}"
        assert {n for n, _ in self.sweep.EXCEPTIONAL.values()} == {2, 3, 4, 5}

    def test_lines_hide_the_temporary_directory(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv(cli.ENV_FIELD_CONFIG, raising=False)
        calls = self.sweep.calls()
        # a config in the environment, an --out file, a missing seed, a plain call
        picked = [next(c for c in calls if pick(c)) for pick in (
            lambda c: c[0], lambda c: "--out" in c[1], lambda c: "@no-such-seed" in c[1],
            lambda c: c[1] == ["field", "--n", "2", "--format", "text"])]
        monkeypatch.setattr(self.sweep, "calls", lambda: picked)
        assert self.sweep.main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(picked)
        for line, (env, argv) in zip(lines, picked):
            shown, out_sha, err_sha, code = line.split("\t")
            assert all(len(h) == 64 for h in (out_sha, err_sha)) and code in ("0", "2")
            assert len(json.loads(shown)) == len(env) + len(argv)
            assert ("<tmp>" in shown) == any("@" in v for v in [*env.values(), *argv])
        # the --out call writes `field --n 2 --format text` to its file
        assert picked[1][1][:5] == picked[3][1]
        assert lines[1].split("\t")[1] == lines[3].split("\t")[1]
