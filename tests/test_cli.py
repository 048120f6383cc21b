import errno
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import time

import pytest

from ppring import clear_caches, cli, ffq, idem, ppelem, species
from ppring.cli import (COMMANDS, ParseError, RunConfig, UnknownName, build_parser,
                        main, parse_group_spec, run)
from ppring.grp import MAX_DEGREE, PRIME_TEST_BOUND, OrderCapExceeded, Permutation


class TestParseGroupSpec:
    def test_named(self):
        assert parse_group_spec("C6").order == 6
        assert parse_group_spec("S3").order == 6
        assert parse_group_spec("S4").order == 24
        assert parse_group_spec("D8").order == 8
        assert parse_group_spec("Q8").order == 8
        assert parse_group_spec("A4").order == 12
        assert parse_group_spec("V4").order == 4

    def test_products(self):
        assert parse_group_spec("C2xC2").order == 4
        assert parse_group_spec("C2xC3").order == 6
        assert parse_group_spec("C2xC2xC2").order == 8

    def test_json_name(self):
        assert parse_group_spec('{"name": "C6"}').order == 6

    def test_json_generators(self):
        G = parse_group_spec('{"degree": 3, "generators": [[[0, 1, 2]]]}')
        assert G.order == 3

    @pytest.mark.parametrize("spec,shown", [
        ('{"degree": 2.5, "generators": [[[0, 1]]]}', "2.5"),
        ('{"degree": "3", "generators": [[[0, 1]]]}', '"3"'),
        ('{"degree": true, "generators": []}', "true"),
        ('{"degree": 3, "generators": [[[0, true]]]}', "true"),
        ('{"degree": 3, "generators": [[[0, 1.0]]]}', "1.0"),
        ('{"degree": 1e400, "generators": [[[0, 1]]]}', "Infinity"),
    ], ids=["float-degree", "string-degree", "bool-degree", "bool-point", "float-point",
            "overflowing-degree"])
    def test_json_values_must_be_integers(self, spec, shown, capsys):
        message = f"bad group spec: {shown} is not an integer"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_group_spec(spec)
        assert main(["pairs", "--group", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unknown_name(self):
        # C, S and D with an Arabic-Indic or a fullwidth digit
        for spec in ["E8", "C\u0663", "S\uff14", "D\u0668", '{"name": "C\u0663"}']:
            with pytest.raises(UnknownName):
                parse_group_spec(spec)

    def test_non_ascii_digit_exit_2(self, capsys):
        assert main(["pairs", "--group", "C\u0663"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown group name 'C\u0663'\n"

    @pytest.mark.parametrize("name", ["S4x", "x", "xC2", "S4xxC2", "S4x C2x "])
    def test_empty_factor_exit_2(self, name, capsys):
        message = f"empty factor in group name {name.strip()!r}"
        with pytest.raises(UnknownName, match=re.escape(message)):
            parse_group_spec(name)
        assert main(["pairs", "--group", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_bad_json(self, capsys):
        # nested past every Python's recursion limit for the decoder, as an
        # object and as an array: malformed input, not an internal error
        depth = 100_000
        nested_object = '{"a":' * depth + "1" + "}" * depth
        nested_array = '{"a":' + "[" * depth + "]" * depth + "}"
        for spec in ("{not json", nested_object, nested_array):
            with pytest.raises(ParseError, match="^invalid JSON: "):
                parse_group_spec(spec)
            assert main(["pairs", "--group", spec]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: invalid JSON: ")
            assert captured.err.count("\n") == 1

    def test_integer_literal_past_the_digit_limit_exit_2(self, capsys):
        """A 5,000-digit literal is past the interpreter's limit for integer
        string conversion (4,300 digits by default): a usage error, not an
        internal one."""
        spec = '{"degree": ' + "9" * 5000 + ', "generators": []}'
        with pytest.raises(ParseError):
            parse_group_spec(spec)
        assert main(["pairs", "--group", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "internal" not in captured.err
        assert captured.err.count("\n") == 1

    def test_cap(self):
        with pytest.raises(OrderCapExceeded):
            parse_group_spec("S5", max_order=100)

    def test_json_generators_over_the_cap_exit_2(self, capsys):
        spec = '{"degree": 5, "generators": [[[0, 1]], [[0, 1, 2, 3, 4]]]}'
        with pytest.raises(OrderCapExceeded):
            parse_group_spec(spec, max_order=100)
        assert main(["pairs", "--group", spec, "--max-order", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: closure exceeds the order cap 100\n"

    def test_symmetric_bound(self):
        with pytest.raises(OrderCapExceeded):
            parse_group_spec("S6")

    def test_alternating_under_the_cap(self):
        assert parse_group_spec("A6").order == 360

    def test_factorial_over_the_cap_exits_2(self, capsys):
        # 4096! has more digits than Python converts to a string by default
        for spec, order in (("S4096", "4096!"), ("A7", "7!/2")):
            assert main(["pairs", "--group", spec]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: group order {order} exceeds the order cap 384\n"


class TestCommands:
    def test_pairs_s3(self):
        code, text = run(RunConfig(command="pairs", group="S3", p=3, fmt="json"))
        assert code == 0
        report = json.loads(text)
        assert len(report["pairs"]) == 4

    def test_lattice_s3(self):
        code, text = run(RunConfig(command="lattice", group="S3", fmt="json"))
        assert code == 0
        report = json.loads(text)
        assert report["subgroup_count"] == 6

    def test_idempotents_c2(self):
        code, text = run(RunConfig(command="idempotents", group="C2", p=2, fmt="json"))
        assert code == 0
        report = json.loads(text)
        assert len(report["idempotents"]) == 2
        assert all(r["delta_ok"] and r["routes_agree"]
                   for r in report["idempotents"])

    def test_verify_c2_p5(self):
        code, text = run(RunConfig(command="verify", group="C2", p=5, fmt="json"))
        assert code == 0
        report = json.loads(text)
        assert report["all_ok"] and report["failed"] == 0

    def test_oracle_check(self):
        code, text = run(RunConfig(command="oracle-check", group="S3", p=3,
                                   fmt="json", samples=5, seed=3))
        assert code == 0
        assert json.loads(text)["all_agree"]

    def test_oracle_disagreement_carries_both_values(self, monkeypatch):
        oracle_tau = ffq.oracle_tau
        values = []

        def first_sample_wrong(pair, gen, F, dim_cap):
            value = oracle_tau(pair, gen, F, dim_cap)
            values.append(value)
            return value + 1 if len(values) == 1 else value

        monkeypatch.setattr(ffq, "oracle_tau", first_sample_wrong)
        code, text = run(RunConfig(command="oracle-check", group="S3", p=3,
                                   fmt="json", samples=5, seed=3))
        assert code == 1
        report = json.loads(text)
        assert not report["all_agree"]
        failing, *passing = report["samples"]
        assert not failing["agree"]
        assert failing["value"] == str(values[0])
        assert failing["oracle_value"] == str(values[0] + 1)
        assert passing and all(s["agree"] and "oracle_value" not in s for s in passing)

    def test_quotient_without_traces_fails_oracle_check(self, monkeypatch):
        """A Brauer quotient memo that keeps the whole fixed space, dropping
        the trace image, is caught at the pairs whose P is not trivial, so
        the memo cannot fail silently."""
        quotient = ffq._brauer_quotient

        def no_traces(gen, F, P):
            basis, pivots, _, _, _ = quotient(gen, F, P)
            return basis, pivots, (), (), tuple(range(len(basis)))

        clear_caches()
        try:
            with monkeypatch.context() as m:
                m.setattr(ffq, "_brauer_quotient", no_traces)
                code, text = run(RunConfig(command="oracle-check", group="S3", p=3,
                                           fmt="json", samples=40, seed=0))
        finally:
            clear_caches()
        assert code == 1
        report = json.loads(text)
        assert not report["all_agree"]
        orders = {int(re.match(r"\(\|P\|=(\d+),", s["pair"]).group(1))
                  for s in report["samples"] if not s["agree"]}
        assert orders and min(orders) > 1

    def test_dropped_mackey_term_fails_verify(self, monkeypatch):
        """A restriction that loses one double-coset term is caught, so
        deciding equality on coefficients first does not let a check pass
        vacuously."""
        res_gen = ppelem._res_gen

        def dropped(gen, H):
            terms = res_gen(gen, H)
            return terms[:-1] if len(terms) > 1 else terms

        clear_caches()
        try:
            with monkeypatch.context() as m:
                m.setattr(ppelem, "_res_gen", dropped)
                code, text = run(RunConfig(command="verify", group="D8", p=2, fmt="json"))
        finally:
            clear_caches()
        assert code == 1
        report = json.loads(text)
        assert not report["all_ok"]
        failing = {c["check"].split(" |")[0] for c in report["checks"] if not c["ok"]}
        assert failing == {"restriction law", "commute res"}

    def test_dropped_brauer_term_fails_only_the_brauer_factorization(self, monkeypatch):
        """Both factorization routes read one restriction per (pair,
        generator).  A Brauer morphism that loses a term still fails the
        Brauer family, while the restriction family keeps passing: sharing the
        restriction does not make the Brauer route vacuous."""
        brauer = idem.brauer_elt

        def dropped(x, P):
            y = brauer(x, P)
            rows = list(y.rows.items())
            if len(rows) < 2:
                return y
            return ppelem.collect(y.group, y.p, y.conductor,
                                  [(gen, row, y.den, 1) for gen, row in rows[:-1]])

        clear_caches()
        try:
            with monkeypatch.context() as m:
                m.setattr(idem, "brauer_elt", dropped)
                code, text = run(RunConfig(command="verify", group="S4", p=2, fmt="json"))
        finally:
            clear_caches()
        assert code == 1
        checks = json.loads(text)["checks"]
        family = {}
        for c in checks:
            if "factorization" in c["check"]:
                family.setdefault(c["check"].split(" (")[0], []).append(c["ok"])
        assert all(family["species restriction factorization"])
        assert not all(family["species Brauer factorization"])

    def test_wrong_fusion_fails_verify(self, monkeypatch):
        """One pair of a proper subgroup that is not a canonical pair of the
        whole group, fused to the wrong class, is caught by both laws that
        read the fusion, so neither passes vacuously."""
        fuse = idem.canonical_pair
        victim = []  # the first (P, lift) asked for that is not canonical in G

        def wrong(G, p, P, lift):
            right = fuse(G, p, P, lift)
            if not victim and (P, lift) != (right.P, right.lift):
                victim.append((P, lift))
            if victim != [(P, lift)]:
                return right
            pairs = species.enumerate_pairs(G, p)
            return pairs[1] if right is pairs[0] else pairs[0]

        clear_caches()
        try:
            with monkeypatch.context() as m:
                m.setattr(idem, "canonical_pair", wrong)
                code, text = run(RunConfig(command="verify", group="D8", p=2, fmt="json"))
        finally:
            clear_caches()
        assert victim and code == 1
        report = json.loads(text)
        assert not report["all_ok"]
        failing = {c["check"].split(" |")[0] for c in report["checks"] if not c["ok"]}
        assert failing == {"restriction law", "induction law"}

    def test_burnside_csv(self):
        code, text = run(RunConfig(command="burnside", group="S3", fmt="csv"))
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("transitive_set")
        assert len(lines) == 5  # header + 4 subgroup classes

    def test_species_table_csv(self):
        code, text = run(RunConfig(command="species-table", group="S3", p=3,
                                   fmt="csv"))
        assert code == 0
        assert "(|P|=3" in text.splitlines()[0]

    def test_pairs_csv_falls_back_to_json(self):
        """Only burnside, species-table and verify have a CSV form; the
        other commands write their JSON report under --format csv."""
        def report(fmt):
            return run(RunConfig(command="pairs", group="S4", p=2, fmt=fmt))
        assert report("csv") == report("json")

    def test_determinism(self):
        config = RunConfig(command="verify", group="S3", p=2, fmt="json")
        assert run(config) == run(config)
        config2 = RunConfig(command="oracle-check", group="C6", p=2, fmt="json",
                            samples=6, seed=11)
        assert run(config2) == run(config2)

    def test_usage_error_exit_2(self):
        code, text = run(RunConfig(command="pairs", group="E8"))
        assert code == 2
        assert "error" in text

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(command="pairs", group="C2", p=4)


class TestMain:
    def test_main_writes_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["pairs", "--group", "C2", "--p", "2",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["pairs"]) == 2
        assert capsys.readouterr().out == ""

    def test_main_stdout_and_exit_codes(self, capsys):
        assert main(["verify", "--group", "C3", "--p", "2"]) == 0
        assert "all_ok: True" in capsys.readouterr().out
        assert main(["pairs", "--group", "nope"]) == 2

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_2(self, samples, capsys):
        code = main(["oracle-check", "--group", "C2", "--p", "3",
                     "--samples", samples])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_samples_above_the_cap_exit_2(self, capsys):
        with pytest.raises(ParseError, match="between 1 and 100000"):
            RunConfig(command="oracle-check", group="S3", p=3, samples=10**9)
        code = main(["oracle-check", "--group", "S3", "--p", "3",
                     "--samples", str(10**9)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --samples must be between 1 and 100000\n"

    def test_failed_stdout_write_exit_3(self, monkeypatch, capsys):
        """A report that cannot reach stdout is an I/O error, not a failed
        verification."""
        class Full:
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Full())
        assert main(["verify", "--group", "C3", "--p", "2"]) == 3
        assert capsys.readouterr().err == \
            f"error: cannot write the report: {os.strerror(errno.ENOSPC)}\n"

    def test_unwritable_out_exit_3(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "report.json"
        code = main(["pairs", "--group", "C2", "--p", "2", "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert str(out) in captured.err

    def test_failed_out_write_keeps_the_target_exit_3(self, tmp_path, monkeypatch, capsys):
        """A write that fails halfway leaves an earlier report whole and no
        temporary file behind."""
        out = tmp_path / "report.json"
        out.write_text("earlier report\n")
        real_open = open

        class Failing:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:10])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda *a, **k: Failing(real_open(*a, **k)),
                            raising=False)
        code = main(["pairs", "--group", "C2", "--p", "2", "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: No space left on device\n"
        assert out.read_text() == "earlier report\n"
        assert [path.name for path in tmp_path.iterdir()] == ["report.json"]

    def test_out_replaces_an_earlier_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        out.write_text("earlier report\n")
        assert main(["pairs", "--group", "C2", "--p", "2", "--format", "json",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["pairs"]) == 2
        assert [path.name for path in tmp_path.iterdir()] == ["report.json"]

    def test_out_through_a_symlink_updates_the_linked_file(self, tmp_path, capsys):
        real = tmp_path / "real.json"
        real.write_text("earlier report\n")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        assert main(["pairs", "--group", "C2", "--p", "2", "--format", "json",
                     "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert len(json.loads(real.read_text())["pairs"]) == 2
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "real.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_to_a_pipe_writes_into_the_pipe(self, tmp_path, capsys):
        """A target that is not a regular file, here a named pipe, is written
        in place and stays what it was."""
        fifo = tmp_path / "report.pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["pairs", "--group", "C2", "--p", "2", "--format", "json",
                         "--out", str(fifo)]) == 0
            chunks = []
            while chunk := os.read(reader, 65536):
                chunks.append(chunk)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert len(json.loads(b"".join(chunks))["pairs"]) == 2
        assert [path.name for path in tmp_path.iterdir()] == ["report.pipe"]

    @pytest.mark.parametrize("generators", ["[[[0, 1], [0, 1]]]", "[[[0, 0, 1]]]"])
    def test_repeated_cycle_points_exit_2(self, generators, capsys):
        spec = f'{{"degree": 3, "generators": {generators}}}'
        assert main(["lattice", "--group", spec, "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "appears twice" in captured.err

    def test_tiny_dim_cap_exit_2(self, capsys):
        code = main(["oracle-check", "--group", "S3", "--p", "3", "--samples", "5",
                     "--seed", "3", "--oracle-dim-cap", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dimension 3 exceeds the oracle cap 1\n"

    def test_unbounded_field_search_exits_2_at_its_cap(self, capsys):
        """C29 at p = 31 needs F_(31^28), whose modulus search finds nothing
        within the work cap: the call stops there and names the cap."""
        code = main(["oracle-check", "--group", "C29", "--p", "31"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the modulus search for F_(31^28) exceeds the field work "
                                f"cap {ffq.FIELD_WORK_CAP}\n")

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_non_positive_dim_cap_exit_2(self, cap, capsys):
        code = main(["oracle-check", "--group", "S3", "--p", "3",
                     "--oracle-dim-cap", cap])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_default_dim_cap_leaves_oracle_report_unchanged(self, capsys):
        argv = ["oracle-check", "--group", "S3", "--p", "3", "--samples", "5",
                "--seed", "3", "--format", "json"]
        _, library = run(RunConfig(command="oracle-check", group="S3", p=3,
                                   fmt="json", samples=5, seed=3))
        reports = []
        for extra in ([], ["--oracle-dim-cap", str(ffq.DEFAULT_DIM_CAP)]):
            assert main(argv + extra) == 0
            reports.append(capsys.readouterr().out)
        assert reports == [library, library]
        assert json.loads(library)["all_agree"]

    @pytest.mark.parametrize("group,order", [("C3000000", 3000000),
                                             ("D6000000", 6000000),
                                             ("C300xC300", 90000)])
    def test_named_group_over_the_order_cap_exit_2(self, group, order, capsys):
        assert main(["pairs", "--group", group]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: group order {order} exceeds the order cap 384\n"

    @pytest.mark.parametrize("generators", ["[]", "[[[0, 1]]]"])
    def test_degree_over_the_bound_exit_2(self, generators, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("an image list was built before the degree was checked")

        monkeypatch.setattr(Permutation, "__init__", refuse)
        monkeypatch.setattr(Permutation, "_trusted", refuse)
        # the small degree comes first: without the check it fails here, before
        # a degree-10^9 image list could be built
        for degree in (MAX_DEGREE + 1, 10 ** 9):
            spec = f'{{"degree": {degree}, "generators": {generators}}}'
            assert main(["pairs", "--group", spec]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: bad group spec: degree {degree} is "
                                    f"outside 1..{MAX_DEGREE}\n")

    def test_internal_error_exit_4(self, monkeypatch, capsys):
        def broken(G, p):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(species, "enumerate_pairs", broken)
        assert main(["pairs", "--group", "C2", "--p", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: internal: RuntimeError: injected fault "
                            r"\(at test_cli\.py:\d+\)\n", captured.err)

    def test_huge_p_exit_2(self, capsys):
        p = 10 ** 400
        assert main(["pairs", "--group", "S4", "--p", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p} is not prime\n"

    def test_large_prime_p_exit_0_quickly(self, capsys):
        start = time.perf_counter()
        p = 2 ** 61 - 1
        assert main(["pairs", "--group", "C2", "--p", str(p), "--format", "json"]) == 0
        assert time.perf_counter() - start < 5
        assert json.loads(capsys.readouterr().out)["p"] == p

    @pytest.mark.parametrize("p", [561, 3215031751])
    def test_pseudoprime_p_exit_2(self, p, capsys):
        assert main(["pairs", "--group", "C2", "--p", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p} is not prime\n"

    def test_p_above_the_prime_test_bound_exit_2(self, capsys):
        p = 2 ** 89 - 1  # prime, but above the bound of the primality test
        assert main(["pairs", "--group", "C2", "--p", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {p} is too large: primality is decided "
                                f"only below {PRIME_TEST_BOUND}\n")

    def test_internal_error_in_options_exit_4(self, monkeypatch, capsys):
        def broken(p):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(cli, "check_prime", broken)
        assert main(["pairs", "--group", "C2", "--p", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: internal: RuntimeError: injected fault "
                            r"\(at test_cli\.py:\d+\)\n", captured.err)

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate", "--group", "C2"])

    def test_import_leaves_dataclasses_out(self):
        """The CLI's start does not import ``dataclasses``, which brings in
        inspect, ast, dis and tokenize."""
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        out = subprocess.run(
            [sys.executable, "-c", "import sys, ppring.cli; print('dataclasses' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out == "False\n"


class TestJsonWriter:
    """The report writer gives the bytes of ``json.dumps(indent=2,
    sort_keys=True)``, which every pinned digest was taken from."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("group,p", [("S4", 2), ("A5", 2)])
    def test_every_report(self, command, group, p):
        config = RunConfig(command=command, group=group, p=p, fmt="json", samples=5)
        _, report = COMMANDS[command](config, parse_group_spec(group))
        assert cli._json_text(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [
        {}, [], {"empty": {}, "none": [], "nested": [[], {}, [[]]]},
        {"flags": [True, 1, False, 0, {"1": 1, "t": True, "f": False, "0": 0}]},
        {"ints": [-1, -2**70, 2**64, 2**64 + 1, 3**90, 0]},
        {"none": None, "list": [None, 1.5, -0.0, 1e300]},
        {"strings": ['say "hi"', "back\\slash", "\x00\x01\x1f\n\r\t\x7f",
                     "caf\u00e9 \u4e2d \U0001f600", ""]},
        {"10": {"2": [1], "1": {"b": 2, "a": 1}}, "2": "x", "": 0, "A": [], "a": {},
         "k\u00e9y \"q\"\n": 1},
        ["top", {"b": [1, 2], "a": True}], ("a", "tuple"),
    ])
    def test_edge_values(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_unsupported_values_raise(self):
        """What ``json.dumps`` refuses, and keys other than strings, which no
        report has, raise TypeError rather than give other bytes."""
        for value in ({(1, 2): 0}, {"x": {1, 2}}, [object()], {1: "one"}, {None: 0}):
            with pytest.raises(TypeError):
                cli._json_text(value)


class TestProcessExit:
    """``python -m ppring.cli`` ends through ``cli.entry``, which flushes and
    leaves by ``os._exit``; in-process calls of ``main`` never reach it."""

    VERIFY_S4_P2 = "fd3b3e1d83ac95f861e0e564a81490b55aad3e33a6e16989745f5a6864b8ac68"

    @staticmethod
    def cli_process(*args, stdout=subprocess.PIPE):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        return subprocess.run([sys.executable, "-m", "ppring.cli", *args], env=env,
                              stdout=stdout, stderr=subprocess.PIPE, check=False)

    def test_passing_verify_exit_0(self):
        proc = self.cli_process("verify", "--group", "S4", "--p", "2", "--format", "json")
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert hashlib.sha256(proc.stdout).hexdigest() == self.VERIFY_S4_P2

    def test_usage_error_exit_2(self):
        proc = self.cli_process("verify", "--group", "S4", "--p", "4")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"error: 4 is not prime\n"
        proc = self.cli_process("verify", "--p", "2")
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"usage: ppring")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["verify", "pairs"])
    def test_full_stdout_exit_3(self, command):
        """A report larger than the stdout buffer fails in the write, a small
        one in the flush; both exit 3."""
        with open("/dev/full", "wb") as full:
            proc = self.cli_process(command, "--group", "S4", "--p", "2", "--format", "json",
                                    stdout=full)
        assert proc.returncode == 3
        assert proc.stderr == \
            f"error: cannot write the report: {os.strerror(errno.ENOSPC)}\n".encode()

    def test_closed_stdout_exit_3(self):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m ppring.cli pairs --group C2 --format json >&-',
             sys.executable], env=env, stderr=subprocess.PIPE, check=False)
        assert proc.returncode == 3
        assert proc.stderr == \
            f"error: cannot write the report: {os.strerror(errno.EBADF)}\n".encode()
