import json
import resource
import time
from fractions import Fraction

import pytest

from entrocone import logexact
from entrocone.cli import (
    EX_DATAERR,
    EX_FALSE,
    EX_INCONCLUSIVE,
    EX_SOFTWARE,
    EX_USAGE,
    main,
    parse_vector_json,
)
from entrocone.distributions import is_quasi_uniform, parse_pmf
from entrocone.logexact import LogLinear, PrecisionExhausted
from entrocone.subsets import subset_name

from conftest import FIXTURES, g_vector, round_log3_2, run_subprocess


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestVectorFiles:
    def test_shorthand_and_terms(self):
        obj = {
            "n": 2,
            "coords": ["log 2", "log 3/2", {"log_terms": {"2": "1/2"}}],
        }
        h = parse_vector_json(obj)
        assert h.coord([1]) == LogLinear({2: 1})
        assert h.coord([1, 2]) == LogLinear({2: Fraction(1, 2)})

    def test_rejects_decimals(self):
        with pytest.raises(Exception, match="exactness"):
            parse_vector_json({"n": 1, "coords": [1.5]})
        with pytest.raises(Exception, match="shorthand"):
            parse_vector_json({"n": 1, "coords": ["log 1.5"]})

    def test_rejects_wrong_order_echo(self):
        with pytest.raises(Exception, match="order"):
            parse_vector_json({"n": 2, "order": ["2", "1", "12"], "coords": ["log 2"] * 3})


class TestEntropyCommand:
    def test_table1(self, capsys):
        code, report = run(capsys, "entropy", fx("table1.pmf"))
        assert code == 0
        assert report["bits"] == ["2.0000"] * 3 + ["4.0000"] * 3 + ["5.5850"]
        assert report["coords"][6]["log_terms"] == {"2": "4/1", "3": "1/1"}

    def test_table2_pair_coordinate(self, capsys):
        code, report = run(capsys, "entropy", fx("table2.pmf"))
        assert code == 0
        assert report["coords"][3]["log_terms"] == {"2": "11/6", "3": "11/4"}
        assert report["bits"][3] == "6.1920"

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "entropy", "/nonexistent.pmf")
        assert code == EX_DATAERR

    def test_malformed_pmf(self, tmp_path, capsys):
        bad = tmp_path / "bad.pmf"
        bad.write_text("pmf n=1 sizes=2\n0 : 0.5\n1 : 0.5\n")
        code, _ = run(capsys, "entropy", str(bad))
        assert code == EX_DATAERR


class TestQuCheckCommand:
    def test_table1(self, capsys):
        code, report = run(capsys, "qu-check", fx("table1.pmf"))
        assert code == 0
        assert report["support_sizes"] == {
            "1": 4, "2": 4, "3": 4, "12": 16, "13": 16, "23": 16, "123": 48,
        }

    def test_table2(self, capsys):
        code, report = run(capsys, "qu-check", fx("table2.pmf"))
        assert code == EX_FALSE
        assert report["witness"]["subset"] == "12"
        assert report["witness"]["mass_a"] != report["witness"]["mass_b"]

    def test_pipeline_consistency(self, capsys):
        # QU support sizes equal the antilog of each entropy coordinate
        code, ent = run(capsys, "entropy", fx("table1.pmf"))
        code2, qu = run(capsys, "qu-check", fx("table1.pmf"))
        assert code == code2 == 0
        for name, coord in zip(ent["order"], ent["coords"]):
            v = LogLinear.from_json(coord)
            assert v.as_log_natural() == qu["support_sizes"][name]


class TestVectorCommands:
    def test_gamma(self, capsys):
        code, report = run(capsys, "gamma", fx("f.vec"))
        assert code == 0 and report["in_cone"]

    def test_gamma_violation(self, tmp_path, capsys):
        vec = tmp_path / "bad.vec"
        vec.write_text(json.dumps({
            "n": 3,
            "coords": ["log 2", "log 2", "log 2", "log 4", "log 4", "log 4", "log 16"],
        }))
        code, report = run(capsys, "gamma", str(vec))
        assert code == EX_FALSE
        assert report["violated"]["name"].startswith("submod")

    def test_decompose_g_over_omega(self, capsys):
        code, report = run(capsys, "decompose", fx("g.vec"), "omega")
        assert code == 0
        coeff = report["certificate"]["coefficients"]
        assert coeff["1"]["log_terms"] == {"2": "2/1"}
        assert coeff["123p"]["log_terms"] == {"2": "-1/6", "3": "3/4"}

    def test_decompose_g_over_theta_fails(self, capsys):
        code, report = run(capsys, "decompose", fx("g.vec"), "theta")
        assert code == EX_FALSE and report["certificate"] is None

    def test_decompose_explicit_rays(self, capsys):
        code, report = run(capsys, "decompose", fx("f.vec"), "1,2,3,123p")
        assert code == 0

    def test_face_f_theta(self, capsys):
        code, report = run(capsys, "face", fx("f.vec"), "theta")
        assert code == 0 and report["position"] == "strictly_inside"

    def test_face_f_subface(self, capsys):
        code, report = run(capsys, "face", fx("f.vec"), "1,2,123p")
        assert code == EX_FALSE and report["position"] == "outside"

    def test_inner_g_omega(self, capsys):
        code, report = run(capsys, "inner", fx("g.vec"), "omega")
        assert code == EX_FALSE
        ceiling, natural = report["conditions"]
        assert ceiling["values"]["lhs"]["log_terms"] == {"2": "-2/1", "3": "2/1"}
        assert ceiling["values"]["rhs"]["log_terms"] == {"3": "1/1"}
        assert natural["values"]["natural"] is None

    def test_inner_f_theta(self, capsys):
        code, report = run(capsys, "inner", fx("f.vec"), "theta")
        assert code == EX_FALSE
        assert report["conditions"][0]["values"]["lambda_123p"]["log_terms"] == {
            "2": "2/1", "3": "-1/1",
        }

    def test_spec_lift(self, capsys):
        code, report = run(capsys, "spec", fx("omega_candidate.vec"))
        assert code == 0
        assert report["spec"]["m"] == {
            "1": 9, "2": 9, "3": 6, "12": 54, "13": 54, "23": 54, "123": 216,
        }

    def test_spec_not_liftable(self, capsys):
        code, report = run(capsys, "spec", fx("g.vec"))
        assert code == EX_FALSE and report["spec"] is None


_SEARCH_KEYS = {"command", "status", "nodes_explored", "witness"}


class TestSearchCommand:
    def test_search_f_spec(self, capsys):
        code, report = run(capsys, "search", fx("spec_f.json"), "--budget-seconds", "60")
        assert code == 0
        assert report.keys() == _SEARCH_KEYS
        assert report["status"] == "found"
        pmf = parse_pmf(report["witness"])
        assert len(pmf.mass) == 48
        qu = is_quasi_uniform(pmf)
        assert qu.is_qu
        sizes = {subset_name(a): m for a, m in qu.support_sizes.items()}
        assert sizes == json.loads((FIXTURES / "spec_f.json").read_text())["m"]

    @pytest.mark.parametrize("flag, value", [
        ("--budget-nodes", "-5"),
        ("--budget-nodes", "0"),
        ("--budget-seconds", "-1"),
        ("--budget-seconds", "nan"),
    ])
    def test_unmeetable_budget_is_usage_error(self, tmp_path, capsys, flag, value):
        # the budget is checked before the spec file is read
        for spec in (fx("spec_f.json"), str(tmp_path / "missing.json")):
            code = main(["search", spec, flag, value])
            captured = capsys.readouterr()
            assert code == EX_USAGE and captured.out == ""
            assert "budget" in captured.err

    def test_search_budget_exceeded(self, capsys):
        code, report = run(
            capsys, "search", fx("spec_omega_candidate.json"),
            "--budget-nodes", "2000", "--budget-seconds", "20",
        )
        assert code == EX_INCONCLUSIVE
        assert report.keys() == _SEARCH_KEYS
        assert report["status"] == "budget_exceeded"

    def test_search_exhausted(self, tmp_path, capsys):
        # passes the necessary checks, yet no support realizes it
        spec = tmp_path / "exhausted.json"
        spec.write_text(json.dumps({"n": 3, "m": {
            "1": 3, "2": 3, "3": 3, "12": 6, "13": 6, "23": 6, "123": 12,
        }}))
        code, report = run(capsys, "search", str(spec))
        assert code == EX_FALSE
        assert report.keys() == _SEARCH_KEYS
        assert (report["status"], report["nodes_explored"], report["witness"]) == ("exhausted_infeasible", 45, None)

    def test_search_size_too_large_to_factor_is_searched(self, tmp_path):
        # the command factors no size, so one above the factoring cap is
        # searched like any other
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"n": 1, "m": {"1": 3 * (2**89 - 1)}}))
        proc = run_subprocess("-m", "entrocone.cli", "search", str(spec), "--budget-nodes", "10")
        assert proc.returncode == EX_INCONCLUSIVE and "Traceback" not in proc.stderr
        report = json.loads(proc.stdout)
        assert (report["status"], report["nodes_explored"]) == ("budget_exceeded", 11)

    def test_search_infeasible_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"n": 2, "m": {"1": 2, "2": 2, "12": 3}}))
        code, report = run(capsys, "search", str(spec))
        assert code == EX_FALSE
        assert "does not divide" in report["witness"]

    def test_search_infeasible_spec_with_size_too_large_to_factor(self, tmp_path, capsys):
        # m_1 * m_2 < m_12 is decided on the integer sizes, none of them factored
        big = 3 * (2**89 - 1)
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"n": 2, "m": {"1": 2, "2": big, "12": 4 * big}}))
        code, report = run(capsys, "search", str(spec))
        assert code == EX_FALSE
        assert report["witness"] == "log-size vector violates submod:1,2|-"

    def test_search_deep_grid(self, tmp_path, capsys):
        spec = tmp_path / "deep.json"
        spec.write_text(json.dumps({"n": 3, "m": {
            "1": 10, "2": 10, "3": 10, "12": 100, "13": 100, "23": 100, "123": 1000,
        }}))
        code, report = run(capsys, "search", str(spec), "--budget-nodes", "5000")
        assert code == 0
        assert (report["status"], report["nodes_explored"]) == ("found", 1001)

    def test_node_budget_bounds_the_build(self, tmp_path):
        # The tables and fiber counters grow only as far as the walk reaches,
        # so each run fits in 1 GiB of address space and ends quickly:
        # - 8,000,000 cells at 10 nodes, and at 5,000, past the orbit
        #   phase's start (the 40,000 orbits it would need do not fit in
        #   its allowance, so it is skipped);
        # - 10^10 cells whose pair 12 has as many fibers, at 10 nodes.
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"n": 3, "m": {
            "1": 10**5, "2": 10**5, "3": 1, "12": 10**10, "13": 10**5, "23": 10**5, "123": 10**10,
        }}))

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        for spec, nodes in ((fx("spec_large_grid.json"), 10), (fx("spec_large_grid.json"), 5000), (str(wide), 10)):
            start = time.monotonic()
            proc = run_subprocess(
                "-m", "entrocone.cli", "search", spec, "--budget-nodes", str(nodes), preexec_fn=limit_memory,
            )
            assert time.monotonic() - start < 2
            assert proc.returncode == EX_INCONCLUSIVE, proc.stderr
            report = json.loads(proc.stdout)
            assert (report["status"], report["nodes_explored"]) == ("budget_exceeded", nodes + 1)

    def test_deterministic_repeat_is_byte_identical(self, capsys):
        code1 = main(["search", fx("spec_f.json"), "--budget-seconds", "60"])
        out1 = capsys.readouterr().out
        code2 = main(["search", fx("spec_f.json"), "--budget-seconds", "60"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2


class TestCatalogAndUsage:
    def test_catalog(self, capsys):
        code, report = run(capsys, "catalog")
        assert code == 0
        assert report["count"] == 19
        dims = sorted(f["dim"] for f in report["faces"])
        assert dims == [1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6]
        assert {"generators": ["1", "2", "3", "123p"], "dim": 4, "canonical": True,
                "orbit_size": 1} in report["faces"]

    def test_usage_error_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == EX_USAGE

    @pytest.mark.parametrize("command", ["gamma", "spec"])
    def test_unsupported_variable_count_is_data_error(self, tmp_path, capsys, command):
        vec = tmp_path / "n7.vec"
        vec.write_text(json.dumps({"n": 7, "coords": ["log 2"] * 127}))
        code, report = run(capsys, command, str(vec))
        assert code == EX_DATAERR
        assert report is None

    def test_three_variable_commands_reject_other_n(self, tmp_path, capsys):
        vec = tmp_path / "n2.vec"
        vec.write_text(json.dumps({"n": 2, "coords": ["log 2", "log 2", "log 4"]}))
        for argv in (["decompose", str(vec), "omega"], ["face", str(vec), "theta"], ["inner", str(vec), "omega"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == EX_DATAERR and captured.out == ""
            assert "3-variable" in captured.err
        code, report = run(capsys, "gamma", str(vec))
        assert code == 0 and report["in_cone"]

    def test_deterministic_flag_is_gone(self):
        for flags in (["--deterministic"], ["--parallel", "2"], ["--no-hints"]):
            with pytest.raises(SystemExit) as exc:
                main(["search", fx("spec_f.json"), *flags])
            assert exc.value.code == EX_USAGE

    def test_unknown_face_is_data_error(self, capsys):
        code, _ = run(capsys, "face", fx("f.vec"), "sigma")
        assert code == EX_DATAERR

    def test_repeat_runs_byte_identical(self, capsys):
        main(["inner", fx("g.vec"), "omega"])
        first = capsys.readouterr().out
        main(["inner", fx("g.vec"), "omega"])
        second = capsys.readouterr().out
        assert first == second

    def test_huge_prime_coordinate_is_bounded(self, tmp_path):
        # the first coordinate is log of the prime 10**18 + 3
        p = "1000000000000000003"
        vec = tmp_path / "big.vec"
        vec.write_text(json.dumps({"n": 3, "coords": [
            f"log {p}", "log 2", "log 2", f"log {2 * int(p)}", f"log {2 * int(p)}", "log 4", f"log {4 * int(p)}",
        ]}))
        start = time.monotonic()
        proc = run_subprocess("-m", "entrocone.cli", "gamma", str(vec))
        assert time.monotonic() - start < 2
        assert proc.returncode in (0, EX_DATAERR)

    def test_huge_exponent_coefficient_is_bounded(self, tmp_path):
        # "1e200000000" names a coefficient of 2 * 10**8 digits, which
        # Fraction would build; only integers and num/den are read
        vec = tmp_path / "big.vec"
        vec.write_text(_vec_with_first({"log_terms": {"2": "1e200000000"}}))
        start = time.monotonic()
        proc = run_subprocess("-m", "entrocone.cli", "gamma", str(vec))
        assert time.monotonic() - start < 2
        assert proc.returncode == EX_DATAERR
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["gamma", "spec"])
    def test_integer_above_factoring_cap_is_data_error(self, tmp_path, capsys, command):
        vec = tmp_path / "huge.vec"
        vec.write_text(json.dumps({"n": 1, "coords": [f"log {3 * (2**89 - 1)}"]}))
        code, report = run(capsys, command, str(vec))
        assert code == EX_DATAERR
        assert report is None

    def test_pmf_above_factoring_cap_is_data_error(self, tmp_path, capsys):
        big = 2**89 - 1
        pmf = tmp_path / "huge.pmf"
        pmf.write_text(f"pmf n=1 sizes=2\n0 : 1/{big}\n1 : {big - 1}/{big}\n")
        code, report = run(capsys, "entropy", str(pmf))
        assert code == EX_DATAERR
        assert report is None


def _log2_vector(multiples) -> dict:
    return {"n": 3, "coords": [{"log_terms": {"2": f"{k * 10**12}/1"}} for k in multiples]}


class TestExitCodes:
    @pytest.mark.parametrize("multiples, argv", [
        ((1, 1, 1, 2, 2, 2, 3), ["spec"]),
        ((1, 1, 1, 2, 2, 2, 2), ["spec"]),
        ((1, 1, 1, 2, 2, 2, 2), ["inner", "theta"]),
        ((1, 1, 1, 2, 2, 2, 2), ["inner", "omega"]),
    ])
    def test_huge_antilog_is_data_error(self, tmp_path, multiples, argv):
        # exponents of 10**12 used to run 2**10**12 to completion
        vec = tmp_path / "hostile.vec"
        vec.write_text(json.dumps(_log2_vector(multiples)))
        start = time.monotonic()
        proc = run_subprocess("-m", "entrocone.cli", argv[0], str(vec), *argv[1:])
        assert time.monotonic() - start < 2
        assert proc.returncode == EX_DATAERR
        assert "antilog" in proc.stderr and proc.stdout == ""

    def test_antilog_near_one_is_a_verdict(self, tmp_path, capsys):
        # lambda = 24727 log 2 - 15601 log 3 has an antilog of about 1.000018:
        # its exact power is past the cap, its ceiling (2) is not
        coords = [{"log_terms": {"2": f"{24727 * k}/1", "3": f"{-15601 * k}/1"}} for k in (1, 1, 1, 2, 2, 2, 2)]
        vec = tmp_path / "near_one.vec"
        vec.write_text(json.dumps({"n": 3, "coords": coords}))
        code, report = run(capsys, "inner", str(vec), "omega")
        assert code == EX_FALSE and report["member"] is False
        ceiling = report["conditions"][0]
        assert (ceiling["name"], ceiling["holds"], ceiling["values"]["ceiling"]) == ("ceiling_12_123p", False, 2)

    def test_crash_is_internal_error(self, monkeypatch, capsys):
        def crash(_h):
            raise RuntimeError("boom")

        monkeypatch.setattr("entrocone.polycone.in_gamma_n", crash)
        code = main(["gamma", fx("f.vec")])
        captured = capsys.readouterr()
        assert code == EX_SOFTWARE and captured.out == ""
        assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err

    def test_failed_report_write_is_internal_error(self, monkeypatch, capsys):
        def fail(*_args, **_kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", fail)
        code = main(["gamma", fx("f.vec")])
        captured = capsys.readouterr()
        assert code == EX_SOFTWARE and captured.out == ""
        assert "OSError: no space left on device" in captured.err

    def test_precision_exhausted_is_inconclusive(self, monkeypatch, capsys):
        def exhausted(_h):
            raise PrecisionExhausted("unresolved")

        monkeypatch.setattr("entrocone.polycone.in_gamma_n", exhausted)
        code = main(["gamma", fx("f.vec")])
        captured = capsys.readouterr()
        assert code == EX_INCONCLUSIVE and captured.out == ""
        assert captured.err == "entrocone: unresolved\n"

    def test_unresolved_sign_is_inconclusive(self, tmp_path, monkeypatch, capsys):
        # h1 = log 2 + x on the vector of three independent bits, where
        # x = 2**90 log 2 - b log 3 < 0 needs more than 64 bits to sign, so
        # the inequalities I(1;2) = x and I(2;3|1) = -x are not settled there
        x = {"2": 2**90 + 1, "3": -round_log3_2(2**90)}
        vec = tmp_path / "tiny.vec"
        vec.write_text(json.dumps({"n": 3, "coords": [{"log_terms": x}, *_VEC_COORDS[1:]]}))
        assert run(capsys, "gamma", str(vec))[0] == EX_FALSE
        monkeypatch.setattr(logexact, "_PREC_CAP", 64)
        code = main(["gamma", str(vec)])
        captured = capsys.readouterr()
        assert code == EX_INCONCLUSIVE and captured.out == ""
        assert captured.err.startswith("entrocone: sign of ") and captured.err.endswith(" unresolved at 64 bits\n")


BAD = object()  # stands for the bad input file in an argv
_GOOD_INPUT = {"pmf": "table1.pmf", "vec": "f.vec", "spec": "spec_f.json"}
_BIG = 3 * (2**89 - 1)  # above the factoring cap
_VEC_COORDS = ["log 2"] * 3 + ["log 4"] * 3 + ["log 8"]  # a valid n=3 vector


def _vec_with_first(coord) -> str:
    return json.dumps({"n": 3, "coords": [coord, *_VEC_COORDS[1:]]})


_NON_UTF8 = b"\xff\xfe"
_BAD_INPUTS = {  # file kind: {bad-input class: file content, None for no file}
    "pmf": {
        "missing_file": None,
        "non_utf8": _NON_UTF8,
        "malformed": "pmf n=3\n0 0 0 : 1/1\n",
        "decimal": "pmf n=1 sizes=2\n0 : 0.5\n1 : 0.5\n",
        "above_factoring_cap": f"pmf n=1 sizes=2\n0 : 1/{_BIG}\n1 : {_BIG - 1}/{_BIG}\n",
        "n7": "pmf n=7 sizes=1,1,1,1,1,1,1\n0 0 0 0 0 0 0 : 1/1\n",
        "zero_denominator": "pmf n=3 sizes=1,1,2\n0 0 0 : 1/2\n0 0 1 : 1/0\n",
        "non_ascii_digit": "pmf n=1 sizes=2\n\u00b2 : 1/2\n1 : 1/2\n".encode(),  # "\u00b2".isdigit() holds
        # \d matches "\u0661" (Arabic-Indic one), and int() reads it as 1
        "non_ascii_mass": "pmf n=1 sizes=2\n0 : \u0661/\u0662\n1 : 1/2\n".encode(),
        "non_ascii_n": "pmf n=\u0661 sizes=2\n0 : 1/2\n1 : 1/2\n".encode(),
        "non_ascii_names_index": "pmf n=1 sizes=2\nnames \u0661=a,b\na : 1/2\nb : 1/2\n".encode(),
    },
    "vec": {
        "missing_file": None,
        "non_utf8": _NON_UTF8,
        "invalid_json": "{",
        "not_an_object": "[]",
        "n7": json.dumps({"n": 7, "coords": ["log 2"] * 127}),
        "non_integer_n": json.dumps({"n": 3.7, "coords": ["log 2"] * 3 + ["log 4"] * 3 + ["log 8"]}),
        "decimal": json.dumps({"n": 3, "coords": ["log 2"] * 6 + [0.5]}),
        "above_factoring_cap": json.dumps({"n": 3, "coords": [f"log {_BIG}"] + ["log 2"] * 6}),
        # one defect each in the valid vector _VEC_COORDS
        "float_log_term": _vec_with_first({"log_terms": {"2": 1.0}}),
        "zero_denominator_log_term": _vec_with_first({"log_terms": {"2": "1/0"}}),
        "log_terms_not_an_object": _vec_with_first({"log_terms": ["2"]}),
        "prime_named_twice": _vec_with_first({"log_terms": {"2": "1/1", "02": "1/1"}}),
        "order_not_a_list": json.dumps({"n": 3, "order": 5, "coords": _VEC_COORDS}),
        # json.dumps cannot repeat a key, so the repeats are spliced in
        "repeated_key": '{"n": 3, ' + json.dumps({"n": 3, "coords": _VEC_COORDS})[1:],
        "repeated_prime": _vec_with_first({"log_terms": {"2": "1/1"}}).replace('"2": "1/1"', '"2": "1/1", "2": "5/1"'),
        "prime_not_in_ascii_digits": _vec_with_first({"log_terms": {"1_1": "1/1"}}),  # int() reads log 11
        "non_ascii_shorthand": _vec_with_first("log \u0662"),
        "non_ascii_shorthand_denominator": _vec_with_first("log 4/\u0662"),
        # coefficients of 2**1024 or more: a violated inequality whose value
        # had a 4,401-digit denominator could not be printed (exit 70), and
        # h1 = 10**2500 log 2 - round(10**2500 log_3 2) log 3 took gamma 13 s
        "huge_denominators": json.dumps({"n": 3, "coords": ["log 2"] * 5 + [
            {"log_terms": {"2": f"1/{10**2200 + 3}", "3": "5/1"}},
            {"log_terms": {"2": f"1/{10**2200 + 1}"}},
        ]}),
        "huge_coefficients": json.dumps({"n": 3, "coords": [
            {"log_terms": {"2": str(10**2500), "3": str(-round_log3_2(10**2500))}},
            *["log 2"] * 6,
        ]}),
    },
    "spec": {
        "missing_file": None,
        "non_utf8": _NON_UTF8,
        "invalid_json": "{",
        "not_an_object": "[]",
        "n7": json.dumps({"n": 7, "m": {"1": 2}}),
        "n20": json.dumps({"n": 20, "m": {"1": 2}}),  # rejected before 2**20 subsets are listed
        "missing_subset": json.dumps({"n": 2, "m": {"1": 2, "2": 2}}),
        "zero_size": json.dumps({"n": 2, "m": {"1": 0, "2": 2, "12": 2}}),
        "decimal": json.dumps({"n": 1, "m": {"1": 1.5}}),
        "above_factoring_cap": json.dumps({"n": 1, "m": {"1": _BIG}}),
        "repeated_key": '{"n": 1, ' + json.dumps({"n": 1, "m": {"1": 2}})[1:],
        "repeated_subset": '{"n": 1, "m": {"1": 2, "1": 3}}',
    },
}
_COMMANDS = {  # command: (input file kind, arguments after the file)
    "entropy": ("pmf", []),
    "qu-check": ("pmf", []),
    "gamma": ("vec", []),
    "decompose": ("vec", ["omega"]),
    "face": ("vec", ["omega"]),
    "inner": ("vec", ["omega"]),
    "spec": ("vec", []),
    "search": ("spec", ["--budget-nodes", "10"]),
    "catalog": (None, []),
}


def _contract_cases():
    for cmd, (kind, tail) in _COMMANDS.items():
        good = [fx(_GOOD_INPUT[kind])] if kind else []
        yield pytest.param([cmd, *good, *tail, "--bogus"], None, EX_USAGE, id=f"{cmd}-unknown_flag")
        if kind is None:
            continue
        yield pytest.param([cmd], None, EX_USAGE, id=f"{cmd}-missing_argument")
        for case, content in _BAD_INPUTS[kind].items():
            # the QU check and the search factor nothing
            if not (cmd in ("qu-check", "search") and case == "above_factoring_cap"):
                yield pytest.param([cmd, BAD, *tail], content, EX_DATAERR, id=f"{cmd}-{case}")
        if tail == ["omega"]:  # an unknown bound fails argparse (64), an unknown face is data (65)
            code = EX_USAGE if cmd == "inner" else EX_DATAERR
            yield pytest.param([cmd, *good, "sigma"], None, code, id=f"{cmd}-unknown_face")


@pytest.mark.parametrize("argv, content, expected", list(_contract_cases()))
def test_bad_input_is_usage_or_data_error(tmp_path, capsys, argv, content, expected):
    # exit 1 is the negative verdict and nothing else: a bad argument is a
    # usage error (64), a bad input file a data error (65), with no report
    # on stdout
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    try:
        code = main([str(path) if arg is BAD else arg for arg in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == expected
    assert capsys.readouterr().out == ""


def loaded_modules(code: str, *argv: str) -> list[str]:
    """The ``entrocone.*`` modules a fresh interpreter holds after ``code``."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('entrocone.'))))"
    proc = run_subprocess("-c", probe, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    assert loaded_modules("import entrocone") == []


# what each command loads beyond entrocone.cli and the modules it imports
# at the top (distributions, logexact, subsets)
COMMAND_MODULES = [
    (["entropy", "table1.pmf"], []),
    (["qu-check", "table1.pmf"], []),
    (["gamma", "f.vec"], ["polycone"]),
    (["catalog"], ["polycone"]),
    (["decompose", "f.vec", "full"], ["polycone"]),
    (["face", "f.vec", "full"], ["polycone"]),
    (["decompose", "g.vec", "theta"], ["bounds", "polycone"]),
    (["face", "g.vec", "omega"], ["bounds", "polycone"]),
    (["inner", "g.vec", "omega"], ["bounds", "polycone"]),
    (["spec", "f.vec"], ["polycone", "qusearch"]),
    (["search", "spec_f.json", "--budget-nodes", "3000"], ["polycone", "qusearch"]),
]


@pytest.mark.parametrize("argv, extra", COMMAND_MODULES, ids=[" ".join(argv) for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_its_modules(argv, extra):
    code = (
        "import contextlib, io, sys\n"
        "from entrocone import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(sys.argv[1:]) in (0, 1), 'the command gave no verdict'\n"
    )
    args = [fx(a) if "." in a else a for a in argv]
    base = ["cli", "distributions", "logexact", "subsets"]
    assert loaded_modules(code, *args) == sorted(f"entrocone.{m}" for m in base + extra)


def test_polycone_import_runs_no_elimination():
    # faces are computed from their generator sets on demand, so importing
    # polycone builds no face table and runs no Gauss-Jordan elimination
    probe = (
        "import sys\n"
        "calls = []\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == '_eliminate':\n"
        "        calls.append(frame.f_code.co_filename)\n"
        "sys.setprofile(profile)\n"
        "import entrocone.polycone\n"
        "sys.setprofile(None)\n"
        "print(len(calls))\n"
    )
    proc = run_subprocess("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_cli_import_skips_mpmath_and_multiprocessing():
    probe = "import entrocone.cli, sys; print(sorted({'mpmath', 'multiprocessing'} & set(sys.modules)))"
    proc = run_subprocess("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
