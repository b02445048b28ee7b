import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import time_limit
import wgcd
from wgcd import WeightedTuple, core, numtheory, selftest, verify_wgcd
from wgcd.bench import DEFAULT_STRATEGIES
from wgcd.cli import main
from wgcd.selftest import CORPUS


TUPLE_ARGS = ("--weights", "2,3", "--values", "5760,13824")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_worked_triple_plain(self, capsys):
        code, out, err = run(
            capsys, "compute", "--weights", "2,2,3", "--values", "70352,5760,13824"
        )
        assert (code, out, err) == (0, "4\n", "")

    def test_all_ones_weights(self, capsys):
        code, out, _ = run(capsys, "compute", "--weights", "1,1", "--values", "12,18")
        assert (code, out) == (0, "6\n")

    def test_json_mode_matches_plain(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--weights", "2,3", "--values", "5760,13824", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == "24"
        assert payload["strategy"] == "auto"

    def test_every_strategy_agrees_on_corpus(self, capsys):
        for case in CORPUS:
            answers = set()
            for strategy in ("auto", "oracle", "full-factor", "lcm-power", "fold"):
                code, out, _ = run(
                    capsys,
                    "compute",
                    "--weights", ",".join(map(str, case.weights)),
                    "--values", ",".join(map(str, case.values)),
                    "--strategy", strategy,
                )
                assert code == 0
                answers.add(out.strip())
            assert answers == {str(case.expected)}

    def test_negative_values_accepted(self, capsys):
        code, out, _ = run(capsys, "compute", "--weights", "2,3", "--values", "-5760,13824")
        assert (code, out) == (0, "24\n")

    def test_all_zero_rejected(self, capsys):
        code, out, err = run(capsys, "compute", "--weights", "2,3", "--values", "0,0")
        assert code == 2 and out == "" and "error" in err

    def test_length_mismatch_rejected(self, capsys):
        code, _, err = run(capsys, "compute", "--weights", "2,3", "--values", "1,2,3")
        assert code == 2 and err

    def test_bad_weight_rejected(self, capsys):
        code, _, err = run(capsys, "compute", "--weights", "2,0", "--values", "4,8")
        assert code == 2 and err

    def test_garbage_values_rejected(self, capsys):
        code, _, err = run(capsys, "compute", "--weights", "2", "--values", "twelve")
        assert code == 2 and err

    def test_unknown_strategy_rejected_by_parser(self, capsys):
        # "gcd-factor" was an alias of "auto" and is gone
        for name in ("magic", "gcd-factor"):
            code, _, err = run(
                capsys, "compute", "--weights", "2", "--values", "4", "--strategy", name
            )
            assert code == 2 and err

    def test_oracle_scan_cap(self, capsys):
        code, _, err = run(
            capsys, "compute", "--weights", "1", "--values", "100000000000000",
            "--strategy", "oracle",
        )
        assert code == 2 and "budget" in err

    def test_rho_budget_exit_code(self, capsys, monkeypatch):
        # gcd n, a 2x64-bit semiprime that neither the root candidate nor
        # the coprime split answers: rho cannot split it in 1000 steps
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 1000)
        n = 9223372036854788173 * 18446744073709551557
        values = f"{n * 35},{n * 143},{n * 17}"
        with time_limit(10):
            code, out, err = run(
                capsys, "compute", "--weights", "1,2,3", "--values", values
            )
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "budget of 1000 iterations" in err

    def test_huge_decimal_values(self, capsys):
        d = 2**130 + 1
        values = f"{d**2 * 3},{d**3}"
        code, out, _ = run(capsys, "compute", "--weights", "2,3", "--values", values)
        assert (code, out) == (0, f"{d}\n")

    def test_too_many_digits_names_the_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        long = "7" * (limit + 700)
        for argv, entry in (
            (("compute", "--weights", "1,1", "--values", "12," + long), "values entry 1"),
            (("verify", "--weights", "1", "--values", "12", "--claim", long), "claim entry 0"),
        ):
            with time_limit(1):
                code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert f"{entry} has {limit + 700} digits" in err
            assert f"{limit}-digit limit" in err
            assert "malformed" not in err and len(err) < 200

    def test_digit_limit_skips_underscores(self, capsys):
        # the limit counts digits only, as int() does; a `_` that int()
        # refuses leaves the entry malformed
        limit = sys.get_int_max_str_digits()
        long = "1" + "_1" * (limit + 100)
        with time_limit(1):
            code, out, err = run(capsys, "compute", "--weights", "1,1", "--values", long + ",3")
        assert (code, out) == (2, "")
        assert f"values entry 0 has {limit + 101} digits" in err
        assert f"{limit}-digit limit" in err and "malformed" not in err
        for entry in ("1__1", "_1", "1_", "-_1"):
            code, out, err = run(capsys, "compute", "--weights", "1,1", "--values", entry + ",3")
            assert (code, out) == (2, "")
            assert f"malformed values list '{entry},3'" in err, entry

    def test_digit_limit_needs_one_sign_and_decimal_digits(self, capsys):
        # int() refuses a second sign and a `²` at any length, so neither
        # is named against the limit; a decimal digit of another script
        # counts toward it, as int() counts it
        limit = sys.get_int_max_str_digits()
        for long in ("+-" + "1" * (limit + 700), "\u00b2" * (limit + 700)):
            with time_limit(1):
                code, out, err = run(capsys, "compute", "--weights", "1,1", "--values", long + ",3")
            assert (code, out) == (2, "")
            assert "malformed values list" in err and "limit" not in err
        long = "\u0663" * (limit + 700)  # ARABIC-INDIC DIGIT THREE
        code, out, err = run(capsys, "compute", "--weights", "1,1", "--values", long + ",3")
        assert (code, out) == (2, "")
        assert f"values entry 0 has {limit + 700} digits" in err and "malformed" not in err

    def test_digit_limit_skips_entries_int_refuses_at_any_length(self, capsys):
        # int() raises its own digit-limit error on the first two, so the
        # verdict "malformed" cannot come from int()'s message
        limit = sys.get_int_max_str_digits()
        digits = "1" * (limit + 700)
        for long in (digits + "x", digits + ".0", "0x" + digits):
            with time_limit(1):
                code, out, err = run(capsys, "compute", "--weights", "1,1", "--values", long + ",3")
            assert (code, out) == (2, "")
            assert "malformed values list" in err and "limit" not in err

    def test_malformed_list_echo_is_cut(self, capsys):
        values = "x," + "1," * 1000 + "2"
        code, _, err = run(capsys, "compute", "--weights", "1", "--values", values)
        assert code == 2
        assert "malformed values list 'x,1,1," in err and len(err) < 200

    def test_malformed_claim_is_one_integer(self, capsys):
        code, out, err = run(capsys, "verify", "--weights", "1", "--values", "12", "--claim", "abc")
        assert (code, out) == (2, "")
        assert "malformed claim 'abc'" in err and "list" not in err

    def test_claim_list_is_refused(self, capsys):
        code, out, err = run(capsys, "verify", "--weights", "1", "--values", "12", "--claim", "6,7")
        assert (code, out) == (2, "")
        assert "claim must be a single integer" in err


class TestNormalize:
    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "normalize", "--weights", "2,3", "--values", "5760,13824")
        assert (code, out) == (0, "10,1 d=24\n")

    def test_sign_preserved(self, capsys):
        code, out, _ = run(capsys, "normalize", "--weights", "2,3", "--values", "-5760,13824")
        assert (code, out) == (0, "-10,1 d=24\n")

    def test_already_normalized(self, capsys):
        code, out, _ = run(capsys, "normalize", "--weights", "2,3", "--values", "10,1")
        assert (code, out) == (0, "10,1 d=1\n")

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "normalize", "--weights", "2,3", "--values", "5760,13824", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"values": ["10", "1"], "d": "24"}


class TestVerify:
    def test_accepts_true_claim(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--claim", "4",
            "--weights", "2,2,3", "--values", "70352,5760,13824",
        )
        assert (code, out) == (0, "ok\n")

    def test_rejects_non_maximal(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--claim", "2",
            "--weights", "2,2,3", "--values", "70352,5760,13824",
        )
        assert (code, out) == (1, "maximality\n")

    def test_rejects_non_divisor(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--claim", "8",
            "--weights", "2,2,3", "--values", "70352,5760,13824",
        )
        assert (code, out) == (1, "divisibility\n")

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--claim", "8", "--json",
            "--weights", "2,2,3", "--values", "70352,5760,13824",
        )
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": "divisibility"}

    def test_long_tuple_verdicts(self, capsys):
        # 64 coordinates d**q * (2q + 1) under the weights 64 down to 1,
        # but d itself at weight 1, so the weighted gcd is d = 2**2 * 1009
        d = 4036
        weights = tuple(range(64, 0, -1))
        values = tuple(d**q * (2 * q + 1) if q > 1 else d for q in weights)
        args = ("--weights", ",".join(map(str, weights)),
                "--values", ",".join(map(str, values)))
        for claim, reason in ((d, None), (d // 2, "maximality"), (d * 2, "divisibility")):
            ok = reason is None
            assert verify_wgcd(WeightedTuple(values, weights), claim) == (ok, reason)
            code, out, _ = run(capsys, "verify", "--claim", str(claim), *args)
            assert (code, out) == (0 if ok else 1, f"{reason or 'ok'}\n")

    def test_zero_claim_rejected(self, capsys):
        code, _, err = run(
            capsys, "verify", "--claim", "0", "--weights", "2", "--values", "4"
        )
        assert code == 2 and "claimed weighted gcd" in err


class TestExplain:
    def test_plain_steps(self, capsys):
        code, out, _ = run(capsys, "explain", "--weights", "2,2,3",
                           "--values", "70352,5760,13824")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d=4 strategy=auto"
        assert "  suffix-gcd: values=16,1152,13824 weights=2,2,3" in lines

    def test_root_hit_is_named(self, capsys):
        # gcd 16 and iroot(16, 2) = 4 divides with every weight: no factoring
        code, out, _ = run(capsys, "explain", "--weights", "2,2,3",
                           "--values", "70352,5760,13824", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"][-1]["rule"] == "fastpath-root"
        assert payload["counters"]["factor_calls"] == 0

    def test_json_steps_parse(self, capsys):
        # sorting the weights carries the values along: this is the
        # (5760, 13824) pair under (2, 3) in disguise
        code, out, _ = run(capsys, "explain", "--weights", "3,2",
                           "--values", "13824,5760", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == "24"
        assert payload["steps"][0]["rule"] == "permute"
        assert payload["steps"][0]["values"] == ["5760", "13824"]
        rules = [s["rule"] for s in payload["steps"]]
        assert "suffix-gcd" in rules

    def test_plain_lines_render_the_json_steps(self, capsys):
        # between them these traces take every rule; each plain step line
        # is its JSON step, comma-joined in order
        rules = set()
        for weights, values in [("1,1", "-12,18"), ("3,2", "13824,5760"),
                                ("2,3", "7,11"), ("2,2,3", "70352,5760,13824"),
                                ("2,1,3", "-6,0,10")]:
            base = ["explain", "--weights", weights, "--values", values]
            code, plain, _ = run(capsys, *base)
            assert code == 0
            payload = json.loads(run(capsys, *base, "--json")[1])
            assert plain.splitlines() == [f"d={payload['d']} strategy=auto"] + [
                f"  {s['rule']}: values={','.join(s['values'])}"
                f" weights={','.join(map(str, s['weights']))}"
                for s in payload["steps"]
            ]
            rules.update(s["rule"] for s in payload["steps"])
        assert rules == {"abs", "permute", "suffix-gcd", "fastpath-one", "fastpath-root"}


class TestSelftest:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= len(CORPUS)
        assert all(line.startswith("PASS") for line in lines)

    def test_json(self, capsys):
        code, out, _ = run(capsys, "selftest", "--json")
        assert code == 0
        payload = json.loads(out)
        assert all(entry["passed"] for entry in payload)

    def test_a_wrong_strategy_fails_every_corpus_row(self, capsys, monkeypatch):
        # a fold that always answers 7, which no corpus case expects, fails
        # every case, and the selftest exits 1
        assert 7 not in {case.expected for case in CORPUS}
        monkeypatch.setitem(core._STRATEGIES, "fold", lambda values, weights: 7)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[: len(CORPUS)] == [
            f"FAIL wgcd[{','.join(map(str, case.weights))}]"
            f"({','.join(map(str, case.values))}) = {case.expected}: fold -> 7"
            for case in CORPUS
        ]
        assert all(line.startswith("PASS") for line in lines[len(CORPUS) :])

    def test_wrong_pinned_intermediates_fail_their_rows(self, capsys, monkeypatch):
        # a suffix gcd and a weight sort that return their input unchanged
        # fail the three pinned rows, each with what it got, and leave the
        # corpus rows passing
        monkeypatch.setattr(selftest, "reduce_suffix_gcd", lambda t: t)
        monkeypatch.setattr(
            selftest, "sort_by_weight", lambda t: (t, tuple(range(len(t.weights))))
        )
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[: len(CORPUS)])
        assert lines[len(CORPUS) :] == [
            "FAIL suffix-gcd[2,2,3](70352,5760,13824) = (16,1152,13824):"
            " got (70352, 5760, 13824)",
            "FAIL suffix-gcd[2,3,5,7,9](234566,5789534,243226,123456,4322166)"
            " = (2,2,2,6,4322166): got (234566, 5789534, 243226, 123456, 4322166)",
            "FAIL sort-by-weight[7,5,3,2,9]:"
            " got ((7, 5, 3, 2, 9), (123456, 243226, 5789534, 234566, 4322166))",
        ]

    def test_runs_as_a_module(self):
        # python -m wgcd is the wgcd command
        src = str(Path(wgcd.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "wgcd", "selftest"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        lines = proc.stdout.splitlines()
        assert proc.returncode == 0, proc.stderr
        assert len(lines) == 21 and all(line.startswith("PASS") for line in lines)


class TestBench:
    def spec_file(self, tmp_path, specs):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(specs))
        return str(path)

    def small_specs(self):
        return [
            {"seed": 1, "n": 2, "weights": [2, 3], "d_bits": 6,
             "cofactor_bits": 5, "mode": "known-answer"},
            {"seed": 2, "n": 2, "weights": [1, 2], "d_bits": 4,
             "cofactor_bits": 8, "mode": "random"},
        ]

    def test_json_to_stdout(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "bench", "--spec", self.spec_file(tmp_path, self.small_specs()),
            "--reps", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2
        assert all(entry["agreement"] for entry in payload)

    def test_report_to_a_text_only_stdout(self, tmp_path):
        # an in-process caller may hand main a stdout with no byte buffer
        spec = self.spec_file(tmp_path, self.small_specs())
        for format in ("json", "csv"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["bench", "--spec", spec, "--reps", "1", "--format", format]) == 0
            if format == "json":
                assert len(json.loads(out.getvalue())) == 2
            else:
                lines = out.getvalue().strip().splitlines()
                assert lines[0].startswith("seed,n,weights")
                assert len(lines) == 1 + 2 * len(DEFAULT_STRATEGIES)

    def test_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "bench", "--spec", self.spec_file(tmp_path, self.small_specs()),
            "--reps", "1", "--format", "csv", "--out", str(out_path),
        )
        assert code == 0 and out == ""
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("seed,n,weights")
        assert len(lines) == 1 + 2 * len(DEFAULT_STRATEGIES)

    def test_report_over_its_own_spec_is_refused(self, capsys, tmp_path, monkeypatch):
        # --out naming the spec file, by the same path or another, exits 2
        # before any run and leaves the spec as it was
        from wgcd import bench as bench_mod

        def no_run(*args, **kwargs):
            raise AssertionError("bench_run called")

        monkeypatch.setattr(bench_mod, "bench_run", no_run)
        spec = self.spec_file(tmp_path, self.small_specs())
        before = Path(spec).read_bytes()
        for out_path in (spec, str(tmp_path / "." / "specs.json")):
            code, out, err = run(capsys, "bench", "--spec", spec, "--out", out_path)
            assert code == 2 and out == ""
            assert out_path in err and "spec file" in err
        assert Path(spec).read_bytes() == before

    def test_missing_spec_file(self, capsys):
        code, _, err = run(capsys, "bench", "--spec", "/nonexistent.json")
        assert code == 2 and err

    def test_malformed_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        code, _, err = run(capsys, "bench", "--spec", str(path))
        assert code == 2 and err

    @pytest.mark.parametrize(
        "specs, message",
        [
            ([{"seed": 1}], "'weights' is missing"),
            ([5], "must be a JSON object"),
            ([{"seed": 1, "n": 2, "weights": "23", "d_bits": 6,
               "cofactor_bits": 5, "mode": "random"}], "'weights'"),
            ([{"seed": 1.9, "n": 2, "weights": [2, 3], "d_bits": 6,
               "cofactor_bits": 5, "mode": "random"}], "'seed'"),
            # over the generators' size budget, refused before any draw
            ([{"seed": 1, "n": 1, "weights": [10**9], "d_bits": 64,
               "cofactor_bits": 8, "mode": "known-answer"}], "bench.SPEC_BITS"),
            ([{"seed": 1, "n": 2, "weights": [1, 2], "d_bits": 10**10,
               "cofactor_bits": 8, "mode": "known-answer"}], "bench.SPEC_BITS"),
        ],
    )
    def test_malformed_spec_entry_is_invalid_input(self, capsys, tmp_path, specs, message):
        code, out, err = run(capsys, "bench", "--spec", self.spec_file(tmp_path, specs))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "entry 0 of" in err and message in err

    def test_spec_over_lcm_powers_budget_exits_two(self, capsys, tmp_path):
        # GenSpec accepts the spec, whose largest coordinate has 64*8 + 1100
        # bits, but lcm-power bounds its power bitlen(x_i)*lcm(q)/q_i and
        # refuses it; no report is written
        specs = [{"seed": 1, "weights": [1, 64], "d_bits": 8,
                  "cofactor_bits": 1100, "mode": "known-answer"}]
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "bench", "--spec", self.spec_file(tmp_path, specs),
            "--reps", "1", "--out", str(out_path),
        )
        assert code == 2 and out == ""
        assert "lcm-power would build a 70848-bit power, over its 65536-bit budget" in err
        assert not out_path.exists()

    def test_exhausted_cofactors_exit_two(self, capsys, tmp_path, monkeypatch):
        # a known-answer spec whose cofactors fit no d: generate gives up
        # naming their bits, and the bench exits 2 with that message and
        # writes no report
        from wgcd import bench as bench_mod

        def exhausted(rng, bits, d):
            raise ValueError(f"no {bits}-bit cofactor coprime to {d} found")

        monkeypatch.setattr(bench_mod, "_random_cofactor", exhausted)
        specs = [{"seed": 1, "weights": [2, 3], "d_bits": 6,
                  "cofactor_bits": 5, "mode": "known-answer"}]
        message = "no cofactors of 5 bits fit any d for "
        with pytest.raises(ValueError, match=f"^{message}"):
            bench_mod.generate(bench_mod.GenSpec.from_json_dict(specs[0]))
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "bench", "--spec", self.spec_file(tmp_path, specs),
            "--reps", "1", "--out", str(out_path),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}")
        assert not out_path.exists()

    def test_disagreement_exits_one(self, capsys, tmp_path, monkeypatch):
        from wgcd import bench as bench_mod
        from wgcd.bench import StrategyDisagreement, StrategyRun, BenchRecord
        from wgcd.core import Counters

        def explode(*args, **kwargs):
            spec = bench_mod.GenSpec(1, (2,), 4, 4, "random")
            run = StrategyRun("auto", 0, Counters(), 7)
            raise StrategyDisagreement(BenchRecord(spec, (run,), False), None)

        monkeypatch.setattr(bench_mod, "bench_run", explode)
        code, out, err = run(
            capsys, "bench", "--spec", self.spec_file(tmp_path, self.small_specs())
        )
        assert code == 1 and out == "" and "disagreement" in err


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", *TUPLE_ARGS],
            ["normalize", *TUPLE_ARGS],
            ["verify", *TUPLE_ARGS, "--claim", "24"],
            ["explain", *TUPLE_ARGS],
            ["bench", "--spec", "specs.json"],
            ["selftest"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_command_takes_a_seed(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "1")
        assert code == 2 and out == "" and "unrecognized arguments: --seed 1" in err


class TestCallsInSequence:
    # main() called again in one process, after a good call and after a
    # usage error, prints what the same call prints in a fresh process
    CALLS = (
        ["compute", "--weights", "3,2,2", "--values", "-70352,5760,13824", "--json"],
        ["compute", *TUPLE_ARGS, "--strategy", "fastest"],
        ["normalize", *TUPLE_ARGS],
        ["explain", "--weights", "3,2,2", "--values", "-70352,5760,13824", "--json"],
    )

    def test_each_call_prints_what_a_fresh_process_prints(self, capsys, monkeypatch):
        # argparse wraps its usage to COLUMNS, which the child inherits
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(wgcd.__file__).resolve().parents[1])
        got = [run(capsys, *argv) for argv in self.CALLS]
        for argv, (code, out, err) in zip(self.CALLS, got):
            proc = subprocess.run(
                [sys.executable, "-m", "wgcd", *argv],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert [code for code, _, _ in got] == [0, 2, 0, 0]
        assert "invalid choice: 'fastest'" in got[1][2]


class TestExplainComputeAgreement:
    def test_same_record_on_corpus(self, capsys):
        for case in CORPUS:
            base = ["--weights", ",".join(map(str, case.weights)),
                    "--values", ",".join(map(str, case.values)), "--json"]
            _, computed, _ = run(capsys, "compute", *base)
            _, explained, _ = run(capsys, "explain", *base)
            computed, explained = json.loads(computed), json.loads(explained)
            assert computed["d"] == explained["d"] == str(case.expected)
            assert computed["counters"] == explained["counters"], case


class TestPlainJsonAgreement:
    def test_same_d_both_modes(self, capsys):
        base = ["--weights", "2,2,3", "--values", "70352,5760,13824"]
        _, plain, _ = run(capsys, "compute", *base)
        _, as_json, _ = run(capsys, "compute", *base, "--json")
        assert plain.strip() == json.loads(as_json)["d"] == "4"

        _, plain, _ = run(capsys, "normalize", *base)
        _, as_json, _ = run(capsys, "normalize", *base, "--json")
        assert plain.strip().split(" d=")[1] == json.loads(as_json)["d"]

        _, plain, _ = run(capsys, "explain", *base)
        _, as_json, _ = run(capsys, "explain", *base, "--json")
        assert plain.splitlines()[0].split()[0] == "d=4"
        assert json.loads(as_json)["d"] == "4"
