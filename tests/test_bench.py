import csv
import io
import json

import pytest

from helpers import counts
from wgcd import bench as bench_mod
from wgcd import gcd_many
from wgcd.bench import (
    DEFAULT_STRATEGIES,
    GenSpec,
    StrategyDisagreement,
    bench_report,
    bench_run,
)
from wgcd.cli import main
from wgcd.core import Counters, WeightedTuple, counting, wgcd_auto

COUNTER_NAMES = list(Counters.__slots__)


def small_specs():
    return [
        GenSpec(1, (2, 3), 6, 5, "known-answer"),
        GenSpec(2, (2, 2, 3), 5, 6, "known-answer"),
        GenSpec(3, (1, 2), 4, 8, "random"),
        GenSpec(4, (2, 3), 5, 20, "adversarial-deficient"),
    ]


class TestBenchRun:
    def test_agreement_on_mixed_specs(self):
        records = bench_run(small_specs(), repetitions=1)
        assert len(records) == 4
        assert all(r.agreement for r in records)
        for record in records:
            assert {run.strategy for run in record.results} == set(DEFAULT_STRATEGIES)
            assert len({run.d for run in record.results}) == 1
            assert all(run.ns_median >= 0 for run in record.results)

    def test_oracle_can_be_included_on_small_specs(self):
        records = bench_run(small_specs()[:1], strategies=("auto", "oracle"))
        assert records[0].agreement

    def test_repetitions_validated(self):
        with pytest.raises(ValueError):
            bench_run(small_specs(), repetitions=0)
        with pytest.raises(ValueError):
            bench_run(small_specs(), strategies=("auto", "nope"))

    def test_empty_strategy_list_named(self):
        with pytest.raises(ValueError, match="no strategy given"):
            bench_run(small_specs(), strategies=())

    def test_counter_contrast_on_wide_cofactors(self):
        # the full strategy must chew the raw coordinates; auto only the gcd
        spec = GenSpec(7, (2, 3), 16, 128, "known-answer")
        tup, _ = bench_mod.generate(spec)
        records = bench_run([spec], strategies=("auto", "full-factor"), repetitions=1)
        by_name = {r.strategy: r for r in records[0].results}
        suffix_gcd_bits = gcd_many(tup.values).bit_length()
        assert by_name["auto"].counters.max_factored_bits <= suffix_gcd_bits
        assert by_name["full-factor"].counters.max_factored_bits >= 128
        assert (
            by_name["auto"].counters.max_factored_bits
            < by_name["full-factor"].counters.max_factored_bits
        )

    def test_golden_counters(self):
        # the counters are exact and seeded: a change here is a change in
        # what a strategy computes, factors or gcds
        specs = [small_specs()[i] for i in (0, 2, 3)]
        # strategy -> (d, factor_calls, max_factored_bits, gcd_calls); auto's
        # root candidate answers the known-answer spec unfactored, and the
        # rough part of the adversarial gcd splits into two coprime pieces
        # whose exact exponents decide their shares unfactored
        golden = [
            {"auto": (36, 0, 0, 1), "full-factor": (36, 2, 21, 0),
             "lcm-power": (36, 1, 32, 1), "fold": (36, 2, 11, 0)},
            {"auto": (1, 0, 0, 1), "full-factor": (1, 2, 8, 0),
             "lcm-power": (1, 0, 0, 1), "fold": (1, 1, 7, 0)},
            {"auto": (19, 0, 0, 1), "full-factor": (19, 2, 53, 0),
             "lcm-power": (19, 1, 105, 1), "fold": (19, 2, 53, 0)},
        ]
        records = bench_run(specs, repetitions=2)
        assert [r.spec.mode for r in records] == [
            "known-answer", "random", "adversarial-deficient",
        ]
        for record, expected in zip(records, golden):
            assert {
                r.strategy: (r.d, *counts(r.counters)) for r in record.results
            } == expected

    def test_runs_in_a_callers_block_keep_their_own_counts(self):
        # each canonical run counts in a context of its own, so a record
        # reads the same inside a caller's block as outside it; the
        # caller's block counts the two timed repetitions of each run
        def run():
            records = bench_run(
                small_specs()[:2], strategies=("auto", "fold"), repetitions=2
            )
            return [counts(r.counters) for record in records for r in record.results]

        standalone = run()
        assert standalone == [(0, 0, 1), (2, 11, 0), (0, 0, 1), (3, 10, 0)]
        with counting() as outer:
            assert run() == standalone
        assert counts(outer) == (10, 11, 4)

    def test_adversarial_instrumentation_monotonicity(self):
        # deficient noise inflates the gcd yet the auto strategy still
        # factors strictly less than the full-factorization baseline
        for seed, weights in ((1, (2, 3)), (2, (2, 2)), (3, (2, 2, 3))):
            spec = GenSpec(seed, weights, 8, 64, "adversarial-deficient")
            records = bench_run([spec], strategies=("auto", "full-factor"),
                                repetitions=1)
            by_name = {r.strategy: r for r in records[0].results}
            assert (
                by_name["auto"].counters.max_factored_bits
                < by_name["full-factor"].counters.max_factored_bits
            )

    def test_disagreement_aborts(self, monkeypatch):
        lying = dict(bench_mod.core._STRATEGIES)
        lying["fold"] = lambda values, weights: 1_000_003
        monkeypatch.setattr(bench_mod.core, "_STRATEGIES", lying)
        with pytest.raises(StrategyDisagreement) as exc:
            bench_run(small_specs()[:1], strategies=("auto", "fold"), repetitions=1)
        assert not exc.value.record.agreement

    @pytest.mark.parametrize("spec", [small_specs()[0], small_specs()[3]])
    def test_one_lying_strategy_meets_the_constructed_answer(self, monkeypatch, spec):
        # a single strategy has nothing to disagree with but the generator's
        # answer, on known-answer and adversarial specs alike
        lying = dict(bench_mod.core._STRATEGIES)
        lying["auto"] = lambda values, weights: 5
        monkeypatch.setattr(bench_mod.core, "_STRATEGIES", lying)
        expected = bench_mod.generate(spec)[1]
        with pytest.raises(StrategyDisagreement) as exc:
            bench_run([spec], strategies=("auto",), repetitions=1)
        assert exc.value.expected == expected
        assert str(exc.value).endswith(f": auto=5; constructed answer {expected}")

    def test_random_spec_message_names_no_answer(self, monkeypatch):
        lying = dict(bench_mod.core._STRATEGIES)
        lying["fold"] = lambda values, weights: 1_000_003
        monkeypatch.setattr(bench_mod.core, "_STRATEGIES", lying)
        with pytest.raises(StrategyDisagreement) as exc:
            bench_run(small_specs()[2:3], strategies=("auto", "fold"), repetitions=1)
        assert exc.value.expected is None
        assert "constructed answer" not in str(exc.value)


VALID_SPEC = {"seed": 1, "n": 2, "weights": [2, 3], "d_bits": 6,
              "cofactor_bits": 5, "mode": "known-answer"}


class TestSpecParsing:
    def test_round_trip(self):
        spec = GenSpec.from_json_dict(VALID_SPEC)
        assert spec == small_specs()[0]
        assert spec.to_json_dict() == VALID_SPEC

    def test_n_is_derived_from_the_weights(self):
        # a spec file need not carry "n", and every report still does
        obj = {k: v for k, v in VALID_SPEC.items() if k != "n"}
        obj["weights"] = [2, 2, 3]
        spec = GenSpec.from_json_dict(obj)
        assert spec.weights == (2, 2, 3)
        records = bench_run([spec], repetitions=1)
        entry, = json.loads(bench_report(records, "json"))
        assert entry["spec"]["n"] == 3
        rows = list(csv.DictReader(io.StringIO(bench_report(records, "csv").decode())))
        assert len(rows) == len(DEFAULT_STRATEGIES)
        assert all(row["n"] == "3" for row in rows)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"seed": 1}, "field 'weights' is missing"),
            (5, "must be a JSON object"),
            ([VALID_SPEC], "must be a JSON object"),
            (dict(VALID_SPEC, weights="23"), "field 'weights' must be a list of integers"),
            (dict(VALID_SPEC, weights=[2, 3.0]), "field 'weights' must be a list of integers"),
            (dict(VALID_SPEC, seed=1.9), "field 'seed' must be an integer"),
            (dict(VALID_SPEC, seed=True), "field 'seed' must be an integer"),
            (dict(VALID_SPEC, mode=None), "field 'mode' must be a string"),
        ],
    )
    def test_malformed_spec_names_the_field(self, obj, message):
        with pytest.raises(ValueError, match=message):
            GenSpec.from_json_dict(obj)


class TestReport:
    def test_empty_json(self):
        assert bench_report([], "json") == b"[]"

    def test_single_record_schema(self):
        records = bench_run(small_specs()[:1], repetitions=1)
        payload = json.loads(bench_report(records, "json"))
        assert len(payload) == 1
        entry = payload[0]
        assert set(entry) == {"spec", "results", "agreement"}
        assert set(entry["spec"]) == {
            "seed", "n", "weights", "d_bits", "cofactor_bits", "mode",
        }
        # the result fields are checked in TestCounterSchema
        assert all(isinstance(result["d"], str) for result in entry["results"])
        assert entry["agreement"] is True

    def test_json_holds_every_field(self):
        records = bench_run(small_specs(), repetitions=1)
        payload = json.loads(bench_report(records, "json"))
        assert len(payload) == len(records)
        for entry, record in zip(payload, records):
            assert GenSpec.from_json_dict(entry["spec"]) == record.spec
            assert entry["agreement"] is record.agreement
            assert len(entry["results"]) == len(record.results)
            for result, run in zip(entry["results"], record.results):
                assert isinstance(result["d"], str)
                assert result == {
                    "strategy": run.strategy,
                    "ns_median": run.ns_median,
                    **run.counters._asdict(),
                    "d": str(run.d),
                }

    def test_csv_holds_every_field(self):
        # each CSV row is its JSON result flattened beside the spec
        records = bench_run(small_specs(), repetitions=2)
        reader = csv.DictReader(io.StringIO(bench_report(records, "csv").decode()))
        assert tuple(reader.fieldnames) == bench_mod._CSV_FIELDS
        expected = [
            {
                **{k: str(v) for k, v in entry["spec"].items()},
                "weights": "|".join(map(str, entry["spec"]["weights"])),
                **{k: str(v) for k, v in result.items()},
                "agreement": str(entry["agreement"]).lower(),
            }
            for entry in json.loads(bench_report(records, "json"))
            for result in entry["results"]
        ]
        assert len(expected) == len(records) * len(DEFAULT_STRATEGIES)
        assert list(reader) == expected

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            bench_report([], "yaml")


class TestCounterSchema:
    """`Counters` declares the cost record once; every surface that
    reports it lists its fields in declaration order."""

    def test_every_surface_lists_the_counters_in_order(self, capsys):
        argv = ["--weights", "2,3", "--values", "5760,13824", "--json"]
        for command in ("compute", "explain"):
            assert main([command, *argv]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert list(payload["counters"]) == COUNTER_NAMES, command
        result = wgcd_auto(WeightedTuple((5760, 13824), (2, 3)))
        assert list(result.counters._asdict()) == COUNTER_NAMES
        records = bench_run(small_specs(), repetitions=1)
        for entry in json.loads(bench_report(records, "json")):
            for result in entry["results"]:
                assert list(result) == ["strategy", "ns_median", *COUNTER_NAMES, "d"]
        header = bench_report([], "csv").decode().splitlines()[0].split(",")
        assert header == [
            "seed", "n", "weights", "d_bits", "cofactor_bits", "mode",
            "strategy", "ns_median", *COUNTER_NAMES, "d", "agreement",
        ]
