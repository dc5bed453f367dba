"""Suite for the longitudinal run ledger and trend report.

The ledger's contract (docs/trend.md) in four enforceable claims:

* **content addressing** — a record's ``run_key`` is a pure function of
  its result-determining configuration: same config (however spelled)
  hashes byte-identically, any result-changing field flips the key, and
  provenance never participates;
* **append-only with loud failure** — records round-trip through the
  JSONL file unchanged, and ``validate`` reports every malformed or
  tampered line with its line number instead of silently skipping it;
* **honest trends** — per-run_key trajectories compare the latest
  sample against the median of the prior ones, so one historic outlier
  can neither mask nor fake a regression, and direction respects
  ``higher_is_better``;
* **CI-gateable** — ``repro trend --fail-on-regression`` exits 1 iff a
  key regressed at the chosen tolerance; ``repro ledger validate``
  exits 1 iff the file has a bad line.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.graph.build import from_edges
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    Ledger,
    graph_digest,
    is_enabled,
    make_record,
    provenance,
    run_key,
    scoped_ledger,
    validate_record,
)
from repro.obs.trend import (
    Trend,
    compute_trends,
    metric_value,
    trends_json,
)

from tests.strategies import edge_lists

CFG = {"bench": "x", "graph": "g0", "engine": "vectorized", "seed": 0}


def _bench(config=CFG, wall=1.0, label="amazon", **blocks):
    return make_record(
        kind="bench", source="test", config=config, label=label,
        perf={"wall_seconds": wall, **blocks.pop("perf", {})},
        telemetry=blocks.pop("telemetry", None),
    )


# ---------------------------------------------------------------------------
# run_key: content addressing


class TestRunKey:
    def test_deterministic_and_order_free(self):
        k = run_key(CFG)
        assert k == run_key(CFG)
        assert k == run_key(
            {"seed": 0, "engine": "vectorized", "graph": "g0", "bench": "x"}
        )
        assert len(k) == 64 and set(k) <= set("0123456789abcdef")

    def test_numpy_scalars_hash_as_builtins(self):
        assert run_key({"seed": np.int64(0), "tau": np.float64(0.15)}) \
            == run_key({"seed": 0, "tau": 0.15})

    def test_nested_config_order_free(self):
        a = {"params": {"tau": 0.15, "chunk": 64}, "graph": "g0"}
        b = {"graph": "g0", "params": {"chunk": 64, "tau": 0.15}}
        assert run_key(a) == run_key(b)

    @pytest.mark.parametrize("field,value", [
        ("seed", 1), ("engine", "parallel"), ("graph", "g1"), ("tau", 0.2),
    ])
    def test_result_determining_fields_flip_the_key(self, field, value):
        cfg = dict(CFG, tau=0.15)
        assert run_key(cfg) != run_key(dict(cfg, **{field: value}))

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_key({})

    @settings(max_examples=25, deadline=None)
    @given(edges=edge_lists(), data=st.data())
    def test_invariant_under_arc_permutation_and_weight_split(
        self, edges, data
    ):
        """The graph component of a run_key is the canonical arc
        multiset: edge input order and duplicate-arc spelling (one arc
        of weight 2 vs the same arc twice at weight 1) cannot change
        the key, but seed/engine changes always do."""
        g = from_edges(edges, num_vertices=10)
        perm = data.draw(st.permutations(edges))
        g_perm = from_edges(perm, num_vertices=10)
        split = [(u, v, 0.5) for u, v in edges] + \
                [(u, v, 0.5) for u, v in edges]
        g_split = from_edges(split, num_vertices=10)

        cfg = {"graph": graph_digest(g), "engine": "vectorized", "seed": 0}
        assert run_key(cfg) == run_key(dict(cfg, graph=graph_digest(g_perm)))
        assert run_key(cfg) == run_key(dict(cfg, graph=graph_digest(g_split)))
        assert run_key(cfg) != run_key(dict(cfg, seed=1))
        assert run_key(cfg) != run_key(dict(cfg, engine="parallel"))


# ---------------------------------------------------------------------------
# records + ledger file


class TestLedger:
    def test_record_shape_and_provenance(self):
        rec = _bench()
        assert rec["schema"] == LEDGER_SCHEMA
        assert rec["run_key"] == run_key(CFG)
        for key in ("timestamp", "git_rev", "hostname", "cpus",
                    "python", "numpy"):
            assert key in rec["provenance"]

    def test_provenance_never_part_of_identity(self):
        a, b = _bench(), _bench()
        a["provenance"] = dict(a["provenance"], hostname="elsewhere",
                               timestamp="1970-01-01T00:00:00+00:00")
        assert a["run_key"] == b["run_key"]
        validate_record(a)  # still valid: identity is config-only

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            make_record(kind="nope", source="t", config=CFG)

    def test_append_read_round_trip(self, tmp_path):
        led = Ledger(tmp_path / "runs.jsonl")
        recs = [_bench(wall=w) for w in (1.0, 1.1)]
        led.append_many(recs)
        assert led.read() == recs
        assert len(led) == 2
        assert led.validate() == []

    def test_append_rejects_invalid(self, tmp_path):
        led = Ledger(tmp_path / "runs.jsonl")
        with pytest.raises(ValueError, match="missing key"):
            led.append({"schema": LEDGER_SCHEMA})
        assert not led.path.exists()  # nothing half-written

    def test_validate_reports_line_numbers(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        led = Ledger(path)
        led.append(_bench())
        with open(path, "a") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps({"schema": "wrong/v9"}) + "\n")
        errors = led.validate()
        assert len(errors) == 2
        assert errors[0].startswith("line 2:")
        assert errors[1].startswith("line 3:")
        with pytest.raises(ValueError, match=":2: not JSON"):
            led.read()

    def test_tampered_config_detected(self, tmp_path):
        """Editing a record's config after writing breaks the run_key
        re-derivation — the ledger refuses to trend forged history."""
        path = tmp_path / "runs.jsonl"
        Ledger(path).append(_bench())
        rec = json.loads(path.read_text())
        rec["config"]["seed"] = 99  # forge the config, keep the key
        path.write_text(json.dumps(rec) + "\n")
        (error,) = Ledger(path).validate()
        assert "does not match" in error

    def test_scoped_ledger_arms_and_restores(self, tmp_path):
        assert not is_enabled()
        with scoped_ledger(tmp_path / "a.jsonl") as led:
            assert is_enabled()
            led.append(_bench())
        assert not is_enabled()
        assert len(Ledger(tmp_path / "a.jsonl")) == 1


# ---------------------------------------------------------------------------
# trend analysis


def _trend(values, higher_is_better=False):
    return Trend(run_key="k" * 64, label="l", source="s", metric="m",
                 higher_is_better=higher_is_better, values=list(values),
                 timestamps=[f"t{i}" for i in range(len(values))])


class TestTrend:
    def test_metric_value_perf_then_telemetry_floats_only(self):
        rec = _bench(telemetry={"nmi": 0.9, "ok": True, "name": "x"})
        assert metric_value(rec, "wall_seconds") == 1.0
        assert metric_value(rec, "nmi") == 0.9
        assert metric_value(rec, "ok") is None      # bools are not metrics
        assert metric_value(rec, "name") is None
        assert metric_value(rec, "absent") is None

    def test_single_sample_never_gates(self):
        assert _trend([1.0]).status(0.0) == "single"
        assert _trend([1.0]).baseline is None

    @pytest.mark.parametrize("values,tol,expected", [
        ([1.0, 1.05], 0.10, "stable"),
        ([1.0, 1.25], 0.10, "regressed"),
        ([1.0, 0.75], 0.10, "improved"),
        ([1.0, 1.25], 0.50, "stable"),     # same data, looser gate
    ])
    def test_lower_is_better_statuses(self, values, tol, expected):
        assert _trend(values).status(tol) == expected

    def test_higher_is_better_flips_direction(self):
        assert _trend([10.0, 7.0], True).status(0.1) == "regressed"
        assert _trend([10.0, 13.0], True).status(0.1) == "improved"
        assert _trend([10.0, 7.0]).status(0.1) == "improved"

    def test_median_baseline_shrugs_off_one_outlier(self):
        """latest-vs-best would flag 1.02 as regressed after one lucky
        0.2s sample; the median-of-prior baseline does not."""
        tr = _trend([1.0, 0.2, 1.0, 1.02])
        assert tr.baseline == 1.0
        assert tr.status(0.1) == "stable"
        assert tr.best == 0.2

    def test_compute_groups_by_key_and_orders_by_timestamp(self):
        cfg_b = dict(CFG, seed=1)
        recs = [_bench(wall=1.0), _bench(cfg_b, wall=5.0),
                _bench(wall=2.0)]
        # same-second timestamps: file order must break the tie
        for r in recs:
            r["provenance"] = dict(r["provenance"], timestamp="T")
        trends = compute_trends(recs, "wall_seconds")
        assert len(trends) == 2
        by_key = {t.run_key: t for t in trends}
        assert by_key[run_key(CFG)].values == [1.0, 2.0]
        assert by_key[run_key(cfg_b)].values == [5.0]

    def test_filters(self):
        recs = [
            _bench(wall=1.0, label="amazon"),
            _bench(dict(CFG, engine="parallel"), wall=2.0, label="orkut"),
            make_record(kind="service", source="svc",
                        config=dict(CFG, seed=7),
                        perf={"wall_seconds": 3.0}, label="amazon"),
        ]
        assert len(compute_trends(recs, "wall_seconds")) == 3
        assert [t.values for t in compute_trends(
            recs, "wall_seconds", engine="parallel")] == [[2.0]]
        assert [t.values for t in compute_trends(
            recs, "wall_seconds", kind="service")] == [[3.0]]
        assert len(compute_trends(
            recs, "wall_seconds", dataset="amazon")) == 2
        prefix = run_key(CFG)[:10]
        assert [t.values for t in compute_trends(
            recs, "wall_seconds", run_key=prefix)] == [[1.0]]
        assert compute_trends(recs, "no_such_metric") == []

    def test_trends_json_schema(self):
        recs = [_bench(wall=1.0), _bench(wall=1.5)]
        report = trends_json(compute_trends(recs, "wall_seconds"), 0.1)
        assert report["schema"] == "repro.trend/v1"
        (tr,) = report["trends"]
        assert tr["status"] == "regressed"
        assert tr["values"] == [1.0, 1.5]
        json.dumps(report)  # JSON-ready as promised


# ---------------------------------------------------------------------------
# CLI: repro trend / repro ledger


@pytest.fixture
def seeded_ledger(tmp_path):
    """Two run_keys: one stable, one 30% regressed on its latest run."""
    path = tmp_path / "runs.jsonl"
    led = Ledger(path)
    for w in (1.0, 1.02, 0.99):
        led.append(_bench(wall=w, label="stable"))
    for w in (1.0, 1.0, 1.3):
        led.append(_bench(dict(CFG, seed=1), wall=w, label="regressed"))
    return str(path)


class TestTrendCLI:
    def test_report_exits_zero_without_gate(self, seeded_ledger, capsys):
        assert main(["trend", "--ledger", seeded_ledger]) == 0
        out = capsys.readouterr().out
        assert "regressed" in out and "stable" in out

    def test_fail_on_regression_gates(self, seeded_ledger, capsys):
        assert main(["trend", "--ledger", seeded_ledger,
                     "--fail-on-regression"]) == 1
        assert "REGRESSION" in capsys.readouterr().err
        # the same ledger passes at a tolerance above the 30% jump
        assert main(["trend", "--ledger", seeded_ledger,
                     "--tolerance", "0.5", "--fail-on-regression"]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_non_negative(
        self, seeded_ledger, capsys, value
    ):
        """NaN would read every key as stable and a negative tolerance
        every key as regressed: both are usage errors."""
        with pytest.raises(SystemExit) as exc:
            main(["trend", "--ledger", seeded_ledger, "--tolerance", value,
                  "--fail-on-regression"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--tolerance" in err and "Traceback" not in err

    def test_json_out(self, seeded_ledger, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["trend", "--ledger", seeded_ledger,
                     "--json-out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["schema"] == "repro.trend/v1"
        statuses = {t["label"]: t["status"] for t in payload["trends"]}
        assert statuses == {"stable": "stable", "regressed": "regressed"}

    def test_missing_ledger_and_missing_metric_exit_one(
        self, seeded_ledger, tmp_path, capsys
    ):
        assert main(["trend", "--ledger", str(tmp_path / "nope.jsonl")]) == 1
        assert main(["trend", "--ledger", seeded_ledger,
                     "--metric", "no_such_metric"]) == 1

    def test_ledger_show_and_validate(self, seeded_ledger, capsys):
        assert main(["ledger", "validate", "--ledger", seeded_ledger]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["ledger", "show", "--ledger", seeded_ledger,
                     "--last", "2"]) == 0
        out = capsys.readouterr().out
        assert "last 2 of 6" in out

    def test_ledger_validate_gates_on_corruption(
        self, seeded_ledger, capsys
    ):
        with open(seeded_ledger, "a") as fh:
            fh.write("{broken\n")
        assert main(["ledger", "validate", "--ledger", seeded_ledger]) == 1
        assert "line 7" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# same config run twice through a real engine -> identical key + telemetry


class TestEndToEndIdentity:
    def test_run_cli_twice_identical_run_key_and_telemetry(
        self, tmp_path, capsys
    ):
        edges = tmp_path / "g.txt"
        rng = np.random.default_rng(5)
        lines = {f"{a} {b}" for a, b in rng.integers(0, 30, (120, 2))
                 if a != b}
        edges.write_text("\n".join(sorted(lines)) + "\n")
        ledger = tmp_path / "runs.jsonl"
        for _ in range(2):
            assert main(["run", "--edge-list", str(edges),
                         "--engine", "vectorized",
                         "--ledger", str(ledger)]) == 0
        a, b = Ledger(ledger).read()
        assert a["run_key"] == b["run_key"]
        assert a["telemetry"] == b["telemetry"]
        assert a["telemetry"]["codelength"] > 0
        assert Ledger(ledger).validate() == []
