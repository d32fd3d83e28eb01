import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fairalloc import (
    AllocationConfig,
    ExponentialDecay,
    IterationRecord,
    canonical_scenario,
    cli,
    run_allocation,
    scenario_to_dict,
)
from fairalloc.cli import main


def write_config(tmp_path, r_values=(30.0, 60.0), name="canonical.json", config=None):
    path = tmp_path / name
    doc = scenario_to_dict(canonical_scenario(r_values=r_values, config=config))
    path.write_text(json.dumps(doc, indent=2))
    return path


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [line.split(",") for line in rows]


def canonical_text(edit=lambda doc: None):
    """The canonical population at R = 60 as scenario JSON, after ``edit`` changes its document in place."""
    doc = scenario_to_dict(canonical_scenario(r_values=(60.0,)))
    edit(doc)
    return json.dumps(doc)


# Configs that main refuses with exit 2 before it makes the output
# directory: the command, the config file's content (None: no file),
# extra arguments, and what stderr must name, where {cfg} is the file.
UNUSABLE_CONFIGS = {
    "bad-utility-type": ("run", canonical_text(lambda doc: doc["users"][0].update(type="sigmoidal")), [],
                         "users[0].type"),
    "empty-users": ("run", canonical_text(lambda doc: doc.update(users=[])), [], "scenario.users"),
    "csv-unsafe-user-id": ("run", canonical_text(lambda doc: doc["users"][2].update(id="Sig,1")), [],
                           "users[2].id"),
    # a lone surrogate, which json writes as the escape \ud800 and UTF-8 cannot encode
    "user-id-utf8-cannot-encode": ("run", canonical_text(lambda doc: doc["users"][1].update(id="Sig\ud8002")), [],
                                   "users[1].id"),
    # json writes nan as the bare token NaN, which it also reads
    "non-finite-setting": ("run", canonical_text(lambda doc: doc["config"].update(delta=math.nan)), [], "delta"),
    "non-finite-rate": ("run", canonical_text(lambda doc: doc.update(R_values=[math.nan])), [], "nan"),
    "non-finite-rate-override": ("run", canonical_text(), ["--R", "nan"], "nan"),
    # a JSON integer beyond the largest double
    "oversized-integer": ("run", canonical_text(lambda doc: doc.update(R_values=[int("1" * 400)])), [],
                          "R_values[0]"),
    # json refuses to convert an integer literal of more than 4300 digits
    "integer-past-the-digit-limit": ("run", canonical_text().replace("[60.0]", "[" + "1" * 5000 + "]"), [],
                                     "error: {cfg}: "),
    "non-utf8-file": ("run", b"\xff\xfe{}", [], "{cfg}"),
    "missing-config": ("run", None, [], "{cfg}"),
    "curves-missing-config": ("curves", None, [], "{cfg}"),
    "curves-malformed-scenario": ("curves", canonical_text(lambda doc: doc["users"][3]["params"].update(k=-1.0)), [],
                                  "users[3]"),
}


class TestRun:
    @pytest.mark.parametrize(
        "r, decay, status",
        [(30.0, None, "converged"), (20.0, None, "iteration_cap_reached"), (20.0, ExponentialDecay(), "converged")],
        ids=["plain-converged", "plain-capped", "damped"],
    )
    def test_files_hold_exactly_the_library_result(self, tmp_path, r, decay, status):
        config = AllocationConfig(decay=decay)
        cfg = write_config(tmp_path, r_values=(r,), config=config)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        scenario = canonical_scenario(r_values=(r,), config=config)
        rounds = []
        result = run_allocation(scenario.utilities, r, config, rounds.append)
        assert result.status == status

        header, rows = read_csv(out / f"traj_R{int(r)}.csv")
        assert header == ["n", "price", "user_id", "bid", "rate"]
        # the text itself, not just its value: each number is its shortest round-trip repr
        expected = [
            [str(rec.n), repr(rec.price), uid, repr(bid), repr(rate)]
            for rec in rounds
            for uid, bid, rate in zip(scenario.user_ids, rec.bids, rec.rates)
        ]
        assert rows == expected

        header, rows = read_csv(out / "summary.csv")
        assert header == ["R", "user_id", "final_rate", "final_utility", "final_price", "iterations", "status"]
        assert [row[1] for row in rows] == list(scenario.user_ids)
        for row, (_, u), rate in zip(rows, scenario.users, result.final_rates):
            assert float(row[0]) == r
            assert float(row[2]) == rate
            assert float(row[3]) == u.value(rate)
            assert float(row[4]) == result.final_price
            assert int(row[5]) == result.iterations_used
            assert row[6] == result.status

    def test_points_run_and_land_on_disk_one_at_a_time(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, r_values=(30.0, 35.0, 60.0))
        out = tmp_path / "out"
        real_run_sweep = cli.run_sweep
        calls = []

        def one_point_sweep(scenario, **kwargs):
            assert len(scenario.r_values) == 1
            if calls:  # the previous point's trajectory is complete before this one runs
                r_prev, iterations = calls[-1]
                text = (out / f"traj_R{int(r_prev)}.csv").read_text()
                assert text.endswith("\n")
                assert len(text.splitlines()) == 1 + 6 * iterations
            assert not (out / "summary.csv").exists()
            sweep = real_run_sweep(scenario, **kwargs)
            (r,) = scenario.r_values
            calls.append((r, sweep.results[r].iterations_used))
            return sweep

        monkeypatch.setattr(cli, "run_sweep", one_point_sweep)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert [r for r, _ in calls] == [30.0, 35.0, 60.0]
        _, rows = read_csv(out / "summary.csv")
        ids = canonical_scenario().user_ids
        assert [(row[0], row[1]) for row in rows] == [(repr(r), uid) for r, _ in calls for uid in ids]
        assert [int(row[5]) for row in rows] == [n for _, n in calls for _ in ids]

    def test_memory_follows_one_point_not_the_sweep(self, tmp_path, traced_peak):
        # Every point below cycles to the cap, so each runs max_iter rounds.
        # Each round goes to its file as it is made, so no run holds a
        # trajectory. A one-point peak still varies with the point's
        # rates, mostly through how many prices the run's memo holds: R = 5,
        # whose price repeats early, peaks at about 70 KB and R = 10, which
        # repeats late, at about 150 KB. So the
        # four-point run is held to the largest of its own one-point peaks;
        # it peaks at about 0.84x.
        cfg = write_config(tmp_path, r_values=(5.0,), config=AllocationConfig(max_iter=200))
        points = ("5", "10", "15", "20")

        def run(rates, out):
            return main(["run", "--config", str(cfg), "--out", str(tmp_path / out), "--R", rates])

        assert run("5", "warm") == 0  # one-time allocations stay out of the peaks
        peaks = {}
        for rates in (*points, ",".join(points)):
            code, peaks[rates] = traced_peak(run, rates, rates)
            assert code == 0
        _, rows = read_csv(tmp_path / "5,10,15,20" / "summary.csv")
        assert {row[6] for row in rows} == {"iteration_cap_reached"}
        assert peaks["5,10,15,20"] < 1.25 * max(peaks[r] for r in points)

    def test_memory_stays_flat_as_rounds_grow(self, tmp_path, traced_peak):
        # R = 5 cycles to the cap, so the point runs exactly max_iter rounds.
        # Written round by round, the run holds one round, the memo of the
        # prices before R = 5's first repeat and the writer's text cache,
        # and peaks at about 1.02x.
        def run(n, out):
            cfg = write_config(tmp_path, r_values=(5.0,), config=AllocationConfig(max_iter=n), name=f"{n}.json")
            return main(["run", "--config", str(cfg), "--out", str(tmp_path / out)])

        assert run(100, "warm") == 0  # one-time allocations stay out of the peaks
        peaks = {}
        for n in (100, 1000):
            code, peaks[n] = traced_peak(run, n, str(n))
            assert code == 0
            _, rows = read_csv(tmp_path / str(n) / "summary.csv")
            assert {(row[5], row[6]) for row in rows} == {(str(n), "iteration_cap_reached")}
        assert peaks[1000] <= 1.2 * peaks[100]

    def test_a_large_population_keeps_few_rounds_of_text(self, tmp_path, traced_peak):
        # 1000 users drawn like the benchmark's crowd, at 0.9 times their
        # summed inflection rates, where the run takes more than 16 rounds.
        # Their rows are never reused; the writer keeps at most 4096 rows'
        # text, 4 rounds here, and peaks at about 1.04x.
        rng = random.Random(1)
        users = [{"id": f"u{i:04d}", "type": "sigmoid",
                  "params": {"a": rng.uniform(0.5, 5.0), "b": rng.uniform(5.0, 30.0)}} if i % 2 == 0 else
                 {"id": f"u{i:04d}", "type": "log",
                  "params": {"k": math.exp(rng.uniform(math.log(0.5), math.log(15.0))), "r_max": 100.0}}
                 for i in range(1000)]
        total_rate = 0.9 * sum(u["params"]["b"] for u in users if u["type"] == "sigmoid")

        def run(n, out):
            doc = {"name": "crowd", "users": users, "R_values": [total_rate], "config": {"max_iter": n}}
            cfg = tmp_path / f"{out}.json"
            cfg.write_text(json.dumps(doc))
            return main(["run", "--config", str(cfg), "--out", str(tmp_path / out)])

        assert run(4, "warm") == 0  # one-time allocations stay out of the peaks
        peaks = {}
        for n in (4, 16):
            code, peaks[n] = traced_peak(run, n, str(n))
            assert code == 0
            _, rows = read_csv(tmp_path / str(n) / "summary.csv")
            assert {(row[5], row[6]) for row in rows} == {(str(n), "iteration_cap_reached")}
        assert peaks[16] <= 1.25 * peaks[4]

    def test_rate_override_replaces_config_values(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--R", "65"]) == 0
        assert (out / "traj_R65.csv").exists()
        assert not (out / "traj_R30.csv").exists()
        _, rows = read_csv(out / "summary.csv")
        assert {row[0] for row in rows} == {"65.0"}

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        # ASCII locale, with both of Python's UTF-8 fallbacks (locale coercion, UTF-8 mode) off
        doc = scenario_to_dict(canonical_scenario(r_values=(30.0,)))
        doc["users"][0]["id"] = "Usu\u00e1rio"
        cfg = tmp_path / "accented.json"
        cfg.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        out = tmp_path / "out"
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "fairalloc.cli", "run", "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert b"Usu\xc3\xa1rio" in (out / "summary.csv").read_bytes()

    def test_underflowing_slope_scale_runs_to_the_budget(self, tmp_path):
        doc = {
            "name": "tiny-k",
            "users": [{"id": "lone", "type": "log", "params": {"k": 1e-30, "r_max": 1e30}}],
            "R_values": [30],
            "config": {"solver": {"bracket_lo": 1e-300}},
        }
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "summary.csv")
        [(_, user_id, rate, _, price, _, status)] = rows
        assert (user_id, status) == ("lone", "converged")
        assert abs(float(rate) - 30.0) <= 0.001 / float(price)  # the lone user takes the whole budget

    def test_allocation_failure_exits_3_naming_the_rate(self, tmp_path, capsys):
        doc = {
            "name": "starved",
            "users": [{"id": "lone", "type": "log", "params": {"k": 0.5, "r_max": 100}}],
            "R_values": [30, 1e12],
        }
        cfg = tmp_path / "starved.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert "R=1000000000000.0" in capsys.readouterr().err
        # the point before the failing one keeps its trajectory; no summary is written
        assert sorted(p.name for p in out.iterdir()) == ["traj_R30.csv"]

    def test_rate_above_the_demand_ceiling_exits_3_before_any_round(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--R", "60,3e9"]) == 3
        err = capsys.readouterr().err
        assert "R=3000000000.0" in err and "demand ceiling 2781716593." in err
        assert sorted(p.name for p in out.iterdir()) == ["traj_R60.csv"]

    def test_a_huge_rate_fails_on_its_rate_not_on_its_file_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--R", "60,1e300"]) == 3
        err = capsys.readouterr().err
        assert "R=1e+300" in err and "demand ceiling 2781716593." in err
        assert sorted(p.name for p in out.iterdir()) == ["traj_R60.csv"]

    def test_a_round_priced_too_low_exits_3_mid_run(self, tmp_path, capsys):
        # tiny initial bids price R = 1.39e9's first round below every log user's slope at the bracket cap
        cfg = write_config(tmp_path, config=AllocationConfig(initial_bid=0.001))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--R", "60,1.39e9"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: allocation failed at R=1390000000.0: "
            "log-slope still above price 4.316546762589928e-12 at rate 1000000000.0; "
        )
        assert sorted(p.name for p in out.iterdir()) == ["traj_R60.csv"]
        assert len((out / "traj_R60.csv").read_text().splitlines()) == 325

    @pytest.mark.parametrize("error, code", [(RuntimeError, 3), (OSError, 2)])
    def test_a_point_that_fails_mid_run_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch, error, code):
        cfg = write_config(tmp_path, r_values=(30.0, 60.0))
        out = tmp_path / "out"
        real_run_sweep = cli.run_sweep

        def fail_in_round_3_at_60(scenario, *, on_round):
            def write_then_fail(record):
                on_round(record)
                if scenario.r_values == (60.0,) and record.n == 3:
                    raise error("stopped after round 3")

            return real_run_sweep(scenario, on_round=write_then_fail)

        monkeypatch.setattr(cli, "run_sweep", fail_in_round_3_at_60)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
        assert "stopped after round 3" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["traj_R30.csv"]


class TestRoundWriter:
    def test_text_matches_a_row_by_row_reference(self):
        # prices that print in exponent form, and a third round repeating
        # the first, which the writer's cache serves: each distinct round's
        # price is formatted once, not once per row
        class CountedPrice(float):
            reprs = 0

            def __repr__(self):
                CountedPrice.reprs += 1
                return float.__repr__(self)

        user_ids = ("Sig1", "Log1", "Log2")
        first = (3e-05, (1.5e-05, 2e-300, 0.1), (0.5, 1e-295, 3333.3333333333335))
        rounds = [IterationRecord(1, CountedPrice(first[0]), *first[1:]),
                  IterationRecord(2, CountedPrice(1e16), (1e16, 5e-324, 2.5e17), (1.0, 5e-324, 25.0)),
                  IterationRecord(3, CountedPrice(first[0]), *first[1:])]
        written = []
        on_round = cli._round_writer(written.append, user_ids)
        for rec in rounds:
            on_round(rec)
        assert "".join(written) == "".join(
            f"{n},{float(price)!r},{uid},{bid!r},{rate!r}\n"
            for n, price, bids, rates in rounds for uid, bid, rate in zip(user_ids, bids, rates))
        assert "3e-05" in written[0] and "1e+16" in written[1]
        assert CountedPrice.reprs == 2


class TestCurves:
    def test_samples_the_unit_grid(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["curves", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "curves.csv")
        assert header == ["r", "user_id", "utility", "dlogU"]
        assert len(rows) == 101 * 6
        at_zero = [row for row in rows if row[0] == "0.0"]
        assert len(at_zero) == 6
        assert all(row[2] == "0.0" for row in at_zero)  # U(0) = 0
        assert all(row[3] == "" for row in at_zero)  # slope diverges at 0
        log1_at_100 = [row for row in rows if row[0] == "100.0" and row[1] == "Log1"]
        assert log1_at_100[0][2] == "1.0"  # U(r_max) = 1

    def test_slope_column_parses_beyond_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["curves", "--config", str(cfg), "--out", str(out)])
        _, rows = read_csv(out / "curves.csv")
        beyond = [row for row in rows if row[0] != "0.0"]
        assert all(float(row[3]) > 0.0 for row in beyond)



class TestFit:
    def test_swapped_points_exit_2(self, capsys):
        assert main(["fit", "740", "0.05", "200", "0.99"]) == 2
        assert "r_low" in capsys.readouterr().err

    def test_symmetric_points_print_the_midpoint(self, capsys):
        assert main(["fit", "50", "0.2", "150", "0.8"]) == 0
        out = capsys.readouterr().out.strip()
        fields = dict(part.split("=") for part in out.split(" "))
        assert set(fields) == {"a", "b", "c", "d"}
        assert float(fields["b"]) == 100.0

    def test_infinite_rate_names_the_argument(self, capsys):
        assert main(["fit", "200", "0.05", "inf", "0.99"]) == 2
        assert "r_high must be positive and finite" in capsys.readouterr().err

    def test_huge_anchors_fit_without_overflow(self, capsys):
        # (r_low + r_high) / 2 would overflow to inf; the halves add to a finite midpoint
        assert main(["fit", "1e308", "0.05", "1.7e308", "0.99"]) == 0
        assert "b=1.35e+308" in capsys.readouterr().out

    def test_anchors_too_close_for_a_finite_steepness_are_named(self, capsys):
        # 100 * 0.94 / 1e-307 overflows; the error names the anchors, not the derived a = inf
        assert main(["fit", "1e-307", "0.05", "2e-307", "0.99"]) == 2
        err = capsys.readouterr().err
        assert "r_low and r_high are too close together" in err
        assert "steepness a must be" not in err

    def test_satisfaction_gap_too_small_for_the_span_is_named(self, capsys):
        # 100 * 5e-324 / 1.7e308 underflows; the error names the anchors, not the derived a = 0.0
        assert main(["fit", "1", "5e-324", "1.7e308", "1e-323"]) == 2
        err = capsys.readouterr().err
        assert "s_high - s_low is too small for the rate span" in err
        assert "s_low=5e-324, s_high=1e-323" in err
        assert "steepness a must be" not in err


class TestUsage:
    def test_unusable_out_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")

        def no_sweep(scenario, **kwargs):
            raise AssertionError("run_sweep was called with an unusable --out")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        for command in ("run", "curves"):
            assert main([command, "--config", str(cfg), "--out", str(taken)]) == 2
            assert str(taken) in capsys.readouterr().err

    @pytest.mark.parametrize("command, content, extra, needle", UNUSABLE_CONFIGS.values(), ids=UNUSABLE_CONFIGS)
    def test_an_unusable_config_exits_2_naming_its_field_or_file(self, tmp_path, capsys, command, content, extra,
                                                                  needle):
        cfg, out = tmp_path / "scenario.json", tmp_path / "out"
        if isinstance(content, bytes):
            cfg.write_bytes(content)
        elif content is not None:
            cfg.write_text(content)
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle.format(cfg=cfg) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--out", "somewhere"])
        assert exc.value.code == 2

    def test_malformed_rate_list_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--R", "30;60"])
        assert exc.value.code == 2

    def test_import_loads_no_numpy(self):
        # the library and its CLI are plain `math` code, so starting them costs no numpy import
        src = str(Path(cli.__file__).parents[1])
        code = "import sys, fairalloc, fairalloc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
