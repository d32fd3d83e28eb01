import json
import tracemalloc

import pytest

from fairalloc import (
    AllocationConfig,
    ExponentialDecay,
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


class TestRun:
    def test_writes_summary_and_trajectories(self, tmp_path):
        cfg = write_config(tmp_path, r_values=(60.0,))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "summary.csv")
        assert header == ["R", "user_id", "final_rate", "final_utility", "final_price", "iterations", "status"]
        assert len(rows) == 6
        assert {row[1] for row in rows} == {"Sig1", "Sig2", "Sig3", "Log1", "Log2", "Log3"}
        assert all(row[6] == "converged" for row in rows)
        total = sum(float(row[2]) for row in rows)
        price = float(rows[0][4])
        assert abs(total - 60.0) <= 6 * 0.001 / price

    def test_trajectory_rows_are_bid_consistent(self, tmp_path):
        cfg = write_config(tmp_path, r_values=(60.0,))
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        header, rows = read_csv(out / "traj_R60.csv")
        assert header == ["n", "price", "user_id", "bid", "rate"]
        iterations = int(rows[-1][0])
        assert len(rows) == 6 * iterations
        for n, price, _, bid, rate in rows:  # re-checkable from the file alone
            assert float(bid) == float(price) * float(rate)

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
        result = run_allocation(scenario.utilities, r, config)
        assert result.status == status

        _, rows = read_csv(out / f"traj_R{int(r)}.csv")
        expected = [
            (rec.n, rec.price, uid, bid, rate)
            for rec in result.trajectory
            for uid, bid, rate in zip(scenario.user_ids, rec.bids, rec.rates)
        ]
        assert len(rows) == len(expected)
        for (n, price, uid, bid, rate), want in zip(rows, expected):
            assert (int(n), float(price), uid, float(bid), float(rate)) == want

        _, rows = read_csv(out / "summary.csv")
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

    def test_memory_follows_one_point_not_the_sweep(self, tmp_path):
        # Every point below cycles to the cap, so each holds max_iter rounds.
        # Holding all four trajectories at once peaked at 1.42x the one-point
        # run (the one-point peak also holds that point's formatted rows);
        # holding one at a time peaks at 1.07x.
        cfg = write_config(tmp_path, r_values=(5.0,), config=AllocationConfig(max_iter=200))

        def run(rates, out):
            return main(["run", "--config", str(cfg), "--out", str(tmp_path / out), "--R", rates])

        assert run("5", "warm") == 0  # one-time allocations stay out of the peaks
        peaks = {}
        for rates in ("5", "5,10,15,20"):
            tracemalloc.start()
            try:
                assert run(rates, rates) == 0
                peaks[rates] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        _, rows = read_csv(tmp_path / "5,10,15,20" / "summary.csv")
        assert {row[6] for row in rows} == {"iteration_cap_reached"}
        assert peaks["5,10,15,20"] < 1.25 * peaks["5"]

    def test_rate_override_replaces_config_values(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--R", "65"]) == 0
        assert (out / "traj_R65.csv").exists()
        assert not (out / "traj_R30.csv").exists()
        _, rows = read_csv(out / "summary.csv")
        assert {row[0] for row in rows} == {"65.0"}

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, r_values=(30.0, 60.0))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("summary.csv", "traj_R30.csv", "traj_R60.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_utility_type_exits_2(self, tmp_path, capsys):
        doc = scenario_to_dict(canonical_scenario(r_values=(60.0,)))
        doc["users"][0]["type"] = "sigmoidal"
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "users[0].type" in capsys.readouterr().err

    def test_empty_users_exits_2(self, tmp_path, capsys):
        doc = scenario_to_dict(canonical_scenario(r_values=(60.0,)))
        doc["users"] = []
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_csv_unsafe_user_id_exits_2(self, tmp_path, capsys):
        doc = scenario_to_dict(canonical_scenario(r_values=(60.0,)))
        doc["users"][2]["id"] = "Sig,1"
        cfg = tmp_path / "comma.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "users[2].id" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_setting_exits_2(self, tmp_path, capsys):
        doc = scenario_to_dict(canonical_scenario(r_values=(60.0,)))
        doc["config"]["delta"] = float("nan")
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps(doc))  # written as the bare token NaN, which json accepts
        assert "NaN" in cfg.read_text()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "delta" in capsys.readouterr().err

    def test_non_finite_rate_exits_2(self, tmp_path, capsys):
        doc = scenario_to_dict(canonical_scenario(r_values=(60.0,)))
        doc["R_values"] = [float("nan")]
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        assert "nan" in capsys.readouterr().err
        good = write_config(tmp_path)
        assert main(["run", "--config", str(good), "--out", str(tmp_path / "b"), "--R", "nan"]) == 2
        assert "nan" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_oversized_integer_exits_2(self, tmp_path, capsys):
        doc = scenario_to_dict(canonical_scenario(r_values=(60.0,)))
        doc["R_values"] = [int("1" * 400)]  # a JSON integer beyond the largest double
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "R_values[0]" in capsys.readouterr().err

    def test_integer_past_the_digit_limit_exits_2_naming_the_file(self, tmp_path, capsys):
        # json refuses to convert an integer literal of more than 4300 digits
        doc = scenario_to_dict(canonical_scenario(r_values=(60.0,)))
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(doc).replace("[60.0]", "[" + "1" * 5000 + "]"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ")
        assert "Traceback" not in err

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

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")]) == 2

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
    def test_reproduces_the_video_fit(self, capsys):
        assert main(["fit", "200", "0.05", "740", "0.99"]) == 0
        out = capsys.readouterr().out.strip()
        fields = dict(part.split("=") for part in out.split(" "))
        assert set(fields) == {"a", "b", "c", "d"}
        assert abs(float(fields["a"]) - 0.174) <= 0.001
        assert float(fields["b"]) == 470.0

    def test_swapped_points_exit_2(self, capsys):
        assert main(["fit", "740", "0.05", "200", "0.99"]) == 2
        assert "r_low" in capsys.readouterr().err

    def test_symmetric_points_print_the_midpoint(self, capsys):
        assert main(["fit", "50", "0.2", "150", "0.8"]) == 0
        out = capsys.readouterr().out.strip()
        fields = dict(part.split("=") for part in out.split(" "))
        assert float(fields["b"]) == 100.0


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
