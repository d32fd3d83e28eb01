import json
from dataclasses import fields, replace

import pytest

from fairalloc import (
    AllocationConfig,
    ExponentialDecay,
    RationalDecay,
    SolverConfig,
    canonical_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)


def minimal_doc():
    return {
        "name": "demo",
        "users": [
            {"id": "Sig1", "type": "sigmoid", "params": {"a": 5, "b": 10}},
            {"id": "Log3", "type": "log", "params": {"k": 0.5, "r_max": 100}},
        ],
        "R_values": [30, 60],
    }


class TestParse:
    def test_minimal_document_gets_defaults(self):
        sc = parse_scenario(minimal_doc())
        assert sc.name == "demo"
        assert sc.user_ids == ("Sig1", "Log3")
        assert sc.r_values == (30.0, 60.0)
        assert sc.config == AllocationConfig()
        assert sc.config.decay is None

    def test_full_config(self):
        doc = minimal_doc()
        doc["config"] = {
            "delta": 0.01,
            "max_iter": 200,
            "initial_bid": 5,
            "decay": {"type": "exponential", "l1": 4, "l2": 8},
            "solver": {"bracket_lo": 0.01},
        }
        sc = parse_scenario(doc)
        assert sc.config.delta == 0.01
        assert sc.config.max_iter == 200
        assert sc.config.initial_bid == 5.0
        assert sc.config.decay == ExponentialDecay(l1=4.0, l2=8.0)
        assert sc.config.solver == SolverConfig(bracket_lo=0.01)

    def test_decay_variants(self):
        doc = minimal_doc()
        doc["config"] = {"decay": {"type": "none"}}
        assert parse_scenario(doc).config.decay is None
        doc["config"] = {"decay": {"type": "rational", "l3": 2.5}}
        assert parse_scenario(doc).config.decay == RationalDecay(l3=2.5)
        doc["config"] = {"decay": {"type": "exponential"}}
        assert parse_scenario(doc).config.decay == ExponentialDecay(l1=5.0, l2=10.0)

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d["users"][0].update(type="sigmoidal"), "users[0].type"),
            (lambda d: d["users"][1]["params"].pop("r_max"), "users[1].params"),
            (lambda d: d["users"][0]["params"].update(q=1), "users[0].params.q"),
            (lambda d: d["users"][0]["params"].update(a=-5), "users[0].params"),
            (lambda d: d.update(users=[]), "scenario.users"),
            (lambda d: d.update(R_values=[]), "scenario.R_values"),
            (lambda d: d.update(R_values=[60, 30]), "scenario"),
            (lambda d: d.update(config={"delta": -1}), "config"),
            (lambda d: d.update(config={"decay": {"type": "linear"}}), "config.decay.type"),
            (lambda d: d.update(config={"decay": {"type": "none", "l1": 5}}), "config.decay.l1"),
            (lambda d: d.update(config={"solver": {"hi_cap": 1}}), "config.solver.hi_cap"),
            (lambda d: d.update(config={"solver": {"rel_tol": 1e-8}}), "config.solver.rel_tol"),
            (lambda d: d.update(extra=1), "scenario.extra"),
            (lambda d: d.update(config={"max_iter": 10.5}), "config.max_iter"),
            (lambda d: d.update(R_values=[30, int("1" * 400)]), "R_values[1]"),
            (lambda d: d["users"][0]["params"].update(b=10**309), "users[0].params.b"),
            # ids are written raw into CSV rows
            (lambda d: d["users"][0].update(id="Sig,1"), "users[0].id"),
            (lambda d: d["users"][1].update(id='Log"3'), "users[1].id"),
            (lambda d: d["users"][0].update(id="Sig\n1"), "users[0].id"),
            (lambda d: d["users"][1].update(id="Log\r3"), "users[1].id"),
            (lambda d: d["users"][0].update(id=5), "users[0].id"),
            (lambda d: d.update(config=5), "config: expected an object"),
            (lambda d: d["users"][0]["params"].update(a="5"), "users[0].params.a"),
            (lambda d: d.update(config={"decay": {"l1": 5}}), "config.decay"),
            (lambda d: d.update(name=""), "scenario.name"),
        ],
    )
    def test_diagnostics_name_the_field(self, mutate, needle):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(ValueError, match=needle.replace("[", r"\[").replace("]", r"\]")):
            parse_scenario(doc)

    def test_duplicate_ids_rejected(self):
        doc = minimal_doc()
        doc["users"][1]["id"] = "Sig1"
        with pytest.raises(ValueError, match="unique"):
            parse_scenario(doc)


class TestLoad:
    def test_reads_json_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_doc()))
        assert load_scenario(path).name == "demo"

    def test_syntax_errors_carry_the_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "name": "x",\n  oops\n}\n')
        with pytest.raises(ValueError, match="line 3"):
            load_scenario(path)


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        sc = canonical_scenario(r_values=[30.0, 60.0])
        doc = scenario_to_dict(sc)
        assert parse_scenario(doc) == sc

    def test_survives_json_text(self):
        sc = canonical_scenario(r_values=[12.5, 60.0])
        sc = replace(sc, config=AllocationConfig(delta=0.0005, decay=RationalDecay(l3=3.0)))
        text = json.dumps(scenario_to_dict(sc))
        assert parse_scenario(json.loads(text)) == sc

    @pytest.mark.parametrize(
        "name, user_id",
        [
            ("", "Sig1"),
            ("x", "Sig,1"),
            ("x", 'Sig"1'),
            ("x", "Sig\r1"),
            ("x", "Sig\n1"),
            ("x", ""),
            ("x", "Sig\ud800"),
        ],
        ids=["empty-name", "comma", "quote", "cr", "lf", "empty-id", "lone-surrogate"],
    )
    def test_a_scenario_the_file_form_cannot_carry_is_rejected(self, name, user_id):
        users = canonical_scenario().users
        with pytest.raises(ValueError, match="name" if not name else "user id"):
            replace(canonical_scenario(), name=name, users=((user_id, users[0][1]), *users[1:]))

    def test_any_other_name_and_id_round_trip(self):
        sc = canonical_scenario()
        sc = replace(sc, name=" a, \"b\"\n", users=(("Usu\u00e1rio 1\t;", sc.users[0][1]), *sc.users[1:]))
        assert parse_scenario(json.loads(json.dumps(scenario_to_dict(sc)))) == sc

    @pytest.mark.parametrize("decay", [None, ExponentialDecay(l1=4.0, l2=8.0), RationalDecay(l3=2.5)])
    def test_every_field_round_trips(self, decay):
        config = AllocationConfig(
            delta=0.002,
            max_iter=300,
            initial_bid=7.5,
            decay=decay,
            solver=SolverConfig(bracket_lo=0.01),
        )
        sc = replace(canonical_scenario(r_values=[30.0]), config=config)
        doc = scenario_to_dict(sc)
        assert parse_scenario(json.loads(json.dumps(doc))) == sc
        emitted = [
            (doc["users"][0]["params"], sc.users[0][1]),
            (doc["users"][3]["params"], sc.users[3][1]),
            (doc["config"], config),
            (doc["config"]["solver"], config.solver),
        ]
        if decay is not None:
            emitted.append((doc["config"]["decay"], decay))
        for section, obj in emitted:
            assert {f.name for f in fields(obj) if f.init} <= section.keys(), type(obj).__name__
