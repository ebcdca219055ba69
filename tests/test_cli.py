import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from coarsekit import cli
from coarsekit.channel import KrausChannel, channels_equal, unitary_channel
from coarsekit.cli import main
from coarsekit.errors import MethodDisagreement
from coarsekit.io import dumps, matrix_to_json, scenario_from_json
from coarsekit.linalg import frob
from coarsekit.scenarios import emergent_spin_rotation, registry

from builders import (
    decohered_example2,
    dephased_hadamard,
    lift,
    pauli_contraction,
    pg_from_x,
    rotated_example1,
    swap,
    three_cycle,
    write_scenario,
)


def write_json(path, doc):
    """Write ``doc`` at ``path`` and return the path as a string."""
    path.write_text(dumps(doc), encoding="utf-8")
    return str(path)


def scenario_doc(kraus, unitary, **extra):
    doc = {
        "version": 1,
        "D": kraus[0].shape[1],
        "d": kraus[0].shape[0],
        "kraus": [matrix_to_json(k) for k in kraus],
        "unitary": matrix_to_json(unitary),
    }
    doc.update(extra)
    return doc


class TestCheck:
    def test_registry_compatible_exit_zero(self, capsys):
        assert main(["check", "spin-d3", "--trials", "100"]) == 0
        out = capsys.readouterr().out
        assert "COMPATIBLE" in out

    def test_registry_incompatible_exit_one(self, capsys):
        assert main(["check", "example1-incompatible", "--trials", "300"]) == 1
        out = capsys.readouterr().out
        assert "INCOMPATIBLE" in out
        # at least one refuting certificate is visible in the report
        assert "FOUND" in out or "infeasible" in out

    def test_missing_file_exit_64(self, capsys):
        assert main(["check", "missing.json"]) == 64

    def test_unknown_registry_name_exit_64(self):
        assert main(["check", "no-such-scenario"]) == 64

    def test_malformed_json_exit_64(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["check", str(bad)]) == 64

    @pytest.mark.parametrize(
        "content",
        [
            b'{"version": 1, "D": 2\xff}',
            b'{"version": 1, "D": ' + b"1" * 5000 + b"}",
            b"[" * 100000 + b"]" * 100000,
        ],
        ids=["undecodable-byte", "int-past-the-digit-limit", "nested-100000-deep"],
    )
    def test_unreadable_file_exit_64_with_one_line(self, content, tmp_path, capsys):
        # not UTF-8, an int Python will not convert, and a nesting past the
        # decoder's recursion limit: each is a file that cannot be read
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["check", str(bad)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [[1], "x", 3], ids=repr)
    def test_not_an_object_exit_64(self, doc, tmp_path, capsys):
        assert main(["check", write_json(tmp_path / "list.json", doc)]) == 64
        assert "scenario file must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry",
        [[1, 0, 7], [True, False], [1, True], [1], [], ["1", "0"], [1, None], 1, "1"],
        ids=repr,
    )
    def test_complex_entry_not_a_real_pair_exit_64(self, entry, tmp_path):
        # the first entry of the identity read as 1 would pass every check
        doc = scenario_doc([np.eye(2)], np.eye(2))
        doc["unitary"][0][0] = entry
        assert main(["check", write_json(tmp_path / "entry.json", doc)]) == 64

    @pytest.mark.parametrize(
        "key, value", [("D", "abc"), ("D", 2.7), ("D", 2.0), ("D", True), ("d", "2")], ids=repr
    )
    def test_dimension_not_an_integer_exit_64(self, key, value, tmp_path, capsys):
        # 2.7 used to be truncated to 2 and "2" read as 2, both passing every check
        doc = scenario_doc([np.eye(2)], np.eye(2))
        doc[key] = value
        assert main(["check", write_json(tmp_path / "dims.json", doc)]) == 64
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.pop("unitary"), "missing required key 'unitary'"),
            (lambda doc: doc.update(version=2), "unsupported version 2"),
            # True == 1 and 1.0 == 1 in Python, but neither is the integer 1
            (lambda doc: doc.update(version=True), "unsupported version True"),
            (lambda doc: doc.update(version=1.0), "unsupported version 1.0"),
            (lambda doc: doc.update(kraus=[]), "'kraus' must be a non-empty list"),
            (lambda doc: doc["kraus"].append(matrix_to_json(np.eye(3))), "kraus[1] has shape"),
            (lambda doc: doc.update(unitary=matrix_to_json(np.eye(3))), "unitary has shape"),
            (lambda doc: doc.update(unitary=[]), "unitary: not a matrix"),
        ],
        ids=["no-unitary", "version-2", "version-true", "version-float", "empty-kraus",
             "kraus-shape", "unitary-shape", "not-a-matrix"],
    )
    def test_scenario_file_shape_exit_64(self, edit, message, tmp_path, capsys):
        doc = scenario_doc([np.eye(2)], np.eye(2))
        edit(doc)
        assert main(["check", write_json(tmp_path / "shape.json", doc)]) == 64
        assert message in capsys.readouterr().err

    def test_invariant_violation_exit_65(self, tmp_path):
        doc = scenario_doc([np.eye(2) * 0.5], np.eye(2))
        assert main(["check", write_json(tmp_path / "non_tp.json", doc)]) == 65

    def test_non_unitary_dynamics_exit_65(self, tmp_path):
        doc = scenario_doc([np.eye(2)], np.diag([1.0, 0.5]))
        assert main(["check", write_json(tmp_path / "non_unitary.json", doc)]) == 65

    def test_unitary_with_an_overflowing_gram_exit_65(self, tmp_path, capsys):
        # u is finite, but u*u overflows to NaN: the unitarity check rejects
        # it before any criterion runs into a non-finite matrix, and the
        # overflow prints no warning
        doc = scenario_doc([np.eye(2)], np.diag([1e200 * (1 + 1j), 1.0]))
        assert main(["check", write_json(tmp_path / "overflow.json", doc)]) == 65
        err = capsys.readouterr().err
        assert "must be unitary" in err and err.count("\n") == 1

    def test_kraus_with_an_overflowing_gram_exit_65(self, tmp_path, capsys):
        # the same entry in a Kraus operator: sum K*K overflows to NaN, which
        # the trace check rejects
        doc = scenario_doc([np.diag([1e200 * (1 + 1j), 1.0])], np.eye(2))
        assert main(["check", write_json(tmp_path / "kraus-overflow.json", doc)]) == 65
        err = capsys.readouterr().err
        assert "not trace preserving" in err and err.count("\n") == 1

    def test_undecided_exit_two(self, tmp_path, capsys):
        # the kernel check holds and the SDP's residual sits inside its band,
        # so no criterion decides this nearly-compatible scenario
        path = write_scenario(tmp_path / "almost.json", pauli_contraction(4e-6))
        assert main(["check", path, "--trials", "0"]) == 2
        out = capsys.readouterr().out
        assert "UNDECIDED" in out

    def test_certified_cycle_exit_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "cycle.json", three_cycle())
        report_path = tmp_path / "r.json"
        assert main(["check", path, "--trials", "0", "--json", str(report_path)]) == 1
        sdp = json.loads(report_path.read_text(encoding="utf-8"))["sdp"]
        assert sdp["status"] == "infeasible" and sdp["iterations"] <= 10

    def test_json_report_contents(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["check", "spin-d3", "--json", str(report_path), "--trials", "50", "--seed", "3"]
        )
        assert code == 0
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc["verdict"] == "compatible"
        assert doc["fiber"]["preserved"] is True
        assert doc["sdp"]["status"] == "feasible"
        assert doc["witness"] is None
        assert len(doc["emergent"]["kraus"]) == 1
        assert doc["config"]["seed"] == 3
        assert doc["scenario"] == "spin-d3"
        # round-trips losslessly
        assert json.loads(dumps(doc)) == doc

    def test_json_report_byte_reproducible(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["check", "example1-incompatible", "--trials", "200", "--seed", "11"]
        assert main(args + ["--json", str(a)]) == 1
        assert main(args + ["--json", str(b)]) == 1
        assert a.read_bytes() == b.read_bytes()

    def test_witness_recorded_in_json(self, tmp_path):
        report_path = tmp_path / "witness.json"
        main(["check", "example1-incompatible", "--json", str(report_path),
              "--trials", "500", "--seed", "0"])
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc["witness"] is not None
        assert doc["witness"]["pg_after"] > doc["witness"]["pg_before"]

    def test_compatible_check_says_the_search_was_skipped(self, capsys):
        assert main(["check", "spin-d3"]) == 0
        out = capsys.readouterr().out
        assert "witness search : skipped (the effective channel closes the square)" in out
        assert "none found" not in out

    def test_check_prints_a_search_witness_with_its_ancilla_and_trial(self, tmp_path, capsys):
        # D = d = 2: the kernel check holds, so the witness comes from the
        # seeded search, which finds one at trial 3 on ancilla 1
        path = write_scenario(tmp_path / "dephased.json", dephased_hadamard(0.5))
        assert main(["check", path, "--seed", "0"]) == 1
        assert ("  witness search : FOUND (ancilla=1, trial=3)   pg 0.666564 -> 0.684827"
                "   gap 1.826e-02\n") in capsys.readouterr().out

    def test_incompatible_check_without_a_witness_says_none_found(self, tmp_path, capsys):
        # the kernel check holds and the SDP is infeasible, so only the search
        # could attach a witness, and with no trials it finds none
        path = write_scenario(tmp_path / "cycle.json", three_cycle())
        assert main(["check", path, "--trials", "0"]) == 1
        assert ("  witness search : none found   (trials=0, ancillas=(1, 3))\n"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("trials", [[], ["--trials", "0"]], ids=["default", "zero"])
    def test_undecided_check_says_the_search_was_skipped(self, trials, seed, tmp_path, capsys):
        # criterion 9's Pauli case: a search at the default budget would find
        # gaps of 2.3e-9 to 8.1e-8 at seeds 0-3, far inside the SDP's band of
        # 1e-6, so it does not run and the case stays undecided
        path = write_scenario(tmp_path / "almost.json", pauli_contraction(4e-6))
        assert main(["check", path, *trials, "--seed", str(seed)]) == 2
        out = capsys.readouterr().out
        assert ("  witness search : skipped (it documents only an incompatible verdict)\n"
                in out)
        assert "none found" not in out

    @pytest.mark.parametrize(
        "name", [n for n, e in registry().items() if e.expected == "compatible"]
    )
    def test_compatible_report_does_not_depend_on_the_budget(self, name, tmp_path, capsys):
        # the search is skipped, so only the echoed budget differs
        default, zero = tmp_path / "default.json", tmp_path / "zero.json"
        assert main(["check", name, "--json", str(default)]) == 0
        assert main(["check", name, "--json", str(zero), "--trials", "0"]) == 0
        a = json.loads(default.read_text(encoding="utf-8"))
        b = json.loads(zero.read_text(encoding="utf-8"))
        assert (a["config"].pop("witness_trials"), b["config"].pop("witness_trials")) == (1000, 0)
        assert a == b

    @pytest.mark.parametrize(
        "name", [n for n, e in registry().items() if e.expected == "incompatible"]
    )
    def test_kernel_failed_report_does_not_depend_on_the_seed(self, name, tmp_path, capsys):
        # the witness comes from the failed kernel check, not from a seeded
        # search, so only the echoed seed differs
        docs = []
        for seed in (0, 1, 5):
            path = tmp_path / f"seed{seed}.json"
            assert main(["check", name, "--json", str(path), "--seed", str(seed)]) == 1
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert doc["config"].pop("seed") == seed
            docs.append(doc)
        assert docs[0]["witness"]["source"] == "kernel"
        assert docs[1] == docs[0] and docs[2] == docs[0]

    def test_kernel_witness_line(self, capsys):
        assert main(["check", "example1-incompatible", "--trials", "0"]) == 1
        out = capsys.readouterr().out
        assert "witness : from the kernel check   pg 0.500000 -> 0.853553" in out
        assert "witness search" not in out

    def test_registry_name_builds_only_its_scenario(self, monkeypatch, capsys):
        from coarsekit import scenarios

        def boom(*args, **kwargs):
            raise AssertionError("built a scenario that was not asked for")

        monkeypatch.setattr(scenarios, "example1", boom)
        monkeypatch.setattr(scenarios, "example2", boom)
        assert main(["check", "spin-d3", "--trials", "0"]) == 0

    @pytest.mark.parametrize(
        "command, name, flags",
        [
            ("check", "example1-incompatible", ["--trials", "-5"]),
            ("check", "spin-d3", ["--trials", "-5"]),
            ("check", "spin-d3", ["--ancilla", "0"]),
            ("check", "example1-incompatible", ["--ancilla", "0"]),
            ("check", "spin-d3", ["--max-iter", "0"]),
            ("check", "spin-d3", ["--tol", "0"]),
            ("check", "spin-d3", ["--tol", "nan"]),
            # an infinite tolerance passed every residual: exit 0, compatible
            ("check", "example1-incompatible", ["--tol", "inf"]),
            # construct reads the same settings: nan made a compatible
            # scenario exit 1, inf made an incompatible one exit 0
            ("construct", "spin-d3", ["--tol", "nan"]),
            ("construct", "spin-d3", ["--tol", "inf"]),
            ("construct", "example1-incompatible", ["--tol", "inf"]),
        ],
        ids=repr,
    )
    def test_out_of_range_flag_exit_65_before_any_criterion(
        self, command, name, flags, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(cli, "run_all", fail)
        assert main([command, name, *flags]) == 65
        assert "must be" in capsys.readouterr().err

    def test_criteria_disagreement_exit_70(self, monkeypatch, capsys):
        def disagree(scenario, cfg):
            raise MethodDisagreement("forced")

        monkeypatch.setattr(cli, "run_all", disagree)
        assert main(["check", "spin-d3"]) == 70
        assert "internal disagreement: forced" in capsys.readouterr().err

    def test_negative_seed_exit_65(self, capsys):
        assert main(["check", "spin-d3", "--seed", "-1"]) == 65
        assert "seed" in capsys.readouterr().err

    def test_dephased_hadamard_reaches_the_search(self, tmp_path, capsys):
        # the kernel is trivial and the SDP builds no channel, so neither the
        # kernel check nor a channel rules out the search; at seed 0 it finds
        # a witness at trial 3
        path = write_scenario(tmp_path / "dephased.json", dephased_hadamard(0.5))
        report_path = tmp_path / "r.json"
        assert main(["check", path, "--json", str(report_path)]) == 1
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc["scenario"] == path
        assert (doc["witness"]["source"], doc["witness"]["trial"]) == ("search", 3)

    def test_narrowly_failed_kernel_check_on_a_lifted_scenario_exit_one(self, tmp_path, capsys):
        # example1 with u2 = H R(5e-9) H on a discarded 8-level environment
        # (D = 24): the kernel check fails narrowly while the intertwiner's
        # residual is small, and the criteria do not disagree, which would exit 70
        path = write_scenario(tmp_path / "lifted.json", lift(rotated_example1(5e-9), 8))
        assert main(["check", path]) == 1
        assert capsys.readouterr().err == ""

    def test_classical_is_not_a_subcommand(self, capsys):
        # the classical contrast is the library coarsekit.classical
        with pytest.raises(SystemExit) as exc:
            main(["classical", "model.json", "--emergent"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["check", "construct"])
    def test_classical_block_is_ignored(self, command, tmp_path, capsys):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        chain = {"pA": [0.5, 0.5], "pB_given_A": eye, "pX_given_A": eye, "pY_given_B": eye}
        doc = scenario_doc([np.eye(2)], np.eye(2), classical={"chain": chain})
        assert main([command, write_json(tmp_path / "with-classical.json", doc)]) == 0


def _parity_cases():
    """(registry name or scenario builder, flags) for the parity of construct,
    check --trials 0 and check at the default budget."""
    yield from (pytest.param(name, [], id=name) for name in registry())
    yield pytest.param(three_cycle, [], id="three-cycle")
    yield pytest.param(lambda: dephased_hadamard(0.5), [], id="dephased-hadamard")
    yield pytest.param(lambda: decohered_example2(2, 2, 0), ["--max-iter", "1"],
                       id="decohered-example2-max-iter-1")
    yield pytest.param(lambda: pauli_contraction(4e-6), [], id="pauli-contraction")
    yield pytest.param(swap, [], id="swap")
    for eps in (5e-9, 2e-8, 1e-7, 5e-7):
        for m in (1, 8):
            yield pytest.param(lambda eps=eps, m=m: lift(rotated_example1(eps), m), [],
                               id=f"rotated-example1-{eps:g}-lift-{m}")


class TestConstruct:
    def test_spin_channel_file(self, tmp_path, capsys):
        out_path, again = tmp_path / "gamma.json", tmp_path / "again.json"
        assert main(["construct", "spin-d3", "--out", str(out_path)]) == 0
        assert main(["construct", "spin-d3", "--out", str(again)]) == 0
        assert out_path.read_bytes() == again.read_bytes()
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["din"] == doc["dout"] == 2
        kraus = [
            np.array([[complex(re, im) for re, im in row] for row in mat])
            for mat in doc["kraus"]
        ]
        assert len(kraus) == 1
        # the effective dynamics is the half-angle qubit rotation
        got = KrausChannel(kraus)
        expected = unitary_channel(emergent_spin_rotation(np.pi / 2, (0, 0, 1)))
        assert frob(got.choi.mat - expected.choi.mat) <= 1e-8

    def test_identity_scenario_returns_u(self, tmp_path, capsys):
        u = np.diag([1.0, 1j])
        path = write_json(tmp_path / "ident.json", scenario_doc([np.eye(2)], u))
        out_path = tmp_path / "gamma.json"
        assert main(["construct", path, "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        got = np.array([[complex(re, im) for re, im in row] for row in doc["kraus"][0]])
        assert channels_equal(KrausChannel([got]), unitary_channel(u))

    @pytest.mark.parametrize(
        "name", [n for n, e in registry().items() if e.expected == "compatible"]
    )
    def test_same_kraus_as_check(self, name, tmp_path, capsys):
        # both commands take the channel from the same SDP outcome
        gamma_path, report_path = tmp_path / "gamma.json", tmp_path / "report.json"
        assert main(["construct", name, "--out", str(gamma_path)]) == 0
        assert main(["check", name, "--json", str(report_path), "--trials", "0"]) == 0
        built = json.loads(gamma_path.read_text(encoding="utf-8"))["kraus"]
        checked = json.loads(report_path.read_text(encoding="utf-8"))["emergent"]["kraus"]
        assert dumps(built) == dumps(checked)

    def test_incompatible_exit_one(self, capsys):
        assert main(["construct", "example1-incompatible"]) == 1
        assert "no CPTP" in capsys.readouterr().err

    def test_certified_cycle_exit_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "cycle.json", three_cycle())
        assert main(["construct", path]) == 1
        assert "no CPTP effective dynamics exists" in capsys.readouterr().err

    def test_undecided_sdp_exit_two(self, tmp_path, capsys):
        # compatible (any block-diagonal unitary is, with no coherences),
        # but one iteration of the loop decides nothing
        path = write_scenario(tmp_path / "dephasing.json", decohered_example2(2, 2, 0))
        assert main(["check", path, "--max-iter", "1"]) == 2
        capsys.readouterr()
        assert main(["construct", path, "--max-iter", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: undecided")
        assert "the SDP is undecided at residual " in err and "after 1 iteration(s)" in err
        assert "no CPTP" not in err
        assert main(["construct", path]) == 0

    @pytest.mark.parametrize("build, flags", list(_parity_cases()))
    def test_exit_code_is_that_of_check_without_the_search(self, build, flags, tmp_path, capsys):
        # construct decides through run_all with the search off, so it claims
        # neither more nor less than check --trials 0, nor than check at the
        # default budget, whose search never decides: the rotated example1
        # fails the kernel check while the SDP's residual sits inside its band
        path = build if isinstance(build, str) else write_scenario(tmp_path / "s.json", build())
        expected = main(["check", path, "--trials", "0", *flags])
        assert main(["check", path, *flags]) == expected
        capsys.readouterr()
        gamma_path = tmp_path / "gamma.json"
        assert main(["construct", path, *flags, "--out", str(gamma_path)]) == expected
        err = capsys.readouterr().err
        assert gamma_path.exists() == (expected == 0)
        if expected == 1:
            assert err == f"{path}: no CPTP effective dynamics exists for this scenario\n"
        elif expected == 2:
            assert "undecided" in err


class TestConfigBlock:
    """The scenario file's config block is checked before any criterion runs;
    a bad one is unreadable input (exit 64) for both check and construct."""

    @staticmethod
    def write(tmp_path, config):
        doc = scenario_doc([np.eye(2)], np.diag([1.0, 1j]), config=config)
        return write_json(tmp_path / "scenario.json", doc)

    @pytest.mark.parametrize("command", ["check", "construct"])
    @pytest.mark.parametrize(
        "config",
        [
            [1, 2],
            "tol",
            {"tol": "1e-6"},
            {"tol": True},
            {"tol": None},
            {"seed": "abc"},
            {"seed": 3.0},
            {"trials": 2.7},
            {"trials": False},
            {"max_iter": "10"},
            {"ancilla": [2]},
        ],
        ids=repr,
    )
    def test_bad_config_exit_64(self, command, config, tmp_path, capsys):
        assert main([command, self.write(tmp_path, config)]) == 64
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "construct"])
    def test_good_config_is_read(self, command, tmp_path, capsys):
        config = {"tol": 1, "seed": 3, "trials": 0, "max_iter": 5, "ancilla": 2, "note": "x"}
        assert main([command, self.write(tmp_path, config)]) == 0

    def test_config_values_reach_the_report(self, tmp_path, capsys):
        config = {"tol": 1e-7, "seed": 3, "trials": 7, "max_iter": 5, "ancilla": 2}
        report_path = tmp_path / "report.json"
        assert main(["check", self.write(tmp_path, config), "--json", str(report_path)]) == 0
        echo = json.loads(report_path.read_text(encoding="utf-8"))["config"]
        assert echo == {
            "tol": 1e-7,
            "sdp_max_iter": 5,
            "witness_trials": 7,
            "ancilla_dims": [2],
            "seed": 3,
        }

    def test_tol_flag_reaches_the_report(self, tmp_path, capsys):
        # given as a flag, the one decision tolerance is echoed as tol alone
        report_path = tmp_path / "report.json"
        assert main(["check", "spin-d3", "--tol", "1e-7", "--json", str(report_path)]) == 0
        echo = json.loads(report_path.read_text(encoding="utf-8"))["config"]
        assert echo["tol"] == 1e-7 and "fiber_tol" not in echo

    @pytest.mark.parametrize(
        "command, config",
        [
            ("check", {"trials": -5}),
            ("check", {"ancilla": 0}),
            ("check", {"max_iter": 0}),
            ("check", {"tol": 0}),
            ("check", {"tol": -1e-6}),
            # construct builds the same CheckConfig, search settings included
            ("construct", {"trials": -5}),
            # an integer past float range, which math.isfinite cannot take
            pytest.param("check", {"tol": 10**400}, id="'check'-{'tol': 10**400}"),
            pytest.param("construct", {"tol": 10**400}, id="'construct'-{'tol': 10**400}"),
        ],
        ids=repr,
    )
    def test_out_of_range_config_exit_65(self, command, config, tmp_path, capsys):
        assert main([command, self.write(tmp_path, config)]) == 65
        # one stderr line, naming the setting
        err = capsys.readouterr().err
        assert "must be" in err and next(iter(config)) in err and err.count("\n") == 1

    def test_construct_reads_the_sdp_settings(self, tmp_path, capsys):
        # an iteration cap of 0 from the file is rejected before the SDP runs
        assert main(["construct", self.write(tmp_path, {"max_iter": 0})]) == 65

    @pytest.mark.parametrize("flag", ["--seed", "--trials", "--ancilla"])
    def test_construct_takes_no_search_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "spin-d3", flag, "3"])
        assert exc.value.code == 2


class TestNonFiniteNumbers:
    """Python's json reads the NaN, Infinity and -Infinity tokens, which are
    not JSON numbers; in any numeric field they are unreadable input."""

    TOKENS = [float("nan"), float("inf"), float("-inf")]

    @staticmethod
    def written(tmp_path, doc):
        text = dumps(doc)  # the file's contents
        assert "NaN" in text or "Infinity" in text
        return write_json(tmp_path / "nonfinite.json", doc)

    @pytest.mark.parametrize("token", TOKENS, ids=repr)
    @pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
    @pytest.mark.parametrize(
        "key, what", [("kraus", "kraus[0]"), ("unitary", "unitary")], ids=["kraus", "unitary"]
    )
    @pytest.mark.parametrize("command", ["check", "construct"])
    def test_complex_entry_exit_64(self, command, key, what, part, token, tmp_path, capsys):
        doc = scenario_doc([np.eye(2)], np.eye(2))
        matrix = doc["kraus"][0] if key == "kraus" else doc["unitary"]
        matrix[1][0][part] = token
        assert main([command, self.written(tmp_path, doc)]) == 64
        assert what in capsys.readouterr().err

    @pytest.mark.parametrize("token", TOKENS, ids=repr)
    @pytest.mark.parametrize("command", ["check", "construct"])
    def test_config_tol_exit_64(self, command, token, tmp_path, capsys):
        doc = scenario_doc([np.eye(2)], np.diag([1.0, 1j]), config={"tol": token})
        assert main([command, self.written(tmp_path, doc)]) == 64
        assert "config" in capsys.readouterr().err


class TestRepeatedCalls:
    def test_one_process_many_calls(self, capsys):
        # one parser serves every call, whatever the previous call did
        assert cli.build_parser() is cli.build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        version = capsys.readouterr().out
        assert version == "coarsekit 0.1.0\n"
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: coarsekit check")
        assert main(["check", "spin-d3", "--trials", "0"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == version


@pytest.fixture(scope="module")
def gen32(tmp_path_factory):
    """A generated random scenario at D = 32, d = 4, K = 8."""
    path = tmp_path_factory.mktemp("gen") / "gen32.json"
    assert main(["gen", "32", "4", "8", "--seed", "7", "--out", str(path)]) == 0
    return path


class TestListAndGen:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "example1-compatible",
            "example1-incompatible",
            "example2-compatible",
            "example2-incompatible",
            "spin-d3",
        ):
            assert name in out

    def test_gen_then_check(self, tmp_path, capsys):
        path = tmp_path / "random.json"
        assert main(["gen", "4", "2", "3", "--out", str(path), "--seed", "5"]) == 0
        code = main(["check", str(path), "--trials", "30"])
        assert code in (0, 1, 2)

    def test_every_file_written_is_one_line(self, tmp_path, capsys):
        report, channel, gen = (tmp_path / f"{n}.json" for n in ("report", "channel", "gen"))
        assert main(["check", "spin-d3", "--trials", "0", "--json", str(report)]) == 0
        assert main(["construct", "spin-d3", "--out", str(channel)]) == 0
        assert main(["gen", "16", "4", "4", "--out", str(gen), "--seed", "7"]) == 0
        for path in (report, channel, gen):
            text = path.read_text(encoding="utf-8")
            assert text.count("\n") == 1 and text.endswith("\n")
            assert dumps(json.loads(text)) == text

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "spin-d3", "--trials", "0", "--json"],
            ["construct", "spin-d3", "--out"],
            ["gen", "4", "2", "2", "--out"],
        ],
        ids=["check-json", "construct-out", "gen-out"],
    )
    def test_unwritable_output_exit_73_with_one_line(self, argv, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "out.json"
        assert main([*argv, str(out)]) == 73
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("run_all", ["check", "spin-d3"]),
            ("run_all", ["construct", "spin-d3"]),
            ("random_scenario", ["gen", "4", "2", "2", "--out", "unused.json"]),
        ],
        ids=["check", "construct", "gen"],
    )
    def test_out_of_memory_exit_70_with_one_line(self, name, argv, monkeypatch, capsys):
        # a step too large to allocate, as numpy's _ArrayMemoryError, is no verdict:
        # exit 1 would read as incompatible
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.16 TiB")

        monkeypatch.setattr(cli, name, exhaust)
        assert main(argv) == 70
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 1.16 TiB\n"

    def test_generated_d32_report_carries_the_kernel_witness(self, gen32, tmp_path, capsys):
        # the kernel check fails in real coordinates and yields a witness of
        # gap about 1/2; the report, the witness's D x D matrix x included, is
        # one line and the same bytes on a second call
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["check", str(gen32), "--json", str(first)]) == 1
        assert main(["check", str(gen32), "--json", str(second)]) == 1
        text = first.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and first.read_bytes() == second.read_bytes()
        witness = json.loads(text)["witness"]
        assert witness["source"] == "kernel"
        assert witness["pg_after"] - witness["pg_before"] > 0.49

    def test_generated_d32_with_a_bool_entry_exit_64(self, gen32, tmp_path, capsys):
        # the array check of a full-size matrix rejects the one entry
        doc = json.loads(gen32.read_text(encoding="utf-8"))
        doc["unitary"][17][5] = True
        assert main(["check", write_json(tmp_path / "bool.json", doc)]) == 64
        assert "unitary" in capsys.readouterr().err

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["gen", "3", "2", "2", "--out", str(a), "--seed", "9"])
        main(["gen", "3", "2", "2", "--out", str(b), "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "args, named",
        [
            (["4", "2", "3", "--seed", "-1"], "seed must be"),
            (["0", "0", "1"], "big_dim must be"),
            (["2", "0", "1"], "small_dim must be"),
            (["2", "2", "0"], "kraus_count must be"),
            (["4", "1", "2"], "no isometry from dim 4 into 1x2"),
            (["2", "4", "1"], "small_dim must not exceed big_dim"),
        ],
        ids=repr,
    )
    def test_gen_out_of_range_exit_65(self, args, named, tmp_path, capsys):
        path = tmp_path / "random.json"
        assert main(["gen", *args, "--out", str(path)]) == 65
        assert named in capsys.readouterr().err
        assert not path.exists()


def _pg_from_x(s, y, n):
    """(pg_before, pg_after) recomputed from a report's ``x`` alone: X =
    sym(Y) + i antisym(Y), pushed through {M_k x I_n} and {M_k u x I_n}."""
    y = np.asarray(y, dtype=float)
    return pg_from_x(s, (y + y.T) / 2 + 0.5j * (y - y.T), n)


@pytest.mark.parametrize("which", ["example1-incompatible", "gen32", "dephased-hadamard"])
def test_a_reports_witness_is_checked_from_its_x_alone(which, gen32, tmp_path, capsys):
    # two kernel witnesses (D = 3 and the generated D = 32) and one from the search
    if which == "gen32":
        arg = str(gen32)
        s = scenario_from_json(json.loads(gen32.read_text(encoding="utf-8")))
    elif which == "dephased-hadamard":
        s = dephased_hadamard(0.5)
        arg = write_scenario(tmp_path / "dephased.json", s)
    else:
        arg, s = which, registry(which)[which].scenario
    report_path = tmp_path / "report.json"
    assert main(["check", arg, "--json", str(report_path)]) == 1
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    # format 2 writes each piece of evidence once
    assert doc["version"] == 2
    assert "method_agreement" not in doc and set(doc["algebraic"]) == {"v", "residual"}
    w = doc["witness"]
    assert set(w) == {"x", "pg_before", "pg_after", "ancilla_dim", "trial", "source"}
    n = w["ancilla_dim"]
    assert np.shape(w["x"]) == (s.D * n, s.D * n)
    before, after = _pg_from_x(s, w["x"], n)
    # The bound is rounding alone.  Each pg is (1 + ||H||_1) / 2 for
    # H = sum_k (M_k x I_n) X (M_k x I_n)*, so it moves by at most ||dH||_1 / 2,
    # and ||dH||_1 <= (d n)^2 max |dH_ab|.  An entry of H is summed along
    # chains of at most 2 D n + K operations; as ||X||_2 <= ||X||_1 <= 1 and
    # sum_k M_k* M_k = I, the moduli of its terms add up to at most
    # ((cg(I) x I_n)_aa (cg(I) x I_n)_bb)^(1/2) <= D, so it is off by at most
    # (2 D n + K) D eps.  eigvalsh's backward error (||H||_2 <= 1) and the
    # rounding of X itself each add at most D n eps to that.  The report's pg
    # was rounded along another path by as much again, hence the factor 2.
    d, big_d, k = s.d, s.D, len(s.cg.kraus)
    bound = 2 * (d * n) ** 2 * ((2 * big_d * n + k) * big_d + big_d * n) * np.finfo(float).eps
    assert abs(before - w["pg_before"]) <= bound
    assert abs(after - w["pg_after"]) <= bound
    assert w["pg_after"] - w["pg_before"] > 1e-3


def test_the_readme_names_the_parsers_flags():
    # the long options of the top-level parser and of every subcommand are
    # the backticked --flags of README's "Command line" section, so a flag
    # removed or renamed in one leaves no stale name in the other
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for p in (parser, *sub.choices.values()) for action in p._actions
             for opt in action.option_strings if opt.startswith("--")}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    documented = {flag for span in re.findall(r"`([^`]+)`", section)
                  for flag in re.findall(r"--[a-z][a-z-]*", span)}
    assert flags == documented
