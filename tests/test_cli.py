"""Tests for spec parsing, the invariant-suite runner, and the CLI."""

import json
import math
import multiprocessing
import os

import numpy as np
import pytest

import cqlab.geometry
from cqlab.channels import CcqMac, CoupledMac, CqChannel, InterferenceChannel
from cqlab.cli import main
from cqlab.decoders import sample_codebook, sequential_decode
from cqlab.specio import (
    SpecError,
    dump_channel,
    load_channel,
    parse_channel,
    serialize_channel,
)
from cqlab.verify import SUITES, run_suite, run_suites

I2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
K1 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
P2 = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]


def bb84_doc() -> dict:
    return {
        "kind": "cq",
        "input": {"symbols": ["0", "1"], "probs": [0.5, 0.5]},
        "states": {"0": I2, "1": P2},
    }


def xor_mac_doc() -> dict:
    return {
        "kind": "ccq-mac",
        "x": {"symbols": ["0", "1"], "probs": [0.5, 0.5]},
        "y": {"symbols": ["0", "1"], "probs": [0.5, 0.5]},
        "states": {"0": {"0": I2, "1": K1}, "1": {"0": K1, "1": I2}},
    }


def constant_mac_doc() -> dict:
    return {
        "kind": "ccq-mac",
        "x": {"symbols": ["0", "1"], "probs": [0.5, 0.5]},
        "y": {"symbols": ["0", "1"], "probs": [0.5, 0.5]},
        "states": {"0": {"0": I2, "1": I2}, "1": {"0": I2, "1": I2}},
    }


def cmg_doc() -> dict:
    return {
        "kind": "cmg-mac",
        "x": {"symbols": ["0", "1"], "probs": [0.5, 0.5]},
        "z_symbols": ["a", "b"],
        "z_given_x": {"0": [1.0, 0.0], "1": [0.0, 1.0]},
        "y": {"symbols": ["y"], "probs": [1.0]},
        "states": {"a": {"y": I2}, "b": {"y": K1}},
    }


def ic_doc() -> dict:
    bell_diag = np.kron(np.array([[1.0, 0], [0, 0]]), np.array([[1.0, 0], [0, 0]]))
    other = np.kron(np.array([[0, 0], [0, 1.0]]), np.array([[0.5, 0], [0, 0.5]]))
    m1 = [[[float(bell_diag[i, j]), 0.0] for j in range(4)] for i in range(4)]
    m2 = [[[float(other[i, j]), 0.0] for j in range(4)] for i in range(4)]
    return {
        "kind": "ccqq-ic",
        "q": {"symbols": ["q"], "probs": [1.0]},
        "ux_given_q": {
            "q": {"symbols": [["u0", "0"], ["u1", "1"]], "probs": [0.5, 0.5]}
        },
        "vy_given_q": {
            "q": {"symbols": [["v0", "0"], ["v1", "1"]], "probs": [0.5, 0.5]}
        },
        "output_dims": [2, 2],
        "states": {"0": {"0": m1, "1": m1}, "1": {"0": m2, "1": m2}},
    }


def write_doc(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSpecIO:
    def test_roundtrip_all_kinds(self):
        # contract: parse -> serialize -> parse gives an identical model
        expected_types = {
            "cq": CqChannel,
            "ccq-mac": CcqMac,
            "cmg-mac": CoupledMac,
            "ccqq-ic": InterferenceChannel,
        }
        for doc, kind in (
            (bb84_doc(), "cq"),
            (xor_mac_doc(), "ccq-mac"),
            (cmg_doc(), "cmg-mac"),
            (ic_doc(), "ccqq-ic"),
        ):
            model = parse_channel(doc)
            assert isinstance(model, expected_types[kind])
            once = serialize_channel(model)
            twice = serialize_channel(parse_channel(once))
            assert json.dumps(once, sort_keys=True) == json.dumps(twice, sort_keys=True)

    def test_errors_name_the_offending_field(self):
        cases = [
            ({"kind": "mystery"}, "spec.kind"),
            ({"kind": "cq", "input": {"symbols": ["0"], "probs": [0.5]}}, "spec.input.probs"),
            ({"kind": "cq", "input": {"symbols": ["0"], "probs": [1.0]}}, "missing field 'states'"),
            (
                {
                    "kind": "cq",
                    "input": {"symbols": ["0"], "probs": [1.0]},
                    "states": {"0": [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.0]]]},
                },
                "spec.states.0: matrix trace",
            ),
            (
                {
                    "kind": "cq",
                    "input": {"symbols": ["0"], "probs": [1.0]},
                    "states": {"0": [[[0.5, 0.0], [0.5, 0.3]], [[0.5, 0.0], [0.5, 0.0]]]},
                },
                "not Hermitian",
            ),
            (
                {
                    "kind": "cq",
                    "input": {"symbols": ["0"], "probs": [1.0]},
                    "states": {"0": [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
                },
                "spec.states.0[0][1]",
            ),
        ]
        doc = cmg_doc()
        doc["z_given_x"]["0"] = [0.9, 0.0]
        cases.append((doc, "spec.z_given_x.0"))
        # paths only the cmg and ccqq-ic readers reach: (document, field path, bad value, expected error)
        for make, path, value, fragment in (
            (cmg_doc, ("z_given_x",), [[1.0, 0.0]], "spec.z_given_x: expected an object keyed by x symbol"),
            (ic_doc, ("output_dims",), [2, 0], "spec.output_dims: expected a pair of positive integers"),
            (ic_doc, ("ux_given_q", "q", "symbols", 1), ["u1"], "spec.ux_given_q.q.symbols[1]: expected a [first"),
            (ic_doc, ("states", "0", "1"), I2, "spec.states.0.1: expected a 4x4 matrix, got 2 rows"),
            (ic_doc, ("states",), [], "spec.states: expected an object keyed by symbol"),
        ):
            doc = make()
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            cases.append((doc, fragment))
        for bad, fragment in cases:
            with pytest.raises(SpecError) as exc_info:
                parse_channel(bad)
            assert fragment in str(exc_info.value)

    def test_non_finite_probabilities_are_refused_at_their_element(self):
        # json.loads reads NaN and Infinity as floats
        doc = bb84_doc()
        doc["input"]["probs"] = [math.nan, 1.0]
        with pytest.raises(SpecError, match="non-finite probability nan") as exc_info:
            parse_channel(doc)
        assert exc_info.value.location == "spec.input.probs[0]"
        doc = json.loads(json.dumps(cmg_doc()).replace("[0.0, 1.0]", "[0.0, Infinity]"))
        with pytest.raises(SpecError, match="non-finite probability inf") as exc_info:
            parse_channel(doc)
        assert exc_info.value.location == "spec.z_given_x.1[1]"

    def test_negative_eigenvalue_rejected(self):
        bad = {
            "kind": "cq",
            "input": {"symbols": ["0"], "probs": [1.0]},
            "states": {"0": [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]]},
        }
        with pytest.raises(SpecError, match="positive semidefinite"):
            parse_channel(bad)

    def test_state_check_names_the_state_field(self):
        # min eigenvalue -5e-9 fails the 1e-9 state check at the state's own field
        bad = {
            "kind": "cq",
            "input": {"symbols": ["0"], "probs": [1.0]},
            "states": {"0": [[[1.0 + 5e-9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-5e-9, 0.0]]]},
        }
        with pytest.raises(SpecError, match="positive semidefinite") as exc_info:
            parse_channel(bad)
        assert exc_info.value.location == "spec.states.0"

    def test_json_errors_carry_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "cq",\n  "input": }')
        with pytest.raises(SpecError, match=r"broken\.json:2:12"):
            load_channel(str(path))

    def test_dump_then_load_file(self, tmp_path):
        model = parse_channel(xor_mac_doc())
        path = tmp_path / "dumped.json"
        dump_channel(model, str(path))
        again = load_channel(str(path))
        assert json.dumps(serialize_channel(model), sort_keys=True) == json.dumps(
            serialize_channel(again), sort_keys=True
        )


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes ``run_suites`` see k CPUs and returns the list of
    processes it forks from then on."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def use(k: int) -> list:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        forks.clear()
        return forks

    return use


class TestVerifySuites:
    def test_all_suites_pass_with_expected_sizes(self):
        report = run_suites(["all"])
        assert report["ok"]
        sizes = {s["suite"]: s["total"] for s in report["suites"]}
        assert sizes["lemma-key"] == 1000
        assert sizes["lemma-chain"] == 500
        assert sizes["blocks"] == 300
        assert sizes["gentle"] == 500
        assert set(sizes) == set(SUITES)

    def test_slack_is_reported_per_instance(self):
        report = run_suite("lemma-key", seed=7)
        assert all("slack" in row and "id" in row for row in report["instances"])
        assert min(row["slack"] for row in report["instances"]) >= -1e-9

    def test_decoders_suite_names_degenerate_trials(self):
        # a trial whose candidates are all empty reads error 1 with every bound
        # "satisfied"; the note says so, and holds and slack are unchanged
        rows = {row["id"]: row for row in run_suite("decoders", seed=0)["instances"]}
        for row_id in ("decoders-mac-0", "decoders-mac-1", "decoders-cmg-region2"):
            assert rows[row_id]["note"] == "mean_error=1.000000; all candidates empty in 2/2 trials"
        assert rows["decoders-cmg-region1"]["note"].endswith("; all candidates empty in 1/2 trials")
        assert all(row["holds"] and row["slack"] == 0.0 for row in rows.values())
        cq_notes = [row["note"] for row_id, row in rows.items() if row_id.startswith("decoders-cq-")]
        assert len(cq_notes) == 9 and not any("empty" in note for note in cq_notes)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nonsense")

    def test_corrupted_core_fails_the_suites(self, monkeypatch):
        # negative control: inflating the chain floor past 1 must break
        # the lemma-chain suite
        monkeypatch.setattr(
            cqlab.geometry, "seq_success_lower_bound", lambda rho, hostile, target: 2.0
        )
        report = run_suite("lemma-chain")
        assert report["failures"] == report["total"]
        assert not run_suites(["all"])["ok"]

    @pytest.mark.parametrize("seed", [0, 2024])
    def test_pool_and_inline_loop_give_equal_reports(self, cpus, seed):
        forks = cpus(2)
        pooled = run_suites(["all"], seed)
        assert len(forks) == 2 and multiprocessing.active_children() == []
        forks = cpus(1)
        assert run_suites(["all"], seed) == pooled
        assert forks == []

    def test_pool_and_inline_loop_write_equal_files(self, tmp_path, cpus):
        for k in (2, 1):
            cpus(k)
            assert main(["verify", "--suite", "all", "--seed", "0", "--out", str(tmp_path / str(k))]) == 0
        assert (tmp_path / "2" / "verify.json").read_bytes() == (tmp_path / "1" / "verify.json").read_bytes()

    def test_a_raising_suite_propagates_and_leaves_no_worker(self, monkeypatch, cpus):
        def boom(pa, pb):
            raise RuntimeError("boom")

        monkeypatch.setattr(cqlab.geometry, "jordan_decompose", boom)
        forks = cpus(2)
        with pytest.raises(RuntimeError, match="boom"):
            run_suites(["all"])
        assert len(forks) == 2
        assert multiprocessing.active_children() == []

    def test_suites_run_inline_without_fork(self, monkeypatch, cpus):
        forks = cpus(2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        report = run_suites(["typicality", "decoders"])
        assert [r["suite"] for r in report["suites"]] == ["typicality", "decoders"]
        assert forks == []


class TestCliRegions:
    def test_xor_mac_bounds_are_all_one(self, tmp_path, capsys):
        spec = write_doc(tmp_path, xor_mac_doc())
        out = tmp_path / "out"
        assert main(["regions", "--spec", spec, "--out", str(out)]) == 0
        lines = (out / "regions.csv").read_text().splitlines()
        assert lines[0] == "# schema: cqlab-regions-csv/1"
        assert lines[1] == "region,part,label,relation,bound"
        bounds = {}
        for line in lines[2:]:
            cells = line.split(",")
            bounds[cells[2]] = float(cells[-1])
        assert bounds["R1 < I(X:B|Y)"] == pytest.approx(1.0, abs=1e-9)
        assert bounds["R2 < I(Y:B|X)"] == pytest.approx(1.0, abs=1e-9)
        assert bounds["R1+R2 < I(XY:B)"] == pytest.approx(1.0, abs=1e-9)

    def test_identical_output_channel_has_zero_bounds(self, tmp_path):
        spec = write_doc(tmp_path, constant_mac_doc())
        out = tmp_path / "out"
        assert main(["regions", "--spec", spec, "--out", str(out)]) == 0
        doc = json.loads((out / "regions.json").read_text())
        for entry in doc["regions"]["ccq-mac"]["constraints"]:
            assert abs(entry["bound"]) < 1e-9

    def test_interference_channel_emits_both_receivers(self, tmp_path):
        spec = write_doc(tmp_path, ic_doc())
        out = tmp_path / "out"
        assert main(["regions", "--spec", spec, "--out", str(out)]) == 0
        doc = json.loads((out / "regions.json").read_text())
        assert set(doc["regions"]) == {"receiver-1", "receiver-2"}
        for entry in doc["regions"].values():
            assert entry["constraints"]
            assert isinstance(entry["boundary_samples"], dict)

    @pytest.mark.parametrize("doc, kind", [(bb84_doc, "cq"), (ic_doc, "ccqq-ic")])
    def test_delta_is_refused_where_no_region_takes_one(self, tmp_path, capsys, doc, kind):
        spec = write_doc(tmp_path, doc())
        out = tmp_path / "out"
        assert main(["regions", "--spec", spec, "--out", str(out), "--delta", "0.1"]) == 2
        err = capsys.readouterr().err
        assert f"kind {kind!r}" in err and "omit delta" in err
        assert not out.exists()
        # the MAC kinds take a delta and turn weak
        spec = write_doc(tmp_path, xor_mac_doc())
        assert main(["regions", "--spec", spec, "--out", str(out), "--delta", "0.1"]) == 0
        doc = json.loads((out / "regions.json").read_text())
        assert {c["relation"] for c in doc["regions"]["ccq-mac"]["constraints"]} == {"<="}

    def test_missing_field_exits_2_and_names_it(self, tmp_path, capsys):
        doc = bb84_doc()
        del doc["states"]
        spec = write_doc(tmp_path, doc)
        assert main(["regions", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
        assert "missing field 'states'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, where",
        [
            ("probs", [10**400, 0], "spec.input.probs[0]"),
            ("state", [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]], "spec.states.0[0][0]"),
        ],
    )
    def test_number_beyond_the_float_range_exits_2_and_names_it(self, tmp_path, capsys, field, value, where):
        # JSON integers are unbounded; one that no float holds is refused at its field
        doc = bb84_doc()
        if field == "probs":
            doc["input"]["probs"] = value
        else:
            doc["states"]["0"] = value
        spec = write_doc(tmp_path, doc)
        assert main(["regions", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}:")
        assert "Traceback" not in err


class TestCliSimulate:
    def test_single_message_summary_matches_direct_decode(self, tmp_path):
        spec = write_doc(tmp_path, bb84_doc())
        out = tmp_path / "out"
        code = main(
            [
                "simulate", "--spec", spec, "--out", str(out),
                "--n", "4", "--delta", "0.99", "--rate", "0.0", "--seed", "3",
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        channel = parse_channel(bb84_doc())
        book = sample_codebook(channel, 0.0, 4, (3, 0))
        direct = sequential_decode(channel, book, 0.99)
        assert summary["result"]["mean_error"] == direct.average_error
        assert summary["result"]["bound_kind"] == "success-floor"

    def test_fixed_seed_runs_are_byte_identical(self, tmp_path):
        spec = write_doc(tmp_path, bb84_doc())
        argv = [
            "simulate", "--spec", spec,
            "--n", "4", "--delta", "0.99", "--rate", "0.25",
            "--trials", "2", "--seed", "7",
        ]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        for name in ("per_message.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_per_message_table_shape(self, tmp_path):
        spec = write_doc(tmp_path, xor_mac_doc())
        out = tmp_path / "out"
        code = main(
            [
                "simulate", "--spec", spec, "--out", str(out),
                "--n", "4", "--delta", "0.25", "--rate", "0.25", "--rate", "0.25",
                "--trials", "2", "--seed", "5",
            ]
        )
        assert code == 0
        lines = (out / "per_message.csv").read_text().splitlines()
        assert lines[1] == "trial,m1,m2,m3,error,bound,bound_satisfied"
        # 2 trials x 4 message pairs
        assert len(lines) == 2 + 8
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] == "1" and first[2] == "1" and first[3] == ""

    def test_order_flags(self, tmp_path):
        # region 2 orders (m1, m2) pairs, not the codebook's triples
        inputs = {
            "cq": (bb84_doc(), ["--rate", "0.25"]),
            "cmg-r2": (cmg_doc(), ["--rate", "0.25", "--rate", "0.25", "--rate", "0.0", "--region", "2"]),
        }
        for label, (doc, rates) in inputs.items():
            spec = write_doc(tmp_path, doc, name=f"{label}.json")
            argv = [
                "simulate", "--spec", spec,
                "--n", "4", "--delta", "0.99", "--seed", "7", *rates,
            ]
            out = tmp_path / label
            assert main(argv + ["--out", str(out / "lex")]) == 0
            assert main(argv + ["--out", str(out / "rev"), "--order", "reverse"]) == 0
            assert main(argv + ["--out", str(out / "rnd"), "--order", "random:3"]) == 0
            lex = (out / "lex" / "per_message.csv").read_text()
            rev = (out / "rev" / "per_message.csv").read_text()
            assert lex != rev
            assert sorted(lex.splitlines()[2:]) == sorted(rev.splitlines()[2:])
            assert main(argv + ["--out", str(out / "bad"), "--order", "sideways"]) == 2

    def test_cmg_regions_decode_through_cli(self, tmp_path, capsys):
        spec = write_doc(tmp_path, cmg_doc())
        base = [
            "simulate", "--spec", spec,
            "--n", "4", "--delta", "0.3",
            "--rate", "0.25", "--rate", "0.25", "--rate", "0.0",
            "--seed", "2",
        ]
        assert main(base + ["--out", str(tmp_path / "r1"), "--region", "1"]) == 0
        assert main(base + ["--out", str(tmp_path / "r2"), "--region", "2"]) == 0
        row_r1 = (tmp_path / "r1" / "per_message.csv").read_text().splitlines()[2].split(",")
        row_r2 = (tmp_path / "r2" / "per_message.csv").read_text().splitlines()[2].split(",")
        assert row_r1[3] != ""  # region 1 reports message triples
        assert row_r2[3] == ""  # region 2 reports (m1, m2) pairs
        # missing --region on a three-sender channel is a config error, also
        # when --order lists the decoded messages before any decoder runs
        for order in ([], ["--order", "reverse"]):
            capsys.readouterr()
            assert main(base + ["--out", str(tmp_path / "r0"), *order]) == 2
            assert "needs region 1 or 2" in capsys.readouterr().err
        # region 2 refuses an out-of-range epsilon, as region 1 does
        capsys.readouterr()
        assert main(base + ["--out", str(tmp_path / "re"), "--region", "2", "--epsilon", "5"]) == 2
        assert "epsilon must lie in (0, 1)" in capsys.readouterr().err

    def test_out_of_range_epsilon_is_refused_by_every_decoder(self, tmp_path, capsys):
        # cq rows and the square-root decoder take no epsilon, yet refuse a bad one
        cases = [
            (bb84_doc(), ["--rate", "0.25"], ("seq", "seq-gated", "pgm")),
            (xor_mac_doc(), ["--rate", "0.25", "--rate", "0.25"], ("seq", "pgm")),
        ]
        for i, (doc, rates, decoders) in enumerate(cases):
            spec = write_doc(tmp_path, doc, f"spec{i}.json")
            for decoder in decoders:
                capsys.readouterr()
                argv = ["simulate", "--spec", spec, "--out", str(tmp_path / f"o{i}{decoder}"), "--n", "4",
                        "--delta", "0.99", *rates, "--decoder", decoder]
                assert main(argv + ["--epsilon", "5"]) == 2
                assert "epsilon must lie in (0, 1)" in capsys.readouterr().err
                assert main(argv + ["--epsilon", "0.25"]) == 0

    def test_exit_codes(self, tmp_path, capsys):
        spec = write_doc(tmp_path, bb84_doc())
        # dimension cap: 2^13 beats the 4096 ceiling
        code = main(
            [
                "simulate", "--spec", spec, "--out", str(tmp_path / "cap"),
                "--n", "13", "--delta", "0.5", "--rate", "0.1",
            ]
        )
        assert code == 3
        assert "cap" in capsys.readouterr().err
        # wrong rate arity
        code = main(
            [
                "simulate", "--spec", spec, "--out", str(tmp_path / "ra"),
                "--n", "4", "--delta", "0.5", "--rate", "0.1", "--rate", "0.1",
            ]
        )
        assert code == 2
        # region flag on a single-sender channel
        code = main(
            [
                "simulate", "--spec", spec, "--out", str(tmp_path / "rg"),
                "--n", "4", "--delta", "0.5", "--rate", "0.1", "--region", "1",
            ]
        )
        assert code == 2
        assert "only a coupled three-sender channel takes one" in capsys.readouterr().err
        # decoding an interference channel directly is rejected
        ic_spec = write_doc(tmp_path, ic_doc(), "ic.json")
        code = main(
            [
                "simulate", "--spec", ic_spec, "--out", str(tmp_path / "ic"),
                "--n", "2", "--delta", "0.5", "--rate", "0.1",
            ]
        )
        assert code == 2
        assert "no direct decoder" in capsys.readouterr().err

    def test_unknown_decoder_is_an_argparse_error(self, tmp_path):
        spec = write_doc(tmp_path, bb84_doc())
        with pytest.raises(SystemExit) as exc_info:
            main(
                [
                    "simulate", "--spec", spec, "--out", str(tmp_path / "x"),
                    "--n", "4", "--delta", "0.5", "--rate", "0.1",
                    "--decoder", "telepathy",
                ]
            )
        assert exc_info.value.code == 2

    def test_all_empty_candidates_warn_on_stderr(self, tmp_path, capsys):
        # mixed qubits 0.9|0><0| + 0.05 I and 0.9|+><+| + 0.05 I at n = 6:
        # every candidate of codebook (7, 0) is empty, yet every floor holds
        doc = {
            "kind": "cq",
            "input": {"symbols": ["0", "1"], "probs": [0.5, 0.5]},
            "states": {
                "0": [[[0.95, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.05, 0.0]]],
                "1": [[[0.5, 0.0], [0.45, 0.0]], [[0.45, 0.0], [0.5, 0.0]]],
            },
        }
        spec = write_doc(tmp_path, doc)
        argv = ["simulate", "--spec", spec, "--n", "6", "--delta", "0.99", "--rate", "0.5", "--seed", "7"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        captured = capsys.readouterr()
        assert "bounds ok" in captured.out
        assert captured.err.splitlines() == [
            "warning: all candidates empty in 1 of 1 trial(s) (first: trial 0); the errors measure no decoding"
        ]
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["result"]["mean_error"] == 1.0
        assert "degenerate" not in json.dumps(summary)
        # a run with a non-empty candidate stays silent
        bb84 = write_doc(tmp_path, bb84_doc(), "bb84.json")
        assert main(["simulate", "--spec", bb84, "--n", "4", "--delta", "0.99", "--rate", "0.5",
                     "--seed", "5", "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().err == ""


class TestCliSweep:
    def test_trend_column_and_summary(self, tmp_path):
        spec = write_doc(tmp_path, bb84_doc())
        out = tmp_path / "out"
        code = main(
            [
                "sweep", "--spec", spec, "--out", str(out),
                "--n", "3", "--n", "4", "--n", "5",
                "--delta", "0.99", "--rate", "0.25",
                "--trials", "6", "--seed", "11",
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "# schema: cqlab-sweep-csv/1"
        header = lines[1].split(",")
        assert header == ["n", "trials", "mean_error", "standard_error", "mean_bound", "trend_vs_prev"]
        trends = [line.split(",")[-1] for line in lines[2:]]
        assert trends[0] == ""
        assert all(t in ("down", "up", "flat") for t in trends[1:])
        doc = json.loads((out / "sweep.json").read_text())
        assert isinstance(doc["result"]["monotone_decreasing"], bool)
        assert len(doc["result"]["mean_errors"]) == 3


def test_artifact_key_sets_are_pinned(tmp_path):
    spec = write_doc(tmp_path, bb84_doc())
    flags = ["--spec", spec, "--delta", "0.99", "--rate", "0.25", "--seed", "1"]
    assert main(["simulate", "--out", str(tmp_path / "s"), "--n", "3", *flags]) == 0
    assert main(["sweep", "--out", str(tmp_path / "w"), "--n", "3", "--n", "4", *flags]) == 0
    mac = write_doc(tmp_path, xor_mac_doc(), "mac.json")
    assert main(["regions", "--spec", mac, "--out", str(tmp_path / "r")]) == 0
    shared = {"delta", "epsilon", "rates", "trials", "seed", "decoder", "region", "order"}
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert set(summary["config"]) == shared | {"n"} and summary["config"]["n"] == 3
    sweep = json.loads((tmp_path / "w" / "sweep.json").read_text())
    assert set(sweep["config"]) == shared | {"n_values"} and sweep["config"]["n_values"] == [3, 4]
    regions = json.loads((tmp_path / "r" / "regions.json").read_text())
    constraints = regions["regions"]["ccq-mac"]["constraints"]
    assert constraints
    for row in constraints:
        assert set(row) == {"part", "label", "coeffs", "relation", "bound"}
        assert isinstance(row["coeffs"], list)


class TestCliVerify:
    def test_single_suite_writes_report(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "--suite", "gentle", "--seed", "5", "--out", str(out)]) == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["ok"] is True
        assert doc["suites"][0]["suite"] == "gentle"
        assert doc["suites"][0]["total"] == 500

    def test_corrupted_core_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cqlab.geometry, "seq_success_lower_bound", lambda rho, hostile, target: 2.0
        )
        code = main(["verify", "--suite", "lemma-chain", "--out", str(tmp_path / "v")])
        assert code == 4

    def test_unknown_suite_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", "--suite", "vibes"])
        assert exc_info.value.code == 2
