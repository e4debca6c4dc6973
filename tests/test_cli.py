import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringflow.cli
import ringflow.experiment
from ringflow.cli import _json_text, _NonFiniteReport, _report_text, main
from ringflow.experiment import Outcomes, SettingRecord, TermRecords
from ringflow.pauli import MAX_QUBITS

from conftest import assert_same_text

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_json_one_qubit(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda0"] == 1.0
        assert payload["terms"] == [
            {"coeff": 1.0, "word": "X"},
            {"coeff": -1.0, "word": "Z"},
        ]

    def test_table_golden_line(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--n", "1", "--format", "table")
        assert code == 0
        assert out == "1 +1*X -1*Z\n"

    def test_two_qubit_weights(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--n", "2")
        payload = json.loads(out)
        assert len(payload["terms"]) == 7
        assert sorted({t["coeff"] for t in payload["terms"]}) == [-2.0, -1.0, 3.0]

    def test_dense_dump(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--n", "1", "--dense")
        assert json.loads(out)["dense"] == [[0, 1], [1, 2]]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--n", "2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "word,coeff"
        assert lines[1] == "II,3"
        assert len(lines) == 9

    def test_zero_qubits_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--n", "0"])
        assert exc.value.code == 2

    def test_dense_capped_at_eight(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--n", "9", "--dense"])
        assert exc.value.code == 2


class TestCurrent:
    def test_exact_two_qubits(self, capsys):
        code, out, err = run_cli(capsys, "current", "--n", "2", "--mode", "exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["j_exact"] == pytest.approx(-0.106103, abs=5e-7)
        assert payload["j_estimate"] == pytest.approx(payload["j_exact"], abs=1e-12)

    def test_shots_reproducible_and_negative(self, capsys):
        args = ("current", "--n", "1", "--mode", "shots", "--shots", "8000", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["j_estimate"] < 0
        assert payload["shots_per_setting"] == 8000

    def test_range_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "current", "--range", "1..8", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,j_exact,j_closed_form"
        assert len(lines) == 9
        closed = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b < a for a, b in zip(closed, closed[1:]))

    def test_theta0_exact_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["current", "--n", "1", "--mode", "shots", "--theta0", "0.5"])
        assert exc.value.code == 2

    def test_theta0_changes_exact_value(self, capsys):
        code, out, _ = run_cli(capsys, "current", "--n", "2", "--theta0", "1.5708")
        assert code == 0
        payload = json.loads(out)
        assert payload["theta0"] == pytest.approx(1.5708)
        assert payload["j_estimate"] != pytest.approx(-0.106103, abs=1e-4)

    def test_shots_flag_needs_shots_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["current", "--n", "1", "--shots", "100"])
        assert exc.value.code == 2

    def test_requires_n_or_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["current"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["current", "--n", "1", "--range", "1..2"])
        assert exc.value.code == 2

    def test_bad_range_spec(self, capsys):
        for spec in ("3..1", "0..4", "junk", "2"):
            with pytest.raises(SystemExit) as exc:
                main(["current", "--range", spec])
            assert exc.value.code == 2

    def test_per_term_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "current", "--n", "2", "--mode", "shots",
            "--shots", "100", "--seed", "3", "--per-term",
        )
        assert code == 0
        assert len(json.loads(out)["settings"]) == 7

    def test_table_format_renders(self, capsys):
        code, out, _ = run_cli(
            capsys, "current", "--n", "1", "--format", "table"
        )
        assert code == 0
        assert "j_closed_form" in out


class TestAnalyze:
    def test_published_one_qubit_file(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(data_dir / "backflow_n1_probabilities.json")
        )
        assert code == 0
        assert json.loads(out)["j_estimate"] == pytest.approx(-0.031453, abs=1e-5)

    def test_published_two_qubit_file(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(data_dir / "backflow_n2_expectations.json")
        )
        assert code == 0
        assert json.loads(out)["j_estimate"] == pytest.approx(-0.102789, abs=1e-5)

    def test_empty_file_is_data_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        code, out, err = run_cli(capsys, "analyze", "--input", str(empty))
        assert code == 4
        assert out == ""
        assert err != ""

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--input", str(tmp_path / "nope.json"))
        assert code == 4

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 1, "settings": [
                {"basis_word": "X", "probabilities": {"0": float("nan"), "1": 0.5}},
                {"basis_word": "Z", "probabilities": {"0": 1.0}},
            ]},
            {"n": 1, "settings": [
                {"basis_word": "X", "counts": {"0": float("inf"), "1": 5}},
                {"basis_word": "Z", "counts": {"0": 1}},
            ]},
            {"n": 1, "settings": [
                {"basis_word": "X", "counts": {"0": -1, "1": 5}},
                {"basis_word": "Z", "counts": {"0": 1}},
            ]},
            {"n": 1, "expectations": [
                {"word": "X", "value": 7.5}, {"word": "Z", "value": 0.5},
            ]},
            {"n": 1, "expectations": [
                {"word": "X", "value": float("nan")}, {"word": "Z", "value": 0.5},
            ]},
        ],
        ids=["nan-probability", "inf-count", "negative-count", "expectation-7.5",
             "nan-expectation"],
    )
    def test_invalid_numbers_are_data_errors(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))  # json writes NaN/Infinity literals
        code, out, err = run_cli(capsys, "analyze", "--input", str(bad))
        assert code == 4
        assert out == ""
        assert "malformed" in err

    def test_duplicate_expectation_word_is_data_error(self, capsys, tmp_path):
        # the last value used to win silently; settings refuse a term twice
        data = {"n": 1, "expectations": [
            {"word": "X", "value": 0.9}, {"word": "X", "value": -0.9},
            {"word": "Z", "value": 0.5},
        ]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "analyze", "--input", str(bad))
        assert code == 4
        assert out == ""
        assert err == "ringflow: malformed measured data: expectation of X given twice\n"

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"n": 1, "settings": {"basis_word": "X", "probabilities": {"0": 1.0}}},
             "'settings' must be a list"),
            ({"n": 1, "settings": [["X", {"0": 1.0}]]},
             "settings[0] must be an object"),
            ({"n": 1, "settings": [{"basis_word": "X", "probabilities": [1.0, 0.0]}]},
             "settings[0] probabilities must be an object"),
            ({"n": 1, "settings": [{"basis_word": "X", "counts": [3, 1]}]},
             "settings[0] counts must be an object"),
            ({"n": 1.7, "settings": [{"basis_word": "X", "probabilities": {"0": 1.0}}]},
             "'n' must be an integer"),
            ({"n": True, "settings": [{"basis_word": "X", "probabilities": {"0": 1.0}}]},
             "'n' must be an integer"),
            ({"n": "2", "expectations": []}, "'n' must be an integer"),
            ({"n": 1, "expectations": [
                {"word": "X", "value": True}, {"word": "Z", "value": 0.5},
            ]}, "expectations[0] value must be a number"),
            ({"n": 1, "settings": [
                {"basis_word": "X", "probabilities": {"0": 1.0}, "terms": "X"},
                {"basis_word": "Z", "probabilities": {"0": 1.0}, "terms": ["Z"]},
            ]}, "settings[0] terms must be a list"),
        ],
        ids=["settings-object", "entry-list", "probabilities-list", "counts-list",
             "n-fraction", "n-true", "n-string", "value-true", "terms-string"],
    )
    def test_wrong_shapes_are_data_errors(self, capsys, tmp_path, data, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "analyze", "--input", str(bad))
        assert code == 4
        assert out == ""
        assert err.startswith("ringflow: malformed measured data: ")
        assert named in err

    def test_wrong_qubit_count_is_data_error(self, capsys, data_dir):
        code, _, _ = run_cli(
            capsys,
            "analyze", "--n", "2",
            "--input", str(data_dir / "backflow_n1_probabilities.json"),
        )
        assert code == 4


class TestPlumbing:
    def test_stdout_carries_only_the_report(self, capsys):
        code, out, err = run_cli(capsys, "current", "--n", "1")
        assert code == 0
        json.loads(out)  # the whole stream parses

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "decompose", "--n", "1", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["lambda0"] == 1.0

    def test_env_format_default(self, capsys, monkeypatch):
        monkeypatch.setenv("RINGFLOW_FORMAT", "table")
        code, out, _ = run_cli(capsys, "decompose", "--n", "1")
        assert code == 0
        assert out == "1 +1*X -1*Z\n"

    @pytest.mark.parametrize(
        "name, value, argv",
        [
            ("RINGFLOW_FORMAT", "xml", ("decompose", "--n", "1")),
            ("RINGFLOW_SHOTS", "abc", ("current", "--n", "1", "--mode", "shots")),
            ("RINGFLOW_SEED", "abc", ("current", "--n", "1", "--mode", "shots")),
        ],
    )
    def test_malformed_env_value_is_usage_error(self, capsys, monkeypatch, name, value, argv):
        monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err

    def test_non_finite_report_is_compute_error(self, capsys, monkeypatch):
        # every flag is finite, so the NaN has to come from the computation
        monkeypatch.setattr(ringflow.cli, "exact_current", lambda *_: float("nan"))
        code, out, err = run_cli(capsys, "current", "--range", "1..2")
        assert code == 3
        assert out == ""
        assert "JSON" in err

    @pytest.mark.parametrize(
        "value, fmt", [("nan", "table"), ("inf", "csv"), ("-inf", "json")]
    )
    def test_non_finite_theta0_is_usage_error(self, capsys, value, fmt):
        with pytest.raises(SystemExit) as exc:
            main(["current", "--n", "2", f"--theta0={value}", "--format", fmt])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--theta0 must be finite" in captured.err

    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_non_positive_shots_flag_is_usage_error(self, capsys, shots):
        with pytest.raises(SystemExit) as exc:
            main(["current", "--mode", "shots", "--n", "2", "--shots", shots])
        assert exc.value.code == 2
        assert "--shots must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_non_positive_env_shots_is_usage_error(self, capsys, monkeypatch, shots):
        monkeypatch.setenv("RINGFLOW_SHOTS", shots)
        with pytest.raises(SystemExit) as exc:
            main(["current", "--mode", "shots", "--n", "2"])
        assert exc.value.code == 2
        assert "RINGFLOW_SHOTS must be a positive integer" in capsys.readouterr().err

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("RINGFLOW_SEED", "42")
        code, out, _ = run_cli(capsys, "current", "--n", "1", "--mode", "shots")
        assert code == 0
        assert json.loads(out)["seed"] == 42

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ringflow", "decompose", "--n", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["lambda0"] == 1.0

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "RINGFLOW_SHOTS" in out and "exit codes" in out
        assert f"registers above {MAX_QUBITS} qubits" in out


class TestRegisterCap:
    """Registers past the cap fail at once, before any word is enumerated."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("current", "--n", "26"),
            ("current", "--n", "26", "--mode", "shots", "--seed", "1"),
            ("current", "--n", "26", "--theta0", "0.5"),
            ("decompose", "--n", "26"),
            ("current", "--n", str(MAX_QUBITS + 1)),
        ],
    )
    def test_commands_refuse_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert f"register cap of {MAX_QUBITS}" in err

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 26, "expectations": [{"word": "X" * 26, "value": 0.5}]},
            {"n": 26, "settings": [{"basis_word": "X" * 26, "probabilities": {"0" * 26: 1.0}}]},
        ],
    )
    def test_analyze_refuses_fast(self, capsys, tmp_path, payload):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(payload))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert f"register cap of {MAX_QUBITS}" in err


def json_dumps_oracle(payload) -> str:
    """The report layout: ``json.dumps`` with indent 2 and sorted keys."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
    | st.sampled_from([-0.0, 1e300, 10**20, -(10**20), 5e-324, "", "é\n\"\\\u2028"])
)
_KEYS = st.text() | st.sampled_from(["", "ä", "\U0001f600"])
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=25,
)


class TestJsonRenderer:
    """``_json_text`` writes exactly what ``json.dumps(indent=2)`` writes."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json_dumps_oracle(value)

    @pytest.mark.parametrize(
        "value",
        [{}, [], (), {"a": {}}, [[], {}], {"": [{"": []}]}, "x", 0, None, [1e300, -0.0]],
    )
    def test_empty_and_scalar_edges(self, value):
        assert _json_text(value) == json_dumps_oracle(value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda x: x,
            lambda x: [x],
            lambda x: {"a": x, "b": [1]},
            lambda x: {"z": [{"k": x}], "a": [[]]},
            lambda x: [{"a": [0, {"b": 1}, x]}],
        ],
        ids=["depth0", "depth1-flat", "depth1-nested", "depth3-flat", "depth3-nested"],
    )
    def test_non_finite_refused(self, bad, wrap):
        with pytest.raises(_NonFiniteReport, match="JSON"):
            _json_text(wrap(bad))

    @pytest.mark.parametrize(
        "argv",
        [
            ("current", "--mode", "exact", "--n", "12"),
            ("current", "--mode", "shots", "--n", "10", "--seed", "9"),
            ("current", "--n", "6", "--per-term"),
            ("decompose", "--n", "8", "--dense"),
            ("current", "--range", "1..6"),
            ("analyze", "--input", "backflow_n1_probabilities.json"),
            ("analyze", "--input", "backflow_n2_expectations.json"),
        ],
    )
    def test_reports_byte_identical_to_json_dumps(
        self, capsys, monkeypatch, data_dir, argv
    ):
        if argv[0] == "analyze":
            argv = (*argv[:-1], str(data_dir / argv[-1]))
        payloads = []
        if argv[0] == "decompose" or "--range" in argv:
            render = ringflow.cli._json_text
            monkeypatch.setattr(
                ringflow.cli, "_json_text", lambda p: payloads.append(p) or render(p)
            )
        else:
            # the plain data of the report that the command built
            render = ringflow.cli._report_text
            monkeypatch.setattr(
                ringflow.cli,
                "_report_text",
                lambda r, fmt: payloads.append(r.to_dict()) or render(r, fmt),
            )
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(payloads) == 1
        assert_same_text(out, json_dumps_oracle(payloads[0]))


class TestUsageAndOutputErrors:
    def test_negative_seed_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["current", "--mode", "shots", "--n", "2", "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed must be a non-negative integer, got -1" in captured.err

    def test_negative_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("RINGFLOW_SEED", "-3")
        with pytest.raises(SystemExit) as exc:
            main(["current", "--mode", "shots", "--n", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "RINGFLOW_SEED must be a non-negative integer, got -3" in captured.err

    def test_huge_shots_flag_is_usage_error(self, capsys):
        # the sampler draws int64 counts; more shots overflowed with a traceback
        argv = ["current", "--mode", "shots", "--n", "2", "--seed", "1"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--shots", str(10**20)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"--shots must be at most {2**63 - 1}, got {10**20}" in captured.err
        )

    def test_huge_env_shots_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("RINGFLOW_SHOTS", str(2**63))
        with pytest.raises(SystemExit) as exc:
            main(["current", "--mode", "shots", "--n", "2", "--seed", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"RINGFLOW_SHOTS must be at most {2**63 - 1}, got {2**63}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "--n", "3"),
            ("current", "--n", "3"),
            ("analyze", "--input", "backflow_n1_probabilities.json"),
        ],
        ids=["decompose", "current", "analyze"],
    )
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, data_dir, argv):
        if argv[0] == "analyze":
            argv = (*argv[:-1], str(data_dir / argv[-1]))
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"ringflow: cannot write {target}: ")
        assert "No such file or directory" in err
        assert err.count("\n") == 1
        assert not target.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_usage_error(self, capsys):
        # opening succeeds, writing fails; the device is not a file to remove
        code, out, err = run_cli(capsys, "current", "--n", "3", "--output", "/dev/full")
        assert code == 2
        assert out == ""
        assert err.startswith("ringflow: cannot write /dev/full: ")
        assert os.path.exists("/dev/full")


_COLUMN_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -3.0, 2.0**53, 0.1]
)
_COUNTS = st.integers(0, 2**70) | st.sampled_from([0, 2**63, 2**64 + 1, 10**23])


@st.composite
def outcome_columns(draw, n, counts=False):
    """An ``Outcomes`` over up to five of the 2^n basis indices."""
    index = sorted(draw(st.sets(st.integers(0, (1 << n) - 1), max_size=5)))
    size = len(index)
    drawn = draw(st.lists(_COUNTS if counts else _COLUMN_FLOATS, min_size=size, max_size=size))
    values = tuple(drawn) if counts else np.array(drawn, dtype=np.float64)
    return Outcomes(n, np.array(index, dtype=np.int64), values)


@st.composite
def column_reports(draw):
    """Reports whose term columns and setting records are drawn directly."""
    n = draw(st.integers(1, 3))
    size = draw(st.integers(0, 10))
    floats = st.lists(_COLUMN_FLOATS, min_size=size, max_size=size)
    words = st.text("IXYZ", min_size=n, max_size=n)
    bases = draw(st.lists(st.text("XZ", min_size=n, max_size=n), max_size=3))
    std = draw(st.none() | floats)
    records = TermRecords(
        tuple(draw(st.lists(words, min_size=size, max_size=size))),
        draw(floats),
        draw(st.lists(st.integers(-1, len(bases) - 1), min_size=size, max_size=size)),
        bases,
        np.array(draw(floats), dtype=np.float64),
        None if std is None else np.array(std, dtype=np.float64),
        np.array(draw(st.permutations(range(size))), dtype=np.int64),
    )
    settings = tuple(
        SettingRecord(
            basis,
            draw(outcome_columns(n)),
            draw(st.none() | outcome_columns(n, counts=True)),
            draw(st.none() | st.lists(st.integers(0, 2**40), max_size=2)),
            tuple(draw(st.lists(words, max_size=3))),
        )
        for basis in bases
    )
    return dataclasses.replace(
        ringflow.experiment.run_exact(n), term_records=records, setting_records=settings
    )


def _with_term_column(report, name, values):
    records = copy.copy(report.term_records)
    setattr(records, name, values)
    return dataclasses.replace(report, term_records=records)


class TestColumnRenderer:
    """The JSON report renderer writes what ``json.dumps`` writes for
    ``to_dict()``, from the term columns and the outcome maps."""

    @settings(max_examples=300, deadline=None)
    @given(column_reports())
    def test_matches_json_dumps_of_to_dict(self, report):
        assert _report_text(report, "json") == json_dumps_oracle(report.to_dict())

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ringflow.experiment.run_exact(3, theta0=0.4),
            lambda: ringflow.experiment.run_exact(4),
            lambda: ringflow.experiment.run_simulation(3, 300, seed=2, readout_flip=0.1),
            lambda: ringflow.experiment.run_simulation(2, 100, seed=5, grouped=False),
        ],
        ids=["empty-table", "exact", "shots", "per-term"],
    )
    def test_program_reports(self, make):
        report = make()
        assert _report_text(report, "json") == json_dumps_oracle(report.to_dict())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "column", ["coeffs", "expectation", "std_error", "probabilities"]
    )
    def test_non_finite_column_refused(self, capsys, monkeypatch, bad, column):
        report = ringflow.experiment.run_simulation(2, 100, seed=1)
        if column == "probabilities":
            first = report.setting_records[0]
            probs = first.probabilities
            values = probs.data.copy()
            values[len(values) // 2] = bad
            changed = dataclasses.replace(
                first, probabilities=Outcomes(probs.n_qubits, probs.index, values)
            )
            report = dataclasses.replace(
                report, setting_records=(changed, *report.setting_records[1:])
            )
        else:
            values = getattr(report.term_records, column).copy()
            values[len(values) // 2] = bad
            report = _with_term_column(report, column, values)
        with pytest.raises(_NonFiniteReport, match="JSON"):
            _report_text(report, "json")
        monkeypatch.setattr(ringflow.cli, "run_simulation", lambda *a, **k: report)
        argv = ("current", "--mode", "shots", "--n", "2", "--seed", "1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "JSON" in err

    @pytest.mark.parametrize(
        "data, golden",
        [
            ({"n": 1, "settings": [
                {"basis_word": "X", "probabilities": {"1": 0.75, "0": 0.25}},
                {"basis_word": "Z", "probabilities": {"0": 1.0, "1": -0.0}},
            ]}, "analyze_negative_zero_probability.json"),
            ({"n": 1, "settings": [
                {"basis_word": "X", "counts": {"0": 10**23, "1": 3}},
                {"basis_word": "Z", "counts": {"1": 1, "0": 7}},
            ]}, "analyze_huge_count.json"),
            ({"n": 1, "expectations": [
                {"word": "X", "value": -0.0}, {"word": "Z", "value": 0.5},
            ]}, "analyze_negative_zero_expectation.json"),
        ],
        ids=["negative-zero-probability", "huge-count", "negative-zero-expectation"],
    )
    def test_analyze_edge_outputs_pinned(self, capsys, tmp_path, data, golden):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert err == ""
        assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


_ODD_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 10**400, 2**64, -(2**70), -0.0, 0, -1, 1.5,
     1e308, 5e-324, True, None, "", "X", "01", [], {}, [1], {"0": 1}]
)


def _paths(value, prefix=()):
    """Every position in a JSON value, containers before their items."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, (*prefix, key))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, (*prefix, i))


def _mutate(data, path, how, replacement):
    if not path:
        return replacement if how != "drop" else {}
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    if how == "drop":
        del parent[key]
    elif how == "retype":
        child = parent[key]
        if isinstance(child, dict):
            parent[key] = list(child.values())
        elif isinstance(child, list):
            parent[key] = {str(i): v for i, v in enumerate(child)}
        else:
            parent[key] = str(child)
    else:
        parent[key] = replacement
    return data


@st.composite
def mutated_inputs(draw):
    n = draw(st.integers(1, 3))
    report = ringflow.experiment.run_simulation(n, 50, seed=draw(st.integers(0, 9)))
    full = json.loads(json_dumps_oracle(report.to_dict()))
    shapes = {
        "report": full,
        "counts": {"n": n, "settings": [
            {"basis_word": s["basis_word"], "counts": s["counts"]}
            for s in full["settings"]
        ]},
        "probabilities": {"n": n, "settings": [
            {"basis_word": s["basis_word"], "probabilities": s["probabilities"]}
            for s in full["settings"]
        ]},
        "expectations": {"n": n, "expectations": [
            {"word": t["word"], "value": t["expectation"]} for t in full["terms"]
        ]},
    }
    data = shapes[draw(st.sampled_from(sorted(shapes)))]
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        how = draw(st.sampled_from(["drop", "retype", "replace"]))
        # a copy: sampled containers are shared between examples
        data = _mutate(data, path, how, copy.deepcopy(draw(_ODD_VALUES)))
    return data


class TestAnalyzeFuzz:
    """Mutated measurement files exit 0 with a finite J, or 4; 3 only for a
    register above the cap; never a traceback."""

    @settings(max_examples=250, deadline=None)
    @given(mutated_inputs())
    def test_exit_codes(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
        path.write_text(json.dumps(data))  # NaN and infinity as bare literals
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--input", str(path)])
        n = data.get("n") if isinstance(data, dict) else None
        too_large = isinstance(n, int) and not isinstance(n, bool) and n > MAX_QUBITS
        assert code in ((0, 4, 3) if too_large else (0, 4)), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert math.isfinite(json.loads(out.getvalue())["j_estimate"])
        else:
            assert out.getvalue() == ""
