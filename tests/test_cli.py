import contextlib
import copy
import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringflow.cli
import ringflow.experiment
from ringflow.cli import _json_chunks, _NonFiniteReport, _report_chunks, main
from ringflow.engine import NormDriftError
from ringflow.experiment import Outcomes, SettingRecord, TermRecords
from ringflow.pauli import (
    MAX_QUBITS,
    RegisterTooLargeError,
    WeightedPauliSum,
    current_decomposition,
    dense_current_matrix,
)

from conftest import DATA_DIR, PEAK_SCRIPT, assert_same_text, child_env

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def report_json(report) -> str:
    """The JSON text the CLI writes for ``report``."""
    return "".join(_report_chunks(report, "json"))


def weight_text(value: float, sign: str = "", width: int = 0) -> str:
    """A weight as csv and table write it: six significant digits when they
    read back as ``value``, else ``repr``; signed and right-aligned as
    asked."""
    text = f"{value:g}" if float(f"{value:g}") == value else repr(value)
    if sign and not text.startswith("-"):
        text = "+" + text
    return text.rjust(width)


#: The run parameters of a csv report, as the table header orders them: the
#: first three for every report, all seven for a shots report
_CSV_PARAMS = (
    "n", "mode", "theta0", "shots_per_setting", "seed", "grouped", "readout_flip"
)


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

    @pytest.mark.parametrize("n", range(1, 11))
    def test_json_from_columns_matches_json_dumps_of_to_dict(self, capsys, n):
        code, out, _ = run_cli(capsys, "decompose", "--n", str(n))
        assert code == 0
        op_sum = current_decomposition(n)
        assert_same_text(out, json.dumps(op_sum.to_dict(), indent=2, sort_keys=True) + "\n")

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

    def test_dense_csv_is_usage_error(self, capsys):
        """csv has no place for the matrix, so it is refused, not dropped."""
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--n", "2", "--dense", "--format", "csv"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--dense needs --format json or table" in captured.err

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("block", [1, 2, 7, 1 << 13])
    def test_text_formats_stream_in_blocks(self, capsys, monkeypatch, fmt, n, block):
        """csv and table text is written ``_BLOCK_ROWS`` words at a time and
        reads as it did when it was built whole."""
        monkeypatch.setattr(ringflow.cli, "_BLOCK_ROWS", block)
        dec = current_decomposition(n)
        if fmt == "csv":
            lines = ["word,coeff", f"{'I' * n},{weight_text(dec.identity_weight)}"]
            lines += [f"{w},{weight_text(c)}" for w, c in zip(dec.words, dec.coeffs)]
            want = "\n".join(lines) + "\n"
        else:
            parts = [weight_text(dec.identity_weight)]
            parts += [f"{weight_text(c, '+')}*{w}" for w, c in zip(dec.words, dec.coeffs)]
            want = " ".join(parts) + "\n"
        written = []
        monkeypatch.setattr(ringflow.cli, "_emit", lambda chunks, path: written.extend(chunks))
        main(["decompose", "--n", str(n), "--format", fmt])
        assert "".join(written) == want
        # the first and last chunks hold no word, every other one a block of
        # words, each with one "," in csv and one "*" in table
        assert [chunk.count("," if fmt == "csv" else "*") for chunk in written[1:-1]] == [
            min(block, len(dec.words) - start) for start in range(0, len(dec.words), block)
        ]

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_seven_digit_weights_are_written_in_full(self, fmt):
        """At N = 20 the identity and every {I, X} word weigh 2^20 - 1, whose
        six-digit ``g`` text 1.04858e+06 is 25 off: csv and table write it
        as 1048575.0, and every weight of the first block reads back as its
        coefficient."""
        dec = current_decomposition(20)
        chunks = ringflow.cli._sum_chunks(dec, fmt, None)
        text = next(chunks) + next(chunks)
        block = min(ringflow.cli._BLOCK_ROWS, len(dec.coeff_array))
        words = list(islice(dec.iter_words(), block))
        if fmt == "csv":
            lines = text.split("\n")
            assert lines[1] == "IIIIIIIIIIIIIIIIIIII,1048575.0"
            pairs = [line.split(",") for line in lines[1:]]
            weights, written = [w for _, w in pairs], [word for word, _ in pairs]
        else:
            first, *rest = text.split(" ")
            assert first == "1048575.0"
            assert rest[0] == "+1048575.0*IIIIIIIIIIIIIIIIIIIX"
            pairs = [term.split("*") for term in rest]
            weights = [first, *(w for w, _ in pairs)]
            written = ["I" * 20, *(word for _, word in pairs)]
        assert written == ["I" * 20, *words]
        assert list(map(float, weights)) == [dec.identity_weight, *dec.coeff_array[:block]]

    @pytest.mark.parametrize("n", [1, 3])
    def test_table_with_dense_rows(self, capsys, n):
        code, out, _ = run_cli(capsys, "decompose", "--n", str(n), "--dense", "--format", "table")
        assert code == 0
        dec = current_decomposition(n)
        rows = [" ".join(map(str, row)) for row in dense_current_matrix(n).tolist()]
        assert out.splitlines()[1:] == rows
        assert out.splitlines()[0].split() == [
            f"{dec.identity_weight:g}", *(f"{c:+g}*{w}" for w, c in zip(dec.words, dec.coeffs))
        ]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_sixteen_qubit_text_peak_memory(self, tmp_path, fmt):
        """``decompose --n 16`` (589 823 words, 13 to 41 MB of text) makes
        each block's words and text as it writes them and keeps neither, so
        it peaks under 58 MB in every format, read by the child itself: 50 MB
        with the masks filled in place, 68-69 MB when they were gathered
        through index pairs."""
        target = tmp_path / f"terms.{fmt}"
        argv = ["decompose", "--n", "16", "--format", fmt, "--output", str(target)]
        done = subprocess.run(
            [sys.executable, "-c", PEAK_SCRIPT, json.dumps(argv)],
            env=child_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        code, peak_kb = map(int, done.stdout.split())
        assert code == 0
        assert target.stat().st_size > 12e6
        assert peak_kb < 58 * 1024, f"peak {peak_kb / 1024:.0f} MB"


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

    def test_theta0_in_shots_mode(self, capsys, tmp_path):
        """A shots run at a nonzero angle has no closed form to compare with,
        and ``analyze`` reads its report to the same estimate."""
        code, out, _ = run_cli(
            capsys, "current", "--n", "1", "--mode", "shots", "--seed", "3",
            "--theta0", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theta0"] == 0.5
        assert payload["j_closed_form"] is None
        assert payload["relative_error"] is None
        path = tmp_path / "report.json"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert json.loads(out)["j_estimate"] == payload["j_estimate"]

    def test_analyze_prints_the_angle_report_numbers(self, capsys, tmp_path):
        """``analyze`` of a report at theta0 = 0.5 prints the report's J at
        that angle, not the theta0 = 0 one (-0.262137553, relative error
        6.77), and no closed form."""
        code, out, _ = run_cli(capsys, "current", "--n", "3", "--theta0", "0.5")
        assert code == 0
        payload = json.loads(out)
        path = tmp_path / "report.json"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 0
        again = json.loads(out)
        for key in ("theta0", "j_estimate", "j_exact", "j_closed_form", "relative_error"):
            assert again[key] == payload[key], key
        assert again["j_closed_form"] is None and again["relative_error"] is None

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "null", '"0.5"', "true", "1e999"])
    def test_analyze_refuses_a_bad_theta0(self, capsys, tmp_path, value):
        path = tmp_path / "report.json"
        path.write_text(
            '{"n": 1, "theta0": %s, "expectations": '
            '[{"word": "X", "value": 0.5}, {"word": "Z", "value": 0.5}]}' % value,
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 4
        assert out == ""
        assert "theta0" in err

    def test_analyze_keeps_the_readout_flip(self, capsys, tmp_path):
        """``analyze`` of a flip report prints the report's flip next to its
        estimate, from the full report and from its counts alone."""
        code, out, _ = run_cli(
            capsys, "current", "--mode", "shots", "--n", "3", "--seed", "5",
            "--readout-flip", "0.01",
        )
        assert code == 0
        payload = json.loads(out)
        counts = {
            "n": payload["n"],
            "readout_flip": payload["readout_flip"],
            "settings": [
                {"basis_word": s["basis_word"], "counts": s["counts"]} for s in payload["settings"]
            ],
        }
        for name, text in (("report.json", out), ("counts.json", json.dumps(counts))):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            code, again, _ = run_cli(capsys, "analyze", "--input", str(path))
            assert code == 0
            again = json.loads(again)
            for key in ("readout_flip", "j_estimate", "j_exact"):
                assert again[key] == payload[key], (name, key)
        assert payload["readout_flip"] == 0.01

    @pytest.mark.parametrize("value", ["0.5", "-0.1", "NaN", "null", '"0.01"', "true"])
    def test_analyze_refuses_a_bad_readout_flip(self, capsys, tmp_path, value):
        path = tmp_path / "report.json"
        path.write_text(
            '{"n": 1, "readout_flip": %s, "expectations": '
            '[{"word": "X", "value": 0.5}, {"word": "Z", "value": 0.5}]}' % value,
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 4
        assert out == ""
        assert "readout_flip" in err or "readout flip" in err

    @pytest.mark.parametrize("flip", ["0.5", "0.7", "-0.1", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("plan", [(), ("--per-term",)], ids=["grouped", "per-term"])
    def test_readout_flip_outside_its_range_is_usage_error(self, capsys, flip, plan):
        with pytest.raises(SystemExit) as exc:
            main(["current", "--n", "2", "--mode", "shots", *plan, f"--readout-flip={flip}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--readout-flip must lie in [0, 0.5)" in captured.err

    def test_negative_zero_angle_is_zero(self, capsys):
        code, zero, _ = run_cli(capsys, "current", "--n", "2", "--theta0", "0")
        assert code == 0
        code, out, _ = run_cli(capsys, "current", "--n", "2", "--theta0", "-0")
        assert code == 0
        assert out == zero
        assert '"theta0": 0.0\n' in out

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

    @pytest.mark.parametrize(
        "argv, header",
        [
            (("--n", "2", "--theta0", "0.1234567"), "n=2 mode=exact theta0=0.1234567"),
            (("--n", "2", "--theta0", "0.5"), "n=2 mode=exact theta0=0.5"),
            (("--mode", "shots", "--n", "2", "--shots", "100", "--seed", "1",
              "--readout-flip", "0.0123456789"),
             "n=2 mode=shots theta0=0 shots/setting=100 seed=1 grouped=True"
             " readout_flip=0.0123456789"),
            (("--mode", "shots", "--n", "2", "--shots", "100", "--seed", "1",
              "--readout-flip", "0.01"),
             "n=2 mode=shots theta0=0 shots/setting=100 seed=1 grouped=True"
             " readout_flip=0.01"),
        ],
        ids=["theta0-seven-digits", "theta0-0.5", "flip-ten-digits", "flip-0.01"],
    )
    def test_table_header_keeps_the_run_parameters(self, capsys, argv, header):
        """The angle and the flip are written as the weights are: six digits
        where they read back as the value, else in full."""
        code, out, _ = run_cli(capsys, "current", *argv, "--format", "table")
        assert code == 0
        assert out.split("\n", 1)[0] == header

    @pytest.mark.parametrize(
        "argv, names",
        [
            (("current", "--n", "2", "--theta0", "0.1234567"), _CSV_PARAMS[:3]),
            (("current", "--mode", "shots", "--n", "3", "--shots", "100", "--seed", "1",
              "--per-term", "--readout-flip", "0.0123456789", "--theta0", "-0.5"),
             _CSV_PARAMS),
            (("analyze", "--input", str(DATA_DIR / "backflow_n2_expectations.json")),
             _CSV_PARAMS[:3]),
        ],
        ids=["exact", "shots", "analyze"],
    )
    def test_csv_names_the_run_parameters(self, capsys, argv, names):
        """Each run parameter of the table header is one csv ``param`` line,
        just before the summary lines, with the JSON report's name and text."""
        code, report, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        data = json.loads(report)
        params = [f"param,{name},,,{json.dumps(data[name])}," for name in names]
        lines = out.splitlines()
        start = lines.index("summary,j_estimate,,,{!r},".format(data["j_estimate"]))
        assert lines[start - len(params):start] == params
        assert [line for line in lines if line.startswith("param,")] == params
        # JSON's quotes on the mode are csv's quotes too
        assert next(csv.reader([params[1]])) == ["param", "mode", "", "", data["mode"], ""]


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

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({"zz": "x"}, "settings[0] counts must be a number, got str"),
            ({"0": 3, "1": 7}, "settings[0]: counts disagree with the probabilities"),
            ({"1": 10}, "settings[0]: counts and probabilities give different outcomes"),
            ({"0": 1, "1": -1}, "settings[0]: negative count -1"),
        ],
        ids=["malformed", "disagreeing", "other-outcomes", "negative"],
    )
    def test_counts_beside_probabilities_are_checked(
        self, capsys, data_dir, tmp_path, counts, message
    ):
        """Counts given beside probabilities are checked as counts alone are,
        and must give the probabilities' outcomes at counts / total."""
        data = json.loads((data_dir / "backflow_n1_probabilities.json").read_text())
        data["settings"][0]["counts"] = counts
        path = tmp_path / "both.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert (code, out) == (4, "")
        assert err == f"ringflow: malformed measured data: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "5", "--seed", "3"),
            ("--n", "4", "--seed", "5", "--theta0", "0.5", "--readout-flip", "0.01"),
            ("--n", "3", "--seed", "2", "--per-term"),
        ],
        ids=["grouped", "angle-flip", "per-term"],
    )
    def test_analyze_prints_the_reports_error_bar(self, capsys, tmp_path, argv):
        """``analyze`` of a shots report, and of its counts alone (grouped
        settings read distinct words), prints the report's j_std_error."""
        code, out, _ = run_cli(capsys, "current", "--mode", "shots", *argv)
        assert code == 0
        report = json.loads(out)
        assert report["j_std_error"] > 0
        inputs = {"report.json": report}
        if "--per-term" not in argv:
            inputs["counts.json"] = {
                "n": report["n"], "theta0": report["theta0"],
                "readout_flip": report["readout_flip"],
                "settings": [
                    {"basis_word": s["basis_word"], "counts": s["counts"]}
                    for s in report["settings"]
                ],
            }
        for name, data in inputs.items():
            path = tmp_path / name
            path.write_text(json.dumps(data))
            code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
            assert code == 0
            assert json.loads(out)["j_std_error"] == report["j_std_error"]

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
            ({"n": 1, "settings": []}, "settings list is empty"),
            ({"n": 0, "settings": [{"basis_word": "X", "probabilities": {"0": 1.0}}]},
             "need at least one qubit"),
            ({"n": 1, "settings": [
                {"basis_word": "X", "probabilities": {"0": 1.0}, "terms": ["X"]},
                {"basis_word": "Z", "probabilities": {"0": 1.0}},
            ]}, "either every setting lists its terms or none does"),
        ],
        ids=["settings-object", "entry-list", "probabilities-list", "counts-list",
             "n-fraction", "n-true", "n-string", "value-true", "terms-string",
             "settings-empty", "n-zero", "terms-in-some"],
    )
    def test_wrong_shapes_are_data_errors(self, capsys, tmp_path, data, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "analyze", "--input", str(bad))
        assert code == 4
        assert out == ""
        assert err.startswith("ringflow: malformed measured data: ")
        assert named in err

    @pytest.mark.parametrize("key", ["x", "settings"], ids=["unread-key", "settings"])
    def test_deep_nesting_is_data_error(self, capsys, tmp_path, key):
        """Nesting past the recursion limit, in a value analyze drops or in
        one it reads, is unreadable input, not a traceback."""
        deep = tmp_path / "deep.json"
        deep.write_text(f'{{"n": 1, "{key}": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run_cli(capsys, "analyze", "--input", str(deep))
        assert code == 4
        assert out == ""
        assert err == (
            f"ringflow: cannot read {deep}: maximum recursion depth exceeded while "
            "decoding a JSON array from a unicode string\n"
        )

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
            ("current", "--range", f"{MAX_QUBITS}..{MAX_QUBITS + 1}"),
        ],
    )
    def test_commands_refuse_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert f"register cap of {MAX_QUBITS}" in err

    def test_range_above_the_cap_computes_no_row(self, capsys, monkeypatch):
        calls = []
        exact_current = ringflow.cli.exact_current
        monkeypatch.setattr(
            ringflow.cli, "exact_current", lambda *args: calls.append(args) or exact_current(*args)
        )
        code, out, err = run_cli(capsys, "current", "--range", f"1..{MAX_QUBITS + 1}")
        assert (code, out) == (3, "")
        assert err == f"ringflow: {MAX_QUBITS + 1} qubits exceed the register cap of {MAX_QUBITS}\n"
        assert calls == []

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


_INPUT = str(DATA_DIR / "backflow_n1_probabilities.json")
#: each command's argv and the work it calls, which a row of the table makes fail
_COMMAND_WORK = {
    "decompose": (("decompose", "--n", "3"), "current_decomposition"),
    "current": (("current", "--n", "3"), "run_exact"),
    "range": (("current", "--range", "1..3"), "exact_current"),
    "analyze": (("analyze", "--input", _INPUT), "ingest_measurements"),
}


def exit_code_rows():
    """(argv, the name of the work that fails, its error, exit code, diagnostic)"""
    for command, (argv, work) in _COMMAND_WORK.items():
        for error in (ValueError, RuntimeError, NormDriftError, MemoryError, RegisterTooLargeError):
            code, message = 3, "it failed"
            if command == "analyze" and error is ValueError:
                code, message = 4, "malformed measured data: it failed"
            yield pytest.param(argv, work, error, code, message, id=f"{command}-{error.__name__}")
        # the renderer's refusal of NaN, once the work is done
        yield pytest.param(
            argv, "_json_chunks", _NonFiniteReport, 3, "it failed", id=f"{command}-non-finite"
        )
    argv = _COMMAND_WORK["analyze"][0]
    yield pytest.param(
        argv, "read_measurements", OSError, 4, f"cannot read {_INPUT}: it failed", id="unreadable"
    )
    yield pytest.param(
        argv, "ingest_measurements", KeyError, 4, "malformed measured data: 'it failed'",
        id="malformed",
    )
    # the interpreter's own MemoryError has no text
    yield pytest.param(
        argv, "ingest_measurements", MemoryError(), 3, "out of memory", id="memory-no-text"
    )


class TestExitCodes:
    """Every command's failure takes the one path in ``main``: exit code 3
    for a computation, 4 for the input, one diagnostic line and no output."""

    @pytest.mark.parametrize("argv, work, error, code, message", exit_code_rows())
    def test_failure_exits_with_one_line(self, capsys, monkeypatch, argv, work, error, code, message):
        def fail(*args, **kwargs):
            raise error("it failed") if isinstance(error, type) else error

        monkeypatch.setattr(ringflow.cli, work, fail)
        assert run_cli(capsys, *argv) == (code, "", f"ringflow: {message}\n")


def json_dumps_oracle(payload) -> str:
    """The report layout: ``json.dumps`` with indent 2 and sorted keys.  A
    ``WeightedPauliSum`` in a payload (``decompose`` passes the sum as its
    ``terms``) stands for the term list of its ``to_dict``."""
    return json.dumps(
        payload, indent=2, sort_keys=True, allow_nan=False, default=_sum_term_list
    ) + "\n"


def _sum_term_list(value):
    if type(value) is not WeightedPauliSum:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return value.to_dict()["terms"]


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
    """``_json_chunks`` writes exactly what ``json.dumps(indent=2)`` writes."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert "".join(_json_chunks(value)) == json_dumps_oracle(value)

    @pytest.mark.parametrize(
        "value",
        [{}, [], (), {"a": {}}, [[], {}], {"": [{"": []}]}, "x", 0, None, [1e300, -0.0]],
    )
    def test_empty_and_scalar_edges(self, value):
        assert "".join(_json_chunks(value)) == json_dumps_oracle(value)

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
            _json_chunks(wrap(bad))

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
            render = ringflow.cli._json_chunks
            monkeypatch.setattr(
                ringflow.cli, "_json_chunks", lambda p: payloads.append(p) or render(p)
            )
        else:
            # the plain data of the report that the command built
            render = ringflow.cli._report_chunks
            monkeypatch.setattr(
                ringflow.cli,
                "_report_chunks",
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("current", "--mode", "exact", "--n", "2", "--readout-flip", "0.1"),
             "--readout-flip requires --mode shots"),
            (("current", "--range", "1..3", "--mode", "shots"),
             "--range supports exact mode at theta0=0 only"),
            (("current", "--range", "1..3", "--theta0", "0.5"),
             "--range supports exact mode at theta0=0 only"),
            (("current", "--n", "0"), "--n must be a positive integer"),
            (("analyze", "--n", "0", "--input", "data/backflow_n1_probabilities.json"),
             "--n must be a positive integer"),
        ],
        ids=["exact-flip", "range-shots", "range-theta0", "current-n0", "analyze-n0"],
    )
    def test_refused_flags_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

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
        assert report_json(report) == json_dumps_oracle(report.to_dict())

    @pytest.mark.parametrize(
        "make",
        [
            lambda: rows_report(0, with_std=True),
            lambda: ringflow.experiment.run_exact(3, theta0=0.4),
            lambda: ringflow.experiment.run_exact(4),
            lambda: ringflow.experiment.run_simulation(3, 300, seed=2, readout_flip=0.1),
            lambda: ringflow.experiment.run_simulation(2, 100, seed=5, grouped=False),
        ],
        ids=["empty-table", "theta0", "exact", "shots", "per-term"],
    )
    def test_program_reports(self, make):
        report = make()
        assert report_json(report) == json_dumps_oracle(report.to_dict())

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
            report_json(report)
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


def rows_report(size: int, with_std: bool):
    """A three-qubit report whose term list and every outcome map have
    ``size`` rows, with repeated floats, -0.0 and extreme values."""
    picks = np.array([0.5, -0.0, 1e300, 5e-324, 0.1, -1.25, 0.5, 0.0])
    floats = picks[np.arange(size) % 8]
    records = TermRecords(
        tuple("IXYZ"[i % 4] + "XZ"[i % 2] + "IXYZ"[i // 4 % 4] for i in range(size)),
        -floats,
        np.arange(size) % 3 - 1,
        ("XXZ", "ZXX"),
        floats[::-1].copy(),
        floats.copy() if with_std else None,
    )
    index = np.arange(size, dtype=np.int64)
    setting = SettingRecord(
        "XXZ",
        Outcomes(3, index, floats / 7),
        Outcomes(3, index, tuple(range(10**20, 10**20 + size))),
        [7, 1],
        ("XXZ",),
    )
    return dataclasses.replace(
        ringflow.experiment.run_exact(3), term_records=records, setting_records=(setting,)
    )


def shared_values_report(picks: np.ndarray):
    """A three-qubit report of seven terms and two settings in which every
    float column and both settings' outcome maps cycle through ``picks``,
    and both maps have the keys 0 to 6."""
    floats = picks[np.arange(7) % len(picks)]
    records = TermRecords(
        tuple("IXYZ"[i % 4] + "XZ"[i % 2] + "IXYZ"[i // 4 % 4] for i in range(7)),
        floats,
        np.arange(7) % 2,
        ("XXZ", "ZXX"),
        floats[::-1].copy(),
        floats.copy(),
    )
    index = np.arange(7, dtype=np.int64)
    settings = tuple(
        SettingRecord(basis, Outcomes(3, index, floats.copy()), None, None, (basis,))
        for basis in records.bases
    )
    return dataclasses.replace(
        ringflow.experiment.run_exact(3), term_records=records, setting_records=settings
    )


def long_weights_report():
    """``rows_report(7, with_std=True)`` with weights whose six-digit ``g``
    text reads back as another float."""
    report = rows_report(7, with_std=True)
    old = report.term_records
    coeffs = [1048575.0, -1234567.0, 0.1 + 0.2, 3.0, -0.0, 123456.0, -3e-7 * 1.0000001]
    records = TermRecords(
        old.words, coeffs, old.setting_index, old.bases, old.expectation, old.std_error
    )
    return dataclasses.replace(report, term_records=records)


def text_report_oracle(report, fmt: str) -> str:
    """The csv or table text of ``report``, built whole from one
    ``TermRecord`` per term."""
    summary = ("j_estimate", "j_std_error", "j_exact", "j_closed_form", "relative_error")
    if fmt == "csv":
        lines = ["record,word,coeff,setting,expectation,std_error"]
        for r in report.term_records:
            std = "" if r.std_error is None else repr(r.std_error)
            setting = "" if r.setting is None else r.setting
            lines.append(f"term,{r.word},{weight_text(r.coeff)},{setting},{r.expectation!r},{std}")
        params = {key: value for key, value in report.to_dict().items() if key in _CSV_PARAMS}
        for name in _CSV_PARAMS[: 7 if report.mode == "shots" else 3]:
            lines.append(f"param,{name},,,{json.dumps(params[name])},")
        for name in summary:
            value = getattr(report, name)
            lines.append(f"summary,{name},,,{'' if value is None else repr(value)},")
        return "\n".join(lines) + "\n"
    head = f"n={report.n_qubits} mode={report.mode} theta0={report.theta0:g}"
    if report.mode == "shots":
        head += (
            f" shots/setting={report.shots_per_setting} seed={report.seed}"
            f" grouped={report.grouped} readout_flip={report.readout_flip:g}"
        )
    lines = [head]
    if report.term_records:
        width = max(4, report.n_qubits)
        lines.append(
            f"{'word':<{width}}  {'coeff':>6}  {'setting':<{width}}  "
            f"{'expectation':>12}  {'std_error':>10}"
        )
        for r in report.term_records:
            std = "" if r.std_error is None else f"{r.std_error:10.6f}"
            setting = "-" if r.setting is None else r.setting
            lines.append(
                f"{r.word:<{width}}  {weight_text(r.coeff, '+', 6)}  {setting:<{width}}  "
                f"{r.expectation:>12.8f}  {std:>10}"
            )
    for name in summary:
        value = getattr(report, name)
        if value is not None:
            lines.append(f"{name:<15} = {value:.9g}")
    return "\n".join(lines) + "\n"


_ROW_COUNTS = {"0": lambda b: 0, "1": lambda b: 1, "B": lambda b: b,
               "B+1": lambda b: b + 1, "2B+1": lambda b: 2 * b + 1}


class TestStreamedBlocks:
    """The term list and the outcome maps are written ``_BLOCK_ROWS`` rows at
    a time, after every column is checked."""

    @pytest.mark.parametrize("with_std", [True, False], ids=["std", "no-std"])
    @pytest.mark.parametrize("rows", sorted(_ROW_COUNTS))
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_blocks_match_json_dumps(self, monkeypatch, block, rows, with_std):
        monkeypatch.setattr(ringflow.cli, "_BLOCK_ROWS", block)
        report = rows_report(_ROW_COUNTS[rows](block), with_std)
        chunks = list(_report_chunks(report, "json"))
        assert "".join(chunks) == json_dumps_oracle(report.to_dict())
        # a chunk holds at most one block of term rows or of outcome rows
        assert max(chunk.count('"word": ') for chunk in chunks) <= block
        assert max(len(re.findall('"[01]{3}": ', chunk)) for chunk in chunks) <= block

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_texts_are_made_once_per_render(self, monkeypatch, block):
        """In every format, each distinct float bit pattern becomes text once
        per format spec and render, and each JSON key once per map shape,
        however many columns, maps and blocks repeat it; the next render
        makes its own."""
        monkeypatch.setattr(ringflow.cli, "_BLOCK_ROWS", block)
        floats, keys = {}, []
        texts, spell = ringflow.cli._format_floats, ringflow.cli.spell_masks

        def float_spy(bits, spec):
            floats.setdefault(spec, []).extend(bits.tolist())
            return texts(bits, spec)

        def key_spy(masks, *args):
            keys.extend(masks[0].tolist())
            return spell(masks, *args)

        monkeypatch.setattr(ringflow.cli, "_format_floats", float_spy)
        monkeypatch.setattr(ringflow.cli, "spell_masks", key_spy)
        specs = {
            "json": [float.__repr__],
            "csv": ["{:g}", float.__repr__],
            "table": ["{:>+6g}", "{:>12.8f}", "{:10.6f}"],
        }
        for picks in ([0.5, -0.0, 1e300, 5e-324, 0.0, -1.25], [0.5, 0.25, -0.0]):
            report = shared_values_report(np.array(picks))
            distinct = np.unique(np.array(picks).view(np.int64)).tolist()
            for fmt, spec_list in specs.items():
                want = (
                    json_dumps_oracle(report.to_dict())
                    if fmt == "json"
                    else text_report_oracle(report, fmt)
                )
                floats.clear()
                keys.clear()
                chunks = list(_report_chunks(report, fmt))
                assert "".join(chunks) == want
                if fmt == "json":
                    assert max(chunk.count('"word": ') for chunk in chunks) <= block
                assert list(floats) == spec_list
                assert all(sorted(made) == distinct for made in floats.values())
                assert sorted(keys) == (list(range(7)) if fmt == "json" else [])

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: rows_report(7, with_std=True),
            lambda: rows_report(7, with_std=False),
            lambda: ringflow.experiment.run_simulation(3, 300, seed=2, readout_flip=0.1),
            lambda: ringflow.experiment.run_exact(3, theta0=0.4),
            lambda: rows_report(0, with_std=False),
            long_weights_report,
        ],
        ids=["std", "no-std", "shots", "theta0", "empty-table", "long-weights"],
    )
    @pytest.mark.parametrize("block", [1, 2, 3, 1 << 13])
    def test_text_formats_stream_in_blocks(self, monkeypatch, block, make, fmt):
        """csv and table reports are written ``_BLOCK_ROWS`` terms at a time
        and read as they did when they were built whole from records."""
        monkeypatch.setattr(ringflow.cli, "_BLOCK_ROWS", block)
        report = make()
        chunks = list(_report_chunks(report, fmt))
        assert "".join(chunks) == text_report_oracle(report, fmt)
        # the first and last chunks hold no term, every other one a block
        terms = len(report.term_records)
        assert [chunk.count("\n") for chunk in chunks[1:-1]] == [
            min(block, terms - start) for start in range(0, terms, block)
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "column", ["coeffs", "expectation", "std_error", "probabilities"]
    )
    def test_non_finite_in_last_block_writes_nothing(
        self, capsys, monkeypatch, tmp_path, column, bad
    ):
        monkeypatch.setattr(ringflow.cli, "_BLOCK_ROWS", 2)
        report = rows_report(5, with_std=True)
        if column == "probabilities":
            setting = report.setting_records[0]
            probs = setting.probabilities
            values = probs.data.copy()
            values[-1] = bad
            setting = dataclasses.replace(
                setting, probabilities=Outcomes(3, probs.index, values)
            )
            report = dataclasses.replace(report, setting_records=(setting,))
        else:
            values = getattr(report.term_records, column).copy()
            values[-1] = bad  # the last row written
            report = _with_term_column(report, column, values)
        monkeypatch.setattr(ringflow.cli, "run_simulation", lambda *a, **k: report)
        argv = ("current", "--mode", "shots", "--n", "3", "--seed", "1")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert "JSON" in err
        target = tmp_path / "report.json"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert (code, out) == (3, "")
        assert not target.exists()


class TestStdoutFailures:
    """A standard output that fails is reported like an unwritable FILE, with
    no second error when Python flushes stdout at exit.  N = 1 fails on the
    final flush, N = 12 (7.7 MB) while the report streams."""

    @pytest.mark.parametrize("n", ["1", "12"])
    def test_closed_pipe(self, n):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ringflow", "current", "--mode", "exact", "--n", n],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=child_env(),
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == "ringflow: cannot write <stdout>: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("n", ["1", "12"])
    def test_closed_pipe_shared_with_stderr(self, n):
        """``2>&1 | head``: stdout and stderr are one closed pipe, so the
        diagnostic is lost, and the exit code alone says the write failed."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ringflow", "current", "--mode", "exact", "--n", n],
                stdout=write_end, stderr=write_end, env=child_env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("n", ["1", "12"])
    def test_full_device(self, n):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ringflow", "current", "--mode", "exact", "--n", n],
                stdout=full, stderr=subprocess.PIPE, text=True, env=child_env(),
                timeout=60,
            )
        assert proc.returncode == 2
        assert proc.stderr == (
            "ringflow: cannot write <stdout>: [Errno 28] No space left on device\n"
        )


#: A child Python's script: the process entry with a stub ``main`` that
#: prints how many objects are frozen and returns exit code 3
ENTRY_SCRIPT = """
import gc
import ringflow.cli
ringflow.cli.main = lambda: print(gc.get_freeze_count()) or 3
ringflow.cli.run()
"""


class TestProcessEntry:
    """``run`` freezes the start-up heap before ``main`` runs, and exits with
    ``main``'s code; ``main``, the in-process API, never freezes."""

    def test_entry_freezes_the_start_up_heap(self):
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY_SCRIPT],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert int(proc.stdout) > 10_000

    def test_main_does_not_freeze(self, capsys):
        frozen = gc.get_freeze_count()
        code, _, _ = run_cli(capsys, "current", "--n", "2")
        assert code == 0
        assert gc.get_freeze_count() == frozen


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


# sha256 of each output as the program wrote it before the expansion was
# stored as masks; every byte must stay as it was.  The csv reports of
# current and analyze are pinned with their param lines, which came later,
# and the grouped shots reports, and the analysis of the per-term one, with
# j_std_error from the settings' score variances, which came later still
_PINNED = [
    (("decompose", "--n", "10"),
     "2fe935e74bc3e09758cb305ea4d04bb4c211f4013e831652821cba206344bc61"),
    (("decompose", "--n", "10", "--format", "csv"),
     "740963e3cbf52921734f1fccda371af25719809e2b41d1d8e65527708dcd8519"),
    (("decompose", "--n", "10", "--format", "table"),
     "c00f6c5b9852d181d89a9969c1bc49f9bcc601780bcd6f86ce8917398eda18b2"),
    (("current", "--mode", "exact", "--n", "10"),
     "34337486bb729e7354482c73acaf124526b4b58cbecce1a45f87fb64fac1c143"),
    (("current", "--mode", "shots", "--n", "8", "--seed", "3"),
     "737a5566404a79103ace9d85c878f71619d0c9da849a1404f3076c8f5fbc46af"),
    # as written before the report writers shared text tables across blocks
    (("current", "--mode", "exact", "--n", "12"),
     "6232c525ffb8600c5cc0a246073cc7d1435bdf3194f59470d3b19a3cbb943281"),
    (("current", "--mode", "exact", "--n", "10", "--format", "csv"),
     "16aebd443286afee99392303a400f0c083c9e0c8e5e1f5f3c09bfc91aea57fe8"),
    (("current", "--mode", "exact", "--n", "10", "--format", "table"),
     "b5e447243c04dcab0509afbea3d5190f753e01cf7d888a5bcd386467cb74e7f1"),
    (("current", "--mode", "shots", "--n", "8", "--seed", "3", "--format", "csv"),
     "6730598d67c2d0081b8e6f1d99286a9e2eeada6b478eb90af0cb27b7ebedb2ab"),
    (("current", "--mode", "shots", "--n", "8", "--seed", "3", "--format", "table"),
     "2bc5054ea79f594a82b3b7a4daea78966f7f8834ed4f0a39eddfd32cab994e03"),
    # as first written with the ring angle a phase on the prepared state
    (("current", "--n", "3", "--theta0", "0.5"),
     "54a2e9158e91c5eca93d01570a4015b1a058f5093639201d1f188c89f8c25cd6"),
    (("current", "--mode", "shots", "--n", "3", "--seed", "4", "--theta0", "0.5"),
     "b19e31887edca7a1e8ecf488422abccf2df879c8ca528d79483f8668ea6361e3"),
    # as written with the term columns in expansion order: 1 279 settings of
    # 256 outcomes fill more than one block, and the layout keeps no rows
    (("current", "--mode", "exact", "--n", "8", "--per-term"),
     "c6a5d43585d18017a302a25485f41c78d9fc03230bb56b576e624914df607284"),
    (("current", "--mode", "exact", "--n", "8", "--per-term", "--format", "csv"),
     "2f83ce5f83931c0675648df86b8bbede308ecaa54485749fead4850c344b1fac"),
    # as written before csv and table lines went through the JSON writer's
    # row joins: words of fewer than four letters, dense rows, an analysis
    # with no setting or no std_error, a per-term table and a flip table
    (("decompose", "--n", "1", "--format", "table"),
     "511128b21bacda0f7d3aa5f585baadd4c7300904d87d935c85fb8da65e61c315"),
    (("decompose", "--n", "3", "--format", "table"),
     "cdb08c9f02a43e6ae57aea3c8c7c23f92faf896765b8a597acf75962bdfd44cb"),
    (("decompose", "--n", "3", "--dense", "--format", "table"),
     "12e81214e96496ee241dca3498b1266cc95e99cd7c25649335304c3524837a14"),
    (("analyze", "--input", "data/backflow_n1_probabilities.json", "--format", "csv"),
     "fe840e02fce766d55a137e34a0dc9e8657c0efa0acf1b3a7ff5564a23956b70a"),
    (("analyze", "--input", "data/backflow_n1_probabilities.json", "--format", "table"),
     "f2e1ce30059e4a0edd43797da5b9a9fce2df86c3d2fb66da2e7a75f6e422ce28"),
    (("analyze", "--input", "data/backflow_n2_expectations.json", "--format", "csv"),
     "7c10c1eba8231d00a6f16e0541dc0340818e11488a5eb1140ef801103ddcaf47"),
    (("analyze", "--input", "data/backflow_n2_expectations.json", "--format", "table"),
     "cd9a00362907047ce7d4c61ece9b5262b95cdc334590b150b25f78f4da0d2a7d"),
    (("current", "--mode", "exact", "--n", "8", "--per-term", "--format", "table"),
     "212c5a27fec439a07d481056dda6c6626027c376464a23cdd736a30fb0e32eb9"),
    (("current", "--mode", "shots", "--n", "3", "--seed", "4", "--theta0", "0.5",
      "--readout-flip", "0.01", "--format", "table"),
     "922a2d83f97e3a116144ca0b0ae6cd079b47f06b9aa79c5c3837f80e8f17a87e"),
    # as written while the one- and two-qubit circuits derived the family
    # themselves, and the J-vs-N table lines of --range
    (("current", "--n", "1"),
     "9a75c375ab42fd477b8c4094422ea32397ae9c8657d277f995c6891437a4bb18"),
    (("current", "--n", "2"),
     "93e3323f015b92b391f843a75679711f6fc3377c587452836f6e78728180664c"),
    (("current", "--n", "2", "--theta0", "0.7"),
     "be5873f4e31dd682cdfa34f23a84be34b1e39fcd9c229baaed89616bd3e25783"),
    (("current", "--mode", "shots", "--n", "2", "--seed", "7"),
     "5fc3bc68b91a6836a6a0e342018ed97bfe82e9426e3b549e2cf64965244f84c6"),
    (("current", "--mode", "shots", "--n", "2", "--per-term", "--readout-flip", "0.01",
      "--seed", "7"),
     "aa7226309fc34d3d01133ee6bfbe1c0897f65d115708f4db6f307ced951aafba"),
    (("current", "--range", "1..20", "--format", "table"),
     "57b64cdc6d74b4da4cfbbf912785cb5bd06529e6882b6de33c00b668a85ef347"),
]
_PER_TERM_ARGV = ("current", "--n", "6", "--mode", "shots", "--per-term", "--seed", "11")
_PER_TERM_SHA = "d98cdf6c59336708a8d1e2b342d8729375d4b11204f903ce305535b98b1892b5"
_ANALYZE_SHA = "6270c4eee5795327fbb06d438f202abdbd0b8001c2272de54e543d1169f0da9d"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedOutputs:
    @pytest.fixture(autouse=True)
    def _built_in_defaults(self, monkeypatch):
        for name in ("RINGFLOW_SHOTS", "RINGFLOW_SEED", "RINGFLOW_FORMAT"):
            monkeypatch.delenv(name, raising=False)
        # the pinned analyses read data/ from the repository root
        monkeypatch.chdir(DATA_DIR.parent)

    @pytest.mark.parametrize("argv, digest", _PINNED, ids=[" ".join(a) for a, _ in _PINNED])
    def test_output_unchanged(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert _sha256(out) == digest

    def test_per_term_shots_report_and_its_analysis_unchanged(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *_PER_TERM_ARGV)
        assert code == 0
        assert _sha256(out) == _PER_TERM_SHA
        report = tmp_path / "per-term.json"
        report.write_text(out, encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", "--input", str(report))
        assert code == 0
        assert _sha256(out) == _ANALYZE_SHA
