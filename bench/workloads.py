"""The four benchmark workloads: inputs from a seed, one operation, its check.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations are grouped in rounds, one
pass through the workload's input cycle, so that every round carries the
same mix of input shapes.

Why each workload exists:

* ``exact-cli`` -- the exact path users run, ``ringflow current --mode exact
  --n 12`` as a fresh process: 28 671 words, 13 settings, 4 096 amplitudes.
  Time goes to ``experiment`` recombination and to ``cli`` rendering a
  7.7 MB report; ``engine`` does little.  Integer outcome arrays and the
  factored operator have to show here.
* ``shots-sweep`` -- many small in-process ``run_simulation`` calls (n = 1..6,
  2 000 shots per setting, readout flip 0 then 0.01).  Per-call fixed costs,
  ``engine.sample`` with its flip channel and the ``circuits`` rotation
  synthesis dominate; ``cli`` is absent and ``pauli`` small.
* ``analyze-cli`` -- the read path, ``ringflow analyze`` as a fresh process on
  two N = 12 files made by the program itself: the full shots report (with
  ``terms``, the round-trip path) and a counts-only file (first-cover
  assignment).  ``engine`` is never called, so a change that speeds writing
  but slows reading shows here.
* ``scale16`` -- ``expectation_pauli`` on the 16-qubit backflowing state with
  the full 589 823-word expansion: the largest memory user and the headline
  scale claim.  No CLI command reaches ``engine.expectation_pauli``.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time

import ringflow.cli as rf_cli
import ringflow.engine as rf_engine
import ringflow.experiment as rf_experiment
import ringflow.pauli as rf_pauli

from check import (
    FOUR_PI,
    CheckFailed,
    RepeatLog,
    expect_exact_current,
    expect_exit_ok,
    expect_field,
    expect_reingest,
    expect_same_estimate,
    report_text,
    strict_json,
)


def run_cli_subprocess(argv, env, cwd, timeout):
    """Run ``python -m ringflow ARGV`` to completion.

    Returns (exit code, stdout bytes, wall s, user+sys CPU s, peak RSS KiB);
    the CPU time and peak RSS are the child's own, read with wait4.  The
    child is killed when ``timeout`` passes.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "ringflow", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        cwd=cwd,
        env=env,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return proc.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def cli_in_process(argv):
    """``ringflow.cli.main(argv)`` with standard output captured as bytes."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = rf_cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue().encode("utf-8")


class Workload:
    """Base: subclasses define inputs, the in-process call and the check."""

    name = ""
    timeout_s = 60.0
    #: True when the end-to-end run starts a fresh ``python -m ringflow`` per op.
    subprocess_ops = False

    def __init__(self, seed: int, env: dict, root, scratch):
        self.seed = seed
        self.env = env
        self.root = root
        self.scratch = scratch
        self.repeats = RepeatLog()

    def setup(self) -> None:
        """Untimed preparation of inputs."""

    def inputs(self, round_index: int) -> list:
        raise NotImplementedError

    def label(self, spec) -> str:
        raise NotImplementedError

    def call(self, spec):
        """In-process operation: returns (exit code, payload)."""
        raise NotImplementedError

    def check(self, spec, code, payload) -> dict | None:
        """Raise CheckFailed unless the output is right; return the report."""
        raise NotImplementedError


class ExactCli(Workload):
    name = "exact-cli"
    subprocess_ops = True
    n_qubits = 12

    def inputs(self, round_index):
        return [("current", "--mode", "exact", "--n", str(self.n_qubits), "--format", "json")]

    def label(self, spec):
        return f"n={self.n_qubits}"

    def call(self, spec):
        return cli_in_process(spec)

    def check(self, spec, code, payload):
        expect_exit_ok(code)
        report = strict_json(payload)
        expect_field(report, "mode", "exact")
        expect_field(report, "n", self.n_qubits)
        expect_exact_current(report.get("j_estimate"), self.n_qubits)
        self.repeats.expect_repeatable(spec, payload)
        return report


class ShotsSweep(Workload):
    name = "shots-sweep"
    timeout_s = 10.0
    shots = 2000
    sizes = range(1, 7)
    flips = (0.0, 0.01)
    #: Rounds cycle through this many seed rows, so (n, seed, flip) repeats.
    seed_rows = 16

    def __init__(self, seed, env, root, scratch):
        super().__init__(seed, env, root, scratch)
        rng = random.Random(seed)
        per_round = len(self.sizes) * len(self.flips)
        self._seeds = [
            [rng.randrange(1 << 32) for _ in range(per_round)] for _ in range(self.seed_rows)
        ]

    def inputs(self, round_index):
        row = self._seeds[round_index % self.seed_rows]
        shapes = itertools.product(self.flips, self.sizes)
        return [(n, row[k], flip) for k, (flip, n) in enumerate(shapes)]

    def label(self, spec):
        n, _, flip = spec
        return f"n={n} flip={flip:g}"

    def call(self, spec):
        n, seed, flip = spec
        return 0, rf_experiment.run_simulation(
            n, shots_per_setting=self.shots, seed=seed, readout_flip=flip
        )

    def check(self, spec, code, payload):
        n, seed, flip = spec
        expect_exit_ok(code)
        text = report_text(payload.to_dict())
        report = strict_json(text)
        expect_field(report, "mode", "shots")
        expect_field(report, "n", n)
        expect_field(report, "seed", seed)
        expect_field(report, "shots_per_setting", self.shots)
        expect_reingest(report, rf_experiment.ingest_measurements)
        self.repeats.expect_repeatable(spec, text)
        return report


class AnalyzeCli(Workload):
    name = "analyze-cli"
    subprocess_ops = True
    n_qubits = 12

    def setup(self):
        shots_seed = random.Random(self.seed).randrange(1 << 32)
        full = self.scratch / "full_report.json"
        argv = ("current", "--mode", "shots", "--n", str(self.n_qubits),
                "--seed", str(shots_seed), "--format", "json", "--output", str(full))
        code, _, _, _, _ = run_cli_subprocess(argv, self.env, self.root, self.timeout_s)
        expect_exit_ok(code)
        report = strict_json(full.read_bytes())
        expect_field(report, "mode", "shots")
        counts_only = {
            "n": report["n"],
            "settings": [
                {"basis_word": s["basis_word"], "counts": s["counts"]}
                for s in report["settings"]
            ],
        }
        counts = self.scratch / "counts_only.json"
        counts.write_text(json.dumps(counts_only), encoding="utf-8")
        self.expected_j = report["j_estimate"]
        self._files = {"full": full, "counts": counts}

    def inputs(self, round_index):
        return [("analyze", "--input", str(path), "--format", "json")
                for path in self._files.values()]

    def label(self, spec):
        return "full" if spec[2] == str(self._files["full"]) else "counts"

    def call(self, spec):
        return cli_in_process(spec)

    def check(self, spec, code, payload):
        expect_exit_ok(code)
        report = strict_json(payload)
        expect_field(report, "mode", "ingest")
        expect_field(report, "n", self.n_qubits)
        expect_same_estimate(report.get("j_estimate"), self.expected_j, self.label(spec))
        self.repeats.expect_repeatable(spec, payload)
        return report


class Scale16(Workload):
    name = "scale16"
    n_qubits = 16

    def inputs(self, round_index):
        return [self.n_qubits]

    def label(self, spec):
        return f"n={spec}"

    def call(self, spec):
        # module attributes, so the traced run sees the wrapped functions
        state = rf_engine.init_amplitudes(spec, rf_experiment.backflow_coefficients(spec).a)
        return 0, rf_engine.expectation_pauli(state, rf_pauli.current_decomposition(spec))

    def check(self, spec, code, payload):
        expect_exit_ok(code)
        if not isinstance(payload, float):
            raise CheckFailed(f"expectation is {type(payload).__name__}, not float")
        expect_exact_current(payload / FOUR_PI, spec)
        self.repeats.expect_repeatable(spec, repr(payload).encode("ascii"))
        return None


WORKLOADS = {w.name: w for w in (ExactCli, ShotsSweep, AnalyzeCli, Scale16)}
