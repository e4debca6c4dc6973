#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

1. A short run of every workload, untraced and traced, must exit 0 and
   print every metric named in BENCHMARK.json with its unit, all finite,
   with no failed operation (error_rate 0); an untraced run must record
   its speed-probe samples and measured times, a traced run its spans file.
2. The checker must count corrupted outputs as failures: a perturbed
   j_estimate (shots, exact and scale16 outputs), a bare NaN, a non-zero
   exit status and a repeated input whose output changed.
3. In a directory holding only BENCHMARK.json and bench/, the benchmark
   must exit non-zero without printing a result.

Prints one line per check and exits 1 if any failed.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SMOKE_SECONDS = 2

failures: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_runs(spec: dict) -> None:
    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, named in groups.items():
            what = f"{workload} --trace {trace}"
            proc = run_bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                report(False, f"{what}: exit {proc.returncode} {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in named}
            got = {name: m["unit"] for name, m in metrics.items()}
            report(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            report(got == wanted, f"{what}: every metric named, with its unit")
            report(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in metrics.values()), f"{what}: values are finite numbers")
            report(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
                   and record["failed"] == 0,
                   f"{what}: error_rate 0 over {result['attempted']} operations "
                   f"{record.get('errors')}")
            if trace == 0:
                report(metrics["success_rate"]["value"] == 1.0 and record["error_rate"] == 0.0,
                       f"{what}: success_rate 1")
                report(record["speed"]["probe_samples"] > 0 and set(record["measured"])
                       == {"setup_s", "op_p50_s", "ops_per_s", "cpu_s_per_op"},
                       f"{what}: speed probe sampled, measured times recorded")
            else:
                spans = ROOT / record["spans_file"]
                report(spans.is_file() and spans.stat().st_size > 0,
                       f"{what}: spans written to {record['spans_file']}")


def expect_failure(what: str, action) -> None:
    from check import CheckFailed

    try:
        action()
    except CheckFailed as exc:
        report(True, f"checker rejects {what} ({exc})")
    else:
        report(False, f"checker accepted {what}")


class _Report:
    """Stands in for an ExperimentReport whose serialized form was altered."""

    def __init__(self, data: dict):
        self._data = data

    def to_dict(self) -> dict:
        return self._data


def check_checker() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import ExactCli, Scale16, ShotsSweep, cli_in_process
    import ringflow

    scratch = ROOT / ".bench_out"
    shots = ShotsSweep(7, {}, ROOT, scratch)
    spec = shots.inputs(0)[1]
    good = ringflow.run_simulation(spec[0], shots_per_setting=shots.shots, seed=spec[1],
                                   readout_flip=spec[2])
    shots.check(spec, 0, good)
    report(True, "checker accepts a true shots report")
    data = good.to_dict()
    expect_failure("a perturbed shots j_estimate",
                   lambda: shots.check(spec, 0, _Report({**data, "j_estimate": data["j_estimate"]
                                                         * (1 + 1e-12)})))
    expect_failure("a NaN in a shots report",
                   lambda: shots.check(spec, 0, _Report({**data, "j_std_error": math.nan})))

    exact = ExactCli(7, {}, ROOT, scratch)
    exact.n_qubits = 3
    argv = exact.inputs(0)[0]
    code, text = cli_in_process(argv)
    exact.check(argv, code, text)
    report(True, "checker accepts a true exact report")
    parsed = json.loads(text)
    perturbed = text.replace(repr(parsed["j_estimate"]).encode(),
                             repr(parsed["j_estimate"] + 1e-6).encode())
    expect_failure("a perturbed exact j_estimate", lambda: exact.check(argv, 0, perturbed))
    bare_nan = text.replace(b'"j_std_error": null', b'"j_std_error": NaN')
    expect_failure("a bare NaN in CLI output", lambda: exact.check(argv, 0, bare_nan))
    expect_failure("a non-zero exit status", lambda: exact.check(argv, 3, text))
    expect_failure("changed output for a repeated input",
                   lambda: exact.check(argv, 0, text.replace(b"\n", b" \n", 1)))

    scale = Scale16(7, {}, ROOT, scratch)
    value = ringflow.closed_form_current(16) * 4.0 * math.pi
    scale.check(16, 0, value)
    report(True, "checker accepts the scale16 closed form")
    expect_failure("a perturbed scale16 expectation",
                   lambda: scale.check(16, 0, value * (1 + 1e-10)))


def check_bare_directory() -> None:
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "exact-cli", 0)
        printed_result = '"correct"' in proc.stdout
        report(proc.returncode != 0 and not printed_result,
               f"without the program: exit {proc.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    check_checker()
    check_runs(spec)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
