#!/usr/bin/env python3
"""ringflow benchmark: four closed-loop workloads behind one command.

    python3 bench/run.py --workload exact-cli --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``exact-cli``,
``shots-sweep``, ``analyze-cli`` and ``scale16``.  One client sends one
operation at a time.  The package is imported from the ``src/`` directory
beside ``bench/``, and CLI operations run ``python -m ringflow`` with that
directory on PYTHONPATH, so nothing needs installing.  Before anything is
timed, the two hardware data files under ``data/`` must reproduce their
published J; otherwise the run fails.  The first round of operations warms
up and is checked but not timed.

The run pins itself, and so every process it starts, to the allowed CPU
that was idlest over 0.3 s at start.

``--trace 0`` measures the end-to-end metrics, tracing off.  Their times are
in reference seconds: ``speed.py`` samples the speed of the pinned CPU every
20 ms while the run goes on, and each measured time is multiplied by the
probe's reference loop time over its loop time around that measurement.  A
shared CPU runs the same code up to twice as slowly when other tenants load
it, in periods of seconds to minutes; the factor takes that out, while a
change to ringflow moves reference and measured times alike.  The record
line gives the measured times too, under ``measured``.

* ``setup_s``: median wall time of fifteen ``python -m ringflow --version``
  launches (interpreter start plus import).
* ``op_p50_s``: median over rounds of the mean operation wall time in the
  round.  A round is one pass through the input cycle (1 operation for
  exact-cli and scale16, 2 for analyze-cli, 12 for shots-sweep); the plain
  median of a mixture of input shapes falls in the gap between two shapes
  and jumps between them from run to run.
* ``op_tail_s``: the highest percentile of the same round means that still
  has ten rounds beyond it; with fewer than 21 rounds that percentile would
  not exceed the median, so the slowest round is reported.  The record line
  gives the percentile and the counts.
* ``ops_per_s``: operations per second of operation time, a failed
  operation counting as taking at least its timeout.
* ``cpu_s_per_op``: user plus system CPU per operation (the child's own,
  from wait4, for CLI workloads).
* ``peak_rss_mb``: largest resident set of the process doing the work
  (largest child for CLI workloads, this process otherwise), in 10^6 bytes.
* ``success_rate``: 1 - error_rate; an operation fails when it exits
  non-zero, times out or fails its check in ``check.py``, and a failed
  operation counts as taking at least its timeout.

``--trace 1`` runs the operations in process (CLI workloads through
``ringflow.cli.main`` with stdout captured), alternating untraced rounds
with rounds traced by the span tracer of ``spans.py``.  Per-layer metrics
are medians over traced rounds of the per-operation value; the ``trace.*``
metrics give the tracing overhead (traced minus untraced ``op_p50_s``) and
the share of operation time that the layers' self times account for.  Every
span is kept in memory and written as JSON lines, when the run ends, to
``.bench_out/spans-<workload>-<seed>.jsonl``.

Standard output ends with two JSON lines: the full record (machine and code
facts, per-input medians, tail percentile, first errors), then the result
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
when every check held, 1 when one failed and 2 when the repository is not
there to benchmark.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH_ROOT = ROOT / ".bench_out"
SETUP_LAUNCHES = 15
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class OpTimeout(Exception):
    """An in-process operation ran past its workload's timeout."""


def _raise_timeout(signum, frame):
    raise OpTimeout()


def layer_units() -> dict[str, str]:
    from spans import COUNT_METRICS, SELF_TIME_METRICS

    units = {metric: "s" for metric in SELF_TIME_METRICS.values()}
    units.update({metric: "count" for metric in COUNT_METRICS})
    units.update({
        "engine.bytes_computed": "B",
        "cli.report_bytes": "B",
        "experiment.coverage": "ratio",
        "experiment.shots_ops": "count",
        "trace.op_p50_s": "s",
        "trace.untraced_op_p50_s": "s",
        "trace.overhead_s": "s",
        "trace.attributed_share": "ratio",
        "trace.spans": "count",
    })
    return units


# ---------------------------------------------------------------- facts


def machine_facts(allowed_cpus: set[int]) -> dict:
    import numpy

    facts = {
        "nproc": len(allowed_cpus),
        "cpu_model": platform.processor() or None,
        "l2_cache": None,
        "l3_cache": None,
        "mem_total_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            facts[f"l{level}_cache"] = size
    return facts


def idlest_cpu() -> int:
    """The allowed CPU with the most idle time over the next 0.3 s."""
    allowed = sorted(os.sched_getaffinity(0))

    def idle() -> dict[int, int]:
        ticks = {}
        with open("/proc/stat", encoding="ascii") as handle:
            for line in handle:
                name, *fields = line.split()
                if name.startswith("cpu") and name[3:].isdigit():
                    ticks[int(name[3:])] = int(fields[3])
        return ticks

    try:
        before = idle()
        time.sleep(0.3)
        after = idle()
        return max(allowed, key=lambda cpu: after.get(cpu, 0) - before.get(cpu, 0))
    except (OSError, ValueError, IndexError):
        return allowed[0]


def _git_head(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code_facts(root: Path) -> dict:
    """Commit (when the checkout has .git), a hash of src/ and its line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
    return {"git_commit": _git_head(root), "src_sha256": digest.hexdigest(), "src_lines": lines}


# ---------------------------------------------------------------- operations


def one_op(workload, spec, subprocess_ops: bool, tracer, op_id: int) -> dict:
    """Run and check one operation; never raises for a failing operation."""
    from check import CheckFailed
    from workloads import run_cli_subprocess

    error = summary = covered = None
    code = payload = None
    rss_kib = None
    wall = cpu = 0.0
    start = time.perf_counter()
    if subprocess_ops:
        code, payload, wall, cpu, rss_kib = run_cli_subprocess(
            spec, workload.env, workload.root, workload.timeout_s
        )
    else:
        signal.setitimer(signal.ITIMER_REAL, workload.timeout_s)
        try:
            if tracer is None:
                code, payload, wall, cpu = _timed_call(workload, spec)
            else:
                with tracer.installed(), tracer.operation(op_id):
                    code, payload, wall, cpu = _timed_call(workload, spec)
                summary = tracer.op_summary()
        except OpTimeout:
            error = f"timed out after {workload.timeout_s} s"
        except Exception as exc:  # a crashing operation is a failed operation
            error = "".join(traceback.format_exception_only(exc)).strip()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if error is not None:
            wall = time.perf_counter() - start
    if error is None:
        try:
            report = workload.check(spec, code, payload)
        except CheckFailed as exc:
            error = str(exc)
        else:
            if report is not None and report.get("mode") == "shots":
                miss = abs(report["j_estimate"] - report["j_exact"])
                covered = miss < 5.0 * report["j_std_error"]
    if error is not None:
        summary = None
    elif summary is not None:
        summary["cli.report_bytes"] = float(len(payload)) if isinstance(payload, bytes) else 0.0
    latency = wall if error is None else max(wall, workload.timeout_s)
    return {
        "span": (start, time.perf_counter()),
        "label": workload.label(spec),
        "latency": latency,
        "wall": wall,
        "cpu": cpu,
        "rss_kib": rss_kib,
        "error": error,
        "traced": tracer is not None,
        "covered": covered,
        "summary": summary,
    }


def _timed_call(workload, spec):
    cpu0 = time.process_time()
    start = time.perf_counter()
    code, payload = workload.call(spec)
    wall = time.perf_counter() - start
    return code, payload, wall, time.process_time() - cpu0


def run_loop(workload, seconds: float, *, subprocess_ops: bool, tracer=None):
    """Closed loop, one client: whole rounds until ``seconds`` have passed.

    The first round is run and checked but not timed.  With a ``tracer``,
    odd rounds are traced and even rounds not, so that both see the same
    state of the machine.
    """
    rounds, errors = [], []
    attempted = failed = 0
    deadline = None
    index = 0
    # a traced loop needs at least one traced and one untraced round
    while deadline is None or time.perf_counter() < deadline or (tracer and len(rounds) < 2):
        ops = []
        round_tracer = tracer if index % 2 else None
        for spec in workload.inputs(index):
            op = one_op(workload, spec, subprocess_ops, round_tracer, attempted)
            attempted += 1
            if op["error"] is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{op['label']}: {op['error']}")
            ops.append(op)
        if deadline is None:
            deadline = time.perf_counter() + seconds
            warm = ops
        else:
            rounds.append(ops)
        index += 1
    return {"rounds": rounds, "warmup": warm, "attempted": attempted,
            "failed": failed, "errors": errors}


# ---------------------------------------------------------------- statistics


def round_means(rounds, value) -> list[float]:
    return [statistics.fmean(value(op) for op in ops) for ops in rounds]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, rounds beyond) of the highest percentile with
    TAIL_BEYOND rounds beyond it, or of the maximum when that percentile
    would not exceed the median."""
    ordered = sorted(values)
    k = len(ordered)
    index = k - 1 - TAIL_BEYOND if k > 2 * TAIL_BEYOND else k - 1
    return ordered[index], 100.0 * (index + 1) / k, k - 1 - index


def by_input(rounds) -> dict[str, float]:
    walls: dict[str, list[float]] = {}
    for ops in rounds:
        for op in ops:
            walls.setdefault(op["label"], []).append(op["latency"] * op["scale"])
    return {label: statistics.median(v) for label, v in walls.items()}


def setup_launches(env) -> list[tuple[float, float, float]]:
    """(wall s, start, end) of fresh interpreters importing ringflow until ready."""
    from check import CheckFailed, expect_exit_ok
    from workloads import run_cli_subprocess

    launches = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        code, out, wall, _, _ = run_cli_subprocess(["--version"], env, ROOT, 60.0)
        launches.append((wall, start, time.perf_counter()))
        expect_exit_ok(code)
        if not out.startswith(b"ringflow "):
            raise CheckFailed(f"--version printed {out[:40]!r}")
    return launches


def end_to_end(workload, seconds, env) -> tuple[dict, dict]:
    """Untraced run under the speed probe; times in reference seconds."""
    from speed import SpeedProbe

    with SpeedProbe() as probe:
        launches = setup_launches(env)
        loop = run_loop(workload, seconds, subprocess_ops=workload.subprocess_ops)
    rounds = loop["rounds"]
    ops = [op for r in rounds for op in r]
    for op in ops:
        op["scale"] = probe.scale(*op["span"])
    setup = [wall * probe.scale(start, end) for wall, start, end in launches]
    lat = round_means(rounds, lambda op: op["latency"] * op["scale"])
    tail_value, tail_pct, beyond = tail(lat)
    if workload.subprocess_ops:
        rss_kib = max(op["rss_kib"] for op in ops + loop["warmup"])
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "ops_per_s": len(ops) / sum(op["latency"] * op["scale"] for op in ops),
        "cpu_s_per_op": sum(op["cpu"] * op["scale"] for op in ops) / len(ops),
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "success_rate": 1.0 - loop["failed"] / loop["attempted"],
    }
    scales = [op["scale"] for op in ops]
    detail = {
        "setup_launches_s": setup,
        "rounds": len(rounds),
        "ops_per_round": len(rounds[0]),
        "op_tail": {"percentile": tail_pct, "rounds_beyond": beyond, "rounds": len(rounds)},
        "by_input_p50_s": by_input(rounds),
        "round_means_s": lat,
        "error_rate": loop["failed"] / loop["attempted"],
        "speed": {
            "probe_samples": len(probe.times),
            "scale_min": min(scales),
            "scale_p50": statistics.median(scales),
            "scale_max": max(scales),
        },
        "measured": {
            "setup_s": statistics.median(wall for wall, _, _ in launches),
            "op_p50_s": statistics.median(round_means(rounds, lambda op: op["latency"])),
            "ops_per_s": len(ops) / sum(op["latency"] for op in ops),
            "cpu_s_per_op": sum(op["cpu"] for op in ops) / len(ops),
        },
    }
    return metrics, {**detail, **_counts(loop)}


def per_layer(workload, seconds, spans_path) -> tuple[dict, dict]:
    from spans import Tracer

    tracer = Tracer()
    loop = run_loop(workload, seconds, subprocess_ops=False, tracer=tracer)
    tracer.dump(spans_path)
    plain = [r for r in loop["rounds"] if not r[0]["traced"]]
    # traced rounds whose operations all passed carry a summary for every op
    traced = [r for r in loop["rounds"] if all(op["summary"] for op in r)]
    detail = {"rounds": len(traced), "untraced_rounds": len(plain),
              "span_count": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT)), **_counts(loop)}
    if not traced or not plain:
        return dict.fromkeys(layer_units(), 0.0), detail
    metrics = {}
    for name in traced[0][0]["summary"]:
        values = round_means(traced, lambda op: op["summary"][name])
        metrics[name] = statistics.median(values)
    op_s = metrics.pop("op_s")
    spans = metrics.pop("spans")
    untraced = statistics.median(round_means(plain, lambda op: op["latency"]))
    unattributed = sum(op["summary"]["trace.unattributed_s"] for r in traced for op in r)
    total = sum(op["summary"]["op_s"] for r in traced for op in r)
    shots = [op["covered"] for r in loop["rounds"] for op in r if op["covered"] is not None]
    metrics.update({
        "experiment.coverage": sum(shots) / len(shots) if shots else 0.0,
        "experiment.shots_ops": float(len(shots)),
        "trace.op_p50_s": op_s,
        "trace.untraced_op_p50_s": untraced,
        "trace.overhead_s": op_s - untraced,
        "trace.attributed_share": 1.0 - unattributed / total,
        "trace.spans": spans,
    })
    return metrics, detail


def _counts(loop) -> dict:
    return {key: loop[key] for key in ("attempted", "failed", "errors")}


# ---------------------------------------------------------------- main


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def main(argv=None) -> int:
    if not (SRC / "ringflow" / "__init__.py").is_file():
        print(f"bench: no ringflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("RINGFLOW_")]:
        del os.environ[key]
    args = parse_args(argv)
    # one CPU for this process, every process it starts and the speed probe
    allowed_cpus = os.sched_getaffinity(0)
    cpu = idlest_cpu()
    os.sched_setaffinity(0, {cpu})

    from check import CheckFailed, check_data_files
    from ringflow.experiment import ingest_measurements
    from workloads import WORKLOADS

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    signal.signal(signal.SIGALRM, _raise_timeout)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_cpu": cpu,
        "machine": machine_facts(allowed_cpus),
        "code": code_facts(ROOT),
    }
    try:
        record["data_check_j"] = check_data_files(ROOT, ingest_measurements)
    except CheckFailed as exc:
        print(f"bench: data check failed: {exc}", file=sys.stderr)
        return 1

    SCRATCH_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH_ROOT) as scratch:
        workload = WORKLOADS[args.workload](args.seed, env, ROOT, Path(scratch))
        try:
            workload.setup()
            if args.trace:
                units = layer_units()
                spans = SCRATCH_ROOT / f"spans-{args.workload}-{args.seed}.jsonl"
                metrics, detail = per_layer(workload, args.seconds, spans)
            else:
                units = E2E_UNITS
                metrics, detail = end_to_end(workload, args.seconds, env)
        except CheckFailed as exc:
            print(f"bench: set-up check failed: {exc}", file=sys.stderr)
            return 1
    correct = detail["failed"] == 0
    record.update(detail)
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(json.dumps({"record": record}, sort_keys=True))
    print(result_line(correct, detail["attempted"], detail["failed"], metrics, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
