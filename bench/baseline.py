#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 bench/baseline.py --seeds 1-10 --trace-seeds 1-2 --out bench/baseline.json

For every workload in BENCHMARK.json this runs ``bench/run.py`` once per
seed with tracing off (seed-major, so slow drift of the machine spreads over
all workloads) and once per trace seed with tracing on.  For each
end-to-end metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, and marks the metric ``steady`` when that spread is below a third
of its bound, ``setup_s`` included.  With ``--against FILE`` it also checks
that each median is not worse than the one in FILE by more than the bound.
The summary is written as JSON to ``--out`` and as a Markdown table beside
it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def worse_by(new: float, old: float, better: str) -> float:
    """Share of ``old`` by which ``new`` is worse (negative when better)."""
    change = (new - old) / old
    return -change if better == "higher" else change


def collect(names, seeds, trace_seeds, seconds) -> dict:
    """Run every workload per seed, untraced then traced; {name: [(record, result)]}."""
    runs = {name: [] for name in names}
    for trace, seed_list in ((0, seeds), (1, trace_seeds)):
        for seed in seed_list:
            for name in names:
                record, result = run_once(name, seed, seconds, trace)
                runs[name].append((record, result))
                print(f"{name} seed {seed} trace {trace}: correct={result['correct']} " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return runs


def summarize(runs: dict, bounds: dict, previous: dict) -> tuple[dict, list[bool]]:
    summary, verdicts = {}, []
    for name, pairs in runs.items():
        plain = [(rec, res) for rec, res in pairs if not rec["trace"]]
        traced = [(rec, res) for rec, res in pairs if rec["trace"]]
        e2e = {}
        for metric, info in bounds.items():
            values = [res["metrics"][metric]["value"] for _, res in plain]
            stats = spread(values)
            stats.update(unit=info["unit"], better=info["better"], bound=info["bound"],
                         values=values,
                         steady=stats["spread"] < info["bound"] / 3)
            if name in previous:
                old = previous[name]["end_to_end"][metric]["median"]
                stats["worse_than_against"] = worse_by(stats["median"], old, info["better"])
                stats["agrees"] = stats["worse_than_against"] <= info["bound"]
                verdicts.append(stats["agrees"])
            verdicts.append(stats["steady"])
            e2e[metric] = stats
        layers = {}
        for metric in traced[0][1]["metrics"] if traced else ():
            values = [res["metrics"][metric]["value"] for _, res in traced]
            layers[metric] = {"median": statistics.median(values),
                              "unit": traced[0][1]["metrics"][metric]["unit"],
                              "values": values}
        summary[name] = {
            "all_correct": all(res["correct"] for _, res in pairs),
            "failed": sum(res["failed"] for _, res in pairs),
            "seeds": [rec["seed"] for rec, _ in plain],
            "trace_seeds": [rec["seed"] for rec, _ in traced],
            "op_tail": [rec["op_tail"] for rec, _ in plain],
            "by_input_p50_s": plain[0][0]["by_input_p50_s"],
            "measured_median": {metric: statistics.median(rec["measured"][metric] for rec, _ in plain)
                                for metric in plain[0][0]["measured"]},
            "end_to_end": e2e,
            "per_layer": layers,
        }
        verdicts.append(summary[name]["all_correct"])
    return summary, verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1-2")
    parser.add_argument("--out", required=True)
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    runs = collect(names, seed_range(args.seeds), seed_range(args.trace_seeds),
                   spec["run_seconds"])

    previous = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    summary, verdicts = summarize(runs, bounds, previous)
    first = next(iter(runs.values()))[0][0]
    out = {
        "machine": first["machine"],
        "code": first["code"],
        "run_seconds": first["seconds"],
        "against": args.against and Path(args.against).name,
        "workloads": summary,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    out_path.with_suffix(".md").write_text(markdown(out))
    print(markdown(out))
    return 0 if all(verdicts) else 1


def markdown(out: dict) -> str:
    m, c = out["machine"], out["code"]
    names = list(out["workloads"])
    first = out["workloads"][names[0]]
    lines = [
        "# ringflow benchmark baseline",
        "",
        f"Commit {c['git_commit']}, src/ {c['src_lines']} lines (sha256 {c['src_sha256'][:12]}).",
        f"Machine: {m['nproc']} CPUs, {m['cpu_model']}, L2 {m['l2_cache']}, L3 {m['l3_cache']}, "
        f"{m['mem_total_bytes'] / 2**30:.1f} GiB; Python {m['python']}, numpy {m['numpy']}.",
        f"{out['run_seconds']:g} s per run; seeds {first['seeds']} untraced, "
        f"{first['trace_seeds']} traced.",
        "",
        "## End to end",
        "",
        "Median [q1, q3] over seeds, spread = (q3 - q1) / median"
        + (f", change of the median against {out['against']}." if out["against"] else "."),
        "",
        "| metric | unit | bound | " + " | ".join(names) + " |",
        "|---|---|---|" + "---|" * len(names),
    ]
    for metric, stats in first["end_to_end"].items():
        cells = []
        for name in names:
            s = out["workloads"][name]["end_to_end"][metric]
            cell = f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['spread']:.1%}"
            if "worse_than_against" in s:
                cell += f", {s['worse_than_against']:+.1%} worse"
            cells.append(cell)
        lines.append(f"| {metric} | {stats['unit']} | {stats['bound']} | " + " | ".join(cells) + " |")
    lines += [
        "",
        "Times above are in reference seconds (see bench/speed.py); the measured",
        "times before that scaling, median over seeds:",
        "",
        "| metric | " + " | ".join(names) + " |",
        "|---|" + "---|" * len(names),
    ]
    for metric in first["measured_median"]:
        cells = [f"{out['workloads'][n]['measured_median'][metric]:.4g}" for n in names]
        lines.append(f"| {metric} | " + " | ".join(cells) + " |")
    lines += [
        "",
        "## Per layer, traced run",
        "",
        "Median per operation over the traced seeds.",
        "",
        "| metric | unit | " + " | ".join(names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    for metric, stats in first["per_layer"].items():
        cells = [f"{out['workloads'][n]['per_layer'][metric]['median']:.4g}" for n in names]
        lines.append(f"| {metric} | {stats['unit']} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
