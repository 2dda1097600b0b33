"""The sinkeq benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload tm-wcg --seed 1 --seconds 24 --trace 0

Every command goes through ``sinkeq.cli.run_cli`` in this process, one at a
time; each starts only after the previous one returned. Inputs come from
``--seed`` alone (see ``inputs.py``); every verdict is checked against
``oracle.py`` after the timed loop. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: the loop runs whole passes
over the input pool, stopping at the pass boundary nearest to ``--seconds``.
``--trace 1`` reports the per-layer metrics: it replays a fixed number of
items untraced (once to warm up, once measured) and once with
``tracing.Tracer`` installed, so its counts repeat exactly for a seed, and
reports the traced/untraced question-time ratio as ``trace.overhead``.

Full results (every command's time and answer, per-span self times) go to
``perfbench/_out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from yardstick import NOMINAL_S, Speed  # noqa: E402

SETUP_REPEATS = 5
# The highest percentile with at least ten question samples beyond it in a
# 24-second run on the baseline (36, 72, 54 and 336 samples); fixed so that
# runs compare.
TAIL_PERCENTILE = {"tm-wcg": 72, "tm-anon": 86, "table-full": 81, "sat-market": 97}
# Items a traced run replays: to warm up, untraced, then traced.
TRACE_ITEMS = {"tm-wcg": 12, "tm-anon": 12, "table-full": 6, "sat-market": 24}


def measure_setup(workload: str, seed: int, workdir: Path, repeats: int,
                  speed: Speed) -> list[tuple[float, float]]:
    """(start, wall time) of a fresh interpreter that imports sinkeq and
    writes the seeded input documents; the last repeat's files are the ones
    used. The yardstick is sampled between the repeats."""
    times = []
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        for _ in range(2):
            speed.sample()
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--dir", str(workdir)],
            check=True, stdin=subprocess.DEVNULL,
        )
        times.append((started, time.perf_counter() - started))
    for _ in range(2):
        speed.sample()
    return times


def run_step(cli, item: dict, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    question = "compile" if argv[0] == "compile" else argv[2]
    error = ""
    # Each command starts from a collected heap, as a fresh sinkeq process
    # would, so the garbage of one command is not charged to the next.
    gc.collect()
    started = time.perf_counter()
    try:
        code = cli.run_cli(argv, out=out, err=err)
    except Exception as exc:  # a traceback out of the CLI is a failed command
        code, error = None, repr(exc)
    elapsed = time.perf_counter() - started
    record = {"item": item["id"], "question": question, "code": code, "at": started,
              "s": elapsed,
              "error": error or err.getvalue().strip()}
    if code in (0, 2) and question != "compile":
        report = json.loads(out.getvalue())
        record["answer"] = report["answer"]
        record["extra"] = report.get("extra", {})
    return record


def run_items(cli, items: list, seconds: float | None,
              speed: Speed | None = None) -> tuple[list[dict], float]:
    """Run every item once; with ``seconds``, run whole passes over the items
    and stop at the pass boundary nearest to that many seconds. With
    ``speed``, the yardstick is sampled between commands."""
    records = []
    started = time.perf_counter()
    for passes in itertools.count(1):
        for item in items:
            for argv in item["steps"]:
                if speed:
                    speed.sample_if_due()
                records.append(run_step(cli, item, argv))
        elapsed = time.perf_counter() - started
        if seconds is None or elapsed + elapsed / passes / 2 >= seconds:
            return records, elapsed


def check(workload: str, items: dict, records: list[dict]) -> list[dict]:
    """Mark each record failed or not; references are computed once per item."""
    import oracle

    reference = {"tm-wcg": oracle.tm_wcg_in_sink, "tm-anon": oracle.tm_anon_in_sink,
                 "sat-market": oracle.sat_has_pure, "table-full": oracle.table_sinks}[workload]
    refs: dict = {}
    for r in records:
        if r["code"] != 0 or r["question"] == "compile":
            r["failed"] = r["code"] != 0
        else:
            if r["item"] not in refs:
                refs[r["item"]] = reference(items[r["item"]])
            ref = refs[r["item"]]
            if workload == "table-full":
                r["failed"] = not oracle.check_table(r["question"], r, ref)
            else:
                r["failed"] = r["answer"] != ref
        if r["failed"] and not r["error"]:
            r["error"] = f"answer {r.get('answer')!r} differs from the reference"
    return records


def end_to_end(workload, records, elapsed, setup, speed) -> tuple[dict, list[str]]:
    """Times at reference speed: each wall time is scaled by the yardstick
    samples taken nearest to it (see ``yardstick.py``), so that the host's
    drift between runs cancels. The plain wall-clock figures are printed too."""
    for r in records:
        r["ref_s"] = r["s"] * speed.scale(r["at"])
    questions = [r for r in records if r["question"] != "compile"]
    q_times = sorted(r["ref_s"] for r in questions)
    c_times = [r["ref_s"] for r in records if r["question"] == "compile"]
    p = TAIL_PERCENTILE[workload]
    rank = max(1, math.ceil(p / 100 * len(q_times)))  # nearest-rank percentile
    beyond = len(q_times) - rank
    metrics = {
        "setup_s": (statistics.median(s * speed.scale(at) for at, s in setup), "s"),
        "throughput_qps": (len(q_times) / sum(r["ref_s"] for r in records), "1/s"),
        "query_p50_s": (statistics.median(q_times), "s"),
        "query_tail_s": (q_times[rank - 1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"question commands: {len(q_times)} in {elapsed:.2f} s; "
        f"query_tail_s is p{p} with {beyond} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than ten: read it as unresolved)"),
        f"wall clock: {len(questions) / elapsed:.4f} questions/s, query median "
        f"{statistics.median(r['s'] for r in questions):.4f} s, setup median "
        f"{statistics.median(s for _, s in setup):.4f} s "
        f"(repeats {', '.join(f'{s:.4f}' for _, s in setup)})",
        f"yardstick: {len(speed.took)} samples, median {statistics.median(speed.took):.5f} s "
        f"against {NOMINAL_S} s nominal",
    ]
    if c_times:
        notes.append(f"compile commands: {len(c_times)}, median "
                     f"{statistics.median(c_times):.4f} s, total {sum(c_times):.4f} s")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sinkeq benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sinkeq" / "__init__.py").is_file():
        print(f"error: no sinkeq sources under {SRC}", file=sys.stderr)
        return 1
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        speed = Speed()
        setup = measure_setup(args.workload, args.seed, workdir, repeats, speed)
        manifest = json.loads((workdir / "manifest.json").read_text())
        sys.path.insert(0, str(SRC))
        import sinkeq.cli as cli

        pool = manifest["items"]
        items = {item["id"]: item for item in pool}
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "python": sys.version.split()[0],
                  "nproc": os.cpu_count(), "generator": manifest["generator"]}
        if args.trace:
            from tracing import Tracer

            replay = pool[:TRACE_ITEMS[args.workload]]
            run_items(cli, replay, None)  # warm-up: the first replay runs cold
            plain, _ = run_items(cli, replay, None)
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = run_items(cli, replay, None)
            finally:
                tracer.uninstall()
            records = check(args.workload, items, plain + traced)
            metrics, breakdown = tracer.layer_metrics()
            q_plain = sum(r["s"] for r in plain if r["question"] != "compile")
            q_traced = sum(r["s"] for r in traced if r["question"] != "compile")
            metrics["trace.overhead"] = (q_traced / q_plain, "ratio")
            result["spans"] = breakdown
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"{args.workload}-s{args.seed}.spans.json")
            notes = [f"traced {len(traced)} commands from {len(replay)} items; "
                     f"{len(tracer.name)} spans"]
        else:
            records, elapsed = run_items(cli, pool, args.seconds, speed)
            speed.sample()
            metrics, notes = end_to_end(args.workload, records, elapsed, setup, speed)
            records = check(args.workload, items, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r["failed"] for r in records)
    notes.append(f"error_rate: {failed / len(records):.4f} ({failed} of {len(records)} commands)")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    # The result line carries the metrics BENCHMARK.json lists for this mode;
    # the others are printed above it and kept in the result file.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result["attempted"], result["failed"] = len(records), failed
    result["records"] = records
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(result))

    print(f"workload {args.workload}, seed {args.seed}, python {result['python']}, "
          f"nproc {result['nproc']}, generator {manifest['generator']}")
    for line in notes:
        print(line)
    for r in records:
        if r["failed"]:
            print(f"FAILED {r['item']} {r['question']}: {r['error']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": {k: result["metrics"][k] for k in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
