"""The benchmark: four workloads, every repetition in a fresh process.

Run from the repository root (``PYTHONPATH`` is set for the children):

    python bench/run.py [--seed 0] [--out bench/out]
        The full matrix: 7 untraced repetitions of every workload,
        interleaved round-robin, then one traced repetition each.  Prints
        every end-to-end metric (median, q1, q3, n) and the per-layer
        table, writes OUT/results.json, and exits non-zero when an output
        check fails.

    python bench/run.py --workload W --seed S --seconds T --trace 0|1
        One workload, repeated for about T seconds (at least 3 times).
        The last line printed is one JSON object with ``correct``,
        ``attempted``, ``failed`` and ``metrics``: the medians of the
        end-to-end metrics with ``--trace 0``; with ``--trace 1``
        repetitions alternate untraced and traced, and the metrics are the
        per-layer medians of the traced ones.

    python bench/run.py --record
        Re-record bench/expected.json: the output digest and answered
        fraction of every workload at seeds 0-9.

Metric names, units and bounds come from BENCHMARK.json.  Output checks:
every repetition of a workload, traced or not, yields the same output
digest; at a recorded seed the digest matches expected.json and the
answered fraction is no lower; every seed clears the score and answered
floors below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

from runner import SETUP_MARK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNNER = BENCH / "runner.py"
EXPECTED = BENCH / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

#: seven is the fewest for which one outlier moves neither quartile
MATRIX_REPS = 7
MIN_REPS = 3
REP_TIMEOUT_S = 120
RECORD_SEEDS = range(10)
#: floors every seed must clear: a working pipeline scores far above
#: these and answers nearly everything
MIN_SCORE = 50.0
MIN_ANSWERED_FRAC = 0.99


class BenchError(Exception):
    """A repetition that could not be measured."""


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return env


def import_metrics(stderr: str) -> dict[str, float]:
    """Import seconds from a ``-X importtime`` log, cut at the set-up mark.

    ``repro_s`` sums the top-level (unindented) ``repro`` imports the
    runner made, which include numpy; ``numpy_s`` is numpy's own
    cumulative time.
    """
    repro_us = numpy_us = 0
    for line in stderr.splitlines():
        if line == SETUP_MARK:
            break
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        name = fields[2][1:]
        cumulative = fields[1].strip()
        if not cumulative.isdigit():
            continue  # the header line
        if name == "repro" or name.startswith("repro."):
            repro_us += int(cumulative)
        elif name.strip() == "numpy" and not numpy_us:
            numpy_us = int(cumulative)
    return {"import.repro_s": repro_us / 1e6, "import.numpy_s": numpy_us / 1e6}


def spawn(workload: str, seed: int, out: Path, trace: bool = False,
          smoke: bool = False) -> dict:
    """One repetition in a fresh process: the runner's line plus the
    parent's spawn and exit stamps."""
    command = [sys.executable]
    if trace:
        command += ["-X", "importtime"]
    command += [str(RUNNER), workload, "--seed", str(seed), "--out", str(out)]
    if trace:
        command.append("--trace")
    if smoke:
        command.append("--smoke")
    t_spawn = time.monotonic()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=REP_TIMEOUT_S)
    except BaseException:
        # The session holds the runner and any shard workers it spawned.
        with suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    t_exit = time.monotonic()
    if process.returncode != 0:
        raise BenchError(
            f"{workload} seed {seed} exited {process.returncode}:\n"
            f"{stderr[-3000:]}"
        )
    rep = json.loads(stdout.strip().splitlines()[-1])
    rep["t_spawn"] = t_spawn
    rep["t_exit"] = t_exit
    if trace:
        rep["per_layer"].update(import_metrics(stderr))
    return rep


def end_to_end(rep: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced repetition."""
    items = rep["items"]
    return {
        "wall_s": rep["t_exit"] - rep["t_spawn"] - rep["input_s"],
        "setup_s": rep["t_setup"] - rep["t_spawn"] - rep["input_pre_s"],
        "items_per_s": items / rep["work_s"],
        "peak_rss_mib": (
            rep["maxrss_self_kib"] + rep["maxrss_children_kib"]
        ) / 1024.0,
        "score": 0.0 if rep["score"] is None else rep["score"],  # None: N/A
        "tokens_per_item": rep["tokens"] / items,
        "sim_hours": rep["sim_hours"],
        "answered_frac": rep["answered"] / items,
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def summarize(spec: dict, untraced: list[dict], traced: list[dict]) -> dict:
    """End-to-end spreads over the untraced repetitions and per-layer
    medians over the traced ones."""
    per_rep = [end_to_end(rep) for rep in untraced]
    summary = {
        "digest": untraced[0]["digest"],
        "end_to_end": {
            metric["name"]: {
                "unit": metric["unit"],
                **spread([values[metric["name"]] for values in per_rep]),
            }
            for metric in spec["end_to_end"]
        },
    }
    if traced:
        measured = {
            name: statistics.median(rep["per_layer"][name] for rep in traced)
            for name in traced[0]["per_layer"]
        }
        measured["bench.trace_overhead_frac"] = (
            statistics.median(end_to_end(rep)["wall_s"] for rep in traced)
            / summary["end_to_end"]["wall_s"]["median"] - 1.0
        )
        missing = [m["name"] for m in spec["per_layer"]
                   if m["name"] not in measured]
        if missing:
            raise BenchError(f"per-layer metrics not measured: {missing}")
        summary["per_layer"] = {
            m["name"]: {"unit": m["unit"], "value": measured[m["name"]]}
            for m in spec["per_layer"]
        }
    return summary


def check(workload: str, seed: int, untraced: list[dict],
          traced: list[dict], expected: dict) -> list[str]:
    """Every output problem of one workload's repetitions (empty: correct)."""
    problems = []
    digests = {rep["digest"] for rep in untraced}
    if len(digests) > 1:
        problems.append(f"{workload}: untraced repetitions disagree")
    if any(rep["digest"] not in digests for rep in traced):
        problems.append(f"{workload}: tracing changed the output digest")
    recorded = expected.get(workload, {}).get(str(seed))
    for rep in untraced:
        answered = rep["answered"] / rep["items"]
        if rep["score"] is None or rep["score"] < MIN_SCORE:
            problems.append(f"{workload}: score {rep['score']} below {MIN_SCORE}")
        if answered < MIN_ANSWERED_FRAC:
            problems.append(
                f"{workload}: answered fraction {answered} below "
                f"{MIN_ANSWERED_FRAC}"
            )
        if recorded is None:
            continue
        if rep["digest"] != recorded["digest"]:
            problems.append(
                f"{workload} seed {seed}: digest {rep['digest']} differs "
                f"from expected.json {recorded['digest']}"
            )
        if answered < recorded["answered_frac"]:
            problems.append(
                f"{workload} seed {seed}: answered fraction {answered} fell "
                f"below the recorded {recorded['answered_frac']}"
            )
    return sorted(set(problems))


def load_expected() -> dict:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def prepare(out: Path) -> None:
    """Fail fast without the program; compile it once, so no repetition
    pays for bytecode compilation."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'repro'} is missing")
    out.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        check=True, stdout=subprocess.DEVNULL,
    )


def format_stats(name: str, stats: dict) -> str:
    return (
        f"  {name:<16} {stats['median']:>14.6g} {stats['unit']:<8} "
        f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})"
    )


def measure_for(args: argparse.Namespace, spec: dict) -> int:
    """One workload for ``--seconds``; the last line is the result object."""
    out = Path(args.out)
    prepare(out)
    started = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while (
        len(untraced) + len(traced) < MIN_REPS
        or time.monotonic() - started + longest <= args.seconds
    ):
        trace = args.trace == 1 and len(untraced) > len(traced)
        rep = spawn(args.workload, args.seed, out, trace=trace)
        (traced if trace else untraced).append(rep)
        longest = max(longest, rep["t_exit"] - rep["t_spawn"])
    summary = summarize(spec, untraced, traced)
    problems = check(
        args.workload, args.seed, untraced, traced, load_expected()
    )
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced repetition(s)")
    for name, stats in summary["end_to_end"].items():
        print(format_stats(name, stats))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    reps = untraced + traced
    if args.trace == 1:
        metrics = summary["per_layer"]
    else:
        metrics = {
            name: {"value": stats["median"], "unit": stats["unit"]}
            for name, stats in summary["end_to_end"].items()
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep["items"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": metrics,
    }))
    return 1 if problems else 0


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def matrix(args: argparse.Namespace, spec: dict) -> int:
    """The full matrix; writes OUT/results.json."""
    out = Path(args.out)
    prepare(out)
    workloads = [workload["name"] for workload in spec["workloads"]]
    untraced: dict[str, list[dict]] = {name: [] for name in workloads}
    for __ in range(MATRIX_REPS):
        for name in workloads:
            untraced[name].append(spawn(name, args.seed, out))
    traced = {name: [spawn(name, args.seed, out, trace=True)]
              for name in workloads}
    expected = load_expected()
    results = {
        "meta": {
            "seed": args.seed,
            "reps": MATRIX_REPS,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": untraced[workloads[0]][0]["numpy"],
            "git_sha": git_sha(),
        },
        "workloads": {},
        "problems": [],
    }
    for name in workloads:
        results["workloads"][name] = summarize(
            spec, untraced[name], traced[name]
        )
        results["problems"] += check(
            name, args.seed, untraced[name], traced[name], expected
        )
    (out / "results.json").write_text(
        json.dumps(results, indent=2) + "\n", encoding="utf-8"
    )
    for name in workloads:
        print(f"{name} (seed {args.seed})")
        for metric, stats in results["workloads"][name]["end_to_end"].items():
            print(format_stats(metric, stats))
    print()
    print(f"{'per-layer (traced)':<46}" + "".join(
        f"{name[:22]:>24}" for name in workloads
    ))
    for metric in spec["per_layer"]:
        row = [
            results["workloads"][name]["per_layer"][metric["name"]]["value"]
            for name in workloads
        ]
        print(f"{metric['name'] + ' [' + metric['unit'] + ']':<46}"
              + "".join(f"{value:>24.6g}" for value in row))
    for problem in results["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"results written to {out / 'results.json'}")
    return 1 if results["problems"] else 0


def record(args: argparse.Namespace, spec: dict) -> int:
    """Rewrite expected.json from one repetition per workload and seed."""
    out = Path(args.out)
    prepare(out)
    expected = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        expected[name] = {}
        for seed in RECORD_SEEDS:
            rep = spawn(name, seed, out)
            expected[name][str(seed)] = {
                "digest": rep["digest"],
                "answered_frac": rep["answered"] / rep["items"],
            }
    EXPECTED.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(RECORD_SEEDS)} seed(s) per workload in {EXPECTED}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default=None,
                        help="measure one workload for --seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH / "out"))
    parser.add_argument("--record", action="store_true",
                        help="re-record bench/expected.json")
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    try:
        if args.record:
            return record(args, spec)
        if args.workload is not None:
            return measure_for(args, spec)
        return matrix(args, spec)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
