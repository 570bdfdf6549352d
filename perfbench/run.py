"""Run one workload of the oodflow benchmark and print its metrics.

    python3 perfbench/run.py --workload stream256 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout that holds ``src/oodflow``.  Three processes
take part, one after another: ``gen.py`` writes the inputs for the seed (and
trains the fixtures on the first run in a checkout), then ``measure.py``
sets the workload up twice more with ``--setup-only`` (untraced runs only),
then ``measure.py`` runs the workload.  ``setup_s`` is the median of the
three set-ups.  The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, which holds every end-to-end
metric of ``BENCHMARK.json`` (``--trace 0``) or every per-layer metric
(``--trace 1``).  The line before it describes the environment and inputs.

Exit codes: 0 when every check passed, 1 when a check or a process failed,
2 when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy
import scipy

import spec

SETUP_REPEATS = 3
GEN_TIMEOUT_S = 800  # the first run in a checkout trains the fixtures
FIXED_TIMEOUT_S = 100


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in os.environ.items()
               if k.endswith("_NUM_THREADS") or k.startswith("OPENBLAS")}
    lines = sum(len(p.read_text().splitlines()) for p in spec.PACKAGE.glob("*.py"))
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "thread_env": threads,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "src_oodflow_lines": lines}


def child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=spec.ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, text=True)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not ((spec.PACKAGE / "__init__.py").is_file()
            and (spec.ROOT / "tests" / "naive_ref.py").is_file()):
        print(f"run: no oodflow package and oracle under {spec.ROOT}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    bench = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    run_dir = spec.WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    bench_dir = spec.BENCH_DIR
    try:
        gen = child([str(bench_dir / "gen.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--out", str(run_dir)], GEN_TIMEOUT_S)
        if gen.returncode != 0:
            print("run: input generation failed", file=sys.stderr)
            return 1
        inputs = json.loads((run_dir / "inputs.json").read_text())
        measure = [str(bench_dir / "measure.py"), "--workload", args.workload,
                   "--inputs", str(run_dir)]
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                proc = child(measure + ["--setup-only"], FIXED_TIMEOUT_S)
                if proc.returncode != 0:
                    print("run: set-up failed", file=sys.stderr)
                    return 1
                setups.append(last_json(proc.stdout)["setup_s"])
        proc = child(measure + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     FIXED_TIMEOUT_S + 2 * args.seconds)
        if not proc.stdout.strip():
            print("run: the measured process printed no result", file=sys.stderr)
            return 1
        result = last_json(proc.stdout)
    except subprocess.TimeoutExpired as exc:
        print(f"run: timed out: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    values = result["values"]
    if not args.trace:
        setups.append(values["setup_s"])
        values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run: metrics missing from the measured process: {missing}",
              file=sys.stderr)
        return 1
    print(json.dumps({"info": {"env": environment(), "seed": args.seed,
                               "inputs_digest": inputs["digest"],
                               "fixture_digest": inputs["fixture_digest"],
                               "setup_runs_s": setups, "summary": result["summary"]}}))
    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
