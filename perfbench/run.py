"""Served-path benchmark: one run of one workload.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload served_smc --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``served_smc``, ``served_disclosed``,
``select_sweep``. ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` runs an untraced and a traced phase of
``seconds / 2`` each and reports the per-layer metrics. Metric names and
units come from ``BENCHMARK.json`` at the checkout root; a layer that
does not run on a workload reports 0.

Every operation is checked (served labels against the quantised
plaintext model, budget decisions and ledger spend against rho,
selections against a fresh risk evaluator). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it record the host and run facts and
a per-bundle report. Without the program's ``src/repro`` package next
to this directory the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("served_smc", "served_disclosed", "select_sweep")
RUNS_DIR = ".perfbench_runs"


def git_commit(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree
    (git is told not to look above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_facts(args) -> dict:
    from repro.crypto.modexp import resolve_backend
    from workloads import CLIENTS, KEY_BITS

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "crypto_backend": resolve_backend("auto").name,
        "paillier_bits": KEY_BITS["paillier_bits"],
        "dgk_bits": KEY_BITS["dgk_bits"],
        "clients": CLIENTS,
        "git_commit": git_commit(ROOT),
    }


def load_source() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")


def metric_spec(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> int:
    load_source()
    units = metric_spec(args.trace)
    from workloads import run_select, run_served

    facts = host_facts(args)
    (ROOT / RUNS_DIR).mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / RUNS_DIR))
    try:
        if args.workload == "select_sweep":
            result = run_select(args.seed, args.seconds, args.trace)
        else:
            result = run_served(
                args.workload, args.seed, args.seconds, args.trace, ROOT, run_dir
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    unknown = set(result.metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    print("facts " + json.dumps(facts, sort_keys=True))
    for line in result.report:
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }))
    sys.stdout.flush()
    return 0 if result.correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still shuts its servers down: SystemExit unwinds
    # through the finally blocks that stop them.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except SystemExit as stop:
        print(f"perfbench: {stop}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
