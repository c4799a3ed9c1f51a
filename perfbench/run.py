"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload cold-reads --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
stream untraced and then with layer spans installed, prints every per-layer
metric, and writes the spans to ``.perfbench-out/``.  Every answer is checked
against a whole-graph oracle.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the environment.  ``--smoke`` shrinks every input for the
self-test (``python3 perfbench/selftest.py``).

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cold-reads", "hot-reads-net", "read-write-mix", "kron-reach")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the self-test")
    return parser.parse_args(argv)


def import_program() -> None:
    """Put ``src/`` and the repository root on the path, or exit 2."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({source / 'repro'} is missing)", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(source), str(ROOT)]


def run(args: argparse.Namespace) -> dict:
    """Run one workload; returns the result object the last line prints."""
    from perfbench import measure, workloads

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    state = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=scale,
    )
    workloads.run_workload(state)
    catalog = measure.PER_LAYER if args.trace else measure.END_TO_END
    missing = sorted(set(catalog) - set(state.metrics))
    if missing:
        raise RuntimeError(f"the workload produced no value for {missing}")
    if state.recorder is not None:
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        state.recorder.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
    for note in state.tally.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    return {
        "correct": state.tally.mismatches == 0,
        "attempted": state.tally.attempted,
        "failed": state.tally.failed,
        "metrics": {
            name: {"value": float(state.metrics[name]), "unit": unit}
            for name, unit in catalog.items()
        },
        "environment": measure.environment(),
        "unscaled": {name: state.unscaled[name] for name in sorted(state.unscaled)},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    result = run(args)
    print(json.dumps({"environment": result.pop("environment"), "unscaled": result.pop("unscaled")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
