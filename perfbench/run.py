"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload export-cold --seed 1 --seconds 30 --trace 0

Run from the repository root: the program under test is imported from
``src/``.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
pass (end-to-end figures never come from a traced pass).  The line before
it is a ``detail`` object with the figures behind them (sample counts,
chosen tail percentile, simulated ms, what the trace leaves uncovered).
Any correctness failure is listed on stderr, marks the result incorrect
and makes the exit code 1.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("export-cold", "sweep-plans", "serve-rw")
DEFAULT_SEED = 20010521


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %(default)s; 7 is held out for "
                             "showing a claim on a seed not used while writing it)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name):
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if name == "export-cold":
        from perfbench import export_cold as module
    elif name == "sweep-plans":
        from perfbench import sweep_plans as module
    else:
        from perfbench import serve_rw as module
    return module


def main(argv=None):
    args = parse_args(argv)
    module = load_workload(args.workload)
    from perfbench.metrics import result_line

    result = module.run(args.seed, args.seconds, bool(args.trace))
    failures = result["failures"]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    values = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"detail": result["detail"]}, default=str))
    print(json.dumps(result_line(
        values, args.trace, correct=not failures, attempted=result["attempted"],
        failed=min(len(failures), result["attempted"]))))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
