"""Warn when a freshly written ``BENCH_*.json`` regressed against the
committed copy.

Every bench job in CI ends with the same check: load the file the bench
just wrote, load the version committed at ``HEAD``, and print a GitHub
``::warning`` for each figure that moved the wrong way by more than the
20% threshold, plus one for each identity flag that is not true.  The
script never fails: the bench jobs are informational.

    python benchmarks/bench_guard.py BENCH_serve.json \\
        --higher qps "Serving QPS regression" \\
        --lower latency_ms.p99 "Serving p99 regression"

``--higher``/``--lower KEY TITLE`` name a figure (dots reach into nested
objects) and the direction that is better.  ``--require KEY TITLE
MESSAGE`` warns when the fresh value of ``KEY`` is false or absent.
``--missing TITLE MESSAGE`` is the warning for a bench that died before
writing its file.
"""

import argparse
import json
import subprocess
import sys

#: Relative change in the worse direction that earns a warning.
THRESHOLD = 0.20


def lookup(data, key):
    """``data[k1][k2]...`` for ``key == "k1.k2..."``, or None."""
    for part in key.split("."):
        if not isinstance(data, dict):
            return None
        data = data.get(part)
    return data


def warning(title, message):
    return f"::warning title={title}::{message}"


def guard(fresh, committed, higher=(), lower=(), require=()):
    """The lines to print for ``fresh`` against the ``committed`` figures
    (None when there is no baseline)."""
    lines = [
        warning(title, message)
        for key, title, message in require
        if not lookup(fresh, key)
    ]
    if committed is None:
        return lines
    checks = [(key, title, 1.0) for key, title in higher]
    checks += [(key, title, -1.0) for key, title in lower]
    for key, title, better in checks:
        base = lookup(committed, key)
        now = lookup(fresh, key)
        if base is None or now is None or base == 0:
            continue
        change = (now - base) / base
        line = f"{key}: baseline {base}, fresh {now} ({change:+.0%} change)"
        if -better * change > THRESHOLD:
            lines.append(warning(title, line))
        else:
            lines.append(line)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="the BENCH_*.json the bench wrote")
    parser.add_argument("--higher", nargs=2, action="append", default=[],
                        metavar=("KEY", "TITLE"))
    parser.add_argument("--lower", nargs=2, action="append", default=[],
                        metavar=("KEY", "TITLE"))
    parser.add_argument("--require", nargs=3, action="append", default=[],
                        metavar=("KEY", "TITLE", "MESSAGE"))
    parser.add_argument("--missing", nargs=2, metavar=("TITLE", "MESSAGE"))
    args = parser.parse_args(argv)

    try:
        with open(args.path) as handle:
            fresh = json.load(handle)
    except FileNotFoundError:
        title, message = args.missing or (
            "Benchmark missing", f"the bench did not write {args.path}"
        )
        print(warning(title, message))
        return 0
    try:
        committed = json.loads(subprocess.check_output(
            ["git", "show", f"HEAD:{args.path}"], text=True,
        ))
    except subprocess.CalledProcessError:
        print(f"no committed {args.path} baseline; skipping")
        committed = None
    for line in guard(fresh, committed, args.higher, args.lower,
                      args.require):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
