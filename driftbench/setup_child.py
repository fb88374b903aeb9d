"""One fresh launch of the set-up a user pays before the first result.

Run as ``python3 driftbench/setup_child.py WORKLOAD SEED`` with the
program's ``src`` on ``PYTHONPATH``.  It imports what the workload needs,
builds the workload's inputs, prints ``ready`` and exits; the parent
times spawn -> ``ready``.
"""

import sys


def main(workload: str, seed: int) -> None:
    if workload == "exec-parser":
        from repro.exec import ExecutionEngine, run_sequential  # noqa: F401
        from repro.workloads.parser_w import ParserWorkload

        ParserWorkload(seed).exec_spec()
    else:
        raise SystemExit(f"no set-up for workload {workload!r}")
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
