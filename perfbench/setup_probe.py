"""Time one workload's set-up in a fresh interpreter.

Prints the set-up time in seconds and the median of three calibration-kernel
times in nanoseconds, taken after the set-up (see calibrate.py).

Set-up is the program's import, config load and first call:

  trial-impaired  import, then one 50-frame trial
  sweep-grid      import, config load, then one trial of the grid's first cell
  report-replay   import, then one ``burstlink report`` on the given event log

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR [EVENTS_CSV]
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, work_dir = argv[0], int(argv[1]), argv[2]
    bl = workloads.import_program()
    if workload == "trial-impaired":
        workloads.run_trial(bl, seed, 0)
    elif workload == "sweep-grid":
        workloads.SweepGrid(bl, seed, work_dir, {}, 1).warm_up()
    elif workload == "report-replay":
        out = os.path.join(work_dir, f"probe-{os.getpid()}.csv")
        if bl.cli.main(workloads.report_argv(argv[3], out)) != 0:
            return 1
        os.remove(out)
    else:
        return 2
    elapsed = time.perf_counter() - _T0
    from calibrate import kernel_ns

    kernels = sorted(kernel_ns() for _ in range(3))
    print(repr(elapsed), kernels[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
