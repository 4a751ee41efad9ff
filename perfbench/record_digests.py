"""Record the default-seed output digests into expected_digests.json.

Run this only when a change is meant to alter the program's outputs, and say
so where the change is described; the benchmark fails every call whose output
no longer matches.

Usage: python3 perfbench/record_digests.py
"""

import json
import os
import sys
import tempfile

import workloads


def main() -> int:
    bl = workloads.import_program()
    seed = workloads.DEFAULT_SEED
    rows = [
        workloads.sha256_bytes(workloads.trial_row_text(bl, workloads.run_trial(bl, seed, k)).encode())
        for k in range(workloads.TRIAL_CYCLE)
    ]
    os.makedirs(os.path.join(workloads.ROOT, ".perfbench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(workloads.ROOT, ".perfbench_out")) as tmp:
        if bl.cli.main(workloads.sweep_argv(seed, 1, tmp)) != 0:
            return 1
        sweep = workloads.sweep_digests(tmp)
        report_path = os.path.join(tmp, "report.csv")
        if bl.cli.main(workloads.report_argv(os.path.join(tmp, "events.csv"), report_path)) != 0:
            return 1
        report = workloads.sha256_file(report_path)
    doc = {
        "seed": seed,
        "trial-impaired": {"result_rows": rows},
        "sweep-grid": sweep,
        "report-replay": {"results_csv": report},
    }
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.DIGESTS_PATH, workloads.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
