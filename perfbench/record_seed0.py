"""Record the seed-0 values that every later benchmark run must reproduce.

    PYTHONPATH=src python3 perfbench/record_seed0.py

Runs each workload's operations once at seed 0 through `geodrive run`, as
the benchmark does, and writes expected_seed0.json next to this script.
Rerun it only when a change is meant to alter these values, and say so
where the change is described.
"""

import json
import os
import shutil
import tempfile

import harness
import workloads


def main():
    os.makedirs(harness.WORK_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=harness.WORK_DIR)
    recorded = {}
    with harness.Capture() as capture:
        for workload in workloads.WORKLOADS:
            recorded[workload] = {}
            for op in harness.setup(workload, 0, "full"):
                capture.bolza.clear()
                _, summary = harness.submit(op, out_dir)
                if harness.check_op(op, summary, capture.bolza):
                    raise SystemExit(f"{workload}/{op['label']} fails its "
                                     "checks; nothing recorded")
                recorded[workload][op["label"]] = harness.observed_values(
                    summary, capture.bolza)
    shutil.rmtree(out_dir)
    with open(harness.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
