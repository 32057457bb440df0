"""Record the sha256 digests of the canned jobs' reports.

    python3 perfbench/record_digests.py

Run once at the commit whose outputs are the reference; the benchmark then
fails any canned job whose report bytes differ.  Canned inputs do not depend
on the seed, so any seed gives the same digests.
"""

import hashlib
import json
import os
import random
import shutil
import sys

import run
from workloads import WORKLOADS


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    fs = run.import_foldspace()
    digests = {}
    workdir = os.path.join(run.HERE, "work", "record")
    try:
        for name, make in sorted(WORKLOADS.items()):
            for job in make(fs, random.Random(0), workdir):
                if job.canned is None:
                    continue
                ok, text, message = run.run_job(fs, run.traced.NullTracer(),
                                               job)
                if not ok:
                    raise SystemExit(f"{job.job_id}: {message}")
                digests[job.canned] = hashlib.sha256(
                    text.encode("utf-8")).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
