"""Rewrite ``known_answers.json``: expected exit statuses and pinned digests.

    python3 certbench/pin.py

Runs one untraced pass of every workload and records the report digest of
each certificate of the unseeded jobs.  Run it only on a commit whose
verdicts are trusted; a benchmark run reports any later change of these
digests as ``cli.digest_drift``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run

# the exit status each kind of job must have: a mutated counit or antipode is
# no longer the unique one, so its verification fails
EXPECT_STATUS = {"valid": 0, "relabeled": 0, "window": 0,
                 "mutant-counit": 1, "mutant-antipode": 1}


def main():
    sys.path.insert(0, run.SRC)
    import inputs
    from workloads import WORKLOADS

    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=run.WORK)
    digests = {}
    try:
        lib = run.import_library()
        plan = inputs.generate(lib, 0, os.path.join(workdir, "inputs"))
        for build in WORKLOADS.values():
            results = run.run_pass(build, lib, plan, workdir)
            for r in results:
                if r["error"]:
                    raise SystemExit("job %r raised %s" % (r["job"].name, r["error"]))
            digests.update({r["job"].name: {c.name: c.digest for c in r["certs"]}
                            for r in results if r["job"].pinned})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.KNOWN_ANSWERS, "w") as fh:
        json.dump({"expect_status": EXPECT_STATUS, "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print("pinned %d jobs in %s" % (len(digests), run.KNOWN_ANSWERS))


if __name__ == "__main__":
    run.ensure_fixed_hash_seed()
    main()
