"""Regenerate ``refs/seed0.json.gz``: output fingerprints at the default seed.

    python3 perfbench/make_refs.py

Run it from the root of a checkout of the commit whose outputs are the
reference (the reference was taken at the seed commit, before any
optimisation).  Each op of every workload runs at full size and
its output fingerprint is stored; invariants are checked on the way.
"""

import gzip
import json
import shutil
import sys

import run
import workloads
from checks import REF_PATH
from workloads import DEFAULT_SEED


def main():
    refs = {}
    work = run.ROOT / ".perfbench_work" / "refs"
    shutil.rmtree(work, ignore_errors=True)
    for workload in workloads.WORKLOADS:
        sub = work / workload
        sub.mkdir(parents=True)
        res = run.run_in_process(workload, DEFAULT_SEED, "full", sub, 0, False, False,
                                 False, dump_refs=True)
        if res["failed"]:
            sys.exit("%s: %s" % (workload, res["reasons"]))
        for key, fp in res["fingerprints"].items():
            refs["%s/%s" % (workload, key)] = fp
    shutil.rmtree(work, ignore_errors=True)
    REF_PATH.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(REF_PATH, "wb", mtime=0) as fh:
        fh.write(json.dumps(refs, sort_keys=True).encode())
    print("%d reference fingerprints -> %s" % (len(refs), REF_PATH))


if __name__ == "__main__":
    main()
