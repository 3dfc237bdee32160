#!/usr/bin/env python3
"""Record the expected report digest of every ``cli_requests`` request.

    python3 perfbench/record_digests.py

Run it only on a commit whose reports are known to be right; it rewrites
``cli_digests.json``, which the ``cli_requests`` oracle compares against.
"""

import hashlib
import json
import os
import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    aug = run.import_augvar()
    digests = {}
    cwd = os.getcwd()
    workdir = os.path.join(run.ROOT, ".perfbench_work", "record-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        workload = workloads.CliRequests(aug, workdir, digests={})
        os.chdir(workdir)
        for rung, argv, code in workloads.cli_request_list():
            rc, text = workload._request(argv, code, rung).run()
            if rc != code:
                sys.exit("%s: exit code %d, expected %d" % (" ".join(argv), rc, code))
            digests[workloads.request_key(argv)] = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    with open(workloads.DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d digests in %s" % (len(digests), workloads.DIGESTS_FILE))


if __name__ == "__main__":
    main()
