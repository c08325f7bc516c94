"""Rewrite ``frozen_sha256.json``: the sha256 of every op's stdout on the
frozen seed, for every workload.

    python3 perfbench/freeze.py

Run it only on a commit whose output is known good: it refuses to freeze
an op that fails or fails the oracle.  ``run.py`` then rejects any later
commit whose output for the frozen seed differs by a single byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile

from run import FROZEN_FILE, SRC, gen, oracle, run_op

FROZEN_SEED = 0


def main():
    sys.path.insert(0, SRC)
    from dihom import cli

    digests = {}
    for workload in gen.WORKLOADS:
        ops = gen.generate(workload, FROZEN_SEED)
        with tempfile.TemporaryDirectory() as workdir:
            argvs = gen.materialize(ops, workdir)
            digests[workload] = []
            for op, argv in zip(ops, argvs):
                ok, _, stdout = run_op(cli, argv)
                problems = oracle.check(op, stdout) if ok else ["op failed"]
                if problems:
                    sys.exit(f"refusing to freeze {argv}: {problems}")
                digests[workload].append(hashlib.sha256(stdout.encode()).hexdigest())
        print(f"{workload}: {len(ops)} digests")
    with open(FROZEN_FILE, "w", encoding="utf-8") as fh:
        json.dump({"seed": FROZEN_SEED, "digests": digests}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
