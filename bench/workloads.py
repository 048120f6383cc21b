"""The benchmark's workloads and the correctness gate every call must pass.

A workload is a fixed list of ``python -m ppring.cli`` calls; README.md says
why each was chosen and why the stress groups are left out.  The seed
reaches every workload as the children's ``PYTHONHASHSEED`` (``child_env``),
which changes set and dict iteration order inside the program while every
report must stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os

ORACLE_SAMPLES = 200
# Not the benchmark seed: which generators the samples draw sets the cost, and
# over oracle seeds 0 to 11 the same 200 samples took 7.8 s to 13.0 s.
ORACLE_SEED = 0

WORKLOADS = {
    "verify": [("verify", "D8xC2", 2), ("verify", "Q8xC2", 2),
               ("verify", "A5", 2), ("verify", "S5", 3)],
    "oracle": [("oracle-check", "A5", 2)],
}

# sha256 of each call's JSON report, which must not depend on the hash seed.
DIGESTS = {
    "verify D8xC2 p=2": "9f2b9c457544c0b435dd7f5463dd0bc6e1b1efcde38f89c15a669612372dbd41",
    "verify Q8xC2 p=2": "954501b09ddfffac46c8e9ad02145b0ea833bf54a29e515f5f6981f5a98e4851",
    "verify A5 p=2": "79d99edbd1fd6f0fed74975fa4a3291148d828d3ca37eb63a3fa8aea28c7e36e",
    "verify S5 p=3": "3c46809b638c4c2acd4707691200e965b39aba10eb57f85a55e31457fb2270fc",
    "oracle-check A5 p=2": "529492a9490dbd530bdd1b1a5acf70f621810102df9a5601a0c0b75fdcf52b20",
}


class Call:
    """One CLI invocation of a workload, with what its report must be."""

    def __init__(self, command: str, group: str, p: int):
        self.label = f"{command} {group} p={p}"
        self.group = group
        self.argv = [command, "--group", group, "--p", str(p), "--format", "json"]
        if command == "oracle-check":
            self.argv += ["--samples", str(ORACLE_SAMPLES), "--seed", str(ORACLE_SEED)]
        self.flag = "all_agree" if command == "oracle-check" else "all_ok"
        self.digest = DIGESTS[self.label]

    def gate(self, exit_code: int, report: bytes) -> str | None:
        """The failure kind of one finished call, or None if it passed."""
        if exit_code == 1:
            return "verification_failed"
        if exit_code == 2:
            return "usage_error"
        if exit_code != 0:
            return "crashed"
        try:
            flag = json.loads(report).get(self.flag)
        except ValueError:
            return "bad_report"
        if flag is not True:
            return "report_not_ok"
        if hashlib.sha256(report).hexdigest() != self.digest:
            return "digest_mismatch"
        return None


def calls(workload: str) -> list[Call]:
    return [Call(command, group, p) for command, group, p in WORKLOADS[workload]]


def child_env(root: str, seed: int) -> dict:
    """The environment of every child: the checkout's sources and the seed as
    hash seed, which reorders set and dict iteration inside the program.

    Other ``PYTHON*`` settings of the caller are dropped, so that, for
    example, ``PYTHONDONTWRITEBYTECODE`` cannot make every child compile the
    package again, as no installed copy would.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env
