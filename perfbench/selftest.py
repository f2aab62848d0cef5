"""Oracle self-test: a wrong expectation must show up as a wrong verdict.

Usage, from the repository root:
    python3 perfbench/selftest.py

Runs one qm2-fail sample as is, then one sample per step with that
step's expectation inverted (a pass read as a fail, a fail as a pass, a
refusal as a different exception).  The first must give error_share 0,
every other must give error_share > 0.  Exits 1 otherwise.
"""

import sys

from run import sample

WORKLOAD, SEED = "qm2-fail", 0


def error_share(result):
    steps = result["steps"]
    return sum(1 for s in steps if s["mismatch"]) / len(steps)


def main():
    ok = True
    base = sample(WORKLOAD, SEED)[0]
    print(f"as recorded: error_share {error_share(base):.2f}")
    ok &= error_share(base) == 0
    for n, step in enumerate(base["steps"]):
        share = error_share(sample(WORKLOAD, SEED, "--flip", str(n))[0])
        print(f"flipped {step['label']}: error_share {share:.2f}")
        ok &= share > 0
    print("oracle self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
