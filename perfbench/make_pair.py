"""Regenerate the pinned certificate-policy pair (pair.json) from PAIR_SEED.

    python3 perfbench/make_pair.py

Runs the train-pgd workload's loop (clbf's total_loss_grads with method pgd
plus Adam) for PAIR_STEPS steps from the seeded init and writes both nets
with repr-exact floats. The verify workloads read the stored file, so later
changes to the training code do not move their inputs; run this only to
change the pinned pair on purpose.
"""

from __future__ import annotations

import sys

import run  # imports only the standard library, so BLAS is pinned before numpy

run.pin_blas()  # the stored pair is reproduced bit for bit at this thread count
sys.path.insert(0, str(run.ROOT / "src"))

import synth  # noqa: E402
import workloads  # noqa: E402


def main():
    state = workloads.setup("train-pgd", synth.PAIR_SEED)
    state.steps = synth.PAIR_STEPS
    result = workloads.run_op(state)
    problems = workloads.check(state, result)
    if problems:
        raise SystemExit("pair training failed: " + "; ".join(problems))
    info = {"train_epsilon": synth.TRAIN_EPSILON, "final_loss": result.losses[-1]}
    synth.save_pair(result.policy, result.cert.net, info)
    print(f"wrote {synth.PAIR_PATH}: {info}")


if __name__ == "__main__":
    main()
