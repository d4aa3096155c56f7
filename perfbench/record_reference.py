"""Record the ``train_paper`` reference: epoch losses and HR/NDCG@5/10
of one round for each seed, which later runs must match within
``train_paper.LOSS_TOL`` and ``METRIC_TOL_FLIPS``.

    python3 perfbench/record_reference.py --seeds 0-63

Re-record only when a change to the program is meant to change what
training computes, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    env.pin_blas_threads()      # before anything imports numpy
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    args = parser.parse_args(argv)
    env.add_source_path()
    env.check_blas_threads()
    import train_paper

    size = train_paper.FULL
    seeds = {}
    for seed in parse_seeds(args.seeds):
        inputs = train_paper.setup(seed, size)
        result = train_paper.train_round(inputs, seed, size)
        seeds[str(seed)] = {"epoch_losses": result["epoch_losses"], "metrics": result["metrics"]}
        print(seed, seeds[str(seed)], flush=True)
    fp = env.fingerprint("train_paper", -1, False)
    train_paper.REFERENCE_PATH.write_text(json.dumps({
        "recorded_with": {k: fp[k] for k in ("numpy", "scipy", "blas_vendor", "blas_threads",
                                             "source_digest", "git_commit")},
        "size": vars(size),
        "seeds": seeds,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
