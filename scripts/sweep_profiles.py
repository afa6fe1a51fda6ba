#!/usr/bin/env python3
"""Sample complementary firm profiles with balanced acceptable sets and
sweep every worker preference profile, confirming a stable matching each
time. A counterexample would falsify the balancedness sufficiency claim
(exit 1). "solved" counts the worker profiles that needed a full search:
the others were settled by a matching found earlier in the same sweep and
checked stable on them.
"""

import argparse
import random
import time

from balmatch.genrandom import random_complementary_balanced_profile
from balmatch.oracle import exists_for_all_worker_prefs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profiles", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-firms", type=int, default=4)
    parser.add_argument("--max-workers", type=int, default=5)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    start = time.perf_counter()
    swept = solved = 0
    for i in range(args.profiles):
        chains = random_complementary_balanced_profile(
            rng, max_firms=args.max_firms, max_workers=args.max_workers
        )
        workers = sorted({w for p in chains.values() for s in p.chain for w in s})
        result = exists_for_all_worker_prefs(chains, workers)
        swept += result.checked
        solved += result.solved
        if not result.ok:
            print("COUNTEREXAMPLE FOUND")
            for f, p in chains.items():
                print(f"  {f}: {[sorted(s) for s in p.chain]}")
            print(f"  worker preferences: {result.counterexample}")
            raise SystemExit(1)
        if (i + 1) % 10 == 0:
            print(f"{i + 1} profiles, {swept} preference profiles swept, {solved} solved")
    print(
        f"OK: {args.profiles} profiles / {swept} worker-preference "
        f"combinations, {solved} solved, in {time.perf_counter() - start:.1f}s, "
        "all admit a stable matching"
    )


if __name__ == "__main__":
    main()
