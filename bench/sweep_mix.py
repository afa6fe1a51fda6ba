#!/usr/bin/env python3
"""Measure the sweep workload's mix: how often the profile generator draws
each size of worker-preference space.

    python3 bench/sweep_mix.py [--draws 20000]

Draws profiles the way the sweep workload does, from a fixed seed, counts
each space size (the profiles an exhaustive sweep visits) and prints the
counts as the SWEEP_SPACES table of workloads.py, with the share of the
draws that a pass of SWEEP_ITEMS keeps.
"""

from __future__ import annotations

import argparse
import collections
import random

import model
import run

MIX_SEED = 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--draws", type=int, default=20_000)
    args = parser.parse_args()
    run.import_balmatch()
    from balmatch.genrandom import random_complementary_balanced_profile

    import workloads

    rng = random.Random(MIX_SEED)
    counts = collections.Counter()
    for _ in range(args.draws):
        chains = random_complementary_balanced_profile(rng, **workloads.SWEEP_PROFILE)
        workers = sorted({w for p in chains.values() for s in p.chain for w in s})
        counts[model.profile_space({f: p.chain for f, p in chains.items()}, workers)] += 1

    entries = [f"{space}: {counts[space]}," for space in sorted(counts)]
    print("SWEEP_SPACES = {")
    for i in range(0, len(entries), 8):
        print("    " + " ".join(entries[i:i + 8]))
    print("}")
    workloads.SWEEP_SPACES = counts
    quota = workloads.sweep_quotas(workloads.SWEEP_ITEMS)
    kept = sum(counts[v] for v in quota) / args.draws
    print(f"# a pass of {workloads.SWEEP_ITEMS} keeps {len(quota)} of {len(counts)} sizes, "
          f"{kept:.2%} of the draws")


if __name__ == "__main__":
    main()
