#!/usr/bin/env python3
"""Generate random technology trees that satisfy the neighbour condition
and certify their worker-set matrices totally balanced."""

import argparse
import random

from balmatch.genrandom import random_neighbour_tree
from balmatch.matrices import is_totally_balanced
from balmatch.techtree import check_neighbour_condition, worker_set_matrix


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trees", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    verdicts = {"PASS": 0, "FAIL": 0, "INCONCLUSIVE": 0}
    for i in range(args.trees):
        t = random_neighbour_tree(rng)
        assert check_neighbour_condition(t).ok
        cert = is_totally_balanced(worker_set_matrix(t))
        verdicts[cert.verdict] += 1
        if cert.verdict != "PASS":
            print(f"tree {i}: {cert.verdict}")
            print(cert.render())
    print(f"{args.trees} trees: {verdicts}")
    if verdicts["FAIL"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
