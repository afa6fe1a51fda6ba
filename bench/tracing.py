"""Per-layer tracing from the benchmark's own files.

``Tracer.install`` wraps each public balmatch function named in LAYERS and
rebinds the wrapper in every balmatch module that holds the original, so
calls between modules are seen too; ``uninstall`` restores the originals.
Spans are kept in memory as (name, start, end, parent span, item id); a
span's self time is its duration minus its child spans and hot leaves.
Hot leaves are called too often to keep spans for: they keep only counts
and total and self time.
"""

from __future__ import annotations

import sys
from time import perf_counter

LAYERS = {
    "market": ("is_stable", "choose", "acceptable_sets"),
    "prefs": (
        "is_complementary", "complementarity_graph", "primitive_acceptable_sets",
        "is_additive", "decompose_by_sets", "decompose_by_components",
    ),
    "matrices": (
        "is_balanced", "is_totally_balanced", "is_totally_unimodular",
        "integer_determinant", "matrix_of_sets",
    ),
    "hypergraphs": ("check_hypergraph_balanced",),
    "fractional": (
        "verify_fractional_stability", "build_constraint_system",
        "extract_integral_solution", "reduced_balance_check",
    ),
    "techtree": ("check_neighbour_condition", "find_neighbour_ordering", "worker_set_matrix"),
    "oracle": ("exists_for_all_worker_prefs",),
    "solve": ("solve", "market_certificates"),
    "formats": ("parse_market", "parse_tree", "parse_fractional"),
    "cli": ("build_parser", "main"),
}
HOT_LEAVES = {"market.is_stable", "market.choose", "market.acceptable_sets", "matrices.integer_determinant"}


def _outcome(name: str, result) -> int:
    """What a call achieved, summed per function: stable outcomes,
    INCONCLUSIVE verdicts, or worker-preference profiles swept."""
    if name == "market.is_stable":
        return int(result)
    if name == "oracle.exists_for_all_worker_prefs":
        return result.checked
    return int(getattr(result, "verdict", None) == "INCONCLUSIVE")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent span index, item id)
        self.leaf_time = {}  # span index -> time of hot leaves called directly from it
        self.leaves = {}  # name -> [calls, total s, self s]
        self.outcomes = {}  # name -> summed _outcome
        self.item = None
        self._stack = []  # open frames: [span index or None, child time]
        self._bound = []  # (module, attribute, original)

    def install(self):
        mods = [m for k, m in sorted(sys.modules.items()) if k == "balmatch" or k.startswith("balmatch.")]
        for layer, names in LAYERS.items():
            home = sys.modules["balmatch." + layer]
            for fn in names:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._bound.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._bound):
            setattr(mod, attr, orig)
        self._bound.clear()

    def _wrap(self, name, fn):
        stack, spans = self._stack, self.spans
        if name in HOT_LEAVES:
            stats = self.leaves.setdefault(name, [0, 0.0, 0.0])

            def leaf(*args, **kwargs):
                frame = [None, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - start
                    stack.pop()
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur - frame[1]
                    if stack:
                        parent = stack[-1]
                        parent[1] += dur
                        if parent[0] is not None:
                            self.leaf_time[parent[0]] = self.leaf_time.get(parent[0], 0.0) + dur
                self.outcomes[name] = self.outcomes.get(name, 0) + _outcome(name, result)
                return result

            return leaf

        def span(*args, **kwargs):
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, start, end, parent, self.item)
            self.outcomes[name] = self.outcomes.get(name, 0) + _outcome(name, result)
            return result

        return span

    def layer_times(self) -> dict:
        """name -> [calls, total s, self s], spans and hot leaves alike."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {k: list(v) for k, v in self.leaves.items()}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i] - self.leaf_time.get(i, 0.0)
        return out
