"""Span tracing around calls into treeprop's public functions.

`Tracer.install()` swaps each traced function for a wrapper in every
treeprop module namespace that binds it, so calls between modules (for
example `patterns.verify` -> `antichains.enumerate_antichains`) are seen
too; `remove()` puts the originals back. Coarse calls become spans (name,
start, end, parent) kept in memory; hot calls (oracle `consistent()`,
`qftypes.sim0`) are only counted and timed, and their time is charged to
the enclosing span so self times stay right.

Times come from the clock the Tracer is given, `HostClock.now`, so the host
reference sampler's time is left out of spans as it is out of jobs. A child
process (bench/child.py) records with a Tracer of its own and hands its
`export()` to the parent, which `merge()`s it.
"""

from __future__ import annotations

import sys
from collections import defaultdict

# span name -> (module, function). See layer_of for how spans group into the
# layers that busy() sums.
SPANS = {
    "patterns.exact_family": ("patterns", "exact_family"),
    "patterns.verify": ("patterns", "verify"),
    "synth.skolem": ("synth", "synth_skolem"),
    "synth.boolean": ("synth", "synth_boolean"),
    "antichains.enumerate_antichains": ("antichains", "enumerate_antichains"),
    "antichains.maximal_antichains": ("antichains", "maximal_antichains"),
    "antichains.maximal_chain_free_binary": ("antichains", "maximal_chain_free_binary"),
    "antichains.universal_prefix": ("antichains", "universal_prefix"),
    "antichains.find_iso_copy": ("antichains", "find_iso_copy"),
    "qftypes.ss_ll": ("qftypes", "verify_ss_ll"),
    "transforms.reduce_katp": ("transforms", "reduce_katp"),
    "transforms.fatten": ("transforms", "fatten"),
    "transforms.elongate": ("transforms", "elongate"),
    "transforms.build_onevar_scaffold": ("transforms", "build_onevar_scaffold"),
    "transforms.collapse_product": ("transforms", "collapse_product"),
    "transforms.collapse_extend": ("transforms", "collapse_extend"),
    "witnessio.dumps": ("witnessio", "dumps"),
    "witnessio.loads": ("witnessio", "loads"),
}

HOT = {"qftypes.sim0": ("qftypes", "sim0")}

# span name -> what to keep of a call's result (spans never hold results)
MEASURES = {
    "patterns.exact_family": lambda r: len(r.maximal),
    "patterns.verify": lambda r: (r.consistent_checked + r.inconsistent_checked, r.passed),
    "synth.skolem": lambda r: sum(v.bit_length() for v in r.params.values()),
    "synth.boolean": lambda r: sum(v.bit_length() for v in r.params.values()),
    "antichains.enumerate_antichains": len,
    "antichains.maximal_antichains": len,
    "antichains.maximal_chain_free_binary": len,
    "qftypes.ss_ll": lambda r: (r.tuple_count, r.pair_count),
    "transforms.reduce_katp": lambda r: len(r[1].probes),
    "witnessio.dumps": len,
}

ORACLE_KINDS = {"GcdOracle": "gcd", "BitsetOracle": "bitset", "FoOracle": "fo",
                "ConjunctionOracle": "conj"}


def layer_of(name: str) -> str:
    """antichains and transforms are summed per module; the other spans are
    each a layer of their own."""
    if name.startswith(("patterns.", "qftypes.", "synth.", "witnessio.")):
        return name
    return name.split(".")[0]


class OracleProxy:
    """Forwards consistent() to the real oracle, counting and timing calls."""

    __slots__ = ("_real", "_stat", "_tracer")

    def __init__(self, real, tracer: "Tracer"):
        self._real = real
        self._tracer = tracer
        self._stat = tracer.hot["oracles." + ORACLE_KINDS[type(real).__name__]]

    def consistent(self, labels) -> bool:
        now = self._tracer.now
        start = now()
        result = self._real.consistent(labels)
        self._tracer.charge(self._stat, now() - start)
        return result


class Tracer:
    def __init__(self, now):
        self.now = now  # the clock spans are timed with
        # [name, start, end, parent, child_s, measure of the result, or the
        # exception's class name when the call raised]
        self.spans = []
        self.hot = defaultdict(lambda: [0, 0.0])  # name -> [calls, busy_s]
        self._stack = []
        self._saved = []
        self.active = False

    # --- recording ---

    def charge(self, stat, seconds: float) -> None:
        stat[0] += 1
        stat[1] += seconds
        if self._stack:
            self.spans[self._stack[-1]][4] += seconds

    def _span_wrapper(self, name, fn):
        spans, stack, now = self.spans, self._stack, self.now
        measure = MEASURES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append([name, now(), None, parent, 0.0, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[idx][5] = type(exc).__name__
                raise
            else:
                if measure is not None:
                    spans[idx][5] = measure(result)
                return result
            finally:
                stack.pop()
                rec = spans[idx]
                rec[2] = now()
                if parent is not None:
                    spans[parent][4] += rec[2] - rec[1]

        return traced

    def _hot_wrapper(self, name, fn):
        stat = self.hot[name]
        charge, now = self.charge, self.now

        def traced(*args, **kwargs):
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                charge(stat, now() - start)

        return traced

    def oracle(self, real):
        """The oracle to hand to treeprop: a timing proxy while tracing."""
        return OracleProxy(real, self) if self.active else real

    # --- patching ---

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "treeprop" or n.startswith("treeprop."))]
        for table, make in ((SPANS, self._span_wrapper), (HOT, self._hot_wrapper)):
            for name, (mod, attr) in table.items():
                original = getattr(sys.modules["treeprop." + mod], attr)
                wrapper = make(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, key, original))
                            setattr(module, key, wrapper)
        self.active = True

    def remove(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()
        self.active = False

    # --- child processes ---

    def export(self) -> dict:
        """Everything recorded, as JSON for the parent process."""
        return {"spans": self.spans, "hot": dict(self.hot)}

    def merge(self, data: dict) -> None:
        """Add what a child process's Tracer recorded (its export())."""
        base = len(self.spans)
        for name, start, end, parent, child_s, measure in data["spans"]:
            self.spans.append([name, start, end, None if parent is None else base + parent,
                               child_s, measure])
        for name, (calls, busy) in data["hot"].items():
            stat = self.hot[name]
            stat[0] += calls
            stat[1] += busy

    # --- summaries ---

    def busy(self, layer: str) -> float:
        """Time in spans of the layer that are not nested in a span of the
        same layer."""
        total = 0.0
        for name, start, end, parent, _, _ in self.spans:
            if layer_of(name) != layer:
                continue
            p = parent
            while p is not None and layer_of(self.spans[p][0]) != layer:
                p = self.spans[p][3]
            if p is None:
                total += end - start
        return total

    def self_time(self, name: str) -> float:
        return sum(end - start - child for n, start, end, _, child, _ in self.spans
                   if n == name)

    def measures(self, name: str) -> list:
        """What MEASURES kept of each call's result, or the class name of the
        exception a call raised."""
        return [s[5] for s in self.spans if s[0] == name]

    def dump(self) -> dict:
        return {
            "spans": [[n, round(s, 9), round(e, 9), p] for n, s, e, p, _, _ in self.spans],
            "hot": {k: {"calls": c, "busy_s": b} for k, (c, b) in self.hot.items()},
        }
