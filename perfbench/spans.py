"""Per-layer tracing from outside the program.

``Tracer.wrap()`` replaces every public function of the layer modules with a
wrapper that records a span: name, start, end, parent span and counters.
Calls between modules (``spectral.lambda2``) and bare-name calls inside a
module both resolve through module globals, so the wrappers also see internal
calls. Names bound with ``from ... import`` escape them (in ``regimes``: the
dataclasses and ``codes.distance_threshold``).

Spans stay in memory; ``write_jsonl`` writes them once the body has ended.
The benchmark calls the program with ``threads=1``, so one span stack is
enough.
"""
from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

def _full_spectrum(a, k, out):
    n = (a[0] if a else k["G"]).n
    return {"n_max": n, "n3_sum": n**3}


def _exact_max_packing(a, k, out):
    colorings = out[1].provenance.get("colorings", 0)
    return {"pairs": colorings * (colorings - 1) // 2}


# counters recorded on a span from the call's arguments and result
COUNTERS = {
    "spectral.full_spectrum": _full_spectrum,
    "colorings.enumerate_proper": lambda a, k, out: {"colorings": len(out)},
    "codes.exact_max_packing": _exact_max_packing,
    "codes.greedy_pack": lambda a, k, out: {
        "draws": out.provenance["draws_used"], "kept": len(out)
    },
}


class Patcher:
    """Replaces module attributes and puts the original objects back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module, name: str, replacement) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def restore(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


def public_functions(module):
    """(name, function) for each public function defined in ``module``."""
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


def capture(patcher: Patcher, modules, captured, found: dict[str, list]) -> None:
    """Record what each call of a function named in ``captured`` yields.

    ``captured`` maps ``layer.function`` to ``extract(args, kwargs, result)``;
    ``found[name]`` receives one extract per call, in call order.
    """
    by_layer = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for name, extract in captured.items():
        layer, func = name.split(".")
        module = by_layer[layer]
        found[name] = []
        patcher.patch(module, func, _capturing(getattr(module, func), extract, found[name]))


def _capturing(fn, extract, into: list):
    @functools.wraps(fn)  # keeps __module__, so the tracer still wraps it
    def wrapper(*a, **k):
        out = fn(*a, **k)
        into.append(extract(a, k, out))
        return out

    return wrapper


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # span: [name, start, end, parent index or -1, counters or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patcher = Patcher()

    def wrap(self, modules) -> None:
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, fn in public_functions(module):
                self._patcher.patch(module, name, self._wrapper(f"{layer}.{name}", fn))

    def unwrap(self) -> None:
        self._patcher.restore()

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrapper(self, name: str, fn):
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            # one span per resume, so time spent by the consumer between
            # items is not charged to the generator
            def gen_wrapper(*a, **k):
                it = fn(*a, **k)
                while True:
                    span = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    span[4] = {"points": 1}
                    yield item

            return gen_wrapper

        def wrapper(*a, **k):
            span = self._open(name)
            try:
                out = fn(*a, **k)
            finally:
                self._close(span)
            if counter is not None:
                span[4] = counter(a, k, out)
            return out

        return wrapper

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per function: calls, incl_s, self_s and summed counters (``*_max``: max)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, counters) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += end - start
            agg["self_s"] += end - start - child[i]
            for key, value in (counters or {}).items():
                if key.endswith("_max"):
                    agg[key] = max(agg.get(key, value), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        for agg in out.values():
            if "draws" in agg:
                agg["accept_ratio"] = agg["kept"] / agg["draws"] if agg["draws"] else 0.0
        return out

    def self_total(self) -> float:
        """Sum of all self times, which equals the time of the top-level spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, counters) in enumerate(self.spans):
                rec = {"run": self.run_id, "id": i, "name": name, "start": start,
                       "end": end, "parent": parent if parent >= 0 else None}
                if counters:
                    rec.update(counters)
                fh.write(json.dumps(rec) + "\n")
