"""Span tracer that wraps the program's public functions from outside.

`Tracer.install()` replaces each traced callable on every name a caller
looks it up by: the defining module, every `sumprobe` module that imported
it with `from ... import`, or the class for methods such as
`FallbackTokenizer.__call__`. Each call records a span
(id, parent, thread, name, start, end). Spans are kept in one list per
thread, so the `--jobs` worker threads of `generate` never share a list. A
span opened on a worker thread with nothing open on that thread takes the
main thread's innermost open span as its parent: the stage that started the
pool.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# (span name, module, attribute) for functions; the attribute is looked up
# on the module and the wrapper replaces every alias of that object.
FUNCTIONS = [
    ("cli.cmd_transform", "sumprobe.cli", "cmd_transform"),
    ("cli.cmd_generate", "sumprobe.cli", "cmd_generate"),
    ("cli.cmd_score", "sumprobe.cli", "cmd_score"),
    ("cli.cmd_analyze", "sumprobe.cli", "cmd_analyze"),
    ("corpus.load_corpus", "sumprobe.corpus", "load_corpus"),
    ("corpus.filter_corpus", "sumprobe.corpus", "filter_corpus"),
    ("corpus.save_run", "sumprobe.corpus", "save_run"),
    ("corpus.load_run", "sumprobe.corpus", "load_run"),
    ("pylex.lex", "sumprobe.pylex", "lex"),
    ("pylex.classify_roles", "sumprobe.pylex", "classify_roles"),
    ("transform.donor_assignment", "sumprobe.transform", "donor_assignment"),
    ("transform.apply_variant", "sumprobe.transform", "apply_variant"),
    ("llmgen.generate", "sumprobe.llmgen", "generate"),
    ("subtok.encode", "sumprobe.subtok", "encode"),
    ("subtok.code_subwords", "sumprobe.subtok", "code_subwords"),
    ("metrics.bleu4", "sumprobe.metrics", "bleu4"),
    ("metrics.p_copy", "sumprobe.metrics", "p_copy"),
    ("metrics.embed", "sumprobe.metrics", "embed"),
    ("metrics.bertscore", "sumprobe.metrics", "bertscore"),
    ("analysis.emit_report", "sumprobe.analysis", "emit_report"),
    ("analysis.attribute_copies", "sumprobe.analysis", "attribute_copies"),
    ("analysis.paired_vs_random", "sumprobe.analysis", "paired_vs_random"),
    ("analysis.bucketize", "sumprobe.analysis", "bucketize"),
    ("svgplot.grouped_bars", "sumprobe.svgplot", "grouped_bars"),
]

# (span name, module, class, method)
METHODS = [
    ("subtok.tokenize", "sumprobe.subtok", "FallbackTokenizer", "__call__"),
    ("subtok.tokenize", "sumprobe.subtok", "BpeTokenizer", "__call__"),
    ("llmgen.cache.get", "sumprobe.llmgen", "GenerationCache", "get"),
    ("llmgen.cache.put", "sumprobe.llmgen", "GenerationCache", "put"),
    ("llmgen.complete", "sumprobe.llmgen", "ChatCompletionsClient", "complete"),
    ("llmgen.complete", "sumprobe.llmgen", "EchoClient", "complete"),
    ("metrics.remote_embed", "sumprobe.metrics", "RemoteEmbeddingProvider", "embed"),
]


def _span_name(name: str, args: tuple) -> str:
    # apply_variant(ex, variant, donor=None): one span name per variant.
    if name == "transform.apply_variant":
        return f"{name}.{args[1].value}"
    return name


def _count_outcome(name: str, result) -> str | None:
    if name == "llmgen.cache.get":
        return "llmgen.cache.misses" if result is None else "llmgen.cache.hits"
    return None


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        # (thread ident, spans, outcome counts) per thread that made a
        # call; idents of finished pool threads are reused, so this is a
        # list, not a dict.
        self._threads: list[tuple[int, list, Counter]] = []
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            main = threading.current_thread() is threading.main_thread()
            state = (self._main_stack if main else [], [], Counter())
            with self._lock:
                self._threads.append((threading.get_ident(), state[1], state[2]))
            self._local.state = state
        return state

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack, spans, counts = tracer._thread_state()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None
            )
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, _span_name(name, args), start, end))
            outcome = _count_outcome(name, result)
            if outcome:
                counts[outcome] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sumprobe" or n.startswith("sumprobe."))]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, alias, original))
                        setattr(module, alias, wrapper)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> list[tuple]:
        """All spans as (id, parent, thread, name, start, end), by start."""
        out = []
        with self._lock:
            for ident, spans, _ in self._threads:
                out.extend((s[0], s[1], ident, s[2], s[3], s[4]) for s in spans)
        out.sort(key=lambda s: s[4])
        return out

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for _, _, counts in self._threads:
                total.update(counts)
        return total


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def aggregate(spans: list[tuple]) -> dict[str, float]:
    """Per span name: `.calls`, `.s` (total inside) and `.self_s` (the span
    minus the part of it its children cover, children on any thread)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls: Counter = Counter()
    out: dict[str, float] = defaultdict(float)
    for span_id, _, _, name, start, end in spans:
        calls[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += (end - start) - _covered(children.get(span_id, []), start, end)
    out.update(calls)
    return dict(out)
