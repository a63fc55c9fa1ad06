"""Few-shot prompting of a chat-style completion endpoint, with a
content-addressed response cache and a reference-echoing mock client.

`dispatch` sends each distinct request once, through the cache, and leaves
the sending, sorting and retrying of HTTP requests to `httpjson`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, ClassVar, Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable,
)

from .corpus import Example
from .errors import HarnessError
from .httpjson import (  # with the errors a RetryingClient raises
    EndpointError,
    JsonClient,
    MalformedResponseError,
    RateLimitedError,
    RetryPolicy,
    TransientEndpointError,
    retry_all,
)

log = logging.getLogger(__name__)

INSTRUCTION = (
    "Pretend that you are a programmer writing Python functions. For a given "
    "Python function you have to generate a short documentation describing "
    "what the function does."
)

DEFAULT_SHOT_COUNT = 10


class TargetInShotsError(HarnessError):
    pass


@dataclass(frozen=True)
class PromptSpec:
    instruction: str
    shots: tuple[tuple[str, str], ...]  # (code, description) pairs
    target_code: str

    def render(self) -> str:
        blocks = [self.instruction]
        for code, description in self.shots:
            blocks.append(f"Code:\n{code}\n\nDocumentation: {description}")
        blocks.append(f"Code:\n{self.target_code}\n\nDocumentation:")
        return "\n\n".join(blocks)


def build_prompt(ex: Example, shots: Sequence[tuple[str, str]]) -> PromptSpec:
    """Instruction, then the shot pairs, then the target snippet."""
    for code, _ in shots:
        if code == ex.code:
            raise TargetInShotsError(f"target {ex.id} appears among the shots")
    return PromptSpec(INSTRUCTION, tuple(shots), ex.code)


def select_shots(
    examples: Sequence[Example], count: int = DEFAULT_SHOT_COUNT, seed: int = 0
) -> list[tuple[str, str]]:
    """Seeded deterministic selection of shot pairs, in corpus order."""
    if count <= 0 or not examples:
        return []
    if len(examples) <= count:
        picked = range(len(examples))
    else:
        picked = sorted(random.Random(seed).sample(range(len(examples)), count))
    return [(examples[i].code, examples[i].reference) for i in picked]


@dataclass(frozen=True)
class GenRequest:
    model_id: str
    prompt: str
    temperature: float = 0.0
    max_tokens: int = 128
    example_id: str = ""  # routing metadata; not part of the cache key

    @property
    def cache_key(self) -> str:
        payload = json.dumps(
            {
                "model_id": self.model_id,
                "prompt": self.prompt,
                "temperature": self.temperature,
                "max_tokens": self.max_tokens,
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class GenResponse:
    text: str  # post-processed
    raw_text: str
    latency: float
    usage: dict = field(default_factory=dict)
    from_cache: bool = False


class CompletionClient(Protocol):
    def complete(self, req: GenRequest) -> tuple[str, float, dict]:
        """Return (raw text, latency seconds, usage dict)."""
        ...


@runtime_checkable
class RetryingClient(RetryPolicy, Protocol):
    """A client whose retry policy `dispatch` runs. `attempt` makes one
    request and raises TransientEndpointError when it is worth retrying."""

    def attempt(self, req: GenRequest) -> tuple[str, float, dict]:
        ...


@dataclass(eq=False)
class ChatCompletionsClient(JsonClient):
    """Chat-completions-style JSON over HTTP, single user message.

    `attempt` makes one request, which `dispatch` retries as
    `httpjson.retry_all` does (5 attempts by default). `complete` is an
    uncached `generate`, which is `dispatch` of one request. A reply of
    the wrong shape raises MalformedResponseError at once.
    """

    service: ClassVar[str] = "endpoint"

    def attempt(self, req: GenRequest) -> tuple[str, float, dict]:
        """One request; raises TransientEndpointError if it is worth retrying."""
        start = time.monotonic()
        payload = self.post(
            {
                "model": req.model_id,
                "messages": [{"role": "user", "content": req.prompt}],
                "temperature": req.temperature,
                "max_tokens": req.max_tokens,
            }
        )
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"unexpected response shape: {exc}") from exc
        if not isinstance(text, str):
            raise MalformedResponseError("response content is not a string")
        latency = time.monotonic() - start
        usage = payload.get("usage") or {}
        return text, latency, usage if isinstance(usage, dict) else {}

    def complete(self, req: GenRequest) -> tuple[str, float, dict]:
        resp = generate(req, self)
        return resp.raw_text, resp.latency, resp.usage


class EchoClient:
    """Mock client returning each example's reference description verbatim.

    Pins the pipeline's upper bound: downstream scores must be exactly 100.
    """

    def __init__(self, references: Mapping[str, str]) -> None:
        # Read at each request, so a caller may still add references.
        self.references = references

    def complete(self, req: GenRequest) -> tuple[str, float, dict]:
        try:
            return self.references[req.example_id], 0.0, {}
        except KeyError:
            raise EndpointError(
                f"echo client has no reference for example {req.example_id!r}"
            ) from None


class GenerationCache:
    """Directory of JSON files keyed by request hash.

    Entries are independent files, so a corrupt one only costs itself: it
    reads as a miss and is rewritten on the next fetch. Writes are
    serialized and land atomically; reads take no lock.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict | None:
        path = self._path(key)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(raw, dict) or "raw_text" not in raw:
            return None
        return raw

    def put(self, key: str, entry: dict) -> None:
        with self._write_lock:
            tmp = self._path(key).with_suffix(".tmp")
            tmp.write_text(json.dumps(entry, ensure_ascii=False), encoding="utf-8")
            os.replace(tmp, self._path(key))


def _drop_fenced_blocks(text: str, markers_only: bool = False) -> list[str]:
    lines = []
    inside = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside = not inside
            continue
        if inside and not markers_only:
            continue
        lines.append(line)
    return lines


def postprocess(text: str) -> str:
    """First paragraph of the response, with fenced code blocks dropped.

    A response that is nothing but one fenced block keeps its content
    (only the fence markers go).
    """
    lines = _drop_fenced_blocks(text)
    if not any(line.strip() for line in lines):
        lines = _drop_fenced_blocks(text, markers_only=True)
    paragraph: list[str] = []
    for line in lines:
        if line.strip():
            paragraph.append(line.strip())
        elif paragraph:
            break
    return " ".join(paragraph)


def _cached(req: GenRequest, cache: GenerationCache) -> GenResponse | None:
    entry = cache.get(req.cache_key)
    if entry is None:
        return None
    raw = entry["raw_text"]
    return GenResponse(
        text=postprocess(raw),
        raw_text=raw,
        latency=float(entry.get("latency", 0.0)),
        usage=entry.get("usage") or {},
        from_cache=True,
    )


def _store(
    req: GenRequest, cache: GenerationCache | None, raw: str, latency: float, usage: dict
) -> GenResponse:
    """Write the raw response to the cache, then post-process it."""
    if cache is not None:
        cache.put(
            req.cache_key,
            {
                "model_id": req.model_id,
                "example_id": req.example_id,
                "raw_text": raw,
                "latency": latency,
                "usage": usage,
            },
        )
    return GenResponse(text=postprocess(raw), raw_text=raw, latency=latency, usage=usage)


def dispatch(
    builds: Iterable[Callable[[], GenRequest]],
    client: CompletionClient | RetryingClient,
    cache: GenerationCache | None = None,
    jobs: int = 1,
) -> list[GenResponse | Exception]:
    """Generate every request with at most `jobs` in flight.

    Each item of `builds` makes its request when called. The iterable is
    read only as workers free up, and a build is called once to find its
    cache key, when there is a cache, and once more for each attempt, so
    only the requests in flight or waiting to be retried are held. Item i
    of the result is request i's GenResponse, or the HarnessError or
    OSError that failed it. With a cache, requests with equal cache keys
    share one lookup, one call and one write. The requests run through
    `httpjson.retry_all`: a RetryingClient's `attempt` is retried on
    TransientEndpointError by its own policy; a plain client's `complete`
    is called once.
    """
    if isinstance(client, RetryingClient):
        call, policy = client.attempt, client
    else:
        call, policy = client.complete, None
    slot: list[int] = []  # request i takes the result of distinct request slot[i]

    def attempt(build: Callable[[], GenRequest], attempts: int) -> GenResponse:
        # Built here, so that only the prompts in flight are held rendered.
        req = build()
        if attempts == 0 and cache is not None:
            hit = _cached(req, cache)
            if hit is not None:
                return hit
        raw, latency, usage = call(req)
        return _store(req, cache, raw, latency, usage)

    def distinct() -> Iterator[Callable[[int], GenResponse]]:
        first: dict[str, int] = {}
        for build in builds:
            if cache is None:
                slot.append(len(slot))
            else:
                n = len(first)
                slot.append(first.setdefault(build().cache_key, n))
                if slot[-1] != n:
                    continue
            yield functools.partial(attempt, build)

    results = retry_all(distinct(), policy, jobs)
    return [results[j] for j in slot]


def generate(
    req: GenRequest, client: CompletionClient, cache: GenerationCache | None = None
) -> GenResponse:
    """Serve from the cache when possible; otherwise call the client and
    store the raw response before returning."""
    (result,) = dispatch([lambda: req], client, cache)
    if isinstance(result, Exception):
        raise result
    return result
