"""Few-shot prompting of a chat-style completion endpoint, with a
content-addressed response cache and a reference-echoing mock client.

`dispatch` sends each distinct request once, through the cache, and leaves
the sending, sorting and retrying of HTTP requests to `httpjson`. A cache
entry is written by `GenerationCache.put` and read back, as a
`GenResponse`, by `GenerationCache.get` alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, ClassVar, Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable,
)

from .corpus import Example, write_text
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
    """Instruction, then the shot pairs, then the target snippet. A shot
    whose code is the target's is left out: a target is never its own shot."""
    return PromptSpec(INSTRUCTION, tuple(s for s in shots if s[0] != ex.code), ex.code)


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
    raw_text: str
    latency: float
    usage: dict = field(default_factory=dict)
    from_cache: bool = False

    @property
    def text(self) -> str:
        """The reply post-processed, as a chat model's record stores it."""
        return postprocess(self.raw_text)


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
    """Directory of JSON files keyed by request hash, one response each.

    `put` writes an entry and `get` reads it back; no other code knows
    its format. Entries are independent files, so a corrupt one only costs
    itself: it reads as a miss and is rewritten on the next fetch. Writes
    are serialized and land atomically. Gets happen as `dispatch` reads
    the requests, under its queue's lock: a get takes some tens of
    microseconds, mostly holding the GIL anyway, so the lock costs the
    workers little.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> GenResponse | None:
        """The response stored under `key`, marked `from_cache`, or None
        unless its entry is usable: a `raw_text` string, a finite `latency`
        number (default 0.0) and a `usage` dict (default empty)."""
        try:
            entry = json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):  # unreadable, not UTF-8 or not JSON
            return None
        if not isinstance(entry, dict) or not isinstance(entry.get("raw_text"), str):
            return None
        latency, usage = entry.get("latency", 0.0), entry.get("usage", {})
        if (type(latency) not in (int, float) or not math.isfinite(latency)
                or not isinstance(usage, dict)):
            return None
        return GenResponse(entry["raw_text"], latency, usage, from_cache=True)

    def put(self, key: str, req: GenRequest, resp: GenResponse) -> None:
        """Store `resp`, the raw reply to `req`, under `key`."""
        entry = {"model_id": req.model_id, "example_id": req.example_id,
                 "raw_text": resp.raw_text, "latency": resp.latency, "usage": resp.usage}
        with self._write_lock:
            write_text(self._path(key), json.dumps(entry, ensure_ascii=False))


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


def dispatch(
    requests: Iterable[GenRequest],
    client: CompletionClient | RetryingClient,
    cache: GenerationCache | None = None,
    jobs: int = 1,
) -> list[GenResponse | Exception]:
    """Generate every request with at most `jobs` in flight.

    `requests` is read only as workers free up, so only the requests in
    flight or waiting to be retried are held. With a cache, each request's
    cache key is computed once, when it is read, and requests with equal
    keys share one lookup, one call and one write. The lookup happens as
    the request is read, under the queue's lock, on whichever thread reads
    it, and a hit is answered there: only misses go to the workers, each of
    which writes the entries of its own calls, so a run that the cache
    answers whole starts no worker thread. Item i of the result is request
    i's GenResponse, or the HarnessError or OSError that failed it. The
    calls run through `httpjson.retry_all`: a RetryingClient's `attempt` is
    retried on TransientEndpointError by its own policy; a plain client's
    `complete` is called once.
    """
    if isinstance(client, RetryingClient):
        call, policy = client.attempt, client
    else:
        call, policy = client.complete, None

    def fetch(req: GenRequest, attempts: int) -> GenResponse:
        return GenResponse(*call(req))

    if cache is None:
        return retry_all((functools.partial(fetch, req) for req in requests), policy, jobs)

    def fetch_and_store(req: GenRequest, key: str, attempts: int) -> GenResponse:
        resp = GenResponse(*call(req))
        cache.put(key, req, resp)
        return resp

    slot: list[int] = []  # request i takes distinct response slot[i]
    found: list[GenResponse | None] = []  # distinct response j, if the cache held it

    def misses() -> Iterator[Callable[[int], GenResponse]]:
        first: dict[str, int] = {}
        for req in requests:
            key = req.cache_key
            n = len(first)
            slot.append(first.setdefault(key, n))
            if slot[-1] == n:
                found.append(cache.get(key))
                if found[-1] is None:
                    yield functools.partial(fetch_and_store, req, key)

    fetched = iter(retry_all(misses(), policy, jobs))
    responses = [next(fetched) if hit is None else hit for hit in found]
    return [responses[j] for j in slot]


def generate(
    req: GenRequest, client: CompletionClient, cache: GenerationCache | None = None
) -> GenResponse:
    """Serve from the cache when possible; otherwise call the client and
    store the raw response before returning."""
    (result,) = dispatch([req], client, cache)
    if isinstance(result, Exception):
        raise result
    return result
