"""Few-shot prompting of a chat-style completion endpoint, with a
content-addressed response cache and a reference-echoing mock client.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

from .corpus import Example
from .errors import HarnessError
from .httpjson import post_json

log = logging.getLogger(__name__)

INSTRUCTION = (
    "Pretend that you are a programmer writing Python functions. For a given "
    "Python function you have to generate a short documentation describing "
    "what the function does."
)

DEFAULT_SHOT_COUNT = 10


class TargetInShotsError(HarnessError):
    pass


class EndpointError(HarnessError):
    pass


class MalformedResponseError(HarnessError):
    pass


class RequestRejectedError(EndpointError):
    """The endpoint refused the request (a 4xx other than 429)."""


class TransientEndpointError(EndpointError):
    """One attempt failed in a way worth retrying: a connection error, a
    timeout, 429 or 5xx."""


class RateLimitedError(TransientEndpointError):
    """The endpoint answered 429: no request should go out until the
    backoff has passed."""


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
class RetryingClient(Protocol):
    """A client whose retry policy `dispatch` runs. `attempt` makes one
    request and raises TransientEndpointError when it is worth retrying;
    a request gets at most `max_retries` attempts, and waits
    `retry_delay(n)` seconds after failed attempt n (from 0)."""

    max_retries: int

    def attempt(self, req: GenRequest) -> tuple[str, float, dict]:
        ...

    def retry_delay(self, attempt: int) -> float:
        ...


class ChatCompletionsClient:
    """Chat-completions-style JSON over HTTP, single user message.

    `attempt` makes one request. Transient failures (connection errors,
    5xx, 429) are retried with exponential backoff (`retry_delay`) by
    `dispatch`; after `max_retries` attempts an EndpointError is raised.
    `complete` is an uncached `generate`, which is `dispatch` of one
    request. Other HTTP errors and an untrusted TLS certificate
    (RequestRejectedError), and replies that are not JSON or are JSON of
    the wrong shape (MalformedResponseError), fail immediately.
    """

    def __init__(
        self,
        url: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 5,
        backoff: float = 0.5,
    ) -> None:
        self.url = url
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    def retry_delay(self, attempt: int) -> float:
        """Seconds to wait after the failure of attempt `attempt` (from 0)."""
        return self.backoff * 2**attempt

    def attempt(self, req: GenRequest) -> tuple[str, float, dict]:
        """One request; raises TransientEndpointError if it is worth retrying."""
        start = time.monotonic()
        payload = post_json(
            self.url,
            {
                "model": req.model_id,
                "messages": [{"role": "user", "content": req.prompt}],
                "temperature": req.temperature,
                "max_tokens": req.max_tokens,
            },
            api_key=self.api_key,
            timeout=self.timeout,
            service="endpoint",
            transient=TransientEndpointError,
            throttled=RateLimitedError,
            rejected=RequestRejectedError,
            malformed=MalformedResponseError,
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


class _Dispatch:
    """State of one `dispatch` call, shared by its workers under `cond`.

    `fresh` yields (index, build) for the requests not yet started, in
    order; `taken` maps each started, unfinished index to its build; `due`
    is a heap of (due time, index, attempts made) for retries. A worker
    takes a retry whose delay has passed first, then a fresh request, so a
    backoff never keeps a worker from a ready request. After a 429 no
    request starts before `resume_at`.
    """

    def __init__(
        self,
        builds: Iterable[Callable[[], GenRequest]],
        client: CompletionClient | RetryingClient,
        cache: GenerationCache | None,
    ) -> None:
        self.cache = cache
        if isinstance(client, RetryingClient):
            self.call = client.attempt
            self.max_retries = client.max_retries
            self.retry_delay = client.retry_delay
        else:
            # A plain client retries inside `complete`, if at all.
            self.call, self.max_retries = client.complete, 1
            self.retry_delay = lambda attempt: 0.0
        self.cond = threading.Condition()
        self.fresh: Iterator[tuple[int, Callable[[], GenRequest]]] | None = enumerate(builds)
        self.taken: dict[int, Callable[[], GenRequest]] = {}
        self.due: list[tuple[float, int, int]] = []
        self.resume_at = 0.0
        self.results: dict[int, GenResponse | Exception] = {}
        self.crash: BaseException | None = None

    def _next(self) -> tuple[int, Callable[[], GenRequest], int] | None:
        """(index, build, attempts made) of the next request, or None when
        done. Called with `cond` held."""
        while self.crash is None:
            now = time.monotonic()
            if now < self.resume_at:
                self.cond.wait(self.resume_at - now)
            elif self.due and self.due[0][0] <= now:
                _, i, attempts = heapq.heappop(self.due)
                return i, self.taken[i], attempts
            elif self.fresh is not None:
                item = next(self.fresh, None)
                if item is None:
                    self.fresh = None
                else:
                    i, build = item
                    self.taken[i] = build
                    return i, build, 0
            elif not self.taken:
                return None
            elif self.due:
                self.cond.wait(self.due[0][0] - now)
            else:
                # The rest are in flight on other workers.
                self.cond.wait()
        return None

    def _run(self, build: Callable[[], GenRequest], attempts: int) -> GenResponse:
        # Built here, so that only the prompts in flight are held rendered.
        req = build()
        if attempts == 0 and self.cache is not None:
            hit = _cached(req, self.cache)
            if hit is not None:
                return hit
        raw, latency, usage = self.call(req)
        return _store(req, self.cache, raw, latency, usage)

    def stop(self, exc: BaseException) -> None:
        with self.cond:
            self.crash = self.crash or exc
            self.cond.notify_all()

    def work(self) -> None:
        while True:
            try:
                with self.cond:
                    job = self._next()
            except BaseException as exc:
                # Raised by the `builds` iterable (or an interrupt).
                self.stop(exc)
                return
            if job is None:
                return
            i, build, attempts = job
            retry_at = pause_until = None
            try:
                result: GenResponse | Exception = self._run(build, attempts)
            except TransientEndpointError as exc:
                wake = time.monotonic() + self.retry_delay(attempts)
                if isinstance(exc, RateLimitedError):
                    pause_until = wake
                if attempts + 1 < self.max_retries:
                    retry_at = wake
                else:
                    result = EndpointError(
                        f"endpoint unavailable after {self.max_retries} attempts: {exc}"
                    )
            except (HarnessError, OSError) as exc:
                # An OSError (say, from a cache write) costs only its
                # request, like an endpoint failure.
                result = exc
            except BaseException as exc:
                self.stop(exc)
                return
            with self.cond:
                if pause_until is not None:
                    self.resume_at = max(self.resume_at, pause_until)
                if retry_at is not None:
                    heapq.heappush(self.due, (retry_at, i, attempts + 1))
                else:
                    self.results[i] = result
                    del self.taken[i]
                if retry_at is not None or (self.fresh is None and not self.taken):
                    self.cond.notify_all()


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
    OSError that failed it. The requests wait in one queue served by `jobs`
    worker threads; at one job the calling thread serves it, with no thread
    started. With a cache, requests with equal cache keys share one lookup,
    one call and one write. A RetryingClient is retried on
    TransientEndpointError up to its `max_retries` attempts; each retry
    waits its `retry_delay` on a due-time heap, not on a worker. After a
    RateLimitedError (429) no request starts until that delay has passed.
    """
    slot: list[int] = []  # request i takes the result of distinct request slot[i]

    def distinct() -> Iterator[Callable[[], GenRequest]]:
        first: dict[str, int] = {}
        for build in builds:
            if cache is None:
                slot.append(len(slot))
                yield build
                continue
            n = len(first)
            slot.append(first.setdefault(build().cache_key, n))
            if slot[-1] == n:
                yield build

    state = _Dispatch(distinct(), client, cache)
    if jobs <= 1:
        state.work()
    else:
        threads = [
            threading.Thread(target=state.work, name=f"generate-{k}", daemon=True)
            for k in range(jobs)
        ]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        except BaseException as exc:
            # Interrupted: let the workers finish their current request.
            state.stop(exc)
            raise
    if state.crash is not None:
        raise state.crash
    return [state.results[j] for j in slot]


def generate(
    req: GenRequest, client: CompletionClient, cache: GenerationCache | None = None
) -> GenResponse:
    """Serve from the cache when possible; otherwise call the client and
    store the raw response before returning."""
    (result,) = dispatch([lambda: req], client, cache)
    if isinstance(result, Exception):
        raise result
    return result
