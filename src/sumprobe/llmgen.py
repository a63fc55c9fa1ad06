"""Few-shot prompting of a chat-style completion endpoint, with a
content-addressed response cache and a reference-echoing mock client.

`dispatch` sends each distinct request once, through the cache, and leaves
the sending, sorting and retrying of HTTP requests to `httpjson`. The
cache is one append-only file, read once when it is opened: a cache entry
is appended by `GenerationCache.put` and read back, as a `GenResponse`, by
`GenerationCache.get` alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, ClassVar, Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable,
)

from .corpus import CorpusError, Example, write_text
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

_KEY = re.compile("[0-9a-f]{64}")  # a cache key, GenRequest.cache_key


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
    """Responses keyed by request hash, in one append-only file,
    `<directory>/entries.log`.

    `put` writes an entry and `get` reads it back; no other code knows
    the format. Each line is a 64-hex key, a tab and the entry's JSON. The
    file is read once, when the cache is opened, and the last line of a
    key wins. A line that is not a key, a tab and UTF-8 text is skipped,
    and an entry that is not usable reads as a miss, so it is fetched again
    and its new line wins: a corrupt or torn line only costs itself. A put
    appends one line, with one write, under a lock; an append after a torn
    line starts on a new line. Gets happen as `dispatch` reads the
    requests, under its queue's lock: a get is a dict lookup and the parse
    of one entry, which holds the GIL anyway, so the lock costs the
    workers little.

    A directory that has no `entries.log` yet but holds the one-file-per-
    entry cache that came before it (`<key>.json`) is imported once, in
    name order; no such file is read again.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "entries.log"
        if not self.path.exists():
            self._import_entry_files()
        self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            data = b"".join(iter(functools.partial(os.read, self._fd, 1 << 20), b""))
        except OSError:
            self.close()
            raise
        self._entries: dict[str, str] = {}  # key -> entry JSON, parsed by `get`
        # Split at "\n" alone: U+2028, U+2029 and U+0085 stay unescaped in
        # the JSON, and `bytes.split` leaves them inside their line.
        for line in data.split(b"\n"):
            key, tab, text = line.partition(b"\t")
            try:
                key, text = key.decode("ascii"), text.decode("utf-8")
            except UnicodeDecodeError:
                continue
            if tab and _KEY.fullmatch(key):
                self._entries[key] = text
        self._torn = bool(data) and not data.endswith(b"\n")  # the last line is cut
        self._write_lock = threading.Lock()

    def _import_entry_files(self) -> None:
        lines = []
        for path in sorted(self.directory.glob("*.json")):
            if _KEY.fullmatch(path.stem):
                try:
                    text = path.read_bytes().decode("utf-8")
                except (OSError, UnicodeDecodeError):
                    continue
                # JSON holds a raw newline only between tokens.
                text = text.replace("\n", " ")
                lines.append(f"{path.stem}\t{text}\n")
        if lines:
            write_text(self.path, "".join(lines))

    def close(self) -> None:
        os.close(self._fd)

    def __enter__(self) -> "GenerationCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def get(self, key: str) -> GenResponse | None:
        """The response stored under `key`, marked `from_cache`, or None
        unless its entry is usable: a `raw_text` string, a finite `latency`
        number (default 0.0) and a `usage` dict (default empty)."""
        text = self._entries.get(key)
        if text is None:
            return None
        try:
            entry = json.loads(text)
        except ValueError:
            return None
        if not isinstance(entry, dict) or not isinstance(entry.get("raw_text"), str):
            return None
        latency, usage = entry.get("latency", 0.0), entry.get("usage", {})
        if (type(latency) not in (int, float) or not math.isfinite(latency)
                or not isinstance(usage, dict)):
            return None
        return GenResponse(entry["raw_text"], latency, usage, from_cache=True)

    def put(self, key: str, req: GenRequest, resp: GenResponse) -> None:
        """Store `resp`, the raw reply to `req`, under `key`. An OSError, or
        a reply that UTF-8 cannot encode (a lone surrogate), raises the
        one-line CorpusError `cannot write file <path>`."""
        entry = {"model_id": req.model_id, "example_id": req.example_id,
                 "raw_text": resp.raw_text, "latency": resp.latency, "usage": resp.usage}
        text = json.dumps(entry, ensure_ascii=False)
        try:
            line = f"{key}\t{text}\n".encode("utf-8")
            with self._write_lock:
                if self._torn:
                    line = b"\n" + line
                self._torn = True  # until the whole line is written
                written = os.write(self._fd, line)
                if written < len(line):
                    raise OSError(f"wrote {written} of {len(line)} bytes")
                self._torn = False
                self._entries[key] = text
        except (OSError, UnicodeEncodeError) as exc:
            raise CorpusError(f"cannot write file {self.path}: {exc}") from exc


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
