"""Few-shot prompting of a chat-style completion endpoint, with a
content-addressed response cache and a reference-echoing mock client.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import requests

from .corpus import Example
from .errors import HarnessError

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


class ChatCompletionsClient:
    """Chat-completions-style JSON over HTTP, single user message.

    Transient failures (connection errors, 5xx, 429) are retried with
    exponential backoff; after `max_retries` attempts an EndpointError is
    raised. Other HTTP errors (RequestRejectedError) and well-formed JSON of
    the wrong shape fail immediately.
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

    def complete(self, req: GenRequest) -> tuple[str, float, dict]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = json.dumps(
            {
                "model": req.model_id,
                "messages": [{"role": "user", "content": req.prompt}],
                "temperature": req.temperature,
                "max_tokens": req.max_tokens,
            },
            ensure_ascii=False,
        )
        last: Exception | None = None
        for attempt in range(self.max_retries):
            start = time.monotonic()
            try:
                resp = requests.post(
                    self.url,
                    data=body.encode("utf-8"),
                    headers=headers,
                    timeout=self.timeout,
                )
                if resp.status_code >= 500 or resp.status_code == 429:
                    raise EndpointError(f"endpoint returned {resp.status_code}")
                if resp.status_code >= 400:
                    raise RequestRejectedError(f"endpoint returned {resp.status_code}")
                payload = resp.json()
                try:
                    text = payload["choices"][0]["message"]["content"]
                except (KeyError, IndexError, TypeError) as exc:
                    raise MalformedResponseError(
                        f"unexpected response shape: {exc}"
                    ) from exc
                if not isinstance(text, str):
                    raise MalformedResponseError("response content is not a string")
                latency = time.monotonic() - start
                usage = payload.get("usage") or {}
                return text, latency, usage if isinstance(usage, dict) else {}
            except (MalformedResponseError, RequestRejectedError):
                raise
            except (requests.RequestException, EndpointError, ValueError) as exc:
                last = exc
                if attempt + 1 < self.max_retries:
                    time.sleep(self.backoff * 2**attempt)
        raise EndpointError(
            f"endpoint unavailable after {self.max_retries} attempts: {last}"
        )


class EchoClient:
    """Mock client returning each example's reference description verbatim.

    Pins the pipeline's upper bound: downstream scores must be exactly 100.
    """

    def __init__(self, references: Mapping[str, str]) -> None:
        self.references = dict(references)

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


def generate(
    req: GenRequest, client: CompletionClient, cache: GenerationCache | None = None
) -> GenResponse:
    """Serve from the cache when possible; otherwise call the client and
    store the raw response before returning."""
    if cache is not None:
        entry = cache.get(req.cache_key)
        if entry is not None:
            raw = entry["raw_text"]
            return GenResponse(
                text=postprocess(raw),
                raw_text=raw,
                latency=float(entry.get("latency", 0.0)),
                usage=entry.get("usage") or {},
                from_cache=True,
            )
    raw, latency, usage = client.complete(req)
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
