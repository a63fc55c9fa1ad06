"""How this package calls a JSON service over HTTP, on the standard library.

`JsonClient.post` makes one attempt and sorts the reply into the errors
below; `retry_all` retries the transient ones through one queue. The chat
(`llmgen`) and embedding (`metrics`) clients are both `JsonClient`s.
`urllib.request` takes proxies from the `*_proxy` environment variables and
verifies TLS against the system CA store (`SSL_CERT_FILE` and `SSL_CERT_DIR`
override it; `REQUESTS_CA_BUNDLE` does not apply).
"""
from __future__ import annotations

import heapq
import http.client
import json
import ssl
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, ClassVar, Generic, Iterable, Iterator, Protocol, TypeVar

from .errors import HarnessError

T = TypeVar("T")


class EndpointError(HarnessError):
    pass


class MalformedResponseError(HarnessError):
    pass


class RequestRejectedError(EndpointError):
    """The service refused the request (a 4xx other than 429), or its TLS
    certificate does not verify."""


class TransientEndpointError(EndpointError):
    """One attempt failed in a way worth retrying: a connection error, a
    timeout, 429 or 5xx."""


class RateLimitedError(TransientEndpointError):
    """The service answered 429: no request should go out until the
    backoff has passed."""


@dataclass(eq=False)
class JsonClient:
    """A JSON-over-POST service at `url` and its RetryPolicy, with the
    backoff doubling after each failed attempt. Messages name the
    `service`."""

    service: ClassVar[str] = "service"

    url: str
    api_key: str | None = field(default=None, repr=False)
    timeout: float = 60.0
    max_retries: int = 5
    backoff: float = 0.5

    def retry_delay(self, attempt: int) -> float:
        """Seconds to wait after the failure of attempt `attempt` (from 0)."""
        return self.backoff * 2**attempt

    def post(self, payload: dict):
        """POST `payload` as JSON once and return the decoded JSON reply.

        A connection error, a timeout, 429 (RateLimitedError) or any 5xx
        raises TransientEndpointError; any other error status, and a TLS
        certificate that does not verify, raise RequestRejectedError; a
        success whose body is not JSON raises MalformedResponseError.
        """
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(
            self.url,
            data=json.dumps(payload, ensure_ascii=False).encode("utf-8"),
            headers=headers,
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code == 429:
                raise RateLimitedError(f"{self.service} returned 429") from None
            if exc.code >= 500:
                raise TransientEndpointError(f"{self.service} returned {exc.code}") from None
            raise RequestRejectedError(f"{self.service} returned {exc.code}") from None
        except (OSError, http.client.HTTPException) as exc:
            # URLError and timeouts are OSErrors; a dropped connection can
            # also surface as an HTTPException. A certificate that fails to
            # verify now will fail again, so it is not retried.
            if isinstance(getattr(exc, "reason", exc), ssl.SSLCertVerificationError):
                raise RequestRejectedError(
                    f"{self.service} certificate not trusted: {exc}"
                ) from exc
            raise TransientEndpointError(f"{self.service} unreachable: {exc}") from exc
        try:
            return json.loads(body)
        except ValueError:
            raise MalformedResponseError(
                f"{self.service} returned a body that is not JSON"
            ) from None


class RetryPolicy(Protocol):
    """At most `max_retries` attempts per request, waiting `retry_delay(n)`
    seconds after failed attempt n (from 0)."""

    max_retries: int

    def retry_delay(self, attempt: int) -> float:
        ...


class _Queue(Generic[T]):
    """State of one `retry_all` call, shared by its workers under `cond`.

    `fresh` yields (index, attempt) for the requests not yet started, in
    order; `taken` maps each started, unfinished index to its attempt;
    `due` is a heap of (due time, index, attempts made) for retries. A
    worker takes a retry whose delay has passed first, then a fresh
    request, so a backoff never keeps a worker from a ready request. After
    a 429 no request starts before `resume_at`.
    """

    def __init__(self, attempts: Iterable[Callable[[int], T]], policy: RetryPolicy | None) -> None:
        self.max_retries = policy.max_retries if policy else 1
        self.retry_delay = policy.retry_delay if policy else lambda attempt: 0.0
        self.cond = threading.Condition()
        self.fresh: Iterator[tuple[int, Callable[[int], T]]] | None = enumerate(attempts)
        self.taken: dict[int, Callable[[int], T]] = {}
        self.due: list[tuple[float, int, int]] = []
        self.resume_at = 0.0
        self.results: dict[int, T | Exception] = {}
        self.crash: BaseException | None = None

    def _next(self) -> tuple[int, Callable[[int], T], int] | None:
        """(index, attempt, attempts made) of the next request, or None
        when done. Called with `cond` held."""
        while self.crash is None:
            now = time.monotonic()
            if now < self.resume_at:
                self.cond.wait(self.resume_at - now)
            elif self.due and self.due[0][0] <= now:
                _, i, made = heapq.heappop(self.due)
                return i, self.taken[i], made
            elif self.fresh is not None:
                item = next(self.fresh, None)
                if item is None:
                    self.fresh = None
                else:
                    i, attempt = item
                    self.taken[i] = attempt
                    return i, attempt, 0
            elif not self.taken:
                return None
            elif self.due:
                self.cond.wait(self.due[0][0] - now)
            else:
                # The rest are in flight on other workers.
                self.cond.wait()
        return None

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
                # Raised by the `attempts` iterable (or an interrupt).
                self.stop(exc)
                return
            if job is None:
                return
            i, attempt, made = job
            retry_at = pause_until = None
            try:
                result: T | Exception = attempt(made)
            except TransientEndpointError as exc:
                wake = time.monotonic() + self.retry_delay(made)
                if isinstance(exc, RateLimitedError):
                    pause_until = wake
                if made + 1 < self.max_retries:
                    retry_at = wake
                else:
                    result = EndpointError(
                        f"unavailable after {self.max_retries} attempts: {exc}"
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
                    heapq.heappush(self.due, (retry_at, i, made + 1))
                else:
                    self.results[i] = result
                    del self.taken[i]
                if retry_at is not None or (self.fresh is None and not self.taken):
                    self.cond.notify_all()


def retry_all(
    attempts: Iterable[Callable[[int], T]],
    policy: RetryPolicy | None = None,
    jobs: int = 1,
) -> list[T | Exception]:
    """Run every request with at most `jobs` in flight; item i of the
    result is what request i returned, or the HarnessError or OSError that
    failed it.

    Each item of `attempts` makes one attempt at its request when called
    with the number of attempts made so far. Its first `jobs` items are
    read at once, to start no more worker threads than there are requests;
    the rest are read only as workers free up. The requests wait in one
    queue served by those threads; at one job, or one request, the calling
    thread serves it, with no thread started. A TransientEndpointError is
    retried up to the `policy`'s `max_retries` attempts (one attempt
    without a policy); each retry waits its `retry_delay` on a due-time
    heap, not on a worker. After a RateLimitedError (429) no request starts
    until that delay has passed. Anything else the iterable or an attempt
    raises stops the queue and is raised here.
    """
    if jobs > 1:
        # No more workers than requests.
        rest = iter(attempts)
        head = list(islice(rest, jobs))
        attempts, jobs = chain(head, rest), len(head)
    queue = _Queue(attempts, policy)
    if jobs <= 1:
        queue.work()
    else:
        threads = [
            threading.Thread(target=queue.work, name=f"retry-{k}", daemon=True)
            for k in range(jobs)
        ]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        except BaseException as exc:
            # Interrupted: let the workers finish their current request.
            queue.stop(exc)
            raise
    if queue.crash is not None:
        raise queue.crash
    return [queue.results[i] for i in range(len(queue.results))]
