import dataclasses
import json
import sys
import threading
import time
from collections import Counter

import pytest

from sumprobe.corpus import Example
from sumprobe.errors import HarnessError
from sumprobe.llmgen import (
    INSTRUCTION,
    ChatCompletionsClient,
    EchoClient,
    EndpointError,
    GenerationCache,
    GenRequest,
    GenResponse,
    MalformedResponseError,
    RateLimitedError,
    TransientEndpointError,
    build_prompt,
    dispatch,
    generate,
    postprocess,
    select_shots,
)

from httpstub import serve


def make_example(i=0):
    return Example(id=f"e{i}", code=f"def f{i}(x):\n    return x\n", reference=f"returns x {i}")


def shots(n):
    return [(f"def s{i}(y):\n    return y\n", f"shot {i}") for i in range(n)]


# --- prompts ----------------------------------------------------------------


def test_instruction_wording_is_pinned():
    assert INSTRUCTION == (
        "Pretend that you are a programmer writing Python functions. For a "
        "given Python function you have to generate a short documentation "
        "describing what the function does."
    )


def test_prompt_contains_instruction_first_and_eleven_code_blocks():
    spec = build_prompt(make_example(), shots(10))
    text = spec.render()
    assert text.startswith(INSTRUCTION)
    assert text.count("Code:\n") == 11
    assert text.rstrip().endswith("Documentation:")
    assert spec.instruction == INSTRUCTION


def test_prompt_zero_shot():
    text = build_prompt(make_example(), []).render()
    assert text.count("Code:\n") == 1
    assert INSTRUCTION in text


def test_prompt_shots_precede_target():
    ex = make_example()
    text = build_prompt(ex, shots(2)).render()
    assert text.index("def s0") < text.index("def s1") < text.index(ex.code)


def test_target_is_left_out_of_its_shots():
    ex = make_example()
    spec = build_prompt(ex, [shots(2)[0], (ex.code, "oops"), shots(2)[1]])
    assert spec.shots == tuple(shots(2))
    assert spec.render() == build_prompt(ex, shots(2)).render()


def test_select_shots_deterministic_and_ordered():
    examples = [make_example(i) for i in range(30)]
    first = select_shots(examples, 10, seed=5)
    assert first == select_shots(examples, 10, seed=5)
    assert first != select_shots(examples, 10, seed=6)
    order = [int(code.split("(")[0].split("f")[-1]) for code, _ in first]
    assert order == sorted(order)
    assert select_shots(examples[:4], 10, seed=5) == [
        (e.code, e.reference) for e in examples[:4]
    ]


# --- requests and cache -------------------------------------------------------


def test_cache_key_ignores_example_id_but_not_params():
    a = GenRequest("m", "p", example_id="e1")
    b = GenRequest("m", "p", example_id="e2")
    assert a.cache_key == b.cache_key
    assert GenRequest("m", "p", temperature=0.5).cache_key != a.cache_key
    assert GenRequest("m", "p", max_tokens=64).cache_key != a.cache_key
    assert GenRequest("m2", "p").cache_key != a.cache_key


class CountingClient:
    def __init__(self, text="a fine summary"):
        self.text = text
        self.calls = 0

    def complete(self, req):
        self.calls += 1
        return self.text, 0.01, {"total_tokens": 3}


def test_generate_caches(tmp_path):
    cache = GenerationCache(tmp_path / "cache")
    client = CountingClient()
    req = GenRequest("m", "describe this", example_id="e0")
    first = generate(req, client, cache)
    second = generate(req, client, cache)
    assert client.calls == 1
    assert first.text == second.text == "a fine summary"
    assert not first.from_cache and second.from_cache


def log_entries(directory):
    """Each key's entry in `directory`'s cache log, as the cache reads it:
    the last line of a key wins; an entry that is not JSON is None, and a
    line that is not UTF-8 is skipped."""
    entries = {}
    for line in (directory / "entries.log").read_bytes().split(b"\n"):
        key, tab, text = line.partition(b"\t")
        try:
            key, text = key.decode("ascii"), text.decode("utf-8")
        except UnicodeDecodeError:
            continue
        if tab:
            try:
                entries[key] = json.loads(text)
            except ValueError:
                entries[key] = None
    return entries


def test_corrupt_cache_entry_only_costs_itself(tmp_path):
    client = CountingClient()
    req_a = GenRequest("m", "prompt a")
    req_b = GenRequest("m", "prompt b")
    with GenerationCache(tmp_path / "cache") as cache:
        generate(req_a, client, cache)
        generate(req_b, client, cache)
    with (tmp_path / "cache" / "entries.log").open("ab") as log:
        log.write(b"\xff not a line of the cache\n" + req_a.cache_key.encode() + b"\t{corrupt\n")
    with GenerationCache(tmp_path / "cache") as cache:
        assert generate(req_b, client, cache).from_cache
        assert generate(req_a, client, cache).from_cache is False
    assert client.calls == 3


@pytest.mark.parametrize("data", [
    b'{"raw_text": "x", "latency": "slow"}',
    b'{"raw_text": 5}',
    b'{"raw_text": "x", "usage": "x"}',
    b'{"raw_text": "x", "latency": NaN}',
    b'{"raw_text": "\xff"}',
])
def test_malformed_cache_entry_is_requeried_and_rewritten(tmp_path, data):
    """As a key's last line, whether after a usable one or alone, a
    malformed entry is a miss: it is fetched again and appended, and the
    new line wins. A line that is not UTF-8 is skipped, so after a usable
    line of its key it costs nothing."""
    client = CountingClient()
    req = GenRequest("m", "prompt")
    directory = tmp_path / "cache"
    with GenerationCache(directory) as cache:
        generate(req, client, cache)
    log = directory / "entries.log"
    bad = req.cache_key.encode() + b"\t" + data + b"\n"
    for lines, hit in ((log.read_bytes() + bad, b"\xff" in data), (bad, False)):
        log.write_bytes(lines)
        calls = client.calls + (not hit)
        with GenerationCache(directory) as cache:
            assert generate(req, client, cache).from_cache is hit and client.calls == calls
            assert generate(req, client, cache).from_cache and client.calls == calls
        assert log_entries(directory)[req.cache_key]["raw_text"] == "a fine summary"
        with GenerationCache(directory) as cache:
            assert generate(req, client, cache).from_cache and client.calls == calls


def test_a_log_cut_mid_line_serves_every_whole_entry(tmp_path):
    """A log whose last line was cut (a put that the process did not live
    to finish) serves every whole entry; the cut one is a miss, and the
    next put starts a line of its own, which reads back whole. Lines end
    at "\\n" alone: U+2028, U+2029 and U+0085 stay inside their entry."""
    client = CountingClient("a summary\u2028across\u2029line\x85breaks")
    reqs = [GenRequest("m", f"prompt {i}") for i in range(3)]
    directory = tmp_path / "cache"
    with GenerationCache(directory) as cache:
        for req in reqs:
            generate(req, client, cache)
    log = directory / "entries.log"
    log.write_bytes(log.read_bytes()[:-20])
    with GenerationCache(directory) as cache:
        assert [generate(req, client, cache).from_cache for req in reqs] == [True, True, False]
    assert client.calls == 4
    with GenerationCache(directory) as cache:
        assert all(generate(req, client, cache).from_cache for req in reqs)
    assert client.calls == 4
    assert [entry["raw_text"] for entry in log_entries(directory).values()] == [client.text] * 3
    assert len(log.read_bytes().split(b"\n")) == 5  # 2 whole, 1 cut, 1 new, and ""


def test_echo_client_answers_its_prompt_verbatim():
    prompt = "Saves the record.\n\n```python\nsave(record)\n```\nSecond paragraph."
    resp = generate(GenRequest("mock", prompt, example_id="ex1"), EchoClient())
    assert resp.raw_text == prompt
    assert (resp.latency, resp.usage, resp.from_cache) == (0.0, {}, False)
    assert resp.text == "Saves the record."  # what a chat model's record keeps


# --- post-processing ----------------------------------------------------------


def test_postprocess_first_paragraph_and_fences():
    raw = "```python\ncode here\n```\nSaves the record.\nMore detail.\n\nSecond paragraph."
    assert postprocess(raw) == "Saves the record. More detail."
    assert postprocess("one line") == "one line"
    assert postprocess("\n\n  spaced out  \n") == "spaced out"
    assert postprocess("") == ""


def test_postprocess_fully_fenced_reply_keeps_content():
    assert postprocess("```\nSaves the record.\n```") == "Saves the record."


# --- HTTP client ----------------------------------------------------------------


def chat_payload(text):
    return {"choices": [{"message": {"content": text}}], "usage": {"total_tokens": 5}}


def test_chat_client_malformed_response_fails_fast():
    def script(body, hit):
        return 200, {"unexpected": True}

    with serve(script) as (url, hits):
        client = ChatCompletionsClient(url, backoff=0.0)
        with pytest.raises(MalformedResponseError):
            client.complete(GenRequest("m", "p"))
        assert len(hits) == 1


def test_generate_pipeline_with_http_client(tmp_path):
    def script(body, hit):
        return 200, chat_payload("Builds the cache.\n\nExtra.")

    with serve(script) as (url, hits):
        client = ChatCompletionsClient(url, backoff=0.0)
        cache = GenerationCache(tmp_path / "c")
        req = GenRequest("m", "p", example_id="e")
        resp = generate(req, client, cache)
        assert resp.text == "Builds the cache."
        assert resp.raw_text == "Builds the cache.\n\nExtra."
        cached = generate(req, client, cache)
        assert cached.from_cache and len(hits) == 1
        entry = log_entries(tmp_path / "c")[req.cache_key]
        assert entry["raw_text"] == "Builds the cache.\n\nExtra."


# --- dispatch -------------------------------------------------------------------


def builds(reqs):
    """The requests as one pass over an iterator, as `dispatch` reads them."""
    return iter(reqs)


class CountingCache(GenerationCache):
    def __init__(self, directory):
        super().__init__(directory)
        self.gets, self.puts = Counter(), Counter()

    def get(self, key):
        self.gets[key] += 1
        return super().get(key)

    def put(self, key, req, resp):
        self.puts[key] += 1
        super().put(key, req, resp)


def test_dispatch_shares_one_call_per_cache_key_only_with_a_cache(tmp_path):
    """With a cache, a cold run gets and puts each distinct key once; a
    warm run only gets, and returns the cold run's responses."""
    reqs = [GenRequest("m", "same prompt", example_id=f"e{i}") for i in range(3)]
    reqs.append(GenRequest("m", "other prompt", example_id="e3"))
    client = CountingClient()
    assert [r.text for r in dispatch(builds(reqs), client, jobs=2)] == ["a fine summary"] * 4
    assert client.calls == 4
    client = CountingClient()
    cache = CountingCache(tmp_path / "c")
    cold = dispatch(builds(reqs), client, cache, jobs=2)
    assert [r.text for r in cold] == ["a fine summary"] * 4
    assert client.calls == 2
    assert log_entries(tmp_path / "c").keys() == {req.cache_key for req in reqs}
    assert len((tmp_path / "c" / "entries.log").read_bytes().splitlines()) == 2
    once = Counter({req.cache_key: 1 for req in reqs})
    assert cache.gets == cache.puts == once
    cache.gets.clear()
    cache.puts.clear()
    warm = dispatch(builds(reqs), client, cache, jobs=2)
    assert client.calls == 2
    assert cache.gets == once and not cache.puts
    assert all(r.from_cache for r in warm) and not any(r.from_cache for r in cold)
    assert [dataclasses.replace(r, from_cache=False) for r in warm] == cold


@pytest.mark.parametrize("requests,cached,jobs,started", [
    pytest.param(n, c, j, s, id=f"{n}-{j}-{s}" if c is None else f"{n}-{j}-{s}-{c}cached")
    for n, c, j, s in [(2, None, 8, 2), (1, None, 8, 0), (0, None, 8, 0), (5, None, 2, 2),
                       (5, 5, 8, 0), (7, 4, 8, 3), (7, 2, 2, 2), (3, 2, 8, 0)]
])
def test_dispatch_starts_no_more_threads_than_requests(
        tmp_path, monkeypatch, requests, cached, jobs, started):
    """Without a cache (`cached` None) every request goes to the workers.
    With `cached` of the requests already in the cache, interleaved with the
    misses, the hits are answered as the requests are read, and only the k
    misses start workers: as many as k requests would uncached, so none
    when every key is cached."""
    reqs = [GenRequest("m", f"p{i}") for i in range(requests)]
    cache, warm = None, set()
    if cached is not None:
        cache = GenerationCache(tmp_path / "c")
        warm = set(sorted(range(requests), key=lambda i: i % 2)[:cached])
        for i in warm:
            cache.put(reqs[i].cache_key, reqs[i], GenResponse("a cached summary", 0.0))
    starts = []
    real_start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    client = CountingClient()
    results = dispatch(builds(reqs), client, cache, jobs=jobs)
    assert [r.text for r in results] == [
        "a cached summary" if i in warm else "a fine summary" for i in range(requests)]
    assert client.calls == requests - len(warm)
    assert len(starts) == started


class FlakyClient:
    """Answers each prompt with itself; every third prompt fails its first
    attempt, and prompt "dead" is rate-limited on every attempt. Counts
    attempts and the most calls in progress at once."""

    max_retries = 3

    def __init__(self):
        self.lock = threading.Lock()
        self.attempts = {}
        self.running = 0
        self.most_running = 0

    def retry_delay(self, attempt):
        return 0.001

    def attempt(self, req):
        with self.lock:
            n = self.attempts[req.prompt] = self.attempts.get(req.prompt, 0) + 1
            self.running += 1
            self.most_running = max(self.most_running, self.running)
        try:
            if req.prompt == "dead":
                raise RateLimitedError("slow down")
            if n == 1 and int(req.prompt[1:]) % 3 == 0:
                raise TransientEndpointError("flaky")
            return req.prompt, 0.0, {}
        finally:
            with self.lock:
                self.running -= 1


def test_dispatch_under_thread_contention():
    prompts = [f"p{i}" for i in range(300)] + ["dead"]
    client = FlakyClient()
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(
            target=lambda: out.extend(
                dispatch(builds(GenRequest("m", p) for p in prompts), client, jobs=8)
            )
        )
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert [r.text for r in out[:-1]] == prompts[:-1]
    assert isinstance(out[-1], EndpointError) and "after 3 attempts" in str(out[-1])
    assert client.attempts == {
        p: 3 if p == "dead" else 2 if int(p[1:]) % 3 == 0 else 1 for p in prompts
    }
    assert client.most_running <= 8


def test_concurrent_puts_each_append_one_whole_line(tmp_path):
    """Eight workers that switch threads as often as they can append one
    whole line per distinct key, and a reopened cache answers them all."""
    reqs = [GenRequest("m", f"p{i}") for i in range(300)]
    client = CountingClient()
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with GenerationCache(tmp_path / "c") as cache:
            worker = threading.Thread(
                target=lambda: out.extend(dispatch(builds(reqs), client, cache, jobs=8)))
            worker.start()
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(out) == len(reqs)
    assert len((tmp_path / "c" / "entries.log").read_bytes().split(b"\n")) == len(reqs) + 1
    assert log_entries(tmp_path / "c").keys() == {req.cache_key for req in reqs}
    with GenerationCache(tmp_path / "c") as cache:
        assert all(r.from_cache for r in dispatch(builds(reqs), client, cache, jobs=8))
    assert client.calls == len(reqs)


def test_dispatch_reads_and_builds_each_request_when_it_is_sent():
    drawn = []
    seen = []

    class Recorder(CountingClient):
        def complete(self, req):
            seen.append((req.prompt, len(drawn)))
            return super().complete(req)

    def requests():
        for i in range(4):
            drawn.append(i)
            yield GenRequest("m", f"p{i}")

    dispatch(requests(), Recorder())
    # no request was read, and so built, before the one ahead of it was answered
    assert seen == [(f"p{i}", i + 1) for i in range(4)]


def test_dispatch_raises_what_the_requests_iterable_raises():
    class BadInput(HarnessError):
        pass

    def requests():
        for i in range(3):
            yield GenRequest("m", f"p{i}")
        raise BadInput("unreadable variant file")

    caught = []

    def run():
        try:
            dispatch(requests(), CountingClient(), jobs=2)
        except BadInput as exc:
            caught.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert [str(e) for e in caught] == ["unreadable variant file"]


def test_dispatch_slows_down_for_a_rate_limit():
    """The server accepts at most 3 requests in any 50 ms and answers 429
    above that. A 429 stops every worker for the backoff, so each record
    is refused at most once and all of them succeed."""
    lock = threading.Lock()
    accepted = []
    refused = []

    def script(body, hit):
        prompt = body["messages"][0]["content"]
        now = time.monotonic()
        with lock:
            if len([t for t in accepted if now - t < 0.05]) >= 3:
                refused.append(prompt)
                return 429, {"error": "slow down"}
            accepted.append(now)
        return 200, chat_payload(f"Answer to {prompt}.")

    prompts = [f"p{i}" for i in range(20)]
    with serve(script) as (url, hits):
        client = ChatCompletionsClient(url, backoff=0.2)
        results = dispatch(builds(GenRequest("m", p) for p in prompts), client, jobs=2)
    assert [str(r) for r in results if isinstance(r, Exception)] == []
    assert [r.text for r in results] == [f"Answer to {p}." for p in prompts]
    # without the pause, 17 are refused at once, then again in bulk
    assert len(refused) <= len(prompts)
