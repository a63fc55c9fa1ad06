import json

import pytest

from sumprobe.corpus import Example
from sumprobe.llmgen import (
    INSTRUCTION,
    ChatCompletionsClient,
    EchoClient,
    EndpointError,
    GenerationCache,
    GenRequest,
    MalformedResponseError,
    RequestRejectedError,
    TargetInShotsError,
    build_prompt,
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


def test_target_in_shots_rejected():
    ex = make_example()
    with pytest.raises(TargetInShotsError):
        build_prompt(ex, [(ex.code, "oops")])


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


def test_corrupt_cache_entry_only_costs_itself(tmp_path):
    cache = GenerationCache(tmp_path / "cache")
    client = CountingClient()
    req_a = GenRequest("m", "prompt a")
    req_b = GenRequest("m", "prompt b")
    generate(req_a, client, cache)
    generate(req_b, client, cache)
    (tmp_path / "cache" / f"{req_a.cache_key}.json").write_text("{corrupt")
    assert generate(req_b, client, cache).from_cache
    assert generate(req_a, client, cache).from_cache is False
    assert client.calls == 3


def test_echo_client_returns_reference():
    ex = make_example()
    client = EchoClient({ex.id: ex.reference})
    req = GenRequest("mock", "whatever", example_id=ex.id)
    assert generate(req, client).text == ex.reference
    with pytest.raises(EndpointError):
        client.complete(GenRequest("mock", "x", example_id="unknown"))


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


def test_chat_client_success():
    def script(body, hit):
        assert body["messages"][0]["role"] == "user"
        return 200, chat_payload("the summary")

    with serve(script) as (url, hits):
        client = ChatCompletionsClient(url, api_key="k", backoff=0.0)
        text, latency, usage = client.complete(GenRequest("m", "p"))
        assert text == "the summary"
        assert usage == {"total_tokens": 5}
        assert hits[0]["model"] == "m"


def test_chat_client_retries_transient_then_succeeds():
    def script(body, hit):
        if hit < 2:
            return 500, {"error": "flaky"}
        return 200, chat_payload("ok")

    with serve(script) as (url, hits):
        client = ChatCompletionsClient(url, backoff=0.0)
        text, _, _ = client.complete(GenRequest("m", "p"))
        assert text == "ok"
        assert len(hits) == 3


def test_chat_client_five_errors_exhaust_retries():
    def script(body, hit):
        return 500, {"error": "down"}

    with serve(script) as (url, hits):
        client = ChatCompletionsClient(url, max_retries=5, backoff=0.0)
        with pytest.raises(EndpointError):
            client.complete(GenRequest("m", "p"))
        assert len(hits) == 5


def test_chat_client_malformed_response_fails_fast():
    def script(body, hit):
        return 200, {"unexpected": True}

    with serve(script) as (url, hits):
        client = ChatCompletionsClient(url, backoff=0.0)
        with pytest.raises(MalformedResponseError):
            client.complete(GenRequest("m", "p"))
        assert len(hits) == 1


def test_chat_client_does_not_retry_a_rejected_request():
    def script(body, hit):
        return 401, {"error": "bad key"}

    with serve(script) as (url, hits):
        client = ChatCompletionsClient(url, max_retries=5, backoff=0.0)
        with pytest.raises(RequestRejectedError, match="401"):
            client.complete(GenRequest("m", "p"))
        assert len(hits) == 1


def test_chat_client_retries_rate_limit():
    def script(body, hit):
        return 429, {"error": "slow down"}

    with serve(script) as (url, hits):
        client = ChatCompletionsClient(url, max_retries=4, backoff=0.0)
        with pytest.raises(EndpointError, match="after 4 attempts"):
            client.complete(GenRequest("m", "p"))
        assert len(hits) == 4


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
        entry = json.loads(
            (tmp_path / "c" / f"{req.cache_key}.json").read_text()
        )
        assert entry["raw_text"] == "Builds the cache.\n\nExtra."
