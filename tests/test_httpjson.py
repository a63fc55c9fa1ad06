"""Both remote services go through `httpjson`: one reply table for the chat
and embedding clients, and a guard that no other module talks to the
network or sleeps."""

import ast
import json
import ssl
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from sumprobe.httpjson import (
    EndpointError,
    MalformedResponseError,
    RequestRejectedError,
)
from sumprobe.llmgen import ChatCompletionsClient, GenRequest
from sumprobe.metrics import RemoteEmbeddingProvider

from httpstub import serve

SRC = Path(__file__).resolve().parent.parent / "src" / "sumprobe"

# name -> (call at url, success reply to a request body, what the call
# returns on success, the request body it sends, its service name)
CLIENTS = {
    "chat": (
        lambda url: ChatCompletionsClient(url, max_retries=3, backoff=0.0)
        .complete(GenRequest("m", "p"))[::2],
        lambda body: {"choices": [{"message": {"content": "the summary"}}],
                      "usage": {"total_tokens": 5}},
        ("the summary", {"total_tokens": 5}),
        {"model": "m", "messages": [{"role": "user", "content": "p"}],
         "temperature": 0.0, "max_tokens": 128},
        "endpoint",
    ),
    "embedding": (
        lambda url: RemoteEmbeddingProvider(url, max_retries=3, backoff=0.0)
        .embed(["a", "b"]).tolist(),
        lambda body: {"vectors": [[1.0, 0.0] for _ in body["tokens"]]},
        [[1.0, 0.0], [1.0, 0.0]],
        {"tokens": ["a", "b"]},
        "embedding service",
    ),
}

NOT_JSON = "<html>proxy error</html>"

# (case, status of the reply to attempt n, or None for a certificate that
# does not verify; the error raised, or None; its message; requests sent)
REPLIES = [
    ("success", lambda n: 200, None, None, 1),
    ("5xx_then_200", lambda n: 503 if n == 0 else 200, None, None, 2),
    ("5xx_exhausting", lambda n: 500, EndpointError,
     "unavailable after 3 attempts: {service} returned 500", 3),
    ("429_exhausting", lambda n: 429, EndpointError,
     "unavailable after 3 attempts: {service} returned 429", 3),
    ("401_once", lambda n: 401, RequestRejectedError, "{service} returned 401", 1),
    ("not_json_once", lambda n: NOT_JSON, MalformedResponseError,
     "{service} returned a body that is not JSON", 1),
    ("untrusted_certificate_once", None, RequestRejectedError,
     "{service} certificate not trusted", 1),
]


def untrusted(hits):
    def urlopen(request, timeout):
        hits.append(json.loads(request.data))
        raise urllib.error.URLError(ssl.SSLCertVerificationError(1, "certificate verify failed"))

    return urlopen


@pytest.mark.parametrize("client", CLIENTS)
@pytest.mark.parametrize("status, error, message, requests",
                         [case[1:] for case in REPLIES], ids=[case[0] for case in REPLIES])
def test_both_clients_sort_and_retry_a_reply_alike(
    monkeypatch, client, status, error, message, requests
):
    call, answer, result, sent, service = CLIENTS[client]

    def script(body, hit):
        reply = status(hit)
        if reply == 200:
            return 200, answer(body)
        if reply == NOT_JSON:
            return 200, NOT_JSON
        return reply, {"error": "no"}

    with serve(script) as (url, hits):
        if status is None:
            monkeypatch.setattr(urllib.request, "urlopen", untrusted(hits))
        if error is None:
            assert call(url) == result
        else:
            with pytest.raises(error) as caught:
                call(url)
            assert type(caught.value) is error
            assert str(caught.value).startswith(message.format(service=service))
        assert hits == [sent] * requests


def test_only_httpjson_talks_to_the_network_and_nothing_sleeps():
    """Retries wait in `httpjson.retry_all`'s queue, not in a sleep loop,
    and every request goes out through `httpjson`."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                assert not (node.module == "time" and
                            any(alias.name == "sleep" for alias in node.names)), path.name
            else:
                assert not (isinstance(node, ast.Attribute) and node.attr == "sleep"), (
                    f"{path.name}:{node.lineno}"
                )
                continue
            if path.name != "httpjson.py":
                assert not any(m.split(".")[0] == "urllib" for m in modules), (
                    f"{path.name}:{node.lineno}"
                )
