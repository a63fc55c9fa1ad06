"""Chat-completions and embedding stub for the `http-endpoints` workload.

Runs as a process of its own:

    python3 perfbench/stub.py

It prints `PORT <n>` on its first line of output and serves until its
standard input closes. Routes:

    POST /v1/chat/completions  answer(target code) after a fixed latency; a
                               503 on the first attempt of each prompt whose
                               code hash was named by the last /reset
    POST /v1/embeddings        {"tokens": [...]} -> one-hot {"vectors": ...}
                               at bucket(token), after a fixed latency
    POST /reset                {"fail": [code hashes]}: zero the counters,
                               forget earlier attempts, set the 503 set
    GET  /stats                the counters

`answer`, `bucket` and `code_hash` are the stub's contract; the benchmark's
checkers import them to recompute what the program must have stored.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

EMBED_DIM = 61
CHAT_LATENCY_S = 0.004
EMBED_LATENCY_S = 0.0005

_WORD_RE = re.compile(r"[A-Za-z]+")
_CODE_HEAD = "\n\nCode:\n"
_CODE_TAIL = "\n\nDocumentation:"


def code_hash(code: str) -> str:
    return hashlib.sha256(code.encode("utf-8")).hexdigest()


def target_code(prompt: str) -> str:
    """The snippet of the prompt's last `Code:` block (zero-shot prompts
    hold exactly one)."""
    _, sep, tail = prompt.rpartition(_CODE_HEAD)
    if not sep or not tail.endswith(_CODE_TAIL):
        raise ValueError("prompt has no trailing Code:/Documentation: block")
    return tail[: -len(_CODE_TAIL)]


def answer(code: str) -> str:
    """Deterministic one-line summary made of words that occur in `code`."""
    words = list(dict.fromkeys(w.lower() for w in _WORD_RE.findall(code)))
    digest = hashlib.sha256(code.encode("utf-8")).digest()
    picked = [words[b % len(words)] for b in digest[:4]] if words else ["input"]
    return f"Return the {' '.join(picked)} of the given value."


def bucket(token: str) -> int:
    return zlib.crc32(token.encode("utf-8")) % EMBED_DIM


class Stub:
    def __init__(self, chat_latency: float = CHAT_LATENCY_S,
                 embed_latency: float = EMBED_LATENCY_S) -> None:
        self.chat_latency = chat_latency
        self.embed_latency = embed_latency
        self.lock = threading.Lock()
        self.reset([])

    def reset(self, fail: list[str]) -> None:
        with self.lock:
            self.fail = set(fail)
            self.failed_once: set[str] = set()
            self.served: set[str] = set()
            self.seen_tokens: set[str] = set()
            self.chat_requests = 0
            self.chat_retried = 0
            self.in_flight = 0
            self.max_in_flight = 0
            self.embed_requests = 0
            self.embed_tokens = 0

    def stats(self) -> dict:
        with self.lock:
            return {
                "chat_requests": self.chat_requests,
                "chat_retried": self.chat_retried,
                "chat_max_in_flight": self.max_in_flight,
                "chat_distinct_served": len(self.served),
                "chat_served_digest": code_hash("\n".join(sorted(self.served))),
                "embed_requests": self.embed_requests,
                "embed_tokens": self.embed_tokens,
                "embed_unique_tokens": len(self.seen_tokens),
            }

    def chat(self, body: dict) -> tuple[int, dict]:
        code = target_code(body["messages"][-1]["content"])
        key = code_hash(code)
        with self.lock:
            self.chat_requests += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            first_failure = key in self.fail and key not in self.failed_once
            if first_failure:
                self.failed_once.add(key)
                self.chat_retried += 1
        try:
            time.sleep(self.chat_latency)
            if first_failure:
                return 503, {"error": "injected first-attempt failure"}
            text = answer(code)
            with self.lock:
                self.served.add(key)
            return 200, {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {"completion_tokens": len(text.split())},
            }
        finally:
            with self.lock:
                self.in_flight -= 1

    def embed(self, body: dict) -> tuple[int, dict]:
        tokens = body["tokens"]
        with self.lock:
            self.embed_requests += 1
            self.embed_tokens += len(tokens)
            self.seen_tokens.update(tokens)
        time.sleep(self.embed_latency)
        vectors = []
        for tok in tokens:
            row = [0] * EMBED_DIM
            row[bucket(tok)] = 1
            vectors.append(row)
        return 200, {"vectors": vectors}


def make_server(stub: Stub) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        # One buffered write per response, sent without Nagle's delay.
        wbufsize = -1
        disable_nagle_algorithm = True

        def _reply(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, stub.stats())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            try:
                body = json.loads(self.rfile.read(length) or b"{}")
                if self.path == "/v1/chat/completions":
                    status, payload = stub.chat(body)
                elif self.path == "/v1/embeddings":
                    status, payload = stub.embed(body)
                elif self.path == "/reset":
                    stub.reset(body.get("fail", []))
                    status, payload = 200, {}
                else:
                    status, payload = 404, {"error": "not found"}
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                status, payload = 400, {"error": str(exc)}
            self._reply(status, payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main() -> int:
    server = make_server(Stub())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()  # the parent closes our stdin to stop us
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
