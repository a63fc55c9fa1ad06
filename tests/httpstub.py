"""Tiny local HTTP server for exercising the real network clients."""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

POLL_INTERVAL_S = 0.01


@contextmanager
def serve(script):
    """Start a localhost server whose POST behaviour follows `script`.

    `script` is a callable(request_body: dict, hit_index: int) returning
    (status, payload); payload may be a dict (JSON) or raw str.
    """
    hits = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            try:
                body = json.loads(self.rfile.read(length) or b"{}")
            except json.JSONDecodeError:
                body = {}
            status, payload = script(body, len(hits))
            hits.append(body)
            raw = payload if isinstance(payload, str) else json.dumps(payload)
            data = raw.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # shutdown() waits for serve_forever to wake up and see it; at the
    # default half-second poll that is half a second per block.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": POLL_INTERVAL_S}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1", hits
    finally:
        server.shutdown()
        server.server_close()
