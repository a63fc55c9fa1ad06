"""JSON over HTTP POST for the endpoint clients, on the standard library.

`urllib.request` takes proxies from the `*_proxy` environment variables and
verifies TLS against the system CA store (`SSL_CERT_FILE` and `SSL_CERT_DIR`
override it; `REQUESTS_CA_BUNDLE` does not apply).
"""

from __future__ import annotations

import http.client
import json
import ssl
import urllib.error
import urllib.request


def post_json(
    url: str,
    payload: dict,
    *,
    api_key: str | None,
    timeout: float,
    service: str,
    transient: type[Exception],
    rejected: type[Exception],
    malformed: type[Exception],
    throttled: type[Exception] | None = None,
):
    """POST `payload` as JSON and return the decoded JSON reply.

    This is where a reply is sorted. A connection error, a timeout or any
    5xx raises `transient` (worth retrying), and so does 429 unless
    `throttled` is given; any other error status, and a TLS certificate
    that does not verify, raise `rejected`; a success whose body is not JSON
    raises `malformed`. Messages name the `service`.
    """
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(
        url,
        data=json.dumps(payload, ensure_ascii=False).encode("utf-8"),
        headers=headers,
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            body = resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        if exc.code == 429:
            raise (throttled or transient)(f"{service} returned 429") from None
        if exc.code >= 500:
            raise transient(f"{service} returned {exc.code}") from None
        raise rejected(f"{service} returned {exc.code}") from None
    except (OSError, http.client.HTTPException) as exc:
        # URLError and timeouts are OSErrors; a dropped connection can
        # also surface as an HTTPException. A certificate that fails to
        # verify now will fail again, so it is not retried.
        if isinstance(getattr(exc, "reason", exc), ssl.SSLCertVerificationError):
            raise rejected(f"{service} certificate not trusted: {exc}") from exc
        raise transient(f"{service} unreachable: {exc}") from exc
    try:
        return json.loads(body)
    except ValueError:
        raise malformed(f"{service} returned a body that is not JSON") from None
