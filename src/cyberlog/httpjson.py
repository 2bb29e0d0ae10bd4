"""JSON over HTTP for the monitor and claim-database servers and their
clients: a request handler base with JSON responses, quiet logging, a
socket timeout, and request bodies read only when their Content-Length is a
non-negative integer no larger than MAX_BODY_BYTES; and one client request
function."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler

from .errors import NotFoundError, SubmitError

# Largest request body a server reads. A revision of 4000 claims is about
# 1.4 MB, so this leaves room for heads twenty times that size.
MAX_BODY_BYTES = 32 * 1024 * 1024


def request_json(method: str, url: str, body: dict | str | None, timeout: float) -> dict:
    """Send one request (a dict body as JSON, a str body as is) and return
    the decoded JSON response. A 404 raises NotFoundError; any other HTTP
    error raises SubmitError with its status code. Either carries the
    response's JSON `error` field, or the raw body when there is none."""
    data, headers = None, {}
    if body is not None:
        data = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", errors="replace")
        try:
            obj = json.loads(detail)
        except ValueError:
            obj = None
        message = obj.get("error", detail) if isinstance(obj, dict) else detail
        if exc.code == 404:
            raise NotFoundError(message) from exc
        raise SubmitError(exc.code, message) from exc


class JsonRequestHandler(BaseHTTPRequestHandler):
    # Seconds a read or write on the connection may wait. A client that
    # stops sending mid-request has its connection closed when it expires,
    # which releases the handler's thread; `handle_one_request` takes the
    # timeout as the end of the connection and logs it through the quiet
    # `log_message`.
    timeout = 10.0

    def log_message(self, *args):  # quiet by default
        pass

    def _send(self, code: int, obj: dict) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes | None:
        """The request body, or None after answering 400 to a Content-Length
        that is not a non-negative integer (reading -1 would block until
        the client closes), or 413, without reading, to one above
        MAX_BODY_BYTES."""
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self._send(400, {"error": f"bad Content-Length {raw!r}"})
            return None
        if length > MAX_BODY_BYTES:
            self._send(413, {"error": f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"})
            return None
        return self.rfile.read(length)
