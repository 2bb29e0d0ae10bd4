"""Request handler base shared by the monitor and claim-database servers:
JSON responses, quiet logging, and request bodies read only when their
Content-Length is a non-negative integer."""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler


class JsonRequestHandler(BaseHTTPRequestHandler):
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
        the client closes)."""
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self._send(400, {"error": f"bad Content-Length {raw!r}"})
            return None
        return self.rfile.read(length)
