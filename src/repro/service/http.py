"""HTTP/1.1 transport for the query service (stdlib ``http.server``).

A :class:`Server` wraps a :class:`~repro.service.app.QueryService` in a
``ThreadingHTTPServer``: one OS thread per live client connection, with
keep-alive (``protocol_version = HTTP/1.1`` plus explicit
``Content-Length`` on every response) so load generators reuse sockets
instead of paying a TCP handshake per request.  Every response leaves
as **one write** (status line, headers and payload in a single
``sendall``) on a ``TCP_NODELAY`` socket: a second small send on a Nagle
socket waits out the client's delayed ACK, a flat 40 ms per request.
The handler is a thin adapter — all routing, error mapping and
measurement live in :meth:`QueryService.handle`, which tests can drive
without sockets.
"""

from __future__ import annotations

import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.engine.database import Database
from repro.service.app import QueryService
from repro.service.protocol import CONTENT_TYPE_JSON, ProtocolError, encode, error_payload

__all__ = ["Server"]

_LOGGER = logging.getLogger("repro.service.http")

#: Responses with these statuses close the connection: the governance
#: rejections (408/429) tell well-behaved clients to back off, and
#: dropping the socket makes the shed load real instead of queueing the
#: next request on the same keep-alive connection.
_CLOSE_ON = frozenset({408, 429, 499, 503})


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1.0"
    #: ``StreamRequestHandler.setup`` sets TCP_NODELAY on the accepted socket.
    disable_nagle_algorithm = True

    def _serve(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        # No usable length: a 400, and the socket cannot be reused.
        body = self.rfile.read(length) if length >= 0 else None
        service: QueryService = self.server.service  # type: ignore[attr-defined]
        status, content_type, payload = service.handle(self.command, self.path, body)
        self._respond(status, content_type, payload, status in _CLOSE_ON or body is None)

    def _respond(self, status: int, content_type: str, payload: bytes, close: bool) -> None:
        """The whole response in one write (``wfile`` is unbuffered)."""
        self.log_request(status, len(payload))
        head = [
            f"{self.protocol_version} {status} {self.responses.get(status, ('',))[0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
        ]
        if close:
            head.append("Connection: close")
            self.close_connection = True
        self.wfile.write("\r\n".join(head + ["", ""]).encode("latin-1") + payload)

    def send_error(self, code: int, message: Optional[str] = None, explain: Any = None) -> None:
        """The stdlib's own rejections (bad request line, unsupported
        method) in the service's shape: JSON body, one write, socket closed."""
        error = ProtocolError(message or self.responses.get(code, ("",))[0], status=code)
        self._respond(code, CONTENT_TYPE_JSON, encode(error_payload(error)), True)

    do_GET = _serve
    do_POST = _serve
    do_PUT = _serve
    do_DELETE = _serve

    def log_message(self, format: str, *args: Any) -> None:
        _LOGGER.debug("%s %s", self.address_string(), format % args)


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    #: Restarts in quick succession (tests, CI) must not hit TIME_WAIT.
    allow_reuse_address = True
    #: socketserver's default listen backlog is 5; a burst of concurrent
    #: clients (the load benchmark opens 100 sockets at once) would see
    #: connection resets before a worker thread ever accepts.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], service: QueryService):
        super().__init__(address, _Handler)
        self.service = service


class Server:
    """The query service bound to a listening socket.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  :meth:`start` serves from a daemon thread and
    returns immediately; :meth:`serve_forever` serves on the calling
    thread (the CLI path).  Stopping closes the service's pool but not
    the database — the caller owns that.
    """

    def __init__(
        self,
        database: Database,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_options: Any,
    ):
        self.service = QueryService(database, **service_options)
        self._httpd = _ServiceHTTPServer((host, port), self.service)
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the real one, even when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "Server":
        """Serve from a background daemon thread; returns immediately."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-service",
                daemon=True,
            )
            self._thread.start()
            _LOGGER.info("serving on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (CLI path)."""
        _LOGGER.info("serving on %s", self.url)
        self._httpd.serve_forever(poll_interval=0.05)

    def stop(self) -> None:
        """Stop accepting, join the serving thread, close the pool."""
        if self._stopped:
            return
        self._stopped = True
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        self.service.close()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
