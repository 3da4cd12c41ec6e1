"""Real TCP transport for the fetch protocol (localhost two-node mode).

The in-memory channel is the default transport; this module provides an
actual socket path -- a threaded TCP server wrapping a
:class:`~repro.rpc.server.StorageServer` and a client that speaks the same
length-prefixed framing -- so the "two nodes" of the paper's testbed can
be two processes (or just two sockets) for real.

Framing: every message (request or response) is preceded by a u32 length,
little-endian.  One TCP connection carries many sequential fetches.

Failure semantics (the loader's retry layer depends on these):

- connect/read stalls surface as ``TimeoutError`` (retryable);
- a dropped connection surfaces as ``ConnectionError`` (retryable);
- oversized frames and server-side errors surface as ``ProtocolError``
  (non-retryable) -- the server answers an explicit error frame before
  closing, so clients can tell "you sent garbage" from "the network ate it".
"""

import socket
import struct
import threading
from typing import Callable, Optional, Tuple

from repro.preprocessing.payload import Payload
from repro.rpc.messages import FetchRequest, FetchResponse, ProtocolError
from repro.telemetry.logs import StructuredLogger

# Module-level structured logger (logical clock: the transport has no
# virtual time axis of its own; ordering is what matters).
logger = StructuredLogger("repro.rpc.tcp")

_LENGTH = struct.Struct("<I")
_MAX_MESSAGE = 512 * 1024 * 1024  # sanity cap, not a protocol limit
_ERROR_PREFIX = b"ERR!"


def _send_message(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    while count > 0:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            return None  # peer closed
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _recv_message(
    sock: socket.socket, max_bytes: int = _MAX_MESSAGE
) -> Optional[bytes]:
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise ProtocolError(f"message of {length} bytes exceeds the {max_bytes} cap")
    return _recv_exact(sock, length)


class TcpStorageServer:
    """Serves a request handler over TCP, one thread per connection.

    ``stop()``/``close()`` shuts down every accepted connection, so client
    fetches in flight fail fast with ``ConnectionError`` instead of hanging.
    A frame larger than ``max_message_bytes`` is answered with an explicit
    protocol-error frame (then the connection closes, since the stream can
    no longer be trusted) -- the client sees ``ProtocolError``, not a
    retryable transport error.

    Use as a context manager::

        with TcpStorageServer(server.handle) as tcp:
            client = TcpStorageClient(tcp.address)
    """

    def __init__(
        self,
        handler: Callable[[bytes], bytes],
        host: str = "127.0.0.1",
        max_message_bytes: int = _MAX_MESSAGE,
    ) -> None:
        if max_message_bytes < 1:
            raise ValueError(f"max_message_bytes must be >= 1, got {max_message_bytes}")
        self._handler = handler
        self._max_message = max_message_bytes
        self._listener = socket.create_server((host, 0))
        self._listener.settimeout(0.2)
        self.address = self._listener.getsockname()
        self._stop = threading.Event()
        self._threads = []
        self._connections = []
        self._conn_lock = threading.Lock()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self.requests_served = 0

    def start(self) -> "TcpStorageServer":
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._conn_lock:
                if self._stop.is_set():
                    conn.close()
                    return
                self._connections.append(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            with self._conn_lock:
                self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                while not self._stop.is_set():
                    try:
                        request = _recv_message(conn, self._max_message)
                    except ProtocolError as exc:
                        # Oversized frame: tell the client *why* before
                        # closing (the stream position is now unknown).
                        try:
                            _send_message(
                                conn,
                                _ERROR_PREFIX
                                + str(exc).encode("utf-8", "replace"),
                            )
                        except OSError:
                            pass
                        return
                    except OSError:
                        return
                    if request is None:
                        return
                    try:
                        response = self._handler(request)
                    except Exception as exc:  # report, don't kill the connection
                        logger.warning(
                            "handler failed serving a fetch",
                            error_type=type(exc).__name__,
                            error=str(exc),
                        )
                        response = _ERROR_PREFIX + str(exc).encode("utf-8", "replace")
                    try:
                        _send_message(conn, response)
                    except OSError:
                        return
                    with self._conn_lock:
                        self.requests_served += 1
        finally:
            with self._conn_lock:
                if conn in self._connections:
                    self._connections.remove(conn)

    def stop(self) -> None:
        """Stop accepting and close every live connection cleanly."""
        self._stop.set()
        self._listener.close()
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread.is_alive():
            self._accept_thread.join(timeout=2.0)
        with self._conn_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=2.0)

    def close(self) -> None:
        self.stop()

    def __enter__(self) -> "TcpStorageServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


class TcpStorageClient:
    """Fetch samples over a TCP connection; satisfies ``SupportsFetch``.

    connect_timeout: seconds to wait for the TCP connection (was a
        hardcoded 10 s).
    read_timeout: per-recv stall budget; None blocks forever (the old
        behaviour -- a stalled server hangs the loader), a finite value
        surfaces stalls as retryable ``TimeoutError``.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        connect_timeout: float = 10.0,
        read_timeout: Optional[float] = None,
    ) -> None:
        if connect_timeout <= 0:
            raise ValueError(f"connect_timeout must be > 0, got {connect_timeout}")
        if read_timeout is not None and read_timeout <= 0:
            raise ValueError(f"read_timeout must be > 0, got {read_timeout}")
        self._sock = socket.create_connection(address, timeout=connect_timeout)
        self._sock.settimeout(read_timeout)
        self.traffic_bytes = 0  # response payload bytes received
        self.checksum_failures = 0
        self._lock = threading.Lock()

    def fetch(self, sample_id: int, epoch: int, split: int) -> Payload:
        from repro.rpc.messages import ChecksumError

        request = FetchRequest(sample_id=sample_id, epoch=epoch, split=split)
        try:
            # This lock exists precisely to serialize request/response
            # pairs on the single shared socket, so the blocking I/O
            # *must* happen inside it.
            with self._lock:
                _send_message(self._sock, request.to_bytes())  # sophon-lint: disable=GUARD02
                wire = _recv_message(self._sock)  # sophon-lint: disable=GUARD02
        except socket.timeout as exc:
            raise TimeoutError(f"fetch of sample {sample_id} timed out") from exc
        except ConnectionError:
            raise
        except OSError as exc:
            # A torn-down socket (server killed, EBADF, RST variants) is a
            # transport failure: map onto the retryable path.
            raise ConnectionError(f"transport failed: {exc}") from exc
        if wire is None:
            raise ConnectionError("server closed the connection")
        if wire.startswith(_ERROR_PREFIX):
            raise ProtocolError(wire[len(_ERROR_PREFIX):].decode("utf-8", "replace"))
        with self._lock:
            self.traffic_bytes += len(wire)
        try:
            response = FetchResponse.from_bytes(wire)
        except ChecksumError:
            with self._lock:
                self.checksum_failures += 1
            raise
        if response.sample_id != sample_id or response.split != split:
            raise ProtocolError("response does not match the request")
        return response.to_payload()

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "TcpStorageClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
