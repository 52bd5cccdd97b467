"""The service wire protocol: length-prefixed binary frames.

Layout (all integers big-endian)::

    u32 frame_len                  # bytes that follow the prefix
    u8  version                    # 1 or 2; anything else -> typed error
    u8  kind                       # request opcode / response kind
    u64 seq                        # request id, echoed in the response
    [v2 only]
    u8  ext_flags                  # header extensions (bit0 = trace ctx)
    u64 trace_id                   # present iff ext_flags bit0 is set
    ...body                        # kind-specific

Version 2 adds an **optional trace-context extension** after the fixed
header: one flags byte, and — when bit0 is set — a 64-bit trace id that
correlates every span the request produces across the whole service stack
(client → accept → decode → dispatch → shard batch → engine).  Unknown
flag bits are a protocol error, which is what keeps future extensions
honest.  A v2 endpoint still decodes v1 frames (no extension byte) and
answers them with v1 frames, so old clients round-trip untouched; the
server mints a trace id for requests that did not carry one.

Request bodies:

=========  ==================================================================
STORE      name, flags(u8, bit0=offsets), dtype token, u8 ndim, u32 dims[],
           i64 offsets[] (when flagged), raw C-order payload
LOAD       name, u8 selkind (0 whole | 1 block | 2 hyperslab | 3 points),
           selection fields
DELETE     name
STATS      (empty)
PING       (empty)
METRICS    (empty)   -> OK json {"content_type", "body"}: Prometheus text
FLIGHT     (empty)   -> OK json: the flight-recorder dump (repro-flight/1)
=========  ==================================================================

Responses are **self-describing**: ``OK`` bodies start with a payload-kind
byte (empty | array | json), so the client never needs request context to
decode one.  ``ERR`` bodies carry a stable ``u16`` error code plus a JSON
detail blob; :func:`encode_error`/:func:`decode_error` round-trip the typed
exception taxonomy of :mod:`repro.errors` — a client catches
:class:`~repro.errors.ServiceOverloadedError` (with its ``retry_after_ms``)
exactly as if the call had been local.

Anything that violates the format raises
:class:`~repro.errors.ProtocolError` — the one error class the load
harness requires *zero* of.

The protocol also carries the service cost model: :func:`wire_cost_ns`
converts frame sizes to modeled nanoseconds (per-frame syscall/framing
overhead + per-byte streaming cost) so the RPC path has a deterministic
modeled clock like every other subsystem (COSTMODEL.md).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import (
    DimensionMismatchError,
    KeyNotFoundError,
    PmemcpyError,
    ProtocolError,
    ProtocolVersionError,
    ReproError,
    SerializationError,
    ServiceError,
    ServiceOverloadedError,
    ShardUnavailableError,
)
from ..pmemcpy.selection import Hyperslab, PointSelection, Selection
from ..serial.base import dtype_from_token, dtype_to_token

WIRE_VERSION = 2
#: oldest version this side still decodes (v1: no header extensions)
MIN_WIRE_VERSION = 1

#: hard ceiling on one frame; larger is a protocol violation, not an OOM
MAX_FRAME_BYTES = 64 * 1024 * 1024

# -- v2 header-extension flags ------------------------------------------------

EXT_TRACE = 0x01
_KNOWN_EXT = EXT_TRACE

# -- request opcodes / response kinds ----------------------------------------

OP_STORE = 0x01
OP_LOAD = 0x02
OP_DELETE = 0x03
OP_STATS = 0x04
OP_PING = 0x05
OP_METRICS = 0x06
OP_FLIGHT = 0x07

RESP_OK = 0x81
RESP_ERR = 0x82

_REQUEST_OPS = (OP_STORE, OP_LOAD, OP_DELETE, OP_STATS, OP_PING,
                OP_METRICS, OP_FLIGHT)

OP_NAMES = {
    OP_STORE: "store", OP_LOAD: "load", OP_DELETE: "delete",
    OP_STATS: "stats", OP_PING: "ping",
    OP_METRICS: "metrics", OP_FLIGHT: "flight",
}

# -- OK payload kinds ---------------------------------------------------------

PAYLOAD_EMPTY = 0
PAYLOAD_ARRAY = 1
PAYLOAD_JSON = 2

# -- LOAD selection kinds -----------------------------------------------------

SEL_WHOLE = 0
SEL_BLOCK = 1
SEL_HYPERSLAB = 2
SEL_POINTS = 3

# -- modeled wire costs (COSTMODEL.md: service layer) -------------------------

#: per-frame fixed cost: syscall + framing + scheduling, one direction
FRAME_OVERHEAD_NS = 2_000.0
#: per-byte streaming cost over the loopback transport (~20 GB/s)
WIRE_BYTE_NS = 0.05


def wire_cost_ns(nbytes: int) -> float:
    """Modeled cost of moving one ``nbytes`` frame one direction."""
    return FRAME_OVERHEAD_NS + nbytes * WIRE_BYTE_NS


_HDR = struct.Struct("!BBQ")  # version, kind, seq
_LEN = struct.Struct("!I")


# ---------------------------------------------------------------------------
# primitive writers/readers
# ---------------------------------------------------------------------------

def _pack_str(s: str) -> bytes:
    b = s.encode("utf-8")
    if len(b) > 0xFFFF:
        raise ProtocolError(f"string field too long ({len(b)} bytes)")
    return struct.pack("!H", len(b)) + b


class _Reader:
    """Bounds-checked cursor over one frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ProtocolError(
                f"truncated frame: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("!H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("!I", self.take(4))[0]

    def i64s(self, n: int) -> tuple[int, ...]:
        return struct.unpack(f"!{n}q", self.take(8 * n))

    def u32s(self, n: int) -> tuple[int, ...]:
        return struct.unpack(f"!{n}I", self.take(4 * n))

    def string(self) -> str:
        n = self.u16()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ProtocolError(f"bad utf-8 in string field: {e}") from e

    def rest(self) -> bytes:
        out = self.data[self.pos:]
        self.pos = len(self.data)
        return out

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} trailing bytes after body"
            )


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """One decoded frame header + body (trace context included)."""

    kind: int
    seq: int
    body: bytes
    version: int = WIRE_VERSION
    #: the trace-context extension, when the peer sent one (v2 bit0)
    trace_id: int | None = None


def encode_frame(kind: int, seq: int, body: bytes = b"", *,
                 version: int = WIRE_VERSION,
                 trace_id: int | None = None) -> bytes:
    """One complete frame, length prefix included.

    ``version=1`` emits the legacy header (no extension byte — what a v1
    peer expects); ``trace_id`` rides the v2 trace-context extension and
    is a protocol error on a v1 frame."""
    if version == MIN_WIRE_VERSION:
        if trace_id is not None:
            raise ProtocolError("v1 frames cannot carry a trace id")
        ext = b""
    elif version == WIRE_VERSION:
        if trace_id is None:
            ext = b"\x00"
        else:
            if not 0 < trace_id < (1 << 64):
                raise ProtocolError(f"trace id {trace_id} out of u64 range")
            ext = bytes([EXT_TRACE]) + struct.pack("!Q", trace_id)
    else:
        raise ProtocolError(f"cannot encode wire version {version}")
    payload = _HDR.pack(version, kind, seq) + ext + body
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LEN.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Frame:
    """Decode a frame payload (prefix stripped), v1 or v2."""
    if len(payload) < _HDR.size:
        raise ProtocolError(f"frame too short ({len(payload)} bytes)")
    version, kind, seq = _HDR.unpack_from(payload)
    if not MIN_WIRE_VERSION <= version <= WIRE_VERSION:
        raise ProtocolVersionError(version, WIRE_VERSION)
    off = _HDR.size
    trace_id = None
    if version >= 2:
        if len(payload) < off + 1:
            raise ProtocolError("v2 frame truncated before ext_flags")
        flags = payload[off]
        off += 1
        if flags & ~_KNOWN_EXT:
            raise ProtocolError(
                f"unknown header-extension flags 0x{flags:02x}")
        if flags & EXT_TRACE:
            if len(payload) < off + 8:
                raise ProtocolError("v2 frame truncated inside trace id")
            (trace_id,) = struct.unpack_from("!Q", payload, off)
            off += 8
    if kind not in _REQUEST_OPS and kind not in (RESP_OK, RESP_ERR):
        raise ProtocolError(f"unknown frame kind 0x{kind:02x}")
    return Frame(kind, seq, payload[off:], version, trace_id)


def decode_frame_payload(payload: bytes) -> tuple[int, int, bytes]:
    """``(kind, seq, body)`` from a frame payload (prefix stripped).

    Compatibility spelling of :func:`decode_frame` for callers that do not
    consume the trace context."""
    f = decode_frame(payload)
    return f.kind, f.seq, f.body


class FrameDecoder:
    """Incremental frame splitter for a byte stream.

    ``feed(data)`` returns the complete ``(kind, seq, body)`` tuples that
    became available; partial frames are buffered.  Desync (oversized or
    malformed length) raises :class:`ProtocolError` — the connection is
    unrecoverable past that point.
    """

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, int, bytes]]:
        self._buf.extend(data)
        out = []
        while True:
            if len(self._buf) < _LEN.size:
                return out
            (n,) = _LEN.unpack_from(self._buf)
            if n > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"declared frame length {n} exceeds MAX_FRAME_BYTES"
                )
            if len(self._buf) < _LEN.size + n:
                return out
            payload = bytes(self._buf[_LEN.size:_LEN.size + n])
            del self._buf[:_LEN.size + n]
            out.append(decode_frame_payload(payload))

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """A decoded request frame."""

    op: int
    seq: int
    name: str = ""
    array: np.ndarray | None = None
    offsets: tuple[int, ...] | None = None
    selection: Selection | None = None
    #: trace-context id correlating every span this request produces
    #: (0 until the service assigns/decodes one)
    trace_id: int = 0
    #: wire version the request arrived in (responses echo it)
    version: int = WIRE_VERSION

    @property
    def op_name(self) -> str:
        return OP_NAMES[self.op]

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes) if self.array is not None else 0


def encode_store(seq: int, name: str, array, offsets=None, *,
                 version: int = WIRE_VERSION,
                 trace_id: int | None = None) -> bytes:
    arr = np.ascontiguousarray(array)
    flags = 0x01 if offsets is not None else 0x00
    body = [_pack_str(name), bytes([flags]), _pack_str(dtype_to_token(arr.dtype)),
            bytes([arr.ndim]), struct.pack(f"!{arr.ndim}I", *arr.shape)]
    if offsets is not None:
        offsets = tuple(int(o) for o in offsets)
        if len(offsets) != arr.ndim:
            raise ProtocolError(
                f"store {name!r}: {len(offsets)} offsets for {arr.ndim}-d data"
            )
        body.append(struct.pack(f"!{arr.ndim}q", *offsets))
    body.append(arr.tobytes())
    return encode_frame(OP_STORE, seq, b"".join(body),
                        version=version, trace_id=trace_id)


def _encode_selection(sel: Selection) -> bytes:
    if isinstance(sel, Hyperslab):
        rank = sel.rank
        return (bytes([SEL_HYPERSLAB, rank])
                + struct.pack(f"!{4 * rank}q", *sel.start, *sel.count,
                              *sel.stride, *sel.block)
                if rank else bytes([SEL_HYPERSLAB, 0]))
    if isinstance(sel, PointSelection):
        pts = sel.points
        return (bytes([SEL_POINTS, sel.rank])
                + struct.pack("!I", len(pts))
                + pts.astype(">i8").tobytes())
    raise ProtocolError(f"selection {type(sel).__name__} is not wire-encodable")


def _decode_selection(r: _Reader) -> tuple[Selection | None,
                                           tuple[int, ...] | None,
                                           tuple[int, ...] | None]:
    """``(selection, offsets, dims)`` — exactly one spelling is non-None
    (or all None for a whole-variable load)."""
    selkind = r.u8()
    if selkind == SEL_WHOLE:
        return None, None, None
    if selkind == SEL_BLOCK:
        rank = r.u8()
        offsets = r.i64s(rank)
        dims = r.i64s(rank)
        return None, offsets, dims
    if selkind == SEL_HYPERSLAB:
        rank = r.u8()
        if rank == 0:
            return Hyperslab((), ()), None, None
        vals = r.i64s(4 * rank)
        start, count = vals[:rank], vals[rank:2 * rank]
        stride, block = vals[2 * rank:3 * rank], vals[3 * rank:]
        return Hyperslab(start, count, stride, block), None, None
    if selkind == SEL_POINTS:
        rank = r.u8()
        npts = r.u32()
        raw = r.take(8 * npts * rank)
        pts = np.frombuffer(raw, dtype=">i8").reshape(npts, rank)
        return PointSelection(pts), None, None
    raise ProtocolError(f"unknown selection kind {selkind}")


def encode_load(seq: int, name: str, offsets=None, dims=None,
                selection: Selection | None = None, *,
                version: int = WIRE_VERSION,
                trace_id: int | None = None) -> bytes:
    body = [_pack_str(name)]
    if selection is not None:
        if offsets is not None or dims is not None:
            raise ProtocolError("load: pass offsets/dims or selection, not both")
        body.append(_encode_selection(selection))
    elif offsets is not None or dims is not None:
        if offsets is None or dims is None:
            raise ProtocolError("load: offsets and dims go together")
        offsets = tuple(int(o) for o in offsets)
        dims = tuple(int(d) for d in dims)
        if len(offsets) != len(dims):
            raise ProtocolError("load: offsets/dims rank mismatch")
        body.append(bytes([SEL_BLOCK, len(offsets)])
                    + struct.pack(f"!{len(offsets)}q", *offsets)
                    + struct.pack(f"!{len(dims)}q", *dims))
    else:
        body.append(bytes([SEL_WHOLE]))
    return encode_frame(OP_LOAD, seq, b"".join(body),
                        version=version, trace_id=trace_id)


def encode_delete(seq: int, name: str, *, version: int = WIRE_VERSION,
                  trace_id: int | None = None) -> bytes:
    return encode_frame(OP_DELETE, seq, _pack_str(name),
                        version=version, trace_id=trace_id)


def encode_stats(seq: int, *, version: int = WIRE_VERSION,
                 trace_id: int | None = None) -> bytes:
    return encode_frame(OP_STATS, seq, version=version, trace_id=trace_id)


def encode_ping(seq: int, *, version: int = WIRE_VERSION,
                trace_id: int | None = None) -> bytes:
    return encode_frame(OP_PING, seq, version=version, trace_id=trace_id)


def encode_metrics(seq: int, *, version: int = WIRE_VERSION,
                   trace_id: int | None = None) -> bytes:
    return encode_frame(OP_METRICS, seq, version=version, trace_id=trace_id)


def encode_flight(seq: int, *, version: int = WIRE_VERSION,
                  trace_id: int | None = None) -> bytes:
    return encode_frame(OP_FLIGHT, seq, version=version, trace_id=trace_id)


def decode_request(kind: int, seq: int, body: bytes, *,
                   trace_id: int = 0,
                   version: int = WIRE_VERSION) -> Request:
    """Decode one request frame body into a :class:`Request`."""
    r = _Reader(body)
    if kind == OP_STORE:
        name = r.string()
        flags = r.u8()
        token = r.string()
        try:
            dtype = dtype_from_token(token)
        except SerializationError as e:
            raise ProtocolError(f"store {name!r}: {e}") from e
        if dtype.hasobject:
            raise ProtocolError(
                f"store {name!r}: dtype {dtype} holds Python objects"
            )
        ndim = r.u8()
        dims = r.u32s(ndim)
        offsets = None
        if flags & 0x01:
            offsets = r.i64s(ndim)
        raw = r.rest()
        want = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize if ndim \
            else dtype.itemsize
        if len(raw) != want:
            raise ProtocolError(
                f"store {name!r}: payload is {len(raw)} bytes, "
                f"dims {tuple(dims)} × {dtype} need {want}"
            )
        arr = np.frombuffer(raw, dtype=dtype).reshape(dims)
        return Request(kind, seq, name, array=arr, offsets=offsets,
                       trace_id=trace_id, version=version)
    if kind == OP_LOAD:
        name = r.string()
        selection, offsets, dims = _decode_selection(r)
        r.expect_end()
        if offsets is not None:
            selection = Hyperslab.from_block(offsets, dims)
        return Request(kind, seq, name, selection=selection,
                       trace_id=trace_id, version=version)
    if kind == OP_DELETE:
        name = r.string()
        r.expect_end()
        return Request(kind, seq, name, trace_id=trace_id, version=version)
    if kind in (OP_STATS, OP_PING, OP_METRICS, OP_FLIGHT):
        r.expect_end()
        return Request(kind, seq, trace_id=trace_id, version=version)
    raise ProtocolError(f"frame kind 0x{kind:02x} is not a request")


# ---------------------------------------------------------------------------
# responses
# ---------------------------------------------------------------------------

def encode_ok_empty(seq: int, *, version: int = WIRE_VERSION,
                    trace_id: int | None = None) -> bytes:
    return encode_frame(RESP_OK, seq, bytes([PAYLOAD_EMPTY]),
                        version=version, trace_id=trace_id)


def encode_ok_array(seq: int, array: np.ndarray, *,
                    version: int = WIRE_VERSION,
                    trace_id: int | None = None) -> bytes:
    arr = np.ascontiguousarray(array)
    body = (bytes([PAYLOAD_ARRAY]) + _pack_str(dtype_to_token(arr.dtype))
            + bytes([arr.ndim]) + struct.pack(f"!{arr.ndim}I", *arr.shape)
            + arr.tobytes())
    return encode_frame(RESP_OK, seq, body,
                        version=version, trace_id=trace_id)


def encode_ok_json(seq: int, doc, *, version: int = WIRE_VERSION,
                   trace_id: int | None = None) -> bytes:
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return encode_frame(RESP_OK, seq, bytes([PAYLOAD_JSON]) + blob,
                        version=version, trace_id=trace_id)


def decode_ok(body: bytes):
    """The OK payload: ``None``, an ndarray, or a decoded JSON object."""
    r = _Reader(body)
    pk = r.u8()
    if pk == PAYLOAD_EMPTY:
        r.expect_end()
        return None
    if pk == PAYLOAD_ARRAY:
        dtype = dtype_from_token(r.string())
        ndim = r.u8()
        dims = r.u32s(ndim)
        raw = r.rest()
        want = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize if ndim \
            else dtype.itemsize
        if len(raw) != want:
            raise ProtocolError(
                f"array payload is {len(raw)} bytes, needs {want}"
            )
        arr = np.frombuffer(raw, dtype=dtype).reshape(dims)
        return arr[()] if ndim == 0 else arr
    if pk == PAYLOAD_JSON:
        try:
            return json.loads(r.rest().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ProtocolError(f"bad json payload: {e}") from e
    raise ProtocolError(f"unknown OK payload kind {pk}")


# -- typed errors over the wire ----------------------------------------------

ERR_INTERNAL = 1
ERR_PROTOCOL = 2
ERR_VERSION = 3
ERR_OVERLOADED = 4
ERR_SHARD_UNAVAILABLE = 5
ERR_KEY_NOT_FOUND = 6
ERR_DIMENSION = 7
ERR_BAD_REQUEST = 8

#: decode table: wire code -> rebuilder(detail dict) -> exception instance.
#: Rebuilders restore the typed attributes (retry_after_ms, shard, ...) so
#: client-side handling is indistinguishable from a local call.
_DECODERS = {
    ERR_INTERNAL: lambda d: ServiceError(d.get("message", "internal error")),
    ERR_PROTOCOL: lambda d: ProtocolError(d.get("message", "protocol error")),
    ERR_VERSION: lambda d: ProtocolVersionError(
        int(d.get("theirs", 0)), int(d.get("ours", WIRE_VERSION))),
    ERR_OVERLOADED: lambda d: ServiceOverloadedError(
        int(d.get("inflight", 0)), int(d.get("limit", 0)),
        float(d.get("retry_after_ms", 50.0))),
    ERR_SHARD_UNAVAILABLE: lambda d: ShardUnavailableError(
        int(d.get("shard", -1)), d.get("var_id", "")),
    ERR_KEY_NOT_FOUND: lambda d: KeyNotFoundError(d.get("message", "")),
    ERR_DIMENSION: lambda d: DimensionMismatchError(d.get("message", "")),
    ERR_BAD_REQUEST: lambda d: PmemcpyError(d.get("message", "")),
}


def _error_code_and_detail(exc: BaseException) -> tuple[int, dict]:
    detail: dict = {"message": str(exc)}
    if isinstance(exc, ProtocolVersionError):
        return ERR_VERSION, {**detail, "theirs": exc.theirs, "ours": exc.ours}
    if isinstance(exc, ServiceOverloadedError):
        return ERR_OVERLOADED, {
            **detail, "inflight": exc.inflight, "limit": exc.limit,
            "retry_after_ms": exc.retry_after_ms,
        }
    if isinstance(exc, ShardUnavailableError):
        return ERR_SHARD_UNAVAILABLE, {
            **detail, "shard": exc.shard, "var_id": exc.var_id,
        }
    if isinstance(exc, ProtocolError):
        return ERR_PROTOCOL, detail
    if isinstance(exc, KeyNotFoundError):
        # KeyError reprs its arg; keep the clean message
        return ERR_KEY_NOT_FOUND, {"message": exc.args[0] if exc.args else ""}
    if isinstance(exc, DimensionMismatchError):
        return ERR_DIMENSION, detail
    if isinstance(exc, PmemcpyError):
        return ERR_BAD_REQUEST, detail
    if isinstance(exc, ReproError):
        return ERR_INTERNAL, detail
    return ERR_INTERNAL, {"message": f"{type(exc).__name__}: {exc}"}


def encode_error(seq: int, exc: BaseException, *,
                 version: int = WIRE_VERSION,
                 trace_id: int | None = None) -> bytes:
    code, detail = _error_code_and_detail(exc)
    blob = json.dumps(detail, sort_keys=True).encode("utf-8")
    return encode_frame(RESP_ERR, seq, struct.pack("!H", code) + blob,
                        version=version, trace_id=trace_id)


def decode_error(body: bytes) -> Exception:
    """Rebuild the typed exception an ERR frame carries (never raises it)."""
    r = _Reader(body)
    code = r.u16()
    raw = r.rest()
    try:
        detail = json.loads(raw.decode("utf-8")) if raw else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ProtocolError(f"bad error detail blob: {e}") from e
    builder = _DECODERS.get(code)
    if builder is None:
        return ServiceError(
            f"unknown error code {code}: {detail.get('message', '')}"
        )
    return builder(detail)
