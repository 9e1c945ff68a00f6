"""The packed binary columnar segment payload (store format version 3).

A columnar segment stores one contiguous little-endian buffer per schema
column behind a small JSON header, so sealing a segment is a handful of
``ndarray.tobytes`` calls and opening one is a handful of zero-copy
``np.frombuffer`` views — no per-row JSON encode/decode anywhere on the
path.  The payload layout is::

    b"RCS1"                      # magic, 4 bytes
    <u32 little-endian>          # byte length of the JSON header
    header JSON (UTF-8)          # {"kind", "rows", "columns": [...]}
    column buffer 0              # header.columns[0]["nbytes"] bytes
    column buffer 1
    ...

Each header column entry records ``{"name", "encoding", "dtype", ...}``
where ``dtype`` is the NumPy dtype string of the value buffer (always
little-endian, e.g. ``"<f8"``, ``"<i8"``, ``"|b1"``, ``"<U12"``).  Two
encodings exist:

* ``"raw"`` — the buffer is the array's memory verbatim (numeric columns,
  and string columns whose values barely repeat);
* ``"dict"`` — low-cardinality string columns (device names, scenarios,
  route targets... — the overwhelmingly common case in event streams)
  store their distinct values once as a fixed-width UCS-4 table plus one
  small unsigned code per row (``u1``/``u2``/``u4``, whichever fits), which
  shrinks the hot string columns from ~100 bytes/row to ~1 byte/row and is
  what lets columnar ingest outrun the disk rather than the CPU.  Decoding
  is a single fancy-index gather, and the decoded array's dtype width (the
  longest value present) matches what pivoting the same rows through
  ``np.array`` would produce, so the two paths stay interchangeable.

Either way a value read back compares bit-for-bit equal to the value
written — the same exactness contract the JSONL format keeps via
shortest-repr floats.

A column entry may additionally carry ``"compression": "zlib"``: the
column's buffer section (values table + codes for dict columns, the array
memory for raw ones) is stored zlib-deflated, with ``"raw_nbytes"``
recording the uncompressed section length and ``"nbytes"`` the stored
(compressed) length.  Compression is chosen per column at pack time and
only kept when it actually shrinks the section; a section it does not
shrink stays raw (and zero-copy readable).  A raw section whose values
are wider than one byte is byte-shuffled before it is deflated — byte
``k`` of every value stored together, the HDF5/Blosc shuffle filter — and
its entry records ``"shuffle": <itemsize>``.  Shuffling puts the
near-constant high bytes of integers and the sign/exponent bytes of
floats into long runs that deflate well even at the fast level 1, where
interleaved float columns barely shrink.  Entries without ``"shuffle"``
(every segment written before it existed) inflate straight to the value
buffer.  The segment checksum always covers the durable bytes — i.e. the
*compressed* payload for compressed columns.

Reads go through :func:`open_columns`, which returns a lazy
:class:`LazyColumns` mapping that decodes a column on first access — over
an ``mmap`` buffer, raw uncompressed columns become true zero-copy views
of the on-disk pages, which is what keeps queries over multi-gigabyte
campaign stores memory-flat.

This module is the pure codec: bytes in, arrays out.  File IO, checksums
and manifest plumbing live in :mod:`repro.store.segment`; malformed input
raises :class:`ValueError` here and is wrapped into
:class:`~repro.store.segment.StoreCorruptionError` there.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Iterator, Mapping, NamedTuple, Optional

import numpy as np

from repro.store.schema import RowKind

__all__ = ["COLUMNAR_MAGIC", "CodedColumn", "pack_columns", "open_columns",
           "LazyColumns", "coerce_batch"]


class CodedColumn(NamedTuple):
    """A dictionary-encoded column as codes + vocabulary, un-gathered.

    ``values`` is the sorted distinct-value table (``np.unique`` order —
    so code order *is* string sort order) and ``codes`` the per-row
    ``u1``/``u2``/``u4`` indices into it; ``values[codes]`` is the decoded
    array.  The query engine evaluates predicates against ``values`` once
    and filters ``codes`` instead of ever materialising unicode rows for
    filtered-out data (see :meth:`LazyColumns.coded`); a ``CodedColumn``
    whose codes were masked down to the surviving rows still decodes to
    exactly what masking the decoded array would have produced.
    """

    codes: np.ndarray
    values: np.ndarray

    def decode(self) -> np.ndarray:
        """The decoded unicode array (one fancy-index gather)."""
        return self.values[self.codes]

#: First four payload bytes of every columnar segment.
COLUMNAR_MAGIC = b"RCS1"

_HEADER_LEN = struct.Struct("<I")

#: Sections smaller than this are never compressed — the deflate header
#: would eat the savings and every read would pay a pointless inflate.
COMPRESS_MIN_BYTES = 64

#: zlib level for compressed columns.  Byte-shuffled numeric sections are
#: long runs that level 1 already deflates about as well as level 6, at a
#: fraction of the compression time.
COMPRESS_LEVEL = 1


def coerce_batch(kind: RowKind, columns: Mapping[str, np.ndarray]
                 ) -> dict[str, np.ndarray]:
    """Validate and normalise one column batch against a row kind's schema.

    Every schema column must be present and all columns must share one
    length; extra keys are rejected (a misspelt column name must not drop
    data silently).  Values are coerced to the schema dtype — the one place
    the batch path type-checks, amortised over the whole batch instead of
    per row.

    The returned arrays never alias a *mutable* caller buffer: values that
    coerce get a new array anyway, and values that still touch caller
    memory are copied — the batch counterpart of ``append_row``'s
    defensive ``dict(row)``, so a producer may reuse its buffers after the
    append without silently rewriting data that is still waiting to be
    sealed.  Only arrays that are immutable through their whole base chain
    (read-only with no writable ancestor — what the simulators'
    ``column_batch`` methods hand over) are trusted without a copy; a
    read-only *view* of a writable buffer is not, since the base can still
    be written through.
    """
    missing = [c.name for c in kind.columns if c.name not in columns]
    if missing:
        raise ValueError(
            f"batch for kind {kind.name!r} is missing columns {missing}")
    extra = sorted(set(columns) - kind.column_name_set)
    if extra:
        raise ValueError(
            f"batch for kind {kind.name!r} has unknown columns {extra}")
    coerced: dict[str, np.ndarray] = {}
    rows = None
    for column in kind.columns:
        original = columns[column.name]
        array = np.asarray(original)
        if array.ndim != 1:
            raise ValueError(
                f"column {column.name!r} must be 1-D, got shape {array.shape}")
        if column.dtype == "str":
            if array.dtype.kind != "U":
                array = array.astype(np.str_)
        elif array.dtype != column.numpy_dtype:
            array = array.astype(column.numpy_dtype)
        if not _chain_readonly(array) and (array is original
                                           or array.base is not None):
            # The array still aliases memory the caller can write (either
            # their own object, or a zero-copy wrap of their buffer).
            array = array.copy()
        if rows is None:
            rows = array.size
        elif array.size != rows:
            raise ValueError(
                f"column {column.name!r} holds {array.size} values, "
                f"expected {rows}")
        coerced[column.name] = array
    return coerced


def _chain_readonly(array: np.ndarray) -> bool:
    """Whether mutation is impossible through this array or any of its bases.

    ``flags.writeable`` alone is not enough: a read-only view of a writable
    base can still change under us through the base, so only an all-read-only
    base chain ending in an owning array (or immutable ``bytes``) is trusted
    without a defensive copy.
    """
    while True:
        if array.flags.writeable:
            return False
        base = array.base
        if base is None:
            return True
        if isinstance(base, np.ndarray):
            array = base
            continue
        # Foreign buffer (mmap, memoryview, ...): immutable only for bytes.
        return isinstance(base, bytes)


def _little_endian(array: np.ndarray) -> np.ndarray:
    """The array with a little-endian (or endian-free) dtype."""
    if array.dtype.byteorder == ">":
        return array.astype(array.dtype.newbyteorder("<"))
    return array


def _payload_dtype(column: str, spec) -> np.dtype:
    """A header dtype string as a usable dtype, or :class:`ValueError`.

    A corrupt header can hold anything here — non-strings raise
    ``TypeError`` inside NumPy, ``"<U0"`` parses but has itemsize 0 (a
    division-by-zero trap downstream) — so every failure mode funnels into
    the codec's ``ValueError`` contract.
    """
    try:
        dtype = np.dtype(spec)
    except TypeError as error:
        raise ValueError(
            f"column {column!r} has an invalid dtype in its header: {error}")
    if dtype.itemsize <= 0:
        raise ValueError(
            f"column {column!r} has a zero-width dtype in its header")
    return dtype


def _codes_dtype(num_values: int) -> str:
    """Smallest unsigned dtype addressing a dictionary of this size."""
    if num_values <= 1 << 8:
        return "<u1"
    if num_values <= 1 << 16:
        return "<u2"
    return "<u4"


def _shuffle(section: bytes, itemsize: int) -> bytes:
    """Byte-shuffle a value buffer (byte ``k`` of every value together)."""
    return np.frombuffer(section, np.uint8).reshape(-1, itemsize).T.tobytes()


def _unshuffle(section: bytes, dtype: np.dtype) -> np.ndarray:
    """The values of a byte-shuffled buffer, as a read-only array.

    The inverse of :func:`_shuffle`; the array owns its memory and is
    read-only through its whole base chain.
    """
    count = len(section) // dtype.itemsize
    planes = np.frombuffer(section, np.uint8).reshape(dtype.itemsize, count)
    values = np.ascontiguousarray(planes.T)
    values.setflags(write=False)
    return values.view(dtype).reshape(count)


def _maybe_compress(entry: dict, section: bytes, compress: bool, *,
                    shuffle: int = 0) -> bytes:
    """Deflate one column's buffer section when that actually helps.

    Mutates ``entry`` to record the compression and both byte lengths; the
    stored ``nbytes`` is always the on-disk section length (what offsets
    are computed from), ``raw_nbytes`` the decoded one.  ``shuffle`` (the
    value width of a raw numeric section, 0 for none) byte-shuffles the
    section before it is deflated; it is recorded only when the deflated
    section is kept.
    """
    if compress and len(section) >= COMPRESS_MIN_BYTES:
        deflated = zlib.compress(
            _shuffle(section, shuffle) if shuffle else section,
            COMPRESS_LEVEL)
        if len(deflated) < len(section):
            entry["compression"] = "zlib"
            if shuffle:
                entry["shuffle"] = shuffle
            entry["raw_nbytes"] = len(section)
            entry["nbytes"] = len(deflated)
            return deflated
    entry["nbytes"] = len(section)
    return section


def pack_columns(kind: RowKind, columns: Mapping[str, np.ndarray], *,
                 distinct_out: Optional[dict] = None,
                 compress: bool = False) -> bytes:
    """Pack one validated column batch into the binary segment payload.

    ``distinct_out``, when given, is filled with each string column's sorted
    distinct-value array — computed here anyway to choose the encoding, and
    reusable for the manifest's pruning stats so sealing a segment runs
    ``np.unique`` once per column, not twice.  ``compress`` opts each
    column's buffer section into per-column zlib (kept only when smaller,
    numeric values byte-shuffled first; see the module docstring for the
    header fields).
    """
    buffers: list[bytes] = []
    entries: list[dict] = []
    rows = 0
    for column in kind.columns:
        array = np.ascontiguousarray(_little_endian(columns[column.name]))
        rows = int(array.size)
        if column.dtype == "str":
            uniques, codes = np.unique(array, return_inverse=True)
            if distinct_out is not None:
                distinct_out[column.name] = uniques
            codes_dtype = _codes_dtype(uniques.size)
            encoded_nbytes = uniques.nbytes \
                + codes.size * np.dtype(codes_dtype).itemsize
            if encoded_nbytes < array.nbytes:
                values_payload = _little_endian(uniques).tobytes()
                codes_payload = codes.astype(codes_dtype).tobytes()
                entry = {
                    "name": column.name, "encoding": "dict",
                    "dtype": uniques.dtype.str,
                    "values_nbytes": len(values_payload),
                    "codes_dtype": codes_dtype,
                }
                buffers.append(_maybe_compress(
                    entry, values_payload + codes_payload, compress))
                entries.append(entry)
                continue
        entry = {"name": column.name, "encoding": "raw",
                 "dtype": array.dtype.str}
        itemsize = array.dtype.itemsize
        numeric = array.dtype.kind in "iuf" and itemsize > 1
        buffers.append(_maybe_compress(entry, array.tobytes(), compress,
                                       shuffle=itemsize if numeric else 0))
        entries.append(entry)
    header = json.dumps({"kind": kind.name, "rows": rows,
                         "columns": entries},
                        sort_keys=True).encode("utf-8")
    return b"".join([COLUMNAR_MAGIC, _HEADER_LEN.pack(len(header)), header,
                     *buffers])


def _parse_entry(entry: Mapping, offset: int, payload_len: int,
                 rows: int) -> dict:
    """Validate one header column entry; returns its normalised plan.

    Everything knowable without touching the column's bytes is checked
    here — bounds, dtypes, dictionary layout, and (for uncompressed
    sections, whose decoded length equals the stored one) the element
    count against ``rows`` — so :func:`open_columns` surfaces structural
    corruption eagerly even though decoding itself is lazy.
    """
    try:
        name = entry["name"]
        nbytes = int(entry["nbytes"])
        dtype = _payload_dtype(name, entry["dtype"])
    except (KeyError, TypeError) as error:
        raise ValueError(f"columnar header entry is malformed: {error}")
    if nbytes < 0 or payload_len < offset + nbytes:
        raise ValueError(
            f"columnar payload truncated inside column {name!r}")
    compression = entry.get("compression")
    if compression is None:
        raw_nbytes = nbytes
    elif compression == "zlib":
        try:
            raw_nbytes = int(entry["raw_nbytes"])
        except (KeyError, TypeError) as error:
            raise ValueError(f"columnar header entry is malformed: {error}")
        if raw_nbytes < 0:
            raise ValueError(
                f"column {name!r} has a negative decoded length")
    else:
        raise ValueError(
            f"column {name!r} uses unknown compression {compression!r}")
    plan = {"name": name, "offset": offset, "nbytes": nbytes,
            "raw_nbytes": raw_nbytes, "dtype": dtype,
            "compression": compression,
            "encoding": entry.get("encoding", "raw"),
            "shuffle": _parse_shuffle(entry, name, dtype, compression)}
    if plan["encoding"] == "dict":
        try:
            values_nbytes = int(entry["values_nbytes"])
            codes_dtype = _payload_dtype(name, entry["codes_dtype"])
        except (KeyError, TypeError) as error:
            raise ValueError(f"columnar header entry is malformed: {error}")
        if not 0 <= values_nbytes <= raw_nbytes:
            raise ValueError(
                f"column {name!r} dictionary sizes are inconsistent")
        codes_nbytes = raw_nbytes - values_nbytes
        if values_nbytes % dtype.itemsize or \
                codes_nbytes % codes_dtype.itemsize:
            raise ValueError(
                f"column {name!r} dictionary buffers are misaligned")
        plan["values_nbytes"] = values_nbytes
        plan["codes_dtype"] = codes_dtype
        if compression is None and \
                codes_nbytes // codes_dtype.itemsize != rows:
            raise ValueError(
                f"column {name!r} decodes to "
                f"{codes_nbytes // codes_dtype.itemsize} values, "
                f"expected {rows}")
    else:
        if raw_nbytes % dtype.itemsize:
            raise ValueError(
                f"column {name!r} buffer is not a whole number of "
                f"{dtype} values")
        if compression is None and raw_nbytes // dtype.itemsize != rows:
            raise ValueError(
                f"column {name!r} decodes to {raw_nbytes // dtype.itemsize} "
                f"values, expected {rows}")
    return plan


def _parse_shuffle(entry: Mapping, name: str, dtype: np.dtype,
                   compression: Optional[str]) -> bool:
    """Whether a header entry's section is byte-shuffled, validated.

    ``"shuffle"`` is legal only on a compressed raw entry and only as the
    integer width of its values (wider than one byte); anything else is
    a corrupt header.
    """
    if "shuffle" not in entry:
        return False
    shuffle = entry["shuffle"]
    if compression is None or entry.get("encoding", "raw") != "raw":
        raise ValueError(
            f"column {name!r} is shuffled but not a compressed raw section")
    if type(shuffle) is not int or shuffle < 2 \
            or shuffle != dtype.itemsize:
        raise ValueError(
            f"column {name!r} has shuffle {shuffle!r}, which is not the "
            f"width of its {dtype} values")
    return True


def _decode_dict(source, start: int, plan: dict, rows: int) -> CodedColumn:
    """View a dict-encoded column's codes and vocabulary, validated.

    Zero-copy ``frombuffer`` views over ``source`` (the payload, or an
    inflated section); the code bounds check — every failure mode a
    corrupt dictionary can produce — happens here, so the coded and the
    decoded read paths surface corruption identically.
    """
    name = plan["name"]
    dtype = plan["dtype"]
    values_nbytes = plan["values_nbytes"]
    codes_dtype = plan["codes_dtype"]
    codes_nbytes = plan["raw_nbytes"] - values_nbytes
    values = np.frombuffer(source, dtype=dtype,
                           count=values_nbytes // dtype.itemsize,
                           offset=start)
    codes = np.frombuffer(source, dtype=codes_dtype,
                          count=codes_nbytes // codes_dtype.itemsize,
                          offset=start + values_nbytes)
    if codes.size != rows:
        raise ValueError(
            f"column {name!r} decodes to {codes.size} values, "
            f"expected {rows}")
    if codes.size and (not values.size
                       or int(codes.max()) >= values.size):
        raise ValueError(
            f"column {name!r} has codes outside its dictionary")
    return CodedColumn(codes, values)


def _inflated_section(payload, plan: dict):
    """``(source, start)`` of one column's decoded buffer section."""
    name = plan["name"]
    offset, nbytes = plan["offset"], plan["nbytes"]
    if plan["compression"] is None:
        return payload, offset
    try:
        source = zlib.decompress(bytes(payload[offset:offset + nbytes]))
    except zlib.error as error:
        raise ValueError(
            f"column {name!r} compressed section is corrupt: {error}")
    if len(source) != plan["raw_nbytes"]:
        raise ValueError(
            f"column {name!r} inflates to {len(source)} bytes, header "
            f"says {plan['raw_nbytes']}")
    return source, 0


def _decode_column(payload, plan: dict, rows: int) -> np.ndarray:
    """Decode one column from its validated plan (see :func:`_parse_entry`).

    Uncompressed sections decode as zero-copy ``frombuffer`` views of
    ``payload`` (bytes or an ``mmap``); compressed ones inflate into a
    fresh immutable ``bytes`` first, and shuffled ones are then gathered
    back into value order.  Dictionary columns additionally gather their
    decoded values — the one materialising step.
    """
    name = plan["name"]
    source, start = _inflated_section(payload, plan)
    dtype = plan["dtype"]
    if plan["encoding"] == "dict":
        array = _decode_dict(source, start, plan, rows).decode()
        array.setflags(write=False)
        return array
    if plan["shuffle"]:
        array = _unshuffle(source, dtype)
    else:
        array = np.frombuffer(source, dtype=dtype,
                              count=plan["raw_nbytes"] // dtype.itemsize,
                              offset=start)
    if array.size != rows:
        raise ValueError(
            f"column {name!r} decodes to {array.size} values, "
            f"expected {rows}")
    return array


class LazyColumns(Mapping):
    """Columns of one payload, decoded on first access and cached.

    Behaves as an ordinary ``Mapping[str, np.ndarray]`` in schema column
    order.  The payload may be ``bytes`` or a read-only ``mmap`` — in the
    latter case raw uncompressed columns are zero-copy views of the mapped
    pages, so holding the mapping open costs page-table entries, not
    resident memory, and the query engine's column pruning means columns a
    query never touches are never decoded at all.  Decode failures raise
    :class:`ValueError` (the codec's corruption contract) at access time.
    """

    __slots__ = ("_payload", "_rows", "_plans", "_cache", "_coded")

    def __init__(self, payload, rows: int, plans: dict[str, dict]) -> None:
        self._payload = payload
        self._rows = rows
        self._plans = plans
        self._cache: dict[str, np.ndarray] = {}
        self._coded: dict[str, CodedColumn] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        array = self._cache.get(name)
        if array is None:
            array = _decode_column(self._payload, self._plans[name],
                                   self._rows)
            self._cache[name] = array
        return array

    def coded(self, name: str) -> Optional[CodedColumn]:
        """The column's codes + vocabulary, or ``None`` if not dict-encoded.

        The query engine's fast path: predicates evaluate against the
        (tiny) vocabulary and mask the integer codes, so filtered-out
        rows never pay the unicode gather ``__getitem__`` performs.
        Validation (including the code bounds check) is identical to the
        decoded path — corruption raises the same :class:`ValueError`
        either way.  ``None`` for raw-encoded columns (numeric columns,
        high-cardinality strings): callers fall back to the decoded
        array.
        """
        plan = self._plans[name]
        if plan["encoding"] != "dict":
            return None
        column = self._coded.get(name)
        if column is None:
            source, start = _inflated_section(self._payload, plan)
            column = _decode_dict(source, start, plan, self._rows)
            self._coded[name] = column
        return column

    def __contains__(self, name) -> bool:
        return name in self._plans

    def __iter__(self) -> Iterator[str]:
        return iter(self._plans)

    def __len__(self) -> int:
        return len(self._plans)


def open_columns(payload, kind: RowKind, *,
                 expected_rows: int) -> LazyColumns:
    """Open a columnar payload for lazy, zero-copy column access.

    ``payload`` is ``bytes`` or a read-only ``mmap`` of the ``.colseg``
    file.  The header and every column's structure (bounds, dtypes,
    dictionary layout, element counts of uncompressed sections) are
    validated eagerly; the returned :class:`LazyColumns` decodes a column
    only when it is first subscripted.  Any structural mismatch — bad
    magic, truncated buffers, a row count that disagrees with
    ``expected_rows``, columns that do not cover the schema — raises
    :class:`ValueError` here; the caller decides whether that means
    corruption.
    """
    if len(payload) < 4 or bytes(payload[:4]) != COLUMNAR_MAGIC:
        raise ValueError("not a columnar segment payload (bad magic)")
    if len(payload) < 8:
        raise ValueError("columnar payload truncated before its header")
    (header_len,) = _HEADER_LEN.unpack(payload[4:8])
    header_end = 8 + header_len
    if len(payload) < header_end:
        raise ValueError("columnar payload truncated inside its header")
    try:
        header = json.loads(bytes(payload[8:header_end]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"columnar header is not valid JSON: {error}")
    if header.get("kind") != kind.name:
        raise ValueError(
            f"columnar payload holds kind {header.get('kind')!r}, "
            f"expected {kind.name!r}")
    rows = int(header.get("rows", -1))
    if rows != expected_rows:
        raise ValueError(
            f"columnar payload holds {rows} rows, manifest says "
            f"{expected_rows}")
    column_entries = header.get("columns", ())
    if not isinstance(column_entries, (list, tuple)):
        raise ValueError("columnar header's column list is malformed")
    parsed: dict[str, dict] = {}
    offset = header_end
    for entry in column_entries:
        plan = _parse_entry(entry, offset, len(payload), rows)
        parsed[plan["name"]] = plan
        offset += plan["nbytes"]
    for column in kind.columns:
        if column.name not in parsed:
            raise ValueError(
                f"columnar payload is missing column {column.name!r}")
    ordered = {column.name: parsed[column.name] for column in kind.columns}
    return LazyColumns(payload, rows, ordered)
