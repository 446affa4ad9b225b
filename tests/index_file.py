"""The README's "Index file" section as code, with the standard library
alone: like the oracle in ``conftest.py``, a reference that shares nothing
with the package it checks. :func:`rows` gives a file's ``doc_marks()``
rows; :func:`parts` and :func:`packed` take a payload apart and back."""

from __future__ import annotations

import json
import os
import struct
import zlib

VERSION = 6
# Magic, format version, payload length and the payload's CRC-32.
HEADER = struct.Struct("<4sHQI")
# The first stream starts with the byte length of the JSON header.
_LENGTH = struct.Struct("<I")


def framed(payload: bytes, version: int = VERSION) -> bytes:
    """An index file of *payload*, with a valid header and checksum."""
    return HEADER.pack(b"LXDX", version, len(payload), zlib.crc32(payload)) + payload


def unframed(data: bytes) -> tuple[int, bytes]:
    """The format version and the payload of the index file *data*."""
    magic, version, length, check = HEADER.unpack_from(data)
    payload = data[HEADER.size:]
    if magic != b"LXDX" or len(payload) != length or zlib.crc32(payload) != check:
        raise ValueError("not a whole index file")
    return version, payload


def streams(data: bytes) -> list[bytes]:
    """Each zlib stream of the payload of the index file *data*, inflated."""
    found, rest = [], unframed(data)[1]
    while rest:
        inflate = zlib.decompressobj()
        found.append(inflate.decompress(rest))
        rest = inflate.unused_data
    return found


def parts(data: bytes) -> tuple[dict, bytearray, list[list[str]]]:
    """The JSON header, the column bytes, to be edited in place, and each
    year's ids of the index file *data*."""
    first, second = streams(data)
    (size,) = _LENGTH.unpack_from(first)
    header = json.loads(first[_LENGTH.size:_LENGTH.size + size].decode("utf-8"))
    ids = [front_decoded(shared, rests) for shared, rests in json.loads(second.decode("utf-8"))]
    return header, bytearray(first[_LENGTH.size + size:]), ids


def front_coded(ids: list[str]) -> list[list]:
    """A year's ascending *ids* as the second stream holds them: the length
    of the longest prefix each shares with the id before it (0 for the
    first), and the rest of each."""
    shared = [len(os.path.commonprefix([before, doc_id]))
              for before, doc_id in zip(["", *ids], ids)]
    return [shared, [doc_id[n:] for doc_id, n in zip(ids, shared)]]


def front_decoded(shared: list[int], rests: list[str]) -> list[str]:
    """The ids that :func:`front_coded` codes as *shared* and *rests*."""
    ids = [""]
    for n, rest in zip(shared, rests):
        ids.append(ids[-1][:n] + rest)
    return ids[1:]


def id_stream(value) -> bytes:
    """A second stream holding the JSON *value*, deflated."""
    return zlib.compress(json.dumps(value, separators=(",", ":")).encode())


def packed(header: dict | bytes, columns: bytes, ids: list[list[str]] | bytes,
           extra_length: int = 0) -> bytes:
    """A payload: the first stream holds *header*, as sorted JSON with no
    spaces or as the bytes given, after its length plus *extra_length*, then
    *columns*; the second each year's *ids* front-coded, or the bytes given."""
    if not isinstance(header, bytes):
        header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    if not isinstance(ids, bytes):
        ids = id_stream([front_coded(year_ids) for year_ids in ids])
    return zlib.compress(_LENGTH.pack(len(header) + extra_length) + header + columns) + ids


def rows(data: bytes) -> list[tuple[str, int, int, tuple[str, ...]]]:
    """The (id, year, mask, categories) row of each document of the index
    file *data*, years ascending, ids ascending within a year; bit k of a
    mask is set when the document holds the lexicon's entry k."""
    header, columns, ids = parts(data)
    width = len(header["lexicon"]["entries"])
    found, offset = [], 0
    for year, year_ids in zip(header["years"], ids):
        n, table = year["docs"], year["categories"]
        step, size = (n + 7) // 8, 1 if len(table) <= 256 else 2 if len(table) <= 65_536 else 4
        bits = [columns[offset + k * step:offset + (k + 1) * step] for k in range(width)]
        offset += width * step
        for i, doc_id in enumerate(year_ids):
            mask = sum(1 << k for k, column in enumerate(bits) if column[i // 8] >> i % 8 & 1)
            row = int.from_bytes(columns[offset:offset + size], "little")
            offset += size
            found.append((doc_id, year["year"], mask, tuple(table[row])))
    assert offset == len(columns), "bytes after the last column"
    return found
