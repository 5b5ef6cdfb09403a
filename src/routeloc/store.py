"""Descriptor store: id-keyed descriptor vectors with file round-tripping.

Binary layout (little-endian): magic ``EMB1``, u32 dim, u32 count, then one
record per descriptor of u32 id followed by dim float32 values.  A CSV
mirror with header ``id,v0,...,v{dim-1}`` is accepted interchangeably (the
loader sniffs the magic bytes).  Binary files quantize to float32; the CSV
writer keeps full float64 precision.
"""
from __future__ import annotations

import csv
import struct

import numpy as np

from .world import rows_in, write_csv

MAGIC = b"EMB1"


class StoreFormatError(ValueError):
    """Raised when a descriptor store file, an encoder archive or a sweep report is malformed."""


class DescriptorStore:
    """Immutable set of descriptors keyed by location id, sorted by id."""

    def __init__(self, ids, vectors):
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or len(ids) != len(vectors):
            raise ValueError("need ids (N,) and vectors (N, dim) of matching length")
        if vectors.shape[1] == 0:
            raise ValueError("descriptor vectors need at least one dimension")
        if len(ids) == 0:
            raise ValueError("descriptor store cannot be empty")
        if np.any(ids < 0):
            raise ValueError("descriptor ids must be non-negative")
        if not np.isfinite(vectors).all():
            raise ValueError("descriptor vectors must be finite")
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        if np.any(ids[1:] == ids[:-1]):
            dup = int(ids[np.nonzero(ids[1:] == ids[:-1])[0][0]])
            raise ValueError(f"duplicate descriptor id {dup}")
        self.ids = ids
        self.vectors = vectors[order]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def rows_of(self, loc_ids) -> np.ndarray:
        return rows_in(self.ids, loc_ids, KeyError)

    def distance_matrix(self, queries) -> np.ndarray:
        """Euclidean distances (Q, N) from each query row to every stored descriptor.

        Columns follow store order.  Each entry is computed from the
        coordinate differences, so a query equal to a stored vector is at
        exactly 0.0 and small distances keep their precision.
        """
        # Imported where used, so that `import routeloc` and the searches
        # that take no descriptor distances (BSD, BSD+T, T-only) load no scipy.
        from scipy.spatial.distance import cdist

        q = np.asarray(queries, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != self.dim:
            raise ValueError(f"queries shape {q.shape} does not match (Q, {self.dim})")
        return cdist(q, self.vectors)

    # ------------------------------------------------------------------
    # file io
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Write binary unless the path ends in .csv."""
        if str(path).endswith(".csv"):
            self._save_csv(path)
        else:
            self._save_binary(path)

    def _save_binary(self, path) -> None:
        rec = np.empty(len(self), dtype=[("id", "<u4"), ("v", "<f4", (self.dim,))])
        if np.any(self.ids > np.iinfo(np.uint32).max):
            raise ValueError("ids exceed the u32 range of the binary format")
        rec["id"] = self.ids
        rec["v"] = self.vectors
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sII", MAGIC, self.dim, len(self)))
            fh.write(rec.tobytes())

    def _save_csv(self, path) -> None:
        write_csv(path, ["id"] + [f"v{i}" for i in range(self.dim)],
                  ([int(i)] + ["%.17g" % x for x in v] for i, v in zip(self.ids, self.vectors)))

    @classmethod
    def load(cls, path) -> "DescriptorStore":
        """Load either format, sniffing the binary magic bytes."""
        with open(path, "rb") as fh:
            head = fh.read(4)
        if head == MAGIC:
            return cls._load_binary(path)
        return cls._load_csv(path)

    @classmethod
    def _load_binary(cls, path) -> "DescriptorStore":
        with open(path, "rb") as fh:
            header = fh.read(12)
            if len(header) != 12:
                raise StoreFormatError(f"{path}: truncated header")
            magic, dim, count = struct.unpack("<4sII", header)
            if magic != MAGIC:
                raise StoreFormatError(f"{path}: bad magic {magic!r}")
            if dim == 0:
                raise StoreFormatError(f"{path}: zero descriptor dimension")
            body = fh.read()
        rec_dtype = np.dtype([("id", "<u4"), ("v", "<f4", (dim,))])
        if len(body) != count * rec_dtype.itemsize:
            raise StoreFormatError(
                f"{path}: expected {count} records of {rec_dtype.itemsize} bytes, "
                f"got {len(body)} bytes"
            )
        rec = np.frombuffer(body, dtype=rec_dtype)
        bad = ~np.isfinite(rec["v"]).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise StoreFormatError(f"{path}: record {i} (id {rec['id'][i]}) is not finite")
        return cls(rec["id"].astype(np.int64), rec["v"].astype(np.float64))

    @classmethod
    def _load_csv(cls, path) -> "DescriptorStore":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise StoreFormatError(f"{path}: empty file") from None
            if not header or header[0] != "id":
                raise StoreFormatError(f"{path}: expected CSV header starting with 'id'")
            if len(header) == 1:
                raise StoreFormatError(f"{path}: CSV header has no value columns")
            dim = len(header) - 1
            ids, vecs = [], []
            for lineno, row in enumerate(reader, 2):
                if not row:
                    continue
                if len(row) != dim + 1:
                    raise StoreFormatError(
                        f"{path}, line {lineno}: expected {dim + 1} fields, got {len(row)}"
                    )
                try:
                    ids.append(int(row[0]))
                    vecs.append([float(x) for x in row[1:]])
                except ValueError as exc:
                    raise StoreFormatError(f"{path}, line {lineno}: {exc}") from None
                if not np.isfinite(vecs[-1]).all():
                    raise StoreFormatError(f"{path}, line {lineno}: values must be finite")
        if not ids:
            raise StoreFormatError(f"{path}: no descriptor rows")
        return cls(np.array(ids), np.array(vecs))
