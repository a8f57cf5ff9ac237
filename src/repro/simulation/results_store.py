"""Columnar result store for fleet-scale sweeps.

A fleet run produces thousands of small, homogeneous metric rows — one
per (scenario × replication) unit. Pickling a full
:class:`~repro.simulation.simulator.SimulationResult` per unit (the
pre-fleet pattern) costs two orders of magnitude more disk and makes
cross-scenario queries a deserialization crawl. :class:`FleetStore`
replaces that with one directory holding a ``manifest.json`` plus a
sequence of immutable columnar *row groups*:

* **Parquet** row groups when ``pyarrow`` is importable — the format
  the issue asks for, readable by any Arrow-ecosystem tool; or
* **npz** row groups (one compressed NumPy array per column) as the
  zero-dependency fallback, bit-identical in content.

The write side streams: :meth:`FleetStore.append` buffers rows and
:meth:`FleetStore.flush` seals a row group to disk, so a 10k-unit
sweep never holds more than one group of rows in memory and a crash
loses at most the open buffer. The manifest is finalized atomically
(tmp + ``os.replace``) on :meth:`FleetStore.close`.

The read side is the query API the ``obs`` ingester and dashboard use:
:meth:`FleetStore.read` materializes selected columns across all row
groups as NumPy arrays, :meth:`FleetStore.aggregate` folds them into
per-group means/stds without the caller touching files, and
:meth:`FleetStore.scenario_table` joins those aggregates with the
scenario labels recorded in the manifest.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from repro.exceptions import ModelValidationError

__all__ = ["FleetStore", "parquet_available"]

MANIFEST_FILENAME = "manifest.json"
_FORMAT_VERSION = 1

#: Columns stored as 64-bit integers; everything else is float64.
_INT_COLUMNS = frozenset({"unit", "scenario", "replication", "n_events", "n_completed"})


def parquet_available() -> bool:
    """Whether the Parquet backend (``pyarrow``) is importable."""
    try:
        import pyarrow.parquet  # noqa: F401
    except Exception:
        return False
    return True


def _column_dtype(name: str) -> np.dtype:
    return np.dtype(np.int64 if name in _INT_COLUMNS else np.float64)


class FleetStore:
    """Columnar (scenario × replication) result store on disk.

    Use :meth:`create` to open a writer and :meth:`open` to read a
    finished (or partially flushed) store. A store is a directory::

        <path>/
          manifest.json          # columns, row groups, scenario labels
          rows-00000.parquet     # or rows-00000.npz without pyarrow
          rows-00001.parquet
          ...

    All rows share one rectangular schema (fixed per-class / per-station
    column counts), which is what makes the columnar layout possible;
    :meth:`append` rejects rows whose keys deviate from it.
    """

    def __init__(self) -> None:  # use create()/open()
        self.path: Path
        self.columns: tuple[str, ...] = ()
        self.fmt: str = "npz"
        self.meta: dict[str, Any] = {}
        self._groups: list[dict[str, Any]] = []
        # Write buffer: ordered segments of ("rows", list[tuple]) from
        # append() and ("cols", {name: array}) from append_columns(),
        # merged at flush() in arrival order.
        self._segments: list[tuple[str, Any]] = []
        self._buffered_rows = 0
        self._rows_per_group = 4096
        self._writable = False
        self._closed = False

    # -- writer ------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        columns: Iterable[str],
        *,
        meta: Mapping[str, Any] | None = None,
        rows_per_group: int = 4096,
        fmt: str | None = None,
    ) -> "FleetStore":
        """Open a fresh store for writing.

        Parameters
        ----------
        path:
            Directory to create (must not already hold a manifest).
        columns:
            Ordered column names; every appended row must provide
            exactly these keys.
        meta:
            JSON-serializable run metadata (scenario labels, seed,
            horizon, ...) carried in the manifest.
        rows_per_group:
            Buffered rows per sealed row-group file.
        fmt:
            ``"parquet"`` or ``"npz"``; default picks Parquet when
            ``pyarrow`` is importable, npz otherwise.
        """
        store = cls()
        store.path = Path(path)
        store.path.mkdir(parents=True, exist_ok=True)
        if (store.path / MANIFEST_FILENAME).exists():
            raise ModelValidationError(
                f"refusing to overwrite existing fleet store at {store.path}"
            )
        store.columns = tuple(columns)
        if len(set(store.columns)) != len(store.columns):
            raise ModelValidationError(f"duplicate column names: {store.columns}")
        if fmt is None:
            fmt = "parquet" if parquet_available() else "npz"
        if fmt not in ("parquet", "npz"):
            raise ModelValidationError(f"unknown fleet store format {fmt!r}")
        store.fmt = fmt
        store.meta = dict(meta or {})
        store._rows_per_group = max(1, int(rows_per_group))
        store._writable = True
        return store

    def append(self, row: Mapping[str, Any]) -> None:
        """Buffer one row; seals a row group when the buffer fills."""
        self._check_writable()
        if set(row) != set(self.columns):
            missing = set(self.columns) - set(row)
            extra = set(row) - set(self.columns)
            raise ModelValidationError(
                f"row keys do not match store schema "
                f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
            )
        if self._segments and self._segments[-1][0] == "rows":
            self._segments[-1][1].append(tuple(row[c] for c in self.columns))
        else:
            self._segments.append(("rows", [tuple(row[c] for c in self.columns)]))
        self._buffered_rows += 1
        if self._buffered_rows >= self._rows_per_group:
            self.flush()

    def append_rows(self, rows: Iterable[Mapping[str, Any]]) -> None:
        for row in rows:
            self.append(row)

    def append_columns(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Buffer a block of rows already in columnar form.

        ``arrays`` must provide exactly the store's columns, all the
        same length; each is coerced to the schema dtype. The fleet
        runner appends each finished chunk's columns through here — a
        block goes into the buffer as one segment, never exploded into
        per-row tuples.
        """
        self._check_writable()
        if set(arrays) != set(self.columns):
            missing = set(self.columns) - set(arrays)
            extra = set(arrays) - set(self.columns)
            raise ModelValidationError(
                f"column block does not match store schema "
                f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
            )
        block = {
            name: np.asarray(arrays[name], dtype=_column_dtype(name))
            for name in self.columns
        }
        lengths = {name: arr.shape for name, arr in block.items()}
        sizes = {shape[0] for shape in lengths.values() if len(shape) == 1}
        if any(len(shape) != 1 for shape in lengths.values()) or len(sizes) > 1:
            raise ModelValidationError(
                f"column block arrays must be 1-D and equal-length, got "
                f"{ {n: s for n, s in lengths.items()} }"
            )
        n = next(iter(sizes)) if sizes else 0
        if n == 0:
            return
        self._segments.append(("cols", block))
        self._buffered_rows += n
        if self._buffered_rows >= self._rows_per_group:
            self.flush()

    def flush(self) -> None:
        """Seal the buffered rows into an immutable row-group file."""
        self._check_writable()
        if not self._buffered_rows:
            return
        pieces: dict[str, list[np.ndarray]] = {n: [] for n in self.columns}
        for kind, payload in self._segments:
            if kind == "rows":
                for i, name in enumerate(self.columns):
                    pieces[name].append(
                        np.array([r[i] for r in payload], dtype=_column_dtype(name))
                    )
            else:
                for name in self.columns:
                    pieces[name].append(payload[name])
        arrays = {
            name: parts[0] if len(parts) == 1 else np.concatenate(parts)
            for name, parts in pieces.items()
        }
        index = len(self._groups)
        ext = "parquet" if self.fmt == "parquet" else "npz"
        filename = f"rows-{index:05d}.{ext}"
        target = self.path / filename
        if self.fmt == "parquet":
            import pyarrow as pa
            import pyarrow.parquet as pq

            table = pa.table({name: pa.array(arrays[name]) for name in self.columns})
            pq.write_table(table, target)
        else:
            # np.savez_compressed appends ".npz" unless present; target
            # already carries it.
            with open(target, "wb") as fh:
                np.savez_compressed(fh, **arrays)
        self._groups.append({"file": filename, "n_rows": self._buffered_rows})
        self._segments = []
        self._buffered_rows = 0
        self._write_manifest()

    def close(self, extra_meta: Mapping[str, Any] | None = None) -> None:
        """Flush the open buffer and finalize the manifest."""
        if self._closed or not self._writable:
            self._closed = True
            return
        self.flush()
        if extra_meta:
            self.meta.update(extra_meta)
        self._write_manifest(final=True)
        self._closed = True
        self._writable = False

    def __enter__(self) -> "FleetStore":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._writable:
            self.close()

    def _check_writable(self) -> None:
        if not self._writable or self._closed:
            raise ModelValidationError("fleet store is not open for writing")

    def _write_manifest(self, final: bool = False) -> None:
        manifest = {
            "format_version": _FORMAT_VERSION,
            "kind": "fleet_store",
            "fmt": self.fmt,
            "columns": list(self.columns),
            "row_groups": self._groups,
            "n_rows": int(sum(g["n_rows"] for g in self._groups)),
            "final": bool(final),
            "meta": self.meta,
        }
        tmp = self.path / (MANIFEST_FILENAME + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.path / MANIFEST_FILENAME)

    # -- reader ------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "FleetStore":
        """Open an existing store for querying."""
        store = cls()
        store.path = Path(path)
        manifest_path = store.path / MANIFEST_FILENAME
        if store.path.is_file():  # accept .../manifest.json directly
            manifest_path = store.path
            store.path = store.path.parent
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"no fleet store manifest at {manifest_path}"
            )
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("kind") != "fleet_store":
            raise ModelValidationError(f"{manifest_path} is not a fleet store manifest")
        store.columns = tuple(manifest["columns"])
        store.fmt = manifest["fmt"]
        store.meta = manifest.get("meta", {})
        store._groups = list(manifest.get("row_groups", []))
        return store

    @property
    def n_rows(self) -> int:
        return int(sum(g["n_rows"] for g in self._groups)) + self._buffered_rows

    @property
    def final(self) -> bool:
        """Whether the writer finalized the store (``close`` ran)."""
        manifest_path = self.path / MANIFEST_FILENAME
        if not manifest_path.exists():
            return False
        return bool(json.loads(manifest_path.read_text()).get("final"))

    def read(self, columns: Iterable[str] | None = None) -> dict[str, np.ndarray]:
        """All rows of the selected ``columns``, concatenated in unit order.

        Returns a mapping ``column -> 1-D array``; with no row groups,
        arrays are empty with the schema dtype.
        """
        names = tuple(columns) if columns is not None else self.columns
        unknown = set(names) - set(self.columns)
        if unknown:
            raise ModelValidationError(
                f"unknown columns {sorted(unknown)}; store has {list(self.columns)}"
            )
        parts: dict[str, list[np.ndarray]] = {n: [] for n in names}
        for group in self._iter_groups(names):
            for n in names:
                parts[n].append(group[n])
        return {
            n: (
                np.concatenate(parts[n])
                if parts[n]
                else np.empty(0, dtype=_column_dtype(n))
            )
            for n in names
        }

    def _iter_groups(self, names: tuple[str, ...]):
        """Yield the selected columns one row group at a time.

        The streaming substrate under :meth:`read` and
        :meth:`aggregate`: only one group's arrays are resident at
        once, so folding a huge store never materializes it.
        """
        for group in self._groups:
            target = self.path / group["file"]
            if self.fmt == "parquet":
                import pyarrow.parquet as pq

                table = pq.read_table(target, columns=list(names))
                yield {n: table.column(n).to_numpy(zero_copy_only=False) for n in names}
            else:
                with np.load(target) as npz:
                    yield {n: npz[n] for n in names}

    def aggregate(
        self,
        by: str = "scenario",
        metrics: Iterable[str] | None = None,
    ) -> dict[int, dict[str, Any]]:
        """Per-group summary: mean/std/min/max of each metric column.

        Streams: row groups are folded one at a time into per-group
        accumulators (count/mean/M2 merged by Chan's parallel update,
        running min/max), so aggregating a store of any size holds at
        most one row group in memory.

        Parameters
        ----------
        by:
            Integer grouping column (default: ``scenario``).
        metrics:
            Metric columns to fold; default: every float column.

        Returns ``{group_value: {"n": count, "<metric>": {mean, std,
        min, max}}}`` with ``std`` the ddof=1 sample deviation (NaN
        below two rows).
        """
        if metrics is None:
            metrics = [c for c in self.columns if c not in _INT_COLUMNS]
        metrics = list(metrics)
        unknown = set([by, *metrics]) - set(self.columns)
        if unknown:
            raise ModelValidationError(
                f"unknown columns {sorted(unknown)}; store has {list(self.columns)}"
            )
        # value -> metric -> [n, mean, m2, min, max]
        acc: dict[int, dict[str, list[float]]] = {}
        counts: dict[int, int] = {}
        for data in self._iter_groups((by, *metrics)):
            keys = data[by]
            for value in np.unique(keys):
                mask = keys == value
                key = int(value)
                counts[key] = counts.get(key, 0) + int(mask.sum())
                stats = acc.setdefault(
                    key,
                    {m: [0, 0.0, 0.0, float("inf"), float("-inf")] for m in metrics},
                )
                for m in metrics:
                    col = data[m][mask]
                    nb = col.size
                    if nb == 0:
                        continue
                    mb = float(col.mean())
                    st = stats[m]
                    na, ma, m2a = st[0], st[1], st[2]
                    n = na + nb
                    delta = mb - ma
                    st[0] = n
                    st[1] = ma + delta * nb / n
                    st[2] = m2a + float(((col - mb) ** 2).sum()) + delta * delta * na * nb / n
                    st[3] = min(st[3], float(col.min()))
                    st[4] = max(st[4], float(col.max()))
        out: dict[int, dict[str, Any]] = {}
        for key in sorted(acc):
            rec: dict[str, Any] = {"n": counts[key]}
            for m in metrics:
                n, mean, m2, lo, hi = acc[key][m]
                rec[m] = {
                    "mean": mean if n else float("nan"),
                    "std": float(np.sqrt(m2 / (n - 1))) if n > 1 else float("nan"),
                    "min": lo,
                    "max": hi,
                }
            out[key] = rec
        return out

    def scenario_table(
        self, metrics: Iterable[str] | None = None
    ) -> list[dict[str, Any]]:
        """Aggregates joined with the manifest's scenario labels.

        One dict per scenario, ordered by scenario id:
        ``{"scenario": id, "label": ..., "params": {...}, "n": ...,
        "<metric>": {mean, std, min, max}, ...}``.
        """
        labels = {
            int(s["scenario"]): s for s in self.meta.get("scenarios", [])
        }
        rows = []
        for sid, rec in sorted(self.aggregate(metrics=metrics).items()):
            info = labels.get(sid, {})
            rows.append(
                {
                    "scenario": sid,
                    "label": info.get("label", str(sid)),
                    "params": info.get("params", {}),
                    **rec,
                }
            )
        return rows
