"""Persistent, content-hash-keyed storage of compiled models.

A sweep extracted and compiled in one process becomes servable from any other
process: the registry writes each :class:`~repro.runtime.compiled.
CompiledModel` as a pair of files under one directory,

* ``<key>.npz`` — the array payload (recurrence coefficients, static tables),
* ``<key>.json`` — metadata: the scalar payload, the recorded extraction
  metadata and provenance (the :meth:`Scenario.recipe
  <repro.sweep.scenarios.Scenario.recipe>` records of the training sweep,
  extraction options, error bound), plus the content hash for integrity
  checking.

``key`` is the SHA-256 content hash of the canonical model payload (array
bytes + scalars), so identical models deduplicate naturally, keys are stable
across processes and platforms with identical float semantics, and any
corruption — truncated archives, tampered metadata, bit rot — is detected at
load time and raised as :class:`~repro.exceptions.RegistryError`.

New entries are written in the ``compiled-hammerstein-v2`` format (one
complex recurrence per branch).  Entries of the earlier
``compiled-hammerstein-v1`` format (a real 2x2 block per branch) stay
loadable under their original keys: they are verified against the payload
as stored, then converted by copying values into the v2 arrays.

Registries additionally maintain a **persistent index** (``_index.json``)
mapping keys to entry sizes, so :meth:`ModelRegistry.keys` and membership
tests are O(1) file reads instead of O(n) directory scans — the difference
between a registry fronting ten models and one fronting hundreds of
thousands.  The index is advisory: it is rebuilt from the directory whenever
it is missing, unparsable or older than the directory contents, and
:meth:`ModelRegistry.load` always verifies against the actual files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..exceptions import RegistryError
from .compiled import FORMAT, CompiledModel

__all__ = ["ModelRegistry", "ModelHandle", "content_hash"]

#: Name of the persistent index file inside a registry directory.
INDEX_NAME = "_index.json"
#: Index schema version; bumping it forces a rebuild on older indexes.
INDEX_VERSION = 1

#: The earlier format: two real states per branch, advanced by a 2x2 block.
FORMAT_V1 = "compiled-hammerstein-v1"
#: Array fields per loadable format, in canonical (hashed) order.
_FIELDS_BY_FORMAT = {
    FORMAT: CompiledModel._ARRAY_FIELDS,
    FORMAT_V1: ("static_table", "branch_vr", "branch_vi", "a_diag", "a_off",
                "partner", "state_branch", "b0r", "b0i", "b1r", "b1i",
                "init_vr", "init_vi", "c_out"),
}


def content_hash(model: CompiledModel) -> str:
    """SHA-256 over the canonical payload of a compiled model.

    The hash covers the array fields (name, dtype, shape and raw bytes in
    canonical field order) and the scalar payload; it deliberately excludes
    free-form metadata/provenance, so re-registering the same model trained
    by a differently-described sweep lands on the same key.
    """
    return _payload_hash(model.arrays(), model.scalars())


def _payload_hash(arrays: dict, scalars: dict) -> str:
    digest = hashlib.sha256()
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    digest.update(json.dumps(scalars, sort_keys=True).encode())
    return digest.hexdigest()


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    out = real.astype(complex)
    out.imag = imag
    return out


def _from_v1(arrays: dict) -> dict:
    """The v2 arrays of a v1 payload, by copying values out of its 2x2 blocks.

    v1 kept branch ``p`` as states ``2p`` (real part) and ``2p + 1``
    (imaginary part); each complex coefficient is recovered exactly from one
    column of its block.
    """
    re, im = slice(0, None, 2), slice(1, None, 2)
    w1 = _complex(arrays["b1r"][re], arrays["b1r"][im])
    return {"static_table": arrays["static_table"],
            "branch_table": _complex(arrays["branch_vr"], arrays["branch_vi"]),
            "expz": _complex(arrays["a_diag"][re], arrays["a_off"][im]),
            "w0": _complex(arrays["b0r"][re], arrays["b0r"][im]) - w1,
            "w1": w1,
            "init": _complex(arrays["init_vr"][re], arrays["init_vr"][im]),
            "c_out": np.ascontiguousarray(arrays["c_out"][re])}


class ModelRegistry:
    """Directory-backed store of compiled models.

    Parameters
    ----------
    root:
        Registry directory; created on first save if missing.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: In-memory cache of the parsed index, keyed by the index file's
        #: ``st_mtime_ns`` so repeated ``keys()`` calls cost one ``stat``.
        self._index_cache: tuple[int, dict] | None = None

    # ------------------------------------------------------------------ paths
    def _npz_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def _json_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _index_path(self) -> Path:
        return self.root / INDEX_NAME

    # ------------------------------------------------------------------ index
    def _read_index(self, allow_stale: bool = False) -> dict | None:
        """The parsed index, or ``None`` when missing, corrupt or stale.

        Staleness is one ``stat`` pair: :meth:`_write_index` stamps the index
        file's mtime to the directory's, so any foreign file created or
        removed afterwards leaves ``root mtime > index mtime`` and forces a
        rebuild.  The registry's own write paths pass ``allow_stale=True``:
        they have just modified the directory themselves (entry files are
        written before the index update), and going through the staleness
        check there would turn every save into a full rescan.

        Limitation: a *foreign* change landing in the same filesystem
        timestamp tick as the stamp is indistinguishable from freshness
        (sub-ns on ext4, coarser elsewhere).  Concurrent cross-process
        mutation is advisory territory throughout this class — ``load``
        always verifies real files, and :meth:`rebuild_index` is the
        belt-and-braces reconciliation.
        """
        try:
            index_mtime = self._index_path().stat().st_mtime_ns
            root_mtime = self.root.stat().st_mtime_ns
        except OSError:
            return None
        if root_mtime > index_mtime and not allow_stale:
            return None
        if self._index_cache is not None and self._index_cache[0] == index_mtime:
            return self._index_cache[1]
        try:
            data = json.loads(self._index_path().read_text())
        except (json.JSONDecodeError, OSError):
            return None
        if (not isinstance(data, dict) or data.get("version") != INDEX_VERSION
                or not isinstance(data.get("entries"), dict)):
            return None
        self._index_cache = (index_mtime, data)
        return data

    def _write_index(self, data: dict) -> None:
        """Atomically persist the index and stamp it fresh (see _read_index)."""
        if not self.root.is_dir():
            return
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix="_index-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(data, handle, sort_keys=True)
            os.replace(tmp, self._index_path())
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        stamp = self.root.stat().st_mtime_ns
        os.utime(self._index_path(), ns=(stamp, stamp))
        self._index_cache = (stamp, data)

    def _ensure_index(self) -> dict:
        """The current index, rebuilding from the directory when needed."""
        data = self._read_index()
        if data is None:
            data = self.rebuild_index()
        return data

    def rebuild_index(self) -> dict:
        """Rescan the directory and rewrite the persistent index.

        Called automatically whenever the index is missing, unparsable, from
        an older schema version, or stale (files were added or removed behind
        the registry's back); callable directly for belt-and-braces repair.
        """
        entries: dict[str, dict] = {}
        if self.root.is_dir():
            for json_path in self.root.glob("*.json"):
                key = json_path.stem
                if key.startswith("_"):
                    continue
                npz_path = self._npz_path(key)
                try:
                    nbytes = npz_path.stat().st_size + json_path.stat().st_size
                except OSError:      # incomplete entry: metadata without arrays
                    continue
                entries[key] = {"nbytes": int(nbytes)}
        data = {"version": INDEX_VERSION, "entries": entries}
        self._write_index(data)
        return data

    def _index_put(self, key: str) -> None:
        """Add/refresh one entry after its files were written.

        Reads the index with ``allow_stale=True``: the caller (``save``)
        validated the index through its membership check *before* touching
        the directory, so the only "staleness" here is our own entry write —
        a strict read would rescan on every save.
        """
        data = self._read_index(allow_stale=True)
        if data is None:
            self.rebuild_index()        # missing/corrupt; rescan covers key
            return
        try:
            nbytes = (self._npz_path(key).stat().st_size
                      + self._json_path(key).stat().st_size)
        except OSError:
            return
        data["entries"][key] = {"nbytes": int(nbytes)}
        self._write_index(data)

    def _index_drop(self, key: str, trusted: bool = False) -> None:
        """Remove one entry from the index.

        ``trusted`` mirrors :meth:`_index_put`'s reasoning and is only
        passed by ``remove`` (whose membership check just validated the
        index; the sole directory change since is its own unlinks).  The
        untrusted path — ``load`` discovering missing files — rebuilds on a
        stale index instead of delta-updating it: the directory demonstrably
        changed behind our back, and stamping a stale index fresh would hide
        entries added alongside the deletion.
        """
        data = self._read_index(allow_stale=trusted)
        if data is None:
            self.rebuild_index()
            return
        if key in data["entries"]:
            del data["entries"][key]
            self._write_index(data)

    # ------------------------------------------------------------------- save
    def save(self, model: CompiledModel, provenance: dict | None = None) -> str:
        """Store a compiled model; returns its content-hash key.

        ``save`` is **idempotent**: a model with the same content hash is
        never written twice — the array archive is reused as-is, and
        re-saving without new provenance leaves every file untouched
        byte-for-byte.  When new ``provenance`` keys are given for an
        existing model they are merged into the existing metadata record (a
        model retrained from an identical recipe hashes to the same key, and
        earlier traceability is never lost).
        """
        key = content_hash(model)
        self.root.mkdir(parents=True, exist_ok=True)
        existing_record: dict | None = None
        if key in self:
            try:
                existing_record = json.loads(self._json_path(key).read_text())
            except (OSError, json.JSONDecodeError):
                existing_record = None     # unreadable: rewrite it below
        else:
            with open(self._npz_path(key), "wb") as handle:
                np.savez(handle, **model.arrays())
        existing_provenance = (existing_record or {}).get("provenance", {})
        record = {
            "content_hash": key,
            **model.scalars(),
            "metadata": model.metadata,
            "provenance": {**existing_provenance, **(provenance or {})},
        }
        # No-op only when the would-be record matches what is stored, field
        # for field (content_hash excludes metadata/provenance, so either may
        # legitimately change under the same key).  Compared after a JSON
        # round trip so type normalisation (tuples, reprs) cannot fake a
        # difference — or hide one.
        canonical = json.loads(json.dumps(record, sort_keys=True, default=repr))
        if existing_record is not None and canonical == existing_record:
            return key
        self._json_path(key).write_text(json.dumps(record, indent=2,
                                                   sort_keys=True, default=repr))
        self._index_put(key)
        return key

    # ------------------------------------------------------------------- load
    def load(self, key: str, verify: bool = True) -> CompiledModel:
        """Load a compiled model by key.

        With ``verify`` (the default) the arrays are re-hashed and compared
        against both the key and the recorded metadata hash; any mismatch —
        truncated ``npz``, swapped files, edited metadata — raises
        :class:`~repro.exceptions.RegistryError`.  A v1 entry is verified as
        stored, then converted to the v2 arrays.
        """
        npz_path, json_path = self._npz_path(key), self._json_path(key)
        if not npz_path.exists() or not json_path.exists():
            missing = [label for label, path in (("arrays", npz_path),
                                                 ("metadata", json_path))
                       if not path.exists()]
            self._index_drop(key)
            raise RegistryError(f"no registry entry {key!r} under {self.root} "
                                f"(missing {' and '.join(missing)})")

        try:
            record = json.loads(json_path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise RegistryError(f"unreadable registry metadata {json_path}: {exc}") from exc
        fields = _FIELDS_BY_FORMAT.get(record.get("format"))
        if fields is None:
            raise RegistryError(
                f"registry entry {key!r} has unsupported format "
                f"{record.get('format')!r} (expected {FORMAT!r})")

        try:
            with np.load(npz_path) as archive:
                arrays = {name: archive[name] for name in fields}
        except Exception as exc:  # zipfile/OSError/KeyError: all mean "corrupt"
            raise RegistryError(
                f"corrupt registry archive {npz_path}: {exc}") from exc

        scalars = {"format": record["format"], "dt": float(record["dt"]),
                   "u_min": float(record["u_min"]),
                   "u_max": float(record["u_max"]),
                   "input_name": record.get("input_name", "u"),
                   "output_name": record.get("output_name", "y")}
        if verify:
            actual = _payload_hash(arrays, scalars)
            recorded = record.get("content_hash")
            if actual != key or recorded != key:
                raise RegistryError(
                    f"registry entry {key!r} failed integrity verification: "
                    f"arrays hash to {actual[:12]}..., metadata records "
                    f"{str(recorded)[:12]}...")
        if scalars.pop("format") == FORMAT_V1:
            arrays = _from_v1(arrays)
        return CompiledModel(**scalars, **arrays,
                             metadata=record.get("metadata", {}))

    def provenance(self, key: str) -> dict:
        """The provenance record stored alongside a model."""
        json_path = self._json_path(key)
        if not json_path.exists():
            raise RegistryError(f"no registry entry {key!r} under {self.root}")
        return json.loads(json_path.read_text()).get("provenance", {})

    # ------------------------------------------------------------------ admin
    def keys(self) -> list[str]:
        """Keys of all complete entries (metadata + arrays present).

        Served from the persistent index — O(1) in the number of entries
        after the first call — instead of scanning the directory; the index
        is rebuilt transparently when files changed behind the registry's
        back (see :meth:`rebuild_index`).
        """
        if not self.root.is_dir():
            return []
        return sorted(self._ensure_index()["entries"])

    def __contains__(self, key: str) -> bool:
        if not self.root.is_dir():
            return False
        return key in self._ensure_index()["entries"]

    def __len__(self) -> int:
        return len(self.keys())

    def entry_nbytes(self, key: str) -> int:
        """On-disk footprint of one entry (arrays + metadata), from the index."""
        if not self.root.is_dir():
            raise RegistryError(f"no registry entry {key!r} under {self.root}")
        entry = self._ensure_index()["entries"].get(key)
        if entry is None:
            raise RegistryError(f"no registry entry {key!r} under {self.root}")
        return int(entry["nbytes"])

    def remove(self, key: str) -> None:
        """Delete an entry (both files); missing entries raise."""
        if key not in self:
            raise RegistryError(f"no registry entry {key!r} under {self.root}")
        self._npz_path(key).unlink()
        self._json_path(key).unlink()
        self._index_drop(key, trusted=True)

    def handle(self, key: str) -> "ModelHandle":
        """A picklable reference to one entry (for cross-process serving)."""
        if key not in self:
            raise RegistryError(f"no registry entry {key!r} under {self.root}")
        return ModelHandle(str(self.root), key)

    def describe(self) -> str:
        keys = self.keys()
        return f"model registry at {self.root}: {len(keys)} model(s)"


@dataclass(frozen=True)
class ModelHandle:
    """Serializable reference to one registry entry: ``(root, key)``.

    Handles are what cross process boundaries in the serving layer
    (:mod:`repro.serve`): a tiny picklable value instead of megabytes of
    model arrays.  ``load`` re-opens the registry in the receiving process
    with full integrity verification, so a handle can never smuggle a
    tampered model past the content-hash check.
    """

    root: str
    key: str

    def registry(self) -> ModelRegistry:
        return ModelRegistry(self.root)

    def load(self, verify: bool = True) -> CompiledModel:
        return self.registry().load(self.key, verify=verify)
