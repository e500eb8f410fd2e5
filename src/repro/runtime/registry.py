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

The directory is the registry: there is no index beside the entry files.
A key is a member while both of its files exist, so a membership test is two
``stat`` calls at any registry size; :meth:`ModelRegistry.keys` lists the
``*.json`` files that have a matching ``.npz``.  Only :meth:`ModelRegistry.save`
writes into the directory and only :meth:`ModelRegistry.remove` deletes from
it: no read, and so no shard worker loading a model, writes a registry file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..exceptions import RegistryError
from .compiled import FORMAT, CompiledModel

__all__ = ["ModelRegistry", "ModelHandle", "content_hash"]

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

    # ------------------------------------------------------------------ paths
    def _npz_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def _json_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _sizes(self, key: str) -> tuple[int, int] | None:
        """The sizes of an entry's two files, or ``None`` unless both exist.

        A key names two files directly under the root.  Keys reach
        :meth:`__contains__` from the network, so a key that is a path, is
        too long for a file name or holds a NUL byte names no entry rather
        than raising.
        """
        if Path(key).name != key:
            return None
        try:
            return (self._npz_path(key).stat().st_size,
                    self._json_path(key).stat().st_size)
        except (OSError, ValueError):
            return None

    def _require(self, key: str) -> None:
        """Raise :class:`~repro.exceptions.RegistryError` unless ``key`` is
        a member, before any of its files is opened."""
        if key not in self:
            raise RegistryError(f"no registry entry {key!r} under {self.root}")

    def _record(self, key: str) -> dict:
        """The metadata record of member ``key``.

        Raises :class:`~repro.exceptions.RegistryError` when ``key`` is not a
        member, or when ``<key>.json`` cannot be read or decoded or holds
        JSON that is not an object.
        """
        self._require(key)
        json_path = self._json_path(key)
        try:
            record = json.loads(json_path.read_text())
        except (OSError, ValueError) as exc:    # ValueError: bad JSON or UTF-8
            raise RegistryError(f"unreadable registry metadata {json_path}: {exc}") from exc
        if not isinstance(record, dict):
            raise RegistryError(f"unreadable registry metadata {json_path}: "
                                f"a JSON {type(record).__name__}, not an object")
        return record

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
                existing_record = self._record(key)
            except RegistryError:
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
        record = self._record(key)
        npz_path = self._npz_path(key)
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
        return self._record(key).get("provenance", {})

    # ------------------------------------------------------------------ admin
    def keys(self) -> list[str]:
        """Keys of all complete entries (metadata + arrays present), sorted."""
        return sorted(path.stem for path in self.root.glob("*.json")
                      if path.stem in self)

    def __contains__(self, key: str) -> bool:
        return self._sizes(key) is not None

    def __len__(self) -> int:
        return len(self.keys())

    def entry_nbytes(self, key: str) -> int:
        """On-disk footprint of one entry: the sizes of its two files."""
        sizes = self._sizes(key)
        if sizes is None:
            raise RegistryError(f"no registry entry {key!r} under {self.root}")
        return sum(sizes)

    def remove(self, key: str) -> None:
        """Delete an entry (both files); missing entries raise."""
        self._require(key)
        self._npz_path(key).unlink()
        self._json_path(key).unlink()

    def handle(self, key: str) -> "ModelHandle":
        """A picklable reference to one entry (for cross-process serving)."""
        self._require(key)
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
