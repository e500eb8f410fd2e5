"""Tests of the compiled model runtime: compile, batch-serve, registry, validate."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import batched_waveform_errors
from repro.circuit import Sine, TransientOptions
from repro.circuits import build_rc_ladder
from repro.exceptions import ModelError, RegistryError
from repro.rvf import RVFOptions, extract_rvf_model, simulate_hammerstein
from repro.rvf.hammerstein import HammersteinBranch, HammersteinModel
from repro.rvf.residues import PartialFractionFunction
from repro.runtime import (
    ModelHandle,
    ModelRegistry,
    compile_model,
    content_hash,
    evaluate_batch,
    shard_slices,
    validate_model,
)
from repro.runtime import batch as batch_module
from repro.sweep import SweepOptions, run_sweep, waveform_sweep


def synthetic_model() -> HammersteinModel:
    """A small analytic model with one complex pair and one real branch."""
    def pf(poles, coeffs, const):
        return PartialFractionFunction(np.asarray(poles, complex),
                                       np.asarray(coeffs, complex), const)

    gain = pf([-2.0 + 0.5j], [0.3 + 0.1j], 1.2)
    pair_residue = pf([-1.5 + 0.2j], [0.2 - 0.05j], 0.4 + 0.2j)
    real_residue = pf([-1.0], [0.15], 0.2)
    branches = [
        HammersteinBranch(pole=-3e7 + 1e8j, residue_function=pair_residue,
                          static_function=pair_residue.antiderivative()
                          .with_value_at(0.5, 0.0),
                          is_complex_pair=True),
        HammersteinBranch(pole=-5e7, residue_function=real_residue,
                          static_function=real_residue.antiderivative()
                          .with_value_at(0.5, 0.0),
                          is_complex_pair=False),
    ]
    return HammersteinModel(
        branches=branches, gain_function=gain,
        static_function=gain.antiderivative().with_value_at(0.5, 0.3),
        dc_input=0.5, dc_output=0.3)


@pytest.fixture(scope="module")
def compiled():
    return compile_model(synthetic_model(), dt=1e-9, input_range=(0.0, 1.0))


@pytest.fixture(scope="module")
def static_only():
    """The synthetic model without branches: the kernel's static path alone."""
    model = synthetic_model()
    model.branches = []
    return compile_model(model, dt=1e-9, input_range=(0.0, 1.0))


def make_stimulus(n_steps=300, dt=1e-9):
    times = dt * np.arange(n_steps)
    return times, 0.5 + 0.4 * np.sin(2e6 * 2 * np.pi * times * 3) \
        + 0.05 * np.sin(4e7 * 2 * np.pi * times)


def untiled_reference(model, inputs: np.ndarray) -> np.ndarray:
    """The batch kernel before tiling: one pass over the whole batch.

    The untiled ``_evaluate_block`` kept as the reference the tiled kernel
    must match bit for bit; ``inputs`` is ``(B, K)``.
    """
    def lookup(table, idx, frac):
        return table.take(idx) * (1.0 - frac) + table.take(idx + 1) * frac

    u = np.ascontiguousarray(np.asarray(inputs, dtype=float).T)
    n_steps, n_block = u.shape
    du = (model.u_max - model.u_min) / (model.n_table - 1)
    pos = (np.clip(u, model.u_min, model.u_max) - model.u_min) / du
    idx = np.minimum(pos.astype(np.intp), model.n_table - 2)
    frac = pos - idx
    outputs = lookup(model.static_table, idx, frac)
    if model.n_branches == 0:
        return outputs.T
    offsets = model.n_table * np.arange(model.n_branches)[:, None]
    v = lookup(model.branch_table.ravel(), idx[:, None, :] + offsets,
               frac[:, None, :])
    z = np.empty_like(v)
    np.multiply(model.init[:, None], v[0], out=z[0])
    np.multiply(model.w0[:, None], v[:-1], out=z[1:])
    z[1:] += model.w1[:, None] * v[1:]
    expz = np.repeat(model.expz, n_block)
    carry = np.empty_like(expz)
    states = z.reshape(n_steps, -1)
    prev = states[0]
    for state in states[1:]:
        np.multiply(expz, prev, out=carry)
        state += carry
        prev = state
    for p, weight in enumerate(model.c_out):
        outputs += weight * z[:, p].real
    return outputs.T


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Byte equality: unlike ``assert_array_equal``, tells -0.0 from 0.0."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def patch_tile(patcher, model, rows: int, steps: int) -> None:
    """Size tiles of ``model`` to ``rows`` x ``steps`` (when the batch is
    at least ``rows`` by ``steps``) by shrinking the tile budget."""
    per_step = 8 * (10 * model.n_branches + 6)
    patcher.setattr(batch_module, "TILE_BYTES", rows * steps * per_step)
    patcher.setattr(batch_module, "TILE_MIN_STEPS", steps)


class TestCompile:
    def test_matches_analytical_simulation(self, compiled):
        model = synthetic_model()
        times, u = make_stimulus()
        reference = simulate_hammerstein(model, times, u).outputs
        served = compiled.evaluate(u)
        scale = float(np.max(np.abs(reference)))
        assert np.max(np.abs(served - reference)) < 1e-7 * scale

    def test_shapes_and_metadata(self, compiled):
        assert compiled.n_branches == 2
        assert compiled.c_out.tolist() == [2.0, 1.0]
        assert compiled.metadata["dc_input"] == 0.5
        assert compiled.sample_rate == pytest.approx(1e9)

    def test_single_and_batch_rows_agree(self, compiled, static_only):
        _, u = make_stimulus()
        full = np.vstack([u, 0.5 * u + 0.25, np.full_like(u, 0.4)])
        for model in (compiled, static_only):
            reference = model.evaluate(full)
            # K = 1 and K = 2 bound the recurrence loop; B = 1 is one row.
            for batch in (full, full[:, :2], full[:, :1], full[:1]):
                single_rows = [model.evaluate(row) for row in batch]
                outputs = model.evaluate(batch)
                assert outputs.shape == batch.shape
                for row, single in zip(outputs, single_rows):
                    np.testing.assert_array_equal(row, single)
                # A shorter run is a prefix of the longer one, bit for bit.
                np.testing.assert_array_equal(
                    outputs, reference[:batch.shape[0], :batch.shape[1]])

    def test_chunking_is_bitwise_stable(self, compiled, static_only,
                                        monkeypatch):
        rng = np.random.default_rng(7)
        for model in (compiled, static_only):
            for shape in ((17, 64), (17, 2), (17, 1), (1, 64), (1, 1)):
                batch = 0.5 + 0.3 * rng.standard_normal(shape)
                full = model.evaluate(batch)
                with monkeypatch.context() as tiny:
                    # One row by one step per tile.
                    tiny.setattr(batch_module, "TILE_BYTES", 1)
                    tiny.setattr(batch_module, "TILE_MIN_STEPS", 1)
                    tiny_tiles = model.evaluate(batch)
                    timings = {}
                    timed = evaluate_batch(model, batch, timings=timings)
                np.testing.assert_array_equal(full, tiny_tiles)
                np.testing.assert_array_equal(full, timed)
                assert set(timings) == {"eval_s", "stage_out_s", "knots_s",
                                        "lookup_s", "drive_s", "recurrence_s"}
                split = np.vstack([model.evaluate(batch[rows]) for rows
                                   in shard_slices(shape[0], 3)])
                np.testing.assert_array_equal(full, split)

    def test_phase_timers_split_the_kernel_time(self, compiled):
        batch = 0.5 + 0.3 * np.random.default_rng(3).standard_normal((17, 64))
        timings = {}
        evaluate_batch(compiled, batch, timings=timings)
        phases = [timings[key] for key in
                  ("knots_s", "lookup_s", "drive_s", "recurrence_s")]
        assert all(seconds > 0.0 for seconds in phases)
        assert sum(phases) <= timings["eval_s"]

    def test_out_of_range_inputs_clamp_to_table_edges(self, compiled):
        inside = compiled.evaluate(np.full(32, compiled.u_max))
        outside = compiled.evaluate(np.full(32, compiled.u_max + 10.0))
        np.testing.assert_array_equal(inside, outside)

    def test_recurrence_matches_timedomain_weights(self):
        from repro.rvf.timedomain import phi1, phi2
        branch = synthetic_model().branches[0]
        expz, w0, w1 = branch.recurrence(2e-9)
        z = branch.pole * 2e-9
        assert expz == pytest.approx(np.exp(z))
        assert w0 == pytest.approx(2e-9 * phi1(z))
        assert w1 == pytest.approx(2e-9 * phi2(z))

    def test_invalid_arguments_rejected(self):
        model = synthetic_model()
        with pytest.raises(ModelError, match="dt"):
            compile_model(model, dt=0.0, input_range=(0.0, 1.0))
        with pytest.raises(ModelError, match="input_range"):
            compile_model(model, dt=1e-9, input_range=(1.0, 1.0))
        with pytest.raises(ModelError, match="table_size"):
            compile_model(model, dt=1e-9, input_range=(0.0, 1.0), table_size=1)

    def test_non_finite_stimuli_rejected_with_row_named(self, compiled):
        """NaN/Inf must raise, not silently index garbage table entries."""
        batch = np.full((4, 32), 0.5)
        batch[2, 7] = np.nan
        with pytest.raises(ModelError, match=r"row 2.*step 7"):
            compiled.evaluate(batch)
        batch[2, 7] = np.inf
        with pytest.raises(ModelError, match="non-finite"):
            compiled.evaluate(batch)
        single = np.full(16, 0.5)
        single[3] = -np.inf
        with pytest.raises(ModelError, match="row 0"):
            compiled.evaluate(single)


class TestTiles:
    """Tiled evaluation against the untiled kernel, bit for bit, across
    every kind of tile edge: R rows by T steps per tile."""

    R, T = 4, 8
    STEPS = (1, 2, T - 1, T, T + 1, 3 * T + 7)
    ROWS = (1, 2, R - 1, R, R + 1, 3 * R + 2)

    @pytest.fixture(scope="class")
    def nonlinear(self, nonlinear_rvf):
        states = nonlinear_rvf.tft.state_axis()
        return compile_model(nonlinear_rvf.model, dt=5e-6,
                             input_range=(states.min(), states.max()))

    @pytest.fixture
    def models(self, compiled, static_only, nonlinear):
        return (compiled, static_only, nonlinear)

    @staticmethod
    def stimuli(model, shape, seed=0):
        """Rows spanning the table, a little past both edges."""
        span = model.u_max - model.u_min
        rng = np.random.default_rng(seed)
        return model.u_min + span * rng.uniform(-0.1, 1.1, shape)

    def test_tiles_match_untiled_kernel_bitwise(self, models, monkeypatch):
        for model in models:
            patch_tile(monkeypatch, model, self.R, self.T)
            assert batch_module._tile_shape(
                model.n_branches, 3 * self.R + 2, 3 * self.T + 7) == (
                    self.R, self.T)
            for n_rows in self.ROWS:
                for n_steps in self.STEPS:
                    batch = self.stimuli(model, (n_rows, n_steps))
                    assert_same_bits(model.evaluate(batch),
                                     untiled_reference(model, batch))

    def test_single_row_and_out_array(self, models, monkeypatch):
        for model in models:
            patch_tile(monkeypatch, model, 1, self.T)
            for n_steps in self.STEPS:
                row = self.stimuli(model, n_steps, seed=n_steps)
                want = untiled_reference(model, row[None, :])[0]
                assert_same_bits(model.evaluate(row), want)
                out = np.full(n_steps, np.nan)
                assert model.evaluate(row, out=out) is out
                assert_same_bits(out, want)
            patch_tile(monkeypatch, model, self.R, self.T)
            batch = self.stimuli(model, (3 * self.R + 2, 3 * self.T + 7))
            out = np.full(batch.shape, np.nan)
            assert evaluate_batch(model, batch, out=out) is out
            assert_same_bits(out, untiled_reference(model, batch))

    def test_every_shard_split_matches(self, models, monkeypatch):
        for model in models:
            patch_tile(monkeypatch, model, self.R, self.T)
            batch = self.stimuli(model, (3 * self.R + 2, 3 * self.T + 7))
            want = untiled_reference(model, batch)
            for n_shards in range(1, batch.shape[0] + 1):
                split = np.vstack([model.evaluate(batch[rows]) for rows
                                   in shard_slices(batch.shape[0], n_shards)])
                assert_same_bits(split, want)


class TestRegistry:
    def test_round_trip_is_bitwise(self, compiled, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        key = registry.save(compiled, provenance={"origin": "unit-test"})
        assert key == content_hash(compiled)
        assert key in registry and len(registry) == 1
        loaded = registry.load(key)
        _, u = make_stimulus()
        batch = np.vstack([u, u[::-1]])
        np.testing.assert_array_equal(compiled.evaluate(batch),
                                      loaded.evaluate(batch))
        assert registry.provenance(key) == {"origin": "unit-test"}

    def test_save_is_idempotent_and_content_addressed(self, compiled, tmp_path):
        registry = ModelRegistry(tmp_path)
        key1 = registry.save(compiled)
        key2 = registry.save(compile_model(synthetic_model(), dt=1e-9,
                                           input_range=(0.0, 1.0)))
        assert key1 == key2 and len(registry) == 1
        other = compile_model(synthetic_model(), dt=2e-9, input_range=(0.0, 1.0))
        assert registry.save(other) != key1 and len(registry) == 2

    def test_resave_merges_provenance_instead_of_dropping_it(self, compiled,
                                                             tmp_path):
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled, provenance={"sweep": "training-run"})
        registry.save(compiled)                          # no provenance given
        assert registry.provenance(key) == {"sweep": "training-run"}
        registry.save(compiled, provenance={"promoted": True})
        assert registry.provenance(key) == {"sweep": "training-run",
                                            "promoted": True}
        assert registry.load(key).dt == compiled.dt

    def test_missing_key_raises(self, tmp_path):
        with pytest.raises(RegistryError, match="no registry entry"):
            ModelRegistry(tmp_path).load("deadbeef")

    def test_truncated_archive_detected(self, compiled, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled)
        npz = tmp_path / f"{key}.npz"
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        with pytest.raises(RegistryError, match="corrupt|integrity"):
            registry.load(key)

    def test_tampered_metadata_detected(self, compiled, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled)
        meta_path = tmp_path / f"{key}.json"
        record = json.loads(meta_path.read_text())
        record["dt"] = record["dt"] * 2.0   # mismatch with hashed arrays
        meta_path.write_text(json.dumps(record))
        with pytest.raises(RegistryError, match="integrity"):
            registry.load(key)
        # verify=False trusts the files (for forensics, not serving).
        assert registry.load(key, verify=False).dt == record["dt"]

    def test_unsupported_format_rejected(self, compiled, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled)
        meta_path = tmp_path / f"{key}.json"
        record = json.loads(meta_path.read_text())
        record["format"] = "compiled-hammerstein-v999"
        meta_path.write_text(json.dumps(record))
        with pytest.raises(RegistryError, match="format"):
            registry.load(key)

    UNREADABLE_METADATA = {"not-json": b"not json{{", "array": b"[1, 2]",
                           "string": b'"text"', "not-utf8": b"\xff\xfe"}

    @pytest.mark.parametrize("method", ["load", "provenance"])
    @pytest.mark.parametrize("content", UNREADABLE_METADATA.values(),
                             ids=UNREADABLE_METADATA.keys())
    def test_unreadable_metadata_raises_registry_error(self, compiled, tmp_path,
                                                       content, method):
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled)
        (tmp_path / f"{key}.json").write_bytes(content)
        with pytest.raises(RegistryError, match="unreadable registry metadata"):
            getattr(registry, method)(key)

    def test_resave_rewrites_unreadable_metadata(self, compiled, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled, provenance={"origin": "first"})
        for content in self.UNREADABLE_METADATA.values():
            (tmp_path / f"{key}.json").write_bytes(content)
            assert registry.save(compiled, provenance={"origin": "again"}) == key
            assert registry.provenance(key) == {"origin": "again"}
            assert registry.load(key).dt == compiled.dt

    def test_remove(self, compiled, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled)
        registry.remove(key)
        assert key not in registry
        with pytest.raises(RegistryError):
            registry.remove(key)

    def test_identical_resave_leaves_files_untouched(self, compiled, tmp_path):
        """Acceptance: idempotent save — same content hash, zero writes."""
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled, provenance={"origin": "first"})
        paths = [tmp_path / f"{key}.npz", tmp_path / f"{key}.json"]
        before = [(p.stat().st_mtime_ns, p.read_bytes()) for p in paths]
        assert registry.save(compiled) == key                  # no provenance
        assert registry.save(compiled,
                             provenance={"origin": "first"}) == key  # same keys
        after = [(p.stat().st_mtime_ns, p.read_bytes()) for p in paths]
        assert before == after
        # New provenance keys do rewrite the metadata record (merged).
        registry.save(compiled, provenance={"promoted": True})
        assert (tmp_path / f"{key}.json").stat().st_mtime_ns != before[1][0]
        assert registry.provenance(key) == {"origin": "first", "promoted": True}

    def test_changed_metadata_under_same_key_is_not_discarded(self, tmp_path):
        """content_hash excludes metadata, so a re-save with new metadata
        must rewrite the record — idempotency is record-wide, not
        provenance-only."""
        registry = ModelRegistry(tmp_path)
        model_v1 = compile_model(synthetic_model(), dt=1e-9,
                                 input_range=(0.0, 1.0), metadata={"note": "v1"})
        model_v2 = compile_model(synthetic_model(), dt=1e-9,
                                 input_range=(0.0, 1.0), metadata={"note": "v2"})
        key = registry.save(model_v1)
        assert registry.save(model_v2) == key       # same content hash
        assert registry.load(key).metadata["note"] == "v2"

    def test_fresh_process_reproduces_identical_outputs(self, compiled, tmp_path):
        """Acceptance: save here, load in a new interpreter, bitwise match."""
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled)
        _, u = make_stimulus(200)
        batch = np.vstack([u, 0.3 + 0.2 * np.cos(np.arange(u.size) / 5.0)])
        expected = compiled.evaluate(batch)
        np.save(tmp_path / "stimuli.npy", batch)

        src = Path(repro.__file__).resolve().parent.parent
        script = (
            "import numpy as np\n"
            "from repro.runtime import ModelRegistry\n"
            f"registry = ModelRegistry({str(tmp_path)!r})\n"
            f"model = registry.load({key!r})\n"
            f"batch = np.load({str(tmp_path / 'stimuli.npy')!r})\n"
            f"np.save({str(tmp_path / 'served.npy')!r}, model.evaluate(batch))\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True,
                       env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
        served = np.load(tmp_path / "served.npy")
        np.testing.assert_array_equal(served, expected)


#: A ``compiled-hammerstein-v1`` entry (a real 2x2 block per branch):
#: ``synthetic_model()`` compiled at ``dt=1e-9`` over ``(0, 1)`` with
#: ``table_size=65`` and stored by that format's ``ModelRegistry.save``.
V1_FIXTURE = Path(__file__).parent / "fixtures" / "registry_v1"
V1_KEY = "26c05d5ae258a961d6c28db52c45922d501565f9b6bf69f6b071abd6051e3336"


class TestRegistryV1Entries:
    """Entries of the earlier format stay valid under their original keys."""

    @pytest.fixture
    def v1_registry(self, tmp_path):
        for path in V1_FIXTURE.glob(f"{V1_KEY}.*"):
            shutil.copy(path, tmp_path / path.name)
        return ModelRegistry(tmp_path)

    def test_v1_entry_loads_bitwise_equal_to_fresh_compile(self, v1_registry):
        assert v1_registry.keys() == [V1_KEY]
        loaded = v1_registry.load(V1_KEY)           # passes verification
        fresh = compile_model(synthetic_model(), dt=1e-9,
                              input_range=(0.0, 1.0), table_size=65)
        # Same names, dtypes, shapes and bytes: the payload hashes alike.
        assert content_hash(loaded) == content_hash(fresh) != V1_KEY
        for name, array in fresh.arrays().items():
            np.testing.assert_array_equal(getattr(loaded, name), array)
        assert loaded.metadata == fresh.metadata
        _, u = make_stimulus()
        batch = np.vstack([u, u[::-1]])
        np.testing.assert_array_equal(loaded.evaluate(batch),
                                      fresh.evaluate(batch))

    def test_tampered_v1_metadata_refused(self, v1_registry):
        meta_path = v1_registry.root / f"{V1_KEY}.json"
        record = json.loads(meta_path.read_text())
        record["u_max"] = 2.0                 # mismatch with the hashed payload
        meta_path.write_text(json.dumps(record))
        with pytest.raises(RegistryError, match="integrity"):
            v1_registry.load(V1_KEY)


class TestRegistryIndex:
    """The directory is the registry: its complete file pairs are the entries."""

    def test_foreign_writes_detected_as_stale(self, compiled, tmp_path):
        """Files added/removed behind the registry's back are picked up."""
        source = ModelRegistry(tmp_path / "source")
        target = ModelRegistry(tmp_path / "target")
        key = source.save(compiled)
        assert target.keys() == []
        # Foreign addition: copy the entry files directly (no registry API).
        target.root.mkdir(parents=True, exist_ok=True)
        assert target.keys() == []
        for suffix in (".npz", ".json"):
            (target.root / f"{key}{suffix}").write_bytes(
                (source.root / f"{key}{suffix}").read_bytes())
        assert target.keys() == [key]
        assert key in target
        # Foreign deletion: unlink directly; the stale index must rebuild.
        (target.root / f"{key}.npz").unlink()
        (target.root / f"{key}.json").unlink()
        assert target.keys() == []
        assert key not in target

    def test_remove_updates_index(self, compiled, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled)
        registry.remove(key)
        assert registry.keys() == []
        assert key not in ModelRegistry(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_entry_nbytes_matches_disk(self, compiled, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled)
        expected = ((tmp_path / f"{key}.npz").stat().st_size
                    + (tmp_path / f"{key}.json").stat().st_size)
        assert registry.entry_nbytes(key) == expected
        with pytest.raises(RegistryError, match="no registry entry"):
            registry.entry_nbytes("deadbeef")

    def test_missing_root_behaves_like_empty(self, tmp_path):
        registry = ModelRegistry(tmp_path / "never-created")
        assert registry.keys() == []
        assert "deadbeef" not in registry
        with pytest.raises(RegistryError):
            registry.entry_nbytes("deadbeef")

    def test_load_of_indexed_but_deleted_entry_raises_and_heals(self, compiled,
                                                                tmp_path):
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled)
        (tmp_path / f"{key}.npz").unlink()
        with pytest.raises(RegistryError, match="no registry entry"):
            registry.load(key)
        assert registry.keys() == []
        assert key not in registry

    def test_failed_load_does_not_hide_foreign_additions(self, compiled,
                                                         tmp_path):
        """A load() that heals the index must not stamp staleness away:
        entries copied in alongside a foreign deletion stay discoverable."""
        source = ModelRegistry(tmp_path / "source")
        other = compile_model(synthetic_model(), dt=2e-9,
                              input_range=(0.0, 1.0))
        other_key = source.save(other)
        registry = ModelRegistry(tmp_path / "reg")
        key = registry.save(compiled)
        # Foreign sync: delete the known entry's files, copy a new entry in.
        (registry.root / f"{key}.npz").unlink()
        (registry.root / f"{key}.json").unlink()
        for suffix in (".npz", ".json"):
            (registry.root / f"{other_key}{suffix}").write_bytes(
                (source.root / f"{other_key}{suffix}").read_bytes())
        with pytest.raises(RegistryError, match="no registry entry"):
            registry.load(key)
        assert registry.keys() == [other_key]
        assert other_key in registry

    def test_directory_left_with_an_index_lists_only_complete_pairs(
            self, compiled, tmp_path):
        """Registries used to keep an ``_index.json`` beside the entries.
        A directory left with a stale or garbage index, a leftover
        ``_index-*.tmp`` and half-written entries lists, counts and admits
        exactly its complete file pairs, and no read writes a file."""
        source = ModelRegistry(tmp_path / "source")
        copied, json_only, npz_only = (
            source.save(compile_model(synthetic_model(), dt=dt,
                                      input_range=(0.0, 1.0)))
            for dt in (2e-9, 3e-9, 4e-9))
        registry = ModelRegistry(tmp_path / "reg")
        root = registry.root
        kept = registry.save(compiled)
        deleted = registry.save(compile_model(synthetic_model(), dt=5e-9,
                                              input_range=(0.0, 1.0)))
        (root / f"{deleted}.npz").unlink()
        (root / f"{deleted}.json").unlink()
        for key, suffixes in ((copied, (".npz", ".json")),
                              (json_only, (".json",)), (npz_only, (".npz",))):
            for suffix in suffixes:
                shutil.copy(source.root / f"{key}{suffix}", root)
        (root / "_index-k3x9q1.tmp").write_text('{"version": 1, "entr')
        stale = json.dumps({"version": 1, "entries": {
            key: {"nbytes": 1} for key in (kept, deleted, json_only, npz_only)}})
        for index_text in (stale, "not json{{", json.dumps({"version": 999}),
                           json.dumps([1, 2, 3]), ""):
            (root / "_index.json").write_text(index_text)
            before = {path.name: (path.stat().st_mtime_ns, path.read_bytes())
                      for path in root.iterdir()}
            registry = ModelRegistry(root)
            assert registry.keys() == sorted([kept, copied])
            assert len(registry) == 2
            assert kept in registry and copied in registry
            for key in (kept, copied):
                assert registry.entry_nbytes(key) == (
                    (root / f"{key}.npz").stat().st_size
                    + (root / f"{key}.json").stat().st_size)
                assert content_hash(registry.handle(key).load()) == key
            with pytest.raises(RegistryError, match="no registry entry"):
                ModelHandle(str(root), deleted).load()
            for key in (deleted, json_only, npz_only):
                assert key not in registry
                for call in (registry.entry_nbytes, registry.remove,
                             registry.handle):
                    with pytest.raises(RegistryError, match="no registry entry"):
                        call(key)
            # Keys arrive from the network: a path to a pair outside the
            # directory, a name too long for a file and a NUL byte name no
            # entry, and asking about them raises nothing else.
            for key in (f"../source/{copied}", "k" * 512, f"{kept}\x00"):
                assert key not in registry
                for call in (registry.entry_nbytes, registry.load,
                             lambda k: registry.load(k, verify=False),
                             registry.provenance):
                    with pytest.raises(RegistryError, match="no registry entry"):
                        call(key)
            assert before == {
                path.name: (path.stat().st_mtime_ns, path.read_bytes())
                for path in root.iterdir()}


class TestModelHandle:
    def test_handle_round_trips_through_pickle(self, compiled, tmp_path):
        import pickle

        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled)
        handle = registry.handle(key)
        clone = pickle.loads(pickle.dumps(handle))
        assert clone == handle
        loaded = clone.load()
        _, u = make_stimulus(100)
        np.testing.assert_array_equal(loaded.evaluate(u), compiled.evaluate(u))

    def test_handle_for_unknown_key_rejected(self, tmp_path):
        with pytest.raises(RegistryError, match="no registry entry"):
            ModelRegistry(tmp_path).handle("deadbeef")

    def test_handle_load_verifies_integrity(self, compiled, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled)
        handle = registry.handle(key)
        npz = tmp_path / f"{key}.npz"
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        with pytest.raises(RegistryError, match="corrupt|integrity"):
            handle.load()


class TestValidationHarness:
    @pytest.fixture(scope="class")
    def family(self):
        transient = TransientOptions(t_stop=1e-6, dt=1e-8)
        scenarios = waveform_sweep(
            build_rc_ladder, [Sine(0.5, a, 2e5) for a in (0.1, 0.25, 0.4)],
            transient=transient, builder_kwargs={"n_sections": 2})
        sweep = run_sweep(scenarios)
        dataset = sweep.extract_combined_tft(max_snapshots=40)
        extraction = extract_rvf_model(dataset, RVFOptions(error_bound=5e-3))
        lo = float(dataset.state_axis().min())
        hi = float(dataset.state_axis().max())
        compiled = compile_model(extraction.model, dt=1e-8,
                                 input_range=(lo - 0.05, hi + 0.05))
        return {"scenarios": scenarios, "sweep": sweep,
                "extraction": extraction, "compiled": compiled}

    def test_error_bound_recorded_at_compile_time(self, family):
        assert family["compiled"].error_bound == pytest.approx(5e-3)

    def test_family_validates_within_extraction_bound(self, family):
        """Acceptance: model-vs-sim error within the extraction's bound."""
        report = validate_model(family["compiled"], family["scenarios"])
        assert report.n_scenarios == 3
        assert report.error_bound == pytest.approx(5e-3)
        assert report.within_bound, report.summary()
        assert report.max_relative_rmse <= 5e-3
        assert "PASS" in report.summary()
        rendered = report.render()
        assert all(row.name in rendered for row in report.rows)

    def test_precomputed_sweep_reused(self, family):
        report = validate_model(family["compiled"], family["scenarios"],
                                sweep_result=family["sweep"])
        assert report.within_bound

    def test_adaptive_sweep_validates_within_bound(self, family):
        """Acceptance: validation replays on LTE-controlled transients.

        The simulator reference then lives on a non-uniform time grid; the
        harness must resample it onto the compiled model's uniform ``dt``
        before computing any RMSE.
        """
        scenarios = [s.with_transient(adaptive=True, lte_rel_tol=1e-4,
                                      max_dt_factor=10.0)
                     for s in family["scenarios"]]
        sweep = run_sweep(scenarios, SweepOptions(capture_snapshots=False))
        grids = [np.diff(r.transient.times) for r in sweep.results]
        assert all(g.max() > 1.5 * g.min() for g in grids)   # non-uniform
        fixed_steps = family["sweep"].results[0].transient.accepted_steps
        assert all(r.transient.accepted_steps < fixed_steps for r in sweep.results)
        report = validate_model(family["compiled"], scenarios, sweep_result=sweep)
        assert report.within_bound, report.summary()

    def test_mismatched_sweep_result_rejected(self, family):
        with pytest.raises(ModelError, match="exactly these scenarios"):
            validate_model(family["compiled"], family["scenarios"][:2],
                           sweep_result=family["sweep"])

    def test_mixed_time_windows_rejected(self, family):
        scenarios = list(family["scenarios"])
        scenarios[1] = scenarios[1].with_transient(t_stop=2e-6)
        with pytest.raises(ModelError, match="time window"):
            validate_model(family["compiled"], scenarios)

    def test_explicit_bound_overrides_metadata(self, family):
        report = validate_model(family["compiled"], family["scenarios"],
                                sweep_result=family["sweep"],
                                error_bound=1e-12)
        assert not report.within_bound


class TestBatchedErrorMetrics:
    def test_row_wise_metrics(self):
        reference = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        model = np.array([[1.1, 1.0, 1.0], [0.5, 0.0, 0.0]])
        report = batched_waveform_errors(reference, model)
        assert report.n_waveforms == 2
        assert report.rmse[0] == pytest.approx(0.1 / np.sqrt(3))
        # Zero reference row: relative falls back to the absolute RMSE.
        assert report.relative_rmse[1] == pytest.approx(report.rmse[1])
        assert report.worst_index == 1
        assert "max relative RMSE" in report.summary()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            batched_waveform_errors(np.zeros((2, 3)), np.zeros((2, 4)))


class TestProvenance:
    def test_scenario_recipe_is_jsonable(self):
        scenario = waveform_sweep(build_rc_ladder, [Sine(0.5, 0.1, 1e5)],
                                  builder_kwargs={"n_sections": 2})[0]
        recipe = scenario.recipe()
        json.dumps(recipe)
        assert "build_rc_ladder" in recipe["builder"]
        assert recipe["builder_kwargs"] == {"n_sections": 2}
        assert recipe["waveform"]["class"] == "Sine"

    def test_sweep_provenance_threads_into_registry(self, compiled, tmp_path):
        transient = TransientOptions(t_stop=2e-7, dt=2e-9)
        scenarios = waveform_sweep(build_rc_ladder, [Sine(0.5, 0.1, 1e6)],
                                   transient=transient,
                                   builder_kwargs={"n_sections": 1})
        sweep = run_sweep(scenarios)
        registry = ModelRegistry(tmp_path)
        key = registry.save(compiled, provenance=sweep.provenance())
        stored = registry.provenance(key)
        assert [s["name"] for s in stored["scenarios"]] == ["wave0"]
        assert stored["failed"] == []
