"""Batched execution of simulation scenarios with snapshot capture.

:func:`run_sweep` fans a list of :class:`~repro.sweep.scenarios.Scenario`
objects across a multiprocessing pool (or runs them serially).  Every worker
rebuilds its scenario's circuit from the picklable builder recipe, runs the
transient analysis on the compiled assembly engine and captures a private
:class:`~repro.tft.SnapshotTrajectory` — the per-scenario ``{G(k), C(k)}``
snapshot set that the TFT extraction consumes.  Results come back in scenario
order inside a :class:`SweepResult`, which offers both the per-scenario
snapshot trajectories and a combined trajectory covering the union of all
runs, with its TFT dataset.

The serial path runs scenarios of one circuit as *families*: scenarios with
equal builder, builder keyword arguments and fixed-step transient options on
a compiled assembly integrate together in one transient call (one Newton
loop over the stacked states), which checks that their compiled engines
match.  Each scenario's result is byte-equal to its own run, failures
included.
"""

from __future__ import annotations

import time as _time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..circuit.mna import MNASystem
from ..circuit.transient import TransientResult, transient_analysis
from ..exceptions import ReproError
from ..telemetry.broker import TopicBroker
from ..telemetry.events import (EngineProfile, ScenarioCompleted,
                                SweepCompleted, SweepStarted)
from ..tft import SnapshotTrajectory, TFTDataset, extract_tft
from .scenarios import Scenario, validate_scenarios

__all__ = ["SweepOptions", "ScenarioResult", "SweepResult", "run_sweep"]


@dataclass
class SweepOptions:
    """Execution options of a sweep."""

    #: Number of worker processes; ``None``, 0 or 1 runs serially in-process.
    n_workers: int | None = None
    #: Capture Jacobian snapshots during each transient (disable for pure
    #: waveform sweeps where only the outputs matter — much lighter results).
    capture_snapshots: bool = True
    #: Raise if any scenario fails (otherwise failures are collected on the
    #: individual :class:`ScenarioResult` objects).
    raise_on_error: bool = True
    #: Optional :class:`~repro.telemetry.TopicBroker`.  When set (and it has
    #: subscribers), the sweep publishes :class:`SweepStarted`, one
    #: :class:`ScenarioCompleted` plus one :class:`EngineProfile` (Newton /
    #: LTE / factorisation-cache counters) per finished scenario, in scenario
    #: order as results stream in from the pool or the serial families, and
    #: a closing :class:`SweepCompleted`.  The broker stays in the driving
    #: process — it is never shipped to workers.
    broker: TopicBroker | None = None


@dataclass
class ScenarioResult:
    """Outcome of one scenario."""

    scenario: Scenario
    transient: TransientResult | None = None
    trajectory: SnapshotTrajectory | None = None
    #: Seconds spent building, simulating and snapshotting the scenario; a
    #: family's time is split equally over its scenarios, so the times of a
    #: sweep's results sum to the time actually spent.
    wall_time: float = 0.0
    error: str | None = None

    @property
    def name(self) -> str:
        return self.scenario.name

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_scenario(scenario: Scenario, capture_snapshots: bool,
                  system: MNASystem | None = None) -> ScenarioResult:
    """Build (unless ``system`` is given), simulate and snapshot one scenario."""
    start = _time.perf_counter()
    try:
        if system is None:
            system = scenario.build_circuit().build()
        trajectory = SnapshotTrajectory(system) if capture_snapshots else None
        result = transient_analysis(system, scenario.transient,
                                    snapshot_callback=trajectory)
        return ScenarioResult(scenario=scenario, transient=result,
                              trajectory=_thinned(trajectory, scenario),
                              wall_time=_time.perf_counter() - start)
    except Exception:  # noqa: BLE001 - workers must report, not crash the pool
        return ScenarioResult(scenario=scenario, error=traceback.format_exc(),
                              wall_time=_time.perf_counter() - start)


def _thinned(trajectory: SnapshotTrajectory | None,
             scenario: Scenario) -> SnapshotTrajectory | None:
    if trajectory is None or scenario.max_snapshots is None:
        return trajectory
    # Adaptive runs cluster accepted steps on fast transitions; thin
    # uniformly in time so the snapshot family still covers the whole
    # trajectory instead of oversampling the edges.
    by = "time" if scenario.transient.adaptive else "index"
    return trajectory.subsample(scenario.max_snapshots, by=by)


def _stackable(scenario: Scenario) -> bool:
    return not scenario.transient.adaptive and scenario.transient.assembly != "legacy"


def _same_circuit(a: Scenario, b: Scenario) -> bool:
    """Equal builder, builder keyword arguments and transient options."""
    try:
        return bool(a.builder == b.builder and a.builder_kwargs == b.builder_kwargs
                    and a.transient == b.transient)
    except (TypeError, ValueError):   # e.g. array-valued keyword arguments
        return False


def _families(scenarios: Sequence[Scenario]) -> list[list[int]]:
    """Scenario indices grouped into transient families, by first member."""
    families: list[list[int]] = []
    for index, scenario in enumerate(scenarios):
        for family in families:
            first = scenarios[family[0]]
            if _stackable(first) and _same_circuit(first, scenario):
                family.append(index)
                break
        else:
            families.append([index])
    return families


def _run_family(family: Sequence[Scenario],
                capture_snapshots: bool) -> list[ScenarioResult]:
    """Run scenarios of one circuit through one transient family call.

    Every scenario builds its own circuit, and each result (a failure
    included) is what the scenario's own run gives.  If the family call
    fails as a whole — circuits that do not compile to equal engines do,
    among them every circuit with per-device (non-vectorised) nonlinear
    stamps — every scenario runs alone on the circuit it built.  The
    family's time is split equally over its scenarios.
    """
    start = _time.perf_counter()
    results: list[ScenarioResult | None] = [None] * len(family)
    systems: dict[int, MNASystem] = {}
    for index, scenario in enumerate(family):
        try:
            systems[index] = scenario.build_circuit().build()
        except Exception:  # noqa: BLE001 - reported on the scenario, as its own run does
            results[index] = ScenarioResult(scenario=scenario,
                                            error=traceback.format_exc())
    trajectories = [SnapshotTrajectory(system) if capture_snapshots else None
                    for system in systems.values()]
    try:
        outcomes = transient_analysis(list(systems.values()), family[0].transient,
                                      snapshot_callback=trajectories) if systems else []
    # repro: allow[REP104] no row owns this failure; every member runs alone below and reports its own
    except Exception:  # noqa: BLE001
        outcomes = [None] * len(systems)
    for (index, system), trajectory, outcome in zip(systems.items(), trajectories,
                                                    outcomes):
        scenario = family[index]
        if outcome is None:
            results[index] = _run_scenario(scenario, capture_snapshots, system)
        elif isinstance(outcome, Exception):
            results[index] = ScenarioResult(scenario=scenario, error="".join(
                traceback.format_exception(outcome)))
        else:
            results[index] = ScenarioResult(
                scenario=scenario, transient=outcome,
                trajectory=_thinned(trajectory, scenario))
    share = (_time.perf_counter() - start) / len(family)
    for result in results:
        result.wall_time = share
    return results


def _run_pickled_scenario(payload: bytes, capture_snapshots: bool) -> ScenarioResult:
    """Worker entry point taking the pre-pickled scenario payload.

    ``run_sweep`` already serialises every scenario once for its
    fail-fast picklability check; shipping those bytes (instead of the
    scenario object, which the executor would pickle a second time) reuses
    that work and keeps the object-graph traversal out of the dispatch loop.
    """
    import pickle

    return _run_scenario(pickle.loads(payload), capture_snapshots)


class SweepResult:
    """Ordered collection of scenario results with TFT-ready accessors."""

    def __init__(self, results: Sequence[ScenarioResult], wall_time: float,
                 n_workers: int) -> None:
        self.results = list(results)
        self.wall_time = float(wall_time)
        self.n_workers = int(n_workers)

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, key: int | str) -> ScenarioResult:
        if isinstance(key, str):
            for result in self.results:
                if result.name == key:
                    return result
            raise KeyError(f"no scenario named {key!r} in sweep")
        return self.results[key]

    @property
    def names(self) -> list[str]:
        return [r.name for r in self.results]

    @property
    def failed(self) -> list[ScenarioResult]:
        return [r for r in self.results if not r.ok]

    def trajectories(self) -> dict[str, SnapshotTrajectory]:
        """Per-scenario snapshot trajectories (successful scenarios only)."""
        return {r.name: r.trajectory for r in self.results
                if r.ok and r.trajectory is not None}

    # ---------------------------------------------------------------- TFT feed
    def combined_trajectory(self) -> SnapshotTrajectory:
        """All scenarios' snapshots merged into one trajectory.

        Requires every scenario to share the circuit topology (identical
        unknown count and input/output dimensions) — i.e. waveform or value
        corners of *one* circuit family.  The merged trajectory's state axis
        covers the union of the per-scenario input excursions, which is what
        makes multi-stimulus TFT training cover more of the hyperplane than
        any single transient.
        """
        trajectories = list(self.trajectories().values())
        if not trajectories:
            raise ReproError("sweep produced no snapshot trajectories to combine")
        first = trajectories[0]
        shape = (first.system.n_unknowns, first.n_inputs, first.n_outputs)
        merged = SnapshotTrajectory(first.system)
        for trajectory in trajectories:
            t_shape = (trajectory.system.n_unknowns, trajectory.n_inputs,
                       trajectory.n_outputs)
            if t_shape != shape:
                raise ReproError(
                    "cannot combine snapshot trajectories of different circuit "
                    f"topologies: {t_shape} vs {shape}")
            merged.snapshots.extend(trajectory.snapshots)
        return merged

    def extract_combined_tft(self, max_snapshots: int | None = None) -> TFTDataset:
        """TFT dataset of the merged snapshot family (see above), on the
        default frequency grid."""
        return extract_tft(self.combined_trajectory(), max_snapshots=max_snapshots)

    # -------------------------------------------------------------- provenance
    def provenance(self) -> dict:
        """JSON-able record of what this sweep ran (for registry entries)."""
        return {
            "scenarios": [r.scenario.recipe() for r in self.results],
            "n_workers": self.n_workers,
            "wall_time": self.wall_time,
            "failed": [r.name for r in self.failed],
        }

    # ------------------------------------------------------------- diagnostics
    def describe(self) -> str:
        ok = sum(1 for r in self.results if r.ok)
        snaps = sum(len(r.trajectory) for r in self.results
                    if r.ok and r.trajectory is not None)
        return (f"sweep of {len(self.results)} scenario(s): {ok} succeeded, "
                f"{len(self.results) - ok} failed, {snaps} snapshots captured, "
                f"{self.wall_time:.2f}s wall on {self.n_workers} worker(s)")


def run_sweep(scenarios: Iterable[Scenario],
              options: SweepOptions | None = None) -> SweepResult:
    """Execute all scenarios and collect their trajectories.

    With ``options.n_workers > 1`` the scenarios run on a process pool; each
    worker rebuilds its circuit from the scenario recipe (circuits, waveforms
    and results are plain picklable objects).  Serially, scenarios of one
    circuit run as transient families (see the module docstring), byte-equal
    to the per-scenario runs the pool makes.  Results are returned in
    scenario order regardless of completion order.
    """
    opts = options or SweepOptions()
    scenario_list = validate_scenarios(scenarios)
    n_workers = int(opts.n_workers or 1)
    wall_start = _time.perf_counter()

    broker = opts.broker
    if n_workers <= 1 or len(scenario_list) <= 1:
        n_workers = 1
    else:
        n_workers = min(n_workers, len(scenario_list))

    if broker:
        broker.publish(SweepStarted(n_scenarios=len(scenario_list),
                                    n_workers=n_workers))

    def _completed(result: ScenarioResult) -> ScenarioResult:
        if broker:
            broker.publish(ScenarioCompleted(name=result.name, ok=result.ok,
                                             wall_time_s=result.wall_time))
            transient = result.transient
            if transient is not None:
                # Engine profile: the solver-level counters the transient
                # accumulated (Newton work, LTE controller verdicts, LU
                # factorisation cache economics).  Workers never see the
                # broker — the counters ride back on the picklable result
                # and are published here, in the driving process.
                broker.publish(EngineProfile(
                    name=result.name,
                    newton_iterations=transient.newton_iterations,
                    accepted_steps=transient.accepted_steps,
                    rejected_steps=transient.rejected_steps,
                    lte_rejections=transient.lte_rejections,
                    cache_factorizations=transient.cache_factorizations,
                    cache_reuses=transient.cache_reuses,
                    cache_hit_rate=transient.cache_hit_rate,
                    wall_time_s=transient.wall_time))
        return result

    if n_workers == 1:
        results: list[ScenarioResult | None] = [None] * len(scenario_list)
        published = 0
        for family in _families(scenario_list):
            scenarios = [scenario_list[index] for index in family]
            if len(family) > 1:
                finished = _run_family(scenarios, opts.capture_snapshots)
            else:
                finished = [_run_scenario(scenarios[0], opts.capture_snapshots)]
            for index, result in zip(family, finished):
                results[index] = result
            while published < len(results) and results[published] is not None:
                _completed(results[published])
                published += 1
    else:
        # Fail fast with a named scenario instead of the executor's opaque
        # PicklingError mid-map (lambdas/closures as builders are the usual
        # culprit; builders must be module-level callables).  The payloads of
        # this pre-check are shipped to the workers as-is, so each scenario
        # is pickled exactly once.
        import pickle

        payloads: list[bytes] = []
        for scenario in scenario_list:
            try:
                payloads.append(pickle.dumps(scenario))
            except Exception as exc:
                raise ReproError(
                    f"scenario {scenario.name!r} is not picklable and cannot be "
                    f"shipped to a worker process ({exc}); use module-level "
                    "builder callables and waveforms, or run with n_workers=1"
                ) from exc
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            # Iterate lazily so ScenarioCompleted events fire as scenarios
            # finish, not all at once when the whole map is done.
            results = [_completed(result) for result in pool.map(
                _run_pickled_scenario, payloads,
                [opts.capture_snapshots] * len(scenario_list))]

    sweep = SweepResult(results, _time.perf_counter() - wall_start, n_workers)
    if broker:
        broker.publish(SweepCompleted(n_ok=len(sweep) - len(sweep.failed),
                                      n_failed=len(sweep.failed),
                                      wall_time_s=sweep.wall_time))
    if opts.raise_on_error and sweep.failed:
        details = "\n".join(f"--- {r.name} ---\n{r.error}" for r in sweep.failed)
        raise ReproError(
            f"{len(sweep.failed)} of {len(sweep)} sweep scenario(s) failed:\n{details}")
    return sweep
