"""Hypothesis property-based tests for the core numerical building blocks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.circuit.waveforms import BitPattern, Sine, prbs_bits
from repro.runtime import batch as batch_module
from repro.runtime import compile_model
from repro.rvf import PartialFractionFunction, basis_primitive
from repro.rvf.timedomain import phi1, phi2
from repro.serve import MicroBatcher, ServeRequest
from repro.serve.stats import ALPHA, LatencySummary
from repro.units import format_si, parse_value
from repro.vectfit import flip_unstable, sort_poles, split_real_complex
from repro.vectfit.poles import enforce_conjugate_closure
from test_runtime import assert_same_bits, synthetic_model, untiled_reference

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                          allow_infinity=False)


class TestUnitProperties:
    @given(st.floats(min_value=1e-14, max_value=1e13, allow_nan=False))
    def test_format_parse_roundtrip(self, value):
        text = format_si(value, digits=9)
        token = text.replace(" ", "")
        assert parse_value(token) == pytest.approx(value, rel=1e-6)

    @given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
           st.sampled_from(["", "k", "m", "u", "n", "p", "meg", "g"]))
    def test_parse_value_scales_linearly(self, number, suffix):
        scale = {"": 1.0, "k": 1e3, "m": 1e-3, "u": 1e-6, "n": 1e-9,
                 "p": 1e-12, "meg": 1e6, "g": 1e9}[suffix]
        assert parse_value(f"{number}{suffix}") == pytest.approx(number * scale, rel=1e-12)


class TestPoleProperties:
    complex_poles = st.lists(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e6,
                           allow_nan=False, allow_infinity=False),
        min_size=1, max_size=8)

    @given(complex_poles)
    def test_flip_unstable_makes_all_poles_stable(self, poles):
        flipped = flip_unstable(np.array(poles))
        assert np.all(flipped.real < 0)

    @given(complex_poles)
    def test_flip_unstable_preserves_magnitude_of_imaginary_part(self, poles):
        poles = np.array(poles)
        flipped = flip_unstable(poles)
        assert np.allclose(np.abs(flipped.imag), np.abs(poles.imag))

    @given(complex_poles)
    def test_sort_poles_preserves_count(self, poles):
        assert len(sort_poles(np.array(poles))) == len(poles)

    @given(complex_poles)
    def test_enforce_closure_is_conjugate_closed(self, poles):
        closed = enforce_conjugate_closure(np.array(poles))
        assert len(closed) == len(poles)
        # Every complex pole must have a conjugate partner in the set.
        for p in closed:
            if p.imag != 0:
                distances = np.abs(closed - np.conj(p))
                assert distances.min() < 1e-9 * max(abs(p), 1.0)

    @given(complex_poles)
    def test_split_real_complex_partitions_conjugate_closed_sets(self, poles):
        closed = sort_poles(enforce_conjugate_closure(np.array(poles)))
        real_idx, pair_idx = split_real_complex(closed)
        assert len(real_idx) + 2 * len(pair_idx) == len(closed)


class TestCalculusProperties:
    @given(st.complex_numbers(min_magnitude=1e-2, max_magnitude=10.0,
                              allow_nan=False, allow_infinity=False),
           st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    def test_basis_primitive_derivative_is_basis_function(self, pole, u):
        assume(abs(pole.real) > 1e-2)
        h = 1e-5
        numeric = (basis_primitive(u + h, pole) - basis_primitive(u - h, pole)) / (2 * h)
        exact = 1.0 / (1j * u - pole)
        assert numeric == pytest.approx(exact, rel=1e-3, abs=1e-6)

    @given(st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=5.0,
                                       allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=4),
           st.floats(min_value=-2.0, max_value=2.0))
    def test_partial_fraction_antiderivative_roundtrip(self, poles, u):
        poles = np.array([p if abs(p.real) > 0.05 else p + 0.1 for p in poles])
        coeffs = np.ones(len(poles))
        f = PartialFractionFunction(poles, coeffs, constant=0.3)
        F = f.antiderivative()
        h = 1e-5
        numeric = (F(u + h) - F(u - h)) / (2 * h)
        assert numeric == pytest.approx(f(u), rel=1e-3, abs=1e-5)

    @given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
    def test_phi_functions_match_definitions(self, z_real):
        z = complex(z_real, 0.0)
        assume(abs(z) > 1e-3)
        assert complex(phi1(z)) == pytest.approx((np.exp(z) - 1) / z, rel=1e-6)
        assert complex(phi2(z)) == pytest.approx((np.exp(z) - 1 - z) / z ** 2, rel=1e-4)

    @given(st.complex_numbers(max_magnitude=1e-7, allow_nan=False, allow_infinity=False))
    def test_phi_functions_near_zero_limits(self, z):
        assert complex(phi1(z)) == pytest.approx(1.0, abs=1e-6)
        assert complex(phi2(z)) == pytest.approx(0.5, abs=1e-6)


class TestWaveformProperties:
    @given(st.floats(min_value=0.0, max_value=1e-6),
           st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=-1.0, max_value=1.0))
    def test_sine_bounded_by_offset_plus_amplitude(self, t, amplitude, offset):
        wave = Sine(offset=offset, amplitude=amplitude, frequency=10e6)
        assert offset - amplitude - 1e-12 <= wave(t) <= offset + amplitude + 1e-12

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**20))
    def test_prbs_bits_are_binary(self, n_bits, seed):
        bits = prbs_bits(n_bits, seed=seed)
        assert len(bits) == n_bits
        assert set(bits) <= {0, 1}

    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=32),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1.1, max_value=2.0))
    def test_bit_pattern_stays_within_levels(self, n_bits, low, high):
        pattern = BitPattern(bits=prbs_bits(n_bits), bit_rate=1e9, low=low, high=high)
        times = np.linspace(0, pattern.duration * 1.2, 200)
        values = pattern.sample(times)
        assert values.min() >= low - 1e-9
        assert values.max() <= high + 1e-9


class TestTiledKernelProperties:
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_model(synthetic_model(), dt=1e-9, input_range=(0.0, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=24),
           st.integers(min_value=1, max_value=120),
           st.integers(min_value=1, max_value=1 << 16),
           st.integers(min_value=1, max_value=32),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_tile_budget_matches_untiled_kernel(self, compiled, n_rows,
                                                    n_steps, budget, floor,
                                                    seed):
        batch = np.random.default_rng(seed).uniform(-0.1, 1.1,
                                                    (n_rows, n_steps))
        with mock.patch.object(batch_module, "TILE_BYTES", budget), \
                mock.patch.object(batch_module, "TILE_MIN_STEPS", floor):
            tiled = compiled.evaluate(batch)
        assert_same_bits(tiled, untiled_reference(compiled, batch))


class TestLatencySummaryProperties:
    latency_samples = st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=1e3),
                  st.sampled_from([0.0, np.nan, np.inf])),
        min_size=1, max_size=200)

    @given(latency_samples, st.data())
    def test_merged_partitions_summarise_the_concatenation(self, samples,
                                                           data):
        labels = data.draw(st.lists(st.integers(0, 4), min_size=len(samples),
                                    max_size=len(samples)))
        parts = [[x for x, label in zip(samples, labels) if label == part]
                 for part in range(5)]
        merged = LatencySummary.merge(LatencySummary.of(p) for p in parts)
        whole = LatencySummary.of(samples)
        assert (merged.count, merged.min, merged.max, merged.offset,
                merged.buckets) == (whole.count, whole.min, whole.max,
                                    whole.offset, whole.buckets)
        finite = np.asarray(samples)[np.isfinite(samples)]
        mean = finite.mean() if finite.size else 0.0
        assert merged.mean == pytest.approx(mean, rel=1e-12)
        for q in (0.0, 1.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0):
            exact = np.percentile(finite, q) if finite.size else 0.0
            assert merged.percentile(q) == pytest.approx(exact, rel=ALPHA)


class TestMicroBatcherScheduleProperties:
    #: Clock ticks are 2**-10 s, so every sum and difference of times below
    #: is exact and the invariants are checked without a float tolerance.
    TICK = 2.0 ** -10
    steps = st.lists(
        st.tuples(st.integers(0, 6),                   # ticks since last step
                  st.sampled_from(["add", "take"]),
                  st.sampled_from(["a", "b"]),         # add: model key
                  st.sampled_from([4, 8]),             # add: n_steps
                  st.sampled_from([None, ("a",), ("b",), ("a", "b")])),
        min_size=1, max_size=80)

    @settings(max_examples=300)
    @given(steps, st.integers(1, 5), st.integers(0, 8))
    def test_random_schedules_keep_the_batching_invariants(
            self, steps, max_batch, wait_ticks):
        """Random arrivals and lane takes: every request is taken once, in
        FIFO order within its group; no batch exceeds max_batch; the policy
        releases each request within max_wait of its submit and no later
        than its take; and a due FIFO is never left waiting."""
        max_wait = wait_ticks * self.TICK
        batcher = MicroBatcher(max_batch, max_wait)
        submitted: list[ServeRequest] = []
        pending: dict[tuple, list[ServeRequest]] = {}
        taken: list[ServeRequest] = []

        def take(now: float, keys) -> bool:
            due = any(
                (keys is None or key in keys) and fifo
                and (len(fifo) >= max_batch
                     or now - fifo[0].t_submit >= max_wait)
                for (key, _), fifo in pending.items())
            batch = batcher.take(now, keys)
            assert batch is not None or not due
            if batch is None:
                return False
            assert keys is None or batch.key in keys
            assert 1 <= len(batch) <= max_batch
            fifo = pending[(batch.key, batch.n_steps)]
            assert batch.requests == fifo[:len(batch)]
            del fifo[:len(batch)]
            for request in batch.requests:
                assert request.t_submit <= request.t_closed <= now
                assert request.t_closed - request.t_submit <= max_wait
            taken.extend(batch.requests)
            return True

        now = 0.0
        for ticks, kind, key, n_steps, keys in steps:
            now += ticks * self.TICK
            if kind == "add":
                request = ServeRequest(key=key, samples=np.zeros(n_steps))
                batcher.add(request, now)
                pending.setdefault((key, n_steps), []).append(request)
                submitted.append(request)
            else:
                take(now, keys)
        batcher.flush(now)
        while take(now, None):
            pass
        assert batcher.pending() == 0
        assert not any(pending.values())
        assert sorted(map(id, taken)) == sorted(map(id, submitted))


class Alpha:
    """Broker test events: the topic of an event is its class name."""


class Beta:
    pass


class Gamma:
    pass


class TestBrokerProperties:
    TOPICS = ("Alpha", "Beta", "Gamma")
    subscriptions = st.lists(
        st.tuples(st.integers(1, 6),                   # maxsize
                  st.one_of(st.none(),                 # topic filter
                            st.sets(st.sampled_from(TOPICS), min_size=1))),
        min_size=1, max_size=4)
    operations = st.lists(
        st.one_of(
            st.tuples(st.just("publish"),
                      st.lists(st.sampled_from((Alpha, Beta, Gamma)),
                               min_size=1, max_size=1)),
            st.tuples(st.just("publish_many"),
                      st.lists(st.sampled_from((Alpha, Beta, Gamma)),
                               max_size=8)),
            st.tuples(st.just("drain"), st.integers(0, 3))),
        max_size=40)

    @given(subscriptions, operations)
    def test_interleaved_publishes_match_a_reference_queue(
            self, subscriptions, operations):
        """Each queue holds the last ``maxsize`` matching events since it
        was last drained, in order; ``n_delivered`` counts every matching
        event, ``n_dropped`` every one pushed out, and ``wakeup`` fires once
        per empty → non-empty edge."""
        from repro.telemetry.broker import TopicBroker

        broker = TopicBroker()
        wakeups = [0] * len(subscriptions)

        def wakeup(index):
            def fire():
                wakeups[index] += 1
            return fire

        subs = [broker.subscribe(topics=topics, maxsize=maxsize,
                                 wakeup=wakeup(index))
                for index, (maxsize, topics) in enumerate(subscriptions)]
        pending = [[] for _ in subs]          # matching events since drain
        delivered = [0] * len(subs)
        dropped = [0] * len(subs)
        edges = [0] * len(subs)
        n_published = 0

        def matches(sub, event):
            return sub.topics is None or type(event).__name__ in sub.topics

        for kind, arg in operations:
            if kind == "drain":
                index = arg % len(subs)
                sub = subs[index]
                assert sub.drain() == pending[index][-sub.maxsize:]
                dropped[index] += max(0, len(pending[index]) - sub.maxsize)
                pending[index] = []
                continue
            events = [cls() for cls in arg]
            receivers = 0
            for index, sub in enumerate(subs):
                matched = [event for event in events if matches(sub, event)]
                if matched and not pending[index]:
                    edges[index] += 1
                receivers += bool(matched)
                pending[index].extend(matched)
                delivered[index] += len(matched)
            if kind == "publish":
                assert broker.publish(events[0]) == receivers
            else:
                assert broker.publish_many(events) == receivers
            n_published += len(events)
        assert broker.n_published == n_published
        for index, sub in enumerate(subs):
            assert len(sub) == min(len(pending[index]), sub.maxsize)
            assert sub.n_delivered == delivered[index]
            assert sub.n_dropped == dropped[index] + max(
                0, len(pending[index]) - sub.maxsize)
            assert wakeups[index] == edges[index]
            assert sub.drain() == pending[index][-sub.maxsize:]
