"""Hypothesis property-based tests for the core numerical building blocks."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.circuit.waveforms import BitPattern, Sine, prbs_bits
from repro.exceptions import FrameError
from repro.gateway import protocol
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
        values = np.array([pattern(t) for t in times])
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


# ----------------------------------------------------------- frame reader
ids = st.integers(1, 2**64 - 1)
wire_dtypes = st.sampled_from((protocol.DTYPE_FLOAT64, protocol.DTYPE_FLOAT32))
rows = st.lists(finite_floats, max_size=120).map(np.array)
json_dicts = st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.integers(-2**53, 2**53), finite_floats, st.text(max_size=8)),
    max_size=4)
plain_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                     max_size=40)
#: One message per draw, as ``(kind, fields)``; the request id is added later.
message_specs = st.one_of(
    st.tuples(st.just("request"), st.tuples(
        st.text(alphabet="abcdef0123456789", min_size=1, max_size=16),
        rows, wire_dtypes)),
    st.tuples(st.just("result"), st.tuples(rows, wire_dtypes)),
    st.tuples(st.just("error"), st.tuples(st.integers(0, 65535),
                                          plain_text)),
    st.tuples(st.just("stats_subscribe"),
              st.tuples(st.floats(allow_nan=False))),
    st.tuples(st.just("events_subscribe"),
              st.tuples(st.lists(plain_text, max_size=3))),
    st.tuples(st.just("stats"), st.tuples(json_dicts)),
    st.tuples(st.just("event"), st.tuples(json_dicts)))


def wire_row(values, dtype):
    """What a row reads back as after the wire: float64, quantised."""
    return values.astype(protocol.WIRE_DTYPES[dtype]).astype(np.float64)


def encode_spec(request_id, kind, fields, max_frame_bytes):
    """(frames, expected message) of one drawn message."""
    if kind == "request":
        key, values, dtype = fields
        return (protocol.encode_request_frames(
            request_id, key, values, dtype=dtype,
            max_frame_bytes=max_frame_bytes),
            protocol.Request(request_id, key, wire_row(values, dtype), dtype))
    if kind == "result":
        values, dtype = fields
        return (protocol.encode_result_frames(
            request_id, values, dtype=dtype, max_frame_bytes=max_frame_bytes),
            protocol.Result(request_id, wire_row(values, dtype), dtype))
    encoder, message = {
        "error": (protocol.encode_error, protocol.ErrorReply),
        "stats_subscribe": (protocol.encode_stats_subscribe,
                            protocol.StatsSubscribe),
        "events_subscribe": (protocol.encode_events_subscribe,
                             lambda rid, topics: protocol.EventsSubscribe(
                                 rid, tuple(topics))),
        "stats": (protocol.encode_stats, protocol.StatsFrame),
        "event": (protocol.encode_event, protocol.EventFrame),
    }[kind]
    return [encoder(request_id, *fields)], message(request_id, *fields)


def interleave(frame_lists, rng):
    """Merge the frame lists, each kept in order, in a drawn interleaving;
    returns the frames and the messages' completion order."""
    queues = [list(frames) for frames in frame_lists]
    merged, done = [], []
    while any(queues):
        index = rng.choice([i for i, queue in enumerate(queues) if queue])
        merged.append(queues[index].pop(0))
        if not queues[index]:
            done.append(index)
    return merged, done


def drain(reader):
    """Every outcome the buffered bytes yield: messages, and the request id
    of each FrameError, in stream order (up to a connection-fatal one)."""
    outcomes = []
    while True:
        try:
            message = reader.next_message()
        except FrameError as err:
            outcomes.append(("error", err.request_id))
            if err.code == protocol.E_FRAME_TOO_LARGE:
                return outcomes
            continue
        if message is None:
            return outcomes
        outcomes.append(message)


def feed_in_pieces(stream, cuts, reader):
    outcomes = []
    bounds = [0, *sorted(cuts), len(stream)]
    for start, stop in zip(bounds, bounds[1:]):
        reader.feed(stream[start:stop])
        outcomes.extend(drain(reader))
    return outcomes


def assert_same_outcomes(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert type(a) is type(b)
        if isinstance(a, tuple):
            assert a == b
            continue
        for name, value in vars(b).items():
            if isinstance(value, np.ndarray):
                other = getattr(a, name)
                assert other.dtype == np.float64
                assert other.tobytes() == value.tobytes()
            else:
                assert getattr(a, name) == value


class TestFrameReaderProperties:
    """The one frame parser of every gateway endpoint, fuzzed: how the
    socket splits the stream never changes what comes out of it."""

    streams = st.tuples(st.lists(message_specs, max_size=10),
                        st.integers(64, 512),         # forces chunk series
                        st.randoms(use_true_random=False))

    def build(self, specs, max_frame_bytes, rng, request_ids):
        encoded = [encode_spec(request_id, kind, fields, max_frame_bytes)
                   for request_id, (kind, fields) in zip(request_ids, specs)]
        frames, done = interleave([frames for frames, _ in encoded], rng)
        return frames, [encoded[index][1] for index in done]

    @settings(max_examples=150, deadline=None)
    @given(streams, st.data())
    def test_any_split_yields_the_messages_of_one_feed(self, stream, data):
        specs, max_frame_bytes, rng = stream
        request_ids = data.draw(st.lists(ids, min_size=len(specs),
                                         max_size=len(specs), unique=True))
        frames, expected = self.build(specs, max_frame_bytes, rng,
                                      request_ids)
        wire = b"".join(frames)
        whole = protocol.FrameReader()
        whole.feed(wire)
        one_feed = drain(whole)
        assert_same_outcomes(one_feed, expected)
        assert whole.n_frames == len(frames) and whole.n_streams == 0
        cuts = data.draw(st.lists(st.integers(0, len(wire)), max_size=24))
        split = protocol.FrameReader()
        assert_same_outcomes(feed_in_pieces(wire, cuts, split), one_feed)
        assert split.n_frames == len(frames) and split.buffered == 0

    @settings(max_examples=150, deadline=None)
    @given(streams, st.data())
    def test_corrupt_frame_fails_in_place_and_the_rest_comes_out(
            self, stream, data):
        specs, max_frame_bytes, rng = stream
        request_ids = data.draw(st.lists(ids, min_size=len(specs) + 1,
                                         max_size=len(specs) + 1, unique=True))
        frames, expected = self.build(specs, max_frame_bytes, rng,
                                      request_ids[1:])
        bad_id = request_ids[0]
        frame = bytearray(protocol.encode_request(bad_id, "k", np.ones(4)))
        corruption = data.draw(st.sampled_from(("type", "dtype", "truncate")))
        if corruption == "type":
            frame[4 + 3] = data.draw(st.integers(10, 255))
        elif corruption == "dtype":
            frame[4 + 12] = data.draw(st.integers(3, 255))
        else:
            frame = frame[:-data.draw(st.integers(1, 7))]
            frame[:4] = protocol.LENGTH_PREFIX.pack(len(frame) - 4)
        at = data.draw(st.integers(0, len(frames)))
        # Messages complete at their last frame: those finished before the
        # corrupt frame's position come out before its error.
        n_before = sum(1 for message in expected
                       if self.last_frame(frames, message) < at)
        expected = [*expected[:n_before], ("error", bad_id),
                    *expected[n_before:]]
        wire = b"".join([*frames[:at], bytes(frame), *frames[at:]])
        cuts = data.draw(st.lists(st.integers(0, len(wire)), max_size=24))
        reader = protocol.FrameReader()
        assert_same_outcomes(feed_in_pieces(wire, cuts, reader), expected)
        assert reader.n_frames == len(frames) + 1

    @staticmethod
    def last_frame(frames, message):
        """Index of the frame that completes ``message``."""
        return max(index for index, frame in enumerate(frames)
                   if struct.unpack_from("!Q", frame, 8)[0]
                   == message.request_id)

    headers = st.tuples(st.integers(0, 11), ids).map(
        lambda head: struct.pack("!HBBQ", protocol.MAGIC,
                                 protocol.PROTOCOL_VERSION, *head))
    #: Arbitrary bytes, and frames with a sound length prefix around
    #: arbitrary (or arbitrarily headed) payloads to reach the decoders.
    garbage = st.lists(st.one_of(
        st.binary(max_size=40),
        st.binary(max_size=120).map(
            lambda body: protocol.LENGTH_PREFIX.pack(len(body)) + body),
        st.tuples(headers, st.binary(max_size=120)).map(
            lambda parts: protocol.LENGTH_PREFIX.pack(
                len(parts[0]) + len(parts[1])) + parts[0] + parts[1])),
        max_size=12).map(b"".join)

    @settings(max_examples=400, deadline=None)
    @given(garbage, st.integers(0, 160), st.one_of(st.none(),
                                                   st.integers(1, 64)),
           st.data())
    def test_arbitrary_bytes_only_raise_frame_errors(
            self, wire, max_frame_bytes, max_samples, data):
        reader = protocol.FrameReader(max_frame_bytes, max_samples=max_samples)
        cuts = data.draw(st.lists(st.integers(0, len(wire)), max_size=8))
        bounds = [0, *sorted(cuts), len(wire)]
        for start, stop in zip(bounds, bounds[1:]):
            reader.feed(wire[start:stop])
            while True:
                try:
                    message = reader.next_message()
                except FrameError as err:
                    if err.code != protocol.E_FRAME_TOO_LARGE:
                        continue
                    # Connection-fatal: the stream cannot be re-synchronised,
                    # so the reader keeps refusing it.
                    with pytest.raises(FrameError, match="max_frame_bytes"):
                        reader.next_message()
                    return
                if message is None:
                    assert reader.buffered < 4 + max_frame_bytes
                    break
                assert not isinstance(message, (protocol.RequestChunk,
                                                protocol.ResultChunk))
