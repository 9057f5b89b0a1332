import copy
import math
import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradzip import pipeline, predictor
from gradzip.codec import (
    DEFAULT_BIN_CAP,
    ErrorBoundConfig,
    encode_planes,
    lossless_compress,
    max_planes_bytes,
)
from gradzip.errors import DataError, FormatError, IntegrityError, ProtocolError, UsageError
from gradzip.pipeline import (
    CompressedPayload,
    PipelineParams,
    SyncState,
    compress_round,
    decode_payload,
    decompress_round,
    encode_round,
    describe_payload,
    frame_payload,
    iter_payloads,
    parse_payload,
    spec_digest,
)
from gradzip.predictor import (
    VARIANT_FLIP,
    VARIANT_KERNEL,
    PredictParams,
    SignBitmap,
    SignTensor,
    decode_bitmap,
    encode_bitmap,
)
from gradzip.trace import ByteReader, GradientTensor, LayerSpec, SynthConfig, synth_trace


def make_params(mode="absolute", value=1e-2, full_batch=False, prediction=True,
                lossy_threshold=64, backend="default"):
    return PipelineParams(
        predict=PredictParams(full_batch=full_batch),
        bound=ErrorBoundConfig(mode, value),
        lossy_threshold=lossy_threshold,
        backend=backend,
        prediction_enabled=prediction,
    )


def structured_trace(seed=1, rounds=6, mode="mini_batch"):
    layers = (
        LayerSpec("conv1", (8, 4, 3, 3)),
        LayerSpec("fc", (32, 16)),
        LayerSpec("bias", (10,)),
    )
    return synth_trace(SynthConfig(
        seed=seed, layers=layers, rounds=rounds, magnitude_decay=0.95,
        noise_level=0.3, target_sign_consistency=0.8, mode=mode,
        oscillation_period=2 if mode == "full_batch" else 1,
    ))


def run_lockstep(trace, params):
    """Run client and server side by side; return per-round artifacts.

    Each round writes over the states and reconstructions of the last, so
    every round's are kept as copies.
    """
    client = SyncState.initial(trace.layers)
    server = SyncState.initial(trace.layers)
    results = []
    for tensors in trace.rounds:
        payload, client = compress_round(tensors, client, params)
        wire = frame_payload(payload)
        recons, server = decompress_round(parse_payload(wire), server, params)
        recons = [GradientTensor(r.spec, r.values.copy()) for r in recons]
        results.append((tensors, payload, recons, copy.deepcopy(client), copy.deepcopy(server)))
    return results


class TestLosslessPath:
    def test_small_layer_exact(self):
        spec = LayerSpec("bias", (10,))
        g = GradientTensor(spec, np.linspace(-1, 1, 10, dtype=np.float32))
        state = SyncState.initial([spec])
        params = make_params(lossy_threshold=1024)
        payload, new_state = compress_round([g], state, params)
        recons, _ = decompress_round(payload, SyncState.initial([spec]), params)
        np.testing.assert_array_equal(recons[0].values, g.values)
        np.testing.assert_array_equal(new_state.prev_recon[0], g.values)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_put_in_after_construction_is_refused(self, bad):
        # A GradientTensor is checked when it is made; a value written to it
        # after that is refused by the encoder, with the class the reader
        # raises for it, before the blob or the layer's state is written.
        spec = LayerSpec("b", (10,))
        g = GradientTensor(spec, np.ones(10, dtype=np.float32))
        g.values[3] = bad
        state = SyncState.initial([spec])
        with pytest.raises(DataError, match=r"^layer 'b': non-finite gradient values at round 1$"):
            compress_round([g], state, make_params(lossy_threshold=1024))
        assert state.round == 0 and not state.prev_recon[0].any()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    def test_non_finite_value_in_a_lossy_layer_is_refused(self, mode, bad):
        # The same for a lossy layer: the encoder refuses it as data, naming
        # the layer and the round, with no warning and before the layer's
        # state is written.
        spec = LayerSpec("fc", (64, 48))
        g = GradientTensor(spec, np.linspace(-1, 1, spec.numel, dtype=np.float32))
        g.values[100] = bad
        state = SyncState.initial([spec])
        with pytest.raises(DataError, match=r"^layer 'fc': non-finite gradient values at round 1$"):
            encode_round([g], state, make_params(mode=mode, lossy_threshold=1024))
        assert state.round == 0
        assert not state.prev_recon[0].any() and not state.memory[0].any()

    def test_small_layer_leaves_memory_untouched(self):
        spec = LayerSpec("bias", (10,))
        state = SyncState.initial([spec])
        params = make_params(lossy_threshold=1024)
        g = GradientTensor(spec, np.ones(10, dtype=np.float32))
        _, new_state = compress_round([g], state, params)
        assert new_state.memory[0] is state.memory[0]

    @settings(max_examples=60, deadline=None)
    @example(bits=np.array([0x80000000], dtype=np.uint32), keep=0xFFFFFFFF, backend="default")
    @example(bits=np.array([1, 0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF], dtype=np.uint32),
             keep=0xFFFFFFFF, backend="store")
    @example(bits=np.zeros(4096, dtype=np.uint32), keep=0xFFFFFFFF, backend="default")
    @example(bits=np.full(832, 0x3E7BE76D, dtype=np.uint32), keep=0xFFFF0000, backend="default")
    @given(
        bits=st.integers(1, 4096).flatmap(lambda n: hnp.arrays(np.uint32, n)),
        keep=st.sampled_from([0xFFFFFFFF, 0xFFFFFF00, 0xFFFF00FF, 0xFF00FFFF,
                              0xFFFF0000, 0xFF0000FF, 0xFF000000]),
        backend=st.sampled_from(["default", "store"]),
    )
    def test_every_finite_float32_array_round_trips_bitwise(self, bits, keep, backend):
        # Any finite float32 array, low byte planes zeroed by ``keep`` or
        # not, comes back bit for bit: -0.0, subnormals and +-float32 max
        # included. A non-finite pattern loses its lowest exponent bit, which
        # makes it finite. The blob is stored whatever the backend.
        bits = bits & np.uint32(keep)
        bits[(bits & 0x7F800000) == 0x7F800000] &= np.uint32(~0x00800000 & 0xFFFFFFFF)
        values = bits.view(np.float32)
        spec = LayerSpec("v", (values.size,))
        params = make_params(lossy_threshold=4096, backend=backend)
        payload, infos, _ = encode_round([GradientTensor(spec, values)], SyncState.initial([spec]), params)
        assert payload.section[:1] == b"S" and payload.blobs == []
        assert infos[0].inner_bytes <= max_planes_bytes([values.size])
        recons, _, _ = decode_payload(
            parse_payload(frame_payload(payload)), SyncState.initial([spec]), params.predict
        )
        assert recons[0].values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("n", [1, 4096, 70_000])
    def test_largest_lossless_blob_fits_the_cap(self, n):
        # An incompressible high plane in stored DEFLATE blocks is the
        # largest valid section of one layer: it fits the cap, and the
        # encoder's own section is no larger.
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 1 << 32, n, dtype=np.uint32) | 0x00010101
        bits[(bits & 0x7F800000) == 0x7F800000] &= np.uint32(0xFF7FFFFF)
        values = bits.view(np.float32)
        raw = values.view(np.uint8).reshape(-1, 4)
        stored = zlib.compressobj(0, zlib.DEFLATED, -15)
        high = stored.compress(raw[:, 3].tobytes()) + stored.flush()
        inner = b"\x00" + high + b"".join(raw[:, k].tobytes() for k in (2, 1, 0))
        assert len(inner) <= max_planes_bytes([n])
        assert len(encode_planes(values, [n])) <= max_planes_bytes([n])
        spec = LayerSpec("v", (n,))
        state = SyncState.initial([spec])
        payload = CompressedPayload(
            0, 1, spec_digest([spec]), np.array([True]), lossless_compress(inner, "store"), []
        )
        recons, infos, _ = decode_payload(payload, state, PredictParams())
        assert recons[0].values.tobytes() == values.tobytes()
        assert infos[0].inner_bytes == len(inner)


SECTION_KINDS = ["bits", "zeros", "constant", "negative zero", "subnormal"]
# Masks that force low byte planes of a layer to zero.
PLANE_MASKS = [0xFFFFFFFF, 0xFFFFFF00, 0xFFFF00FF, 0xFF00FFFF, 0xFFFF0000, 0xFF000000]


def section_values(seed, kind, n, keep):
    """n finite float32 values of a lossless layer, of the given kind, with
    the low byte planes that ``keep`` clears forced to zero."""
    rng = np.random.default_rng(seed)
    if kind == "bits":
        bits = rng.integers(0, 1 << 32, n, dtype=np.uint32)
    elif kind == "zeros":
        bits = np.zeros(n, dtype=np.uint32)
    elif kind == "constant":
        bits = np.full(n, rng.integers(0, 1 << 32, dtype=np.uint32), dtype=np.uint32)
    elif kind == "negative zero":
        bits = np.full(n, 0x80000000, dtype=np.uint32)
    else:
        bits = rng.integers(0, 0x00800000, n, dtype=np.uint32) | (
            rng.integers(0, 2, n, dtype=np.uint32) << 31
        )
    bits &= np.uint32(keep)
    # A non-finite pattern loses its lowest exponent bit, which makes it finite.
    bits[(bits & 0x7F800000) == 0x7F800000] &= np.uint32(0xFF7FFFFF)
    return bits.view(np.float32)


@st.composite
def mixed_rounds(draw):
    """A layer table of 1-6 lossless layers (1-1,024 elements) and 0-2 lossy
    ones, in random order, and one round of values for it."""
    lossless = draw(st.lists(
        st.tuples(st.integers(1, 1024), st.sampled_from(SECTION_KINDS),
                  st.sampled_from(PLANE_MASKS), st.integers(0, 1 << 32)),
        min_size=1, max_size=6,
    ))
    lossy = draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(lossless) + lossy)))
    tensors = []
    for j in order:
        if j < len(lossless):
            n, kind, keep, seed = lossless[j]
            values = section_values(seed, kind, n, keep)
        else:
            values = np.linspace(-1, 1, 1200, dtype=np.float32) * (j + 1)
        tensors.append(GradientTensor(LayerSpec(f"l{len(tensors)}", (values.size,)), values))
    return tensors


class TestLosslessSection:
    @settings(max_examples=60, deadline=None)
    @given(tensors=mixed_rounds())
    def test_every_section_round_trips_bitwise(self, tensors):
        # Every set of lossless layers, beside 0-2 lossy ones, comes back bit
        # for bit through the wire, and both readers describe each layer as
        # the encoder did: its share of the section, the rows summing to it.
        layers = [g.spec for g in tensors]
        params = make_params(lossy_threshold=1024)
        payload, infos, client = encode_round(tensors, SyncState.initial(layers), params)
        parsed = parse_payload(frame_payload(payload))
        recons, read, server = decode_payload(parsed, SyncState.initial(layers), params.predict)
        assert server.to_bytes() == client.to_bytes()
        assert infos == read == describe_payload(parsed, layers)
        section = [info for info in infos if info.tag == pipeline.TAG_LOSSLESS]
        assert payload.lossless.tolist() == [g.spec.numel <= 1024 for g in tensors]
        assert sum(info.wire_bytes for info in section) == len(payload.section)
        assert sum(info.inner_bytes for info in section) == len(payload.section) - 5
        for g, r, info in zip(tensors, recons, infos):
            if info.tag == pipeline.TAG_LOSSLESS:
                assert r.values.tobytes() == g.values.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(tensors=mixed_rounds(), at=st.floats(0, 1, exclude_max=True),
           fault=st.sampled_from(["flag bit", "zero plane", "non-finite"]))
    def test_a_fault_in_one_layers_bytes_names_that_layer(self, tensors, at, fault):
        # A crafted section whose fault lies in one layer's own bytes, stored
        # with a valid CRC32: both readers raise the same error, naming that
        # layer.
        layers = [g.spec for g in tensors]
        params = make_params(lossy_threshold=1024)
        payload, _, _ = encode_round(tensors, SyncState.initial(layers), params)
        section = np.flatnonzero(payload.lossless).tolist()
        sizes = [layers[i].numel for i in section]
        j = int(at * len(section))
        values = np.concatenate([tensors[i].values for i in section])
        start = sum(sizes[:j])
        if fault == "non-finite":
            values[start] = np.nan
        else:
            # Layer j's first value gets a low byte of 1, so its plane 0 is
            # stored; then its flag byte claims plane 0 omitted as well (and
            # "zero plane" stores it all zero instead).
            values.view(np.uint32)[start] |= 1
        inner = bytearray(encode_planes(values, sizes))
        assert fault == "non-finite" or inner[j] & 1 == 0
        if fault == "flag bit":
            inner[j] |= 0x10
            cls, message = FormatError, "unknown zero-plane flags"
        elif fault == "zero plane":
            plane0 = len(inner) - sum(sizes[k] for k in range(len(sizes)) if not inner[k] & 1)
            at0 = plane0 + sum(sizes[k] for k in range(j) if not inner[k] & 1)
            inner[at0:at0 + sizes[j]] = bytes(sizes[j])
            cls, message = IntegrityError, "stored byte plane 0 is all zero"
        else:
            cls, message = DataError, "lossless section holds non-finite values"
        tampered = replace(payload, section=lossless_compress(bytes(inner), "store"))
        errors = []
        for read in (
            lambda: describe_payload(tampered, layers),
            lambda: decode_payload(tampered, SyncState.initial(layers), params.predict),
        ):
            with pytest.raises(cls) as exc:
                read()
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"layer {layers[section[j]].name!r}: {message}")

    def test_a_payload_whose_parts_disagree_is_refused(self):
        layers = [LayerSpec("b", (10,)), LayerSpec("fc", (40, 40))]
        params = make_params(lossy_threshold=1024)
        tensors = [GradientTensor(s, np.ones(s.numel, dtype=np.float32)) for s in layers]
        payload, _, _ = encode_round(tensors, SyncState.initial(layers), params)
        for bad, message in (
            (replace(payload, section=b""),
             "has 1 blobs and no lossless section for 1 lossy and 1 lossless layers"),
            (replace(payload, lossless=np.array([False, False]), blobs=payload.blobs * 2),
             "has 2 blobs and a lossless section for 2 lossy and 0 lossless layers"),
            (replace(payload, blobs=payload.blobs * 2),
             "has 2 blobs and a lossless section for 1 lossy and 1 lossless layers"),
            (replace(payload, lossless=np.array([True])), "declares 1 layers for 2"),
        ):
            with pytest.raises(IntegrityError, match=message):
                describe_payload(bad, layers)
        with pytest.raises(UsageError, match="1 blobs and no lossless section for 2 layers"):
            frame_payload(replace(payload, section=b""))


class TestErrorBound:
    def test_absolute_bound_all_rounds(self):
        trace = structured_trace(seed=3)
        params = make_params(value=5e-3)
        for tensors, _, recons, _, _ in run_lockstep(trace, params):
            for g, r in zip(tensors, recons):
                err = float(np.abs(r.values.astype(np.float64) - g.values.astype(np.float64)).max())
                assert err <= 5e-3

    def test_relative_bound_all_rounds(self):
        trace = structured_trace(seed=4)
        eps = 1e-2
        params = make_params(mode="relative", value=eps)
        for tensors, _, recons, _, _ in run_lockstep(trace, params):
            for g, r in zip(tensors, recons):
                if g.spec.numel <= params.lossy_threshold:
                    continue
                span = float(g.values.max()) - float(g.values.min())
                delta = eps * max(span, 1e-12)
                err = float(np.abs(r.values.astype(np.float64) - g.values.astype(np.float64)).max())
                assert err <= delta

    def test_bound_with_prediction_off(self):
        trace = structured_trace(seed=5)
        params = make_params(value=1e-3, prediction=False)
        for tensors, _, recons, _, _ in run_lockstep(trace, params):
            for g, r in zip(tensors, recons):
                err = float(np.abs(r.values.astype(np.float64) - g.values.astype(np.float64)).max())
                assert err <= 1e-3


class TestSynchronization:
    @pytest.mark.parametrize("mode,full_batch", [("mini_batch", False), ("full_batch", True)])
    def test_states_bitwise_equal_every_round(self, mode, full_batch):
        trace = structured_trace(seed=7, rounds=8, mode=mode)
        params = make_params(full_batch=full_batch, value=1e-2)
        for _, _, recons, client, server in run_lockstep(trace, params):
            assert client.to_bytes() == server.to_bytes()
            for r, stored in zip(recons, client.prev_recon):
                np.testing.assert_array_equal(r.values, stored)

    def test_server_recon_equals_client_recon(self):
        trace = structured_trace(seed=8)
        params = make_params(value=2e-2)
        for _, _, recons, client, _ in run_lockstep(trace, params):
            for r, stored in zip(recons, client.prev_recon):
                assert r.values.tobytes() == stored.tobytes()

    def test_round_one_prediction_agnostic(self):
        # With no sign prediction at round 1, ghat is zero either way, so the
        # reconstructed values must be identical with prediction on and off.
        trace = structured_trace(seed=9, rounds=1)
        on = make_params(value=1e-2, prediction=True)
        off = make_params(value=1e-2, prediction=False)
        r_on = run_lockstep(trace, on)[0][2]
        r_off = run_lockstep(trace, off)[0][2]
        for a, b in zip(r_on, r_off):
            np.testing.assert_array_equal(a.values, b.values)

    def test_negative_zero_prediction_keeps_states_equal(self):
        # A predicted sign of -1 times a magnitude clamped to 0 gives
        # ghat = -0.0, and each residual here rounds to bin -0.0: both sides
        # must still reconstruct the same zero, sign included.
        spec = LayerSpec("fc", (64, 32))
        params = make_params(full_batch=True, value=0.5)

        def state_at_round_one():
            return SyncState(
                [spec],
                [np.full(spec.numel, -1e6)],
                [np.full(spec.numel, -1.0, dtype=np.float32)],
                round=1,
            )

        g = GradientTensor(spec, -np.linspace(0.1, 0.3, spec.numel, dtype=np.float32))
        payload, client = compress_round([g], state_at_round_one(), params)
        _, server = decompress_round(
            parse_payload(frame_payload(payload)), state_at_round_one(), params
        )
        assert client.prev_recon[0].tobytes() == server.prev_recon[0].tobytes()
        assert client.to_bytes() == server.to_bytes()

    @pytest.mark.parametrize("mode,full_batch", [("mini_batch", False), ("full_batch", True)])
    def test_client_prediction_reads_only_the_bitmap(self, monkeypatch, mode, full_batch):
        # Both sides derive ghat from the blob's bitmap through one step, so
        # wrong signs from predict_signs (next to the true bitmap) change
        # neither the payloads nor the states.
        trace = structured_trace(seed=23, rounds=4, mode=mode)
        params = make_params(full_batch=full_batch)
        want = run_lockstep(trace, params)
        real = pipeline.predict_signs

        def wrong_signs(*args):
            signs, bitmap = real(*args)
            return SignTensor(np.ones_like(signs.values)), bitmap

        monkeypatch.setattr(pipeline, "predict_signs", wrong_signs)
        for (_, p_want, _, c_want, _), (_, p_got, _, c_got, s_got) in zip(
            want, run_lockstep(trace, params)
        ):
            assert frame_payload(p_got) == frame_payload(p_want)
            assert c_got.to_bytes() == c_want.to_bytes() == s_got.to_bytes()

    def test_previous_signs_built_only_for_flip_bitmaps(self, monkeypatch):
        # reconstruct_signs, on both sides, takes np.sign of the previous
        # reconstruction only for a flip bitmap.
        calls, variant = [], []
        real_sign, real_reconstruct = np.sign, predictor.reconstruct_signs

        def reconstruct(bitmap, prev_recon, spec):
            variant.append(bitmap.variant)
            try:
                return real_reconstruct(bitmap, prev_recon, spec)
            finally:
                variant.pop()

        def sign(*args, **kwargs):
            calls.append(variant[-1] if variant else None)
            return real_sign(*args, **kwargs)

        monkeypatch.setattr(predictor, "reconstruct_signs", reconstruct)
        monkeypatch.setattr(pipeline, "reconstruct_signs", reconstruct)
        monkeypatch.setattr(np, "sign", sign)
        run_lockstep(structured_trace(seed=24, rounds=3), make_params())
        assert calls == []
        run_lockstep(
            structured_trace(seed=24, rounds=3, mode="full_batch"), make_params(full_batch=True)
        )
        assert set(calls) == {VARIANT_FLIP}

    def test_decode_payload_describes_the_blobs_it_parsed(self):
        trace = structured_trace(seed=10, rounds=3)
        params = make_params()
        server = SyncState.initial(trace.layers)
        for tensors, payload, recons, _, _ in run_lockstep(trace, params):
            got, infos, server = decode_payload(payload, server, params.predict)
            assert infos == describe_payload(payload, trace.layers)
            for a, b in zip(got, recons):
                assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("mode,full_batch", [("mini_batch", False), ("full_batch", True)])
    def test_decoding_into_the_state_two_rounds_back(self, mode, full_batch):
        # Decoding writes each round over the state it is given: the
        # returned state is that object, and the advanced state and the
        # reconstructions are its own arrays, also for a memory carried over
        # a round without prediction. Its bytes are the client's.
        trace = structured_trace(seed=12, rounds=8, mode=mode)
        schedule = [True, False, True, True, False, False, True, True]
        client = SyncState.initial(trace.layers)
        server = SyncState.initial(trace.layers)
        for tensors, prediction in zip(trace.rounds, schedule):
            params = make_params(full_batch=full_batch, prediction=prediction)
            payload, client = compress_round(tensors, client, params)
            given = server
            memories, recons = list(server.memory), list(server.prev_recon)
            got, _, server = decode_payload(payload, server, params.predict)
            assert server is given
            assert server.to_bytes() == client.to_bytes()
            for i, a in enumerate(got):
                assert a.values is server.prev_recon[i] is recons[i]
                assert server.memory[i] is memories[i]


class TestInPlaceRounds:
    @settings(max_examples=25, deadline=None)
    # Kernel maps with literals; a flip bit with prediction off in between;
    # every layer lossless but the largest.
    @example(seed=3, full_batch=False, schedule=[True, True, True], threshold=8, spikes=[5, 200])
    @example(seed=4, full_batch=True, schedule=[True, False, True, True], threshold=64, spikes=[])
    @example(seed=5, full_batch=True, schedule=[False, True, True], threshold=300, spikes=[7])
    @given(
        seed=st.integers(0, 1 << 16),
        full_batch=st.booleans(),
        schedule=st.lists(st.booleans(), min_size=1, max_size=4),
        threshold=st.sampled_from([8, 64, 300]),
        spikes=st.lists(st.integers(0, 287), max_size=3),
    )
    def test_rounds_advance_the_given_state_in_sync_within_bounds(
        self, seed, full_batch, schedule, threshold, spikes
    ):
        # Client and server rounds write their states into the arrays of the
        # state they are given, the two stay bitwise equal, and every element
        # is within its wire delta. Spikes in the conv layer are too far from
        # any prediction for the bins, so they become literals.
        def arrays(state):
            return state.memory + state.prev_recon

        mode = "full_batch" if full_batch else "mini_batch"
        trace = structured_trace(seed=seed, rounds=len(schedule), mode=mode)
        client, server = SyncState.initial(trace.layers), SyncState.initial(trace.layers)
        for t, (tensors, prediction) in enumerate(zip(trace.rounds, schedule)):
            conv = tensors[0].values.copy()
            conv[spikes] = 1e4 * (-1) ** t
            tensors = [GradientTensor(tensors[0].spec, conv)] + tensors[1:]
            params = make_params(
                full_batch=full_batch, prediction=prediction, lossy_threshold=threshold
            )
            before = arrays(client)
            payload, infos, client = encode_round(tensors, client, params)
            assert all(a is b for a, b in zip(arrays(client), before))

            before = arrays(server)
            recons, _, server = decode_payload(
                parse_payload(frame_payload(payload)), server, params.predict
            )
            assert all(a is b for a, b in zip(arrays(server), before))
            assert all(r.values is a for r, a in zip(recons, server.prev_recon))
            assert server.to_bytes() == client.to_bytes()
            for g, r, info in zip(tensors, recons, infos):
                err = np.abs(r.values.astype(np.float64) - g.values.astype(np.float64))
                assert float(err.max()) <= (info.delta if info.tag == pipeline.TAG_LOSSY else 0.0)


FLT_MAX = float(np.finfo(np.float32).max)
FLT_TRUE_MIN = float(np.finfo(np.float32).smallest_subnormal)


def full_range_values(rng, kind, n):
    """n finite float32 values: near the float32 limit, spread over every
    exponent, or subnormal."""
    if kind == "huge":
        v = 3e38 * rng.standard_normal(n)
    elif kind == "mixed":
        v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-46, math.log10(FLT_MAX), n)
    else:
        v = 1e-40 * rng.standard_normal(n)
    return np.clip(v, -FLT_MAX, FLT_MAX).astype(np.float32)


class TestFullRangeFloat32:
    LAYERS = (LayerSpec("conv", (4, 4, 3, 3)), LayerSpec("fc", (40, 40)), LayerSpec("bias", (10,)))

    @settings(max_examples=40, deadline=None)
    # |g| near the float32 limit: from round 2 the prediction is too, and so
    # are the bin centres the quantizer casts to float32.
    @example(seed=0, kinds=["huge"] * 3, extremes=[], full_batch=False,
             prediction=True, bound=("relative", 1e-2))
    @example(seed=0, kinds=["huge"] * 3, extremes=[], full_batch=True,
             prediction=True, bound=("relative", 1e-2))
    @given(
        seed=st.integers(0, 1 << 16),
        kinds=st.lists(st.sampled_from(["huge", "mixed", "subnormal"]), min_size=2, max_size=4),
        extremes=st.lists(
            st.tuples(st.integers(0, 1599), st.sampled_from(
                [FLT_MAX, -FLT_MAX, FLT_TRUE_MIN, -FLT_TRUE_MIN, 0.0]
            )),
            max_size=4,
        ),
        full_batch=st.booleans(),
        prediction=st.booleans(),
        bound=st.sampled_from(
            [("relative", 1e-2), ("relative", 1e-6), ("absolute", 1.0), ("absolute", 1e36)]
        ),
    )
    def test_every_finite_float32_round_trips_within_bounds(
        self, seed, kinds, extremes, full_batch, prediction, bound
    ):
        # Every finite float32 goes through a round with no warning, within
        # its bound, and leaves client and server in the same state.
        rng = np.random.default_rng(seed)
        params = make_params(
            mode=bound[0], value=bound[1], full_batch=full_batch, prediction=prediction
        )
        client = SyncState.initial(list(self.LAYERS))
        server = SyncState.initial(list(self.LAYERS))
        for kind in kinds:
            tensors = []
            for spec in self.LAYERS:
                values = full_range_values(rng, kind, spec.numel)
                for k, v in extremes:
                    values[k % spec.numel] = v
                tensors.append(GradientTensor(spec, values))
            payload, infos, client = encode_round(tensors, client, params)
            recons, _, server = decode_payload(
                parse_payload(frame_payload(payload)), server, params.predict
            )
            assert server.to_bytes() == client.to_bytes()
            for g, r, info in zip(tensors, recons, infos):
                err = np.abs(r.values.astype(np.float64) - g.values.astype(np.float64))
                assert float(err.max()) <= (info.delta if info.tag == pipeline.TAG_LOSSY else 0.0)


class TestPredictionOffEquivalence:
    def test_matches_plain_quantizer_oracle(self):
        trace = structured_trace(seed=10, rounds=3)
        delta = 1e-2
        params = make_params(value=delta, prediction=False)
        for tensors, _, recons, _, _ in run_lockstep(trace, params):
            for g, r in zip(tensors, recons):
                if g.spec.numel <= params.lossy_threshold:
                    continue
                g64 = g.values.astype(np.float64)
                binsf = np.rint(g64 / (2 * delta))
                ok = np.abs(binsf) <= DEFAULT_BIN_CAP
                recon = (binsf * (2 * delta)).astype(np.float32)
                ok &= np.abs(recon.astype(np.float64) - g64) <= delta
                want = np.where(ok, recon, g.values)
                np.testing.assert_array_equal(r.values, want)


class TestDeterminism:
    def test_byte_identical_payload_stream(self):
        trace = structured_trace(seed=11, rounds=4)
        params = make_params(value=1e-2)

        def stream():
            state = SyncState.initial(trace.layers)
            chunks = []
            for tensors in trace.rounds:
                payload, state = compress_round(tensors, state, params)
                chunks.append(frame_payload(payload))
            return b"".join(chunks)

        assert stream() == stream()


class TestFraming:
    def make_payload(self):
        trace = structured_trace(seed=12, rounds=1)
        state = SyncState.initial(trace.layers)
        payload, _ = compress_round(trace.rounds[0], state, make_params())
        return payload

    def test_roundtrip(self):
        payload = self.make_payload()
        back = parse_payload(frame_payload(payload))
        assert back.round == payload.round
        assert back.client_id == payload.client_id
        assert back.spec_digest == payload.spec_digest
        assert back.blobs == payload.blobs

    def test_bad_magic(self):
        raw = bytearray(frame_payload(self.make_payload()))
        raw[0] ^= 0xFF
        with pytest.raises(FormatError):
            parse_payload(bytes(raw))

    def test_unsupported_version(self):
        raw = bytearray(frame_payload(self.make_payload()))
        for version in (3, 5):  # the version u16 after the magic
            struct.pack_into("<H", raw, 4, version)
            with pytest.raises(FormatError, match=f"unsupported payload version {version}"):
                parse_payload(bytes(raw))

    def test_trailing_bytes(self):
        raw = frame_payload(self.make_payload()) + b"x"
        with pytest.raises(FormatError):
            parse_payload(raw)

    def test_truncation(self):
        raw = frame_payload(self.make_payload())
        with pytest.raises(FormatError):
            parse_payload(raw[: len(raw) - 5])

    @pytest.mark.parametrize("client_id, round_idx", [(-1, 1), (2**32, 1), (0, -1), (0, 2**32)])
    def test_client_id_or_round_outside_u32_is_refused(self, client_id, round_idx):
        trace = structured_trace(seed=12, rounds=1)
        state = SyncState.initial(trace.layers)
        payload, _, _ = encode_round(trace.rounds[0], state, make_params(), client_id)
        payload.round = round_idx
        with pytest.raises(UsageError, match=f"client {client_id} or round {round_idx} outside"):
            frame_payload(payload)

    def test_stream_iteration(self):
        trace = structured_trace(seed=13, rounds=3)
        state = SyncState.initial(trace.layers)
        params = make_params()
        chunks = []
        for tensors in trace.rounds:
            payload, state = compress_round(tensors, state, params)
            chunks.append(frame_payload(payload))
        rounds = [p.round for p in iter_payloads(b"".join(chunks))]
        assert rounds == [1, 2, 3]

    def test_most_compressible_layer_clears_the_blob_length_bound(self):
        # An all-zero layer, lossy and deflated, is the shortest blob the
        # encoder writes for its size: 1,073 bytes for 4096 x 1024 (zlib
        # 1.2.13) against a bound of 1,016. Both rounds, the second with
        # prediction, decode.
        spec = LayerSpec("zeros", (4096, 1024))
        zeros = GradientTensor(spec, np.zeros(spec.numel, dtype=np.float32))
        params = make_params()
        client, server = SyncState.initial([spec]), SyncState.initial([spec])
        for _ in range(2):
            payload, client = compress_round([zeros], client, params)
            pipeline._check_size(0, payload.blobs[0], [spec])  # raises below the bound
            recons, _, server = decode_payload(payload, server, params.predict)
            assert not recons[0].values.any()


class TestProtocolErrors:
    def test_digest_mismatch(self):
        trace = structured_trace(seed=14, rounds=1)
        params = make_params()
        payload, _ = compress_round(trace.rounds[0], SyncState.initial(trace.layers), params)
        other_layers = [LayerSpec("different", (9000,))]
        with pytest.raises(ProtocolError):
            decompress_round(payload, SyncState.initial(other_layers), params)

    def test_round_order_enforced(self):
        trace = structured_trace(seed=15, rounds=2)
        params = make_params()
        client = SyncState.initial(trace.layers)
        p1, client = compress_round(trace.rounds[0], client, params)
        p2, client = compress_round(trace.rounds[1], client, params)
        server = SyncState.initial(trace.layers)
        with pytest.raises(ProtocolError):
            decompress_round(p2, server, params)
        _, server = decompress_round(p1, server, params)
        with pytest.raises(ProtocolError):
            decompress_round(p1, server, params)

    def test_tampered_blob_detected(self):
        trace = structured_trace(seed=16, rounds=1)
        params = make_params()
        payload, _ = compress_round(trace.rounds[0], SyncState.initial(trace.layers), params)
        blob = bytearray(payload.blobs[0])
        blob[len(blob) // 2] ^= 0xFF
        tampered = replace(payload, blobs=[bytes(blob)] + payload.blobs[1:])
        with pytest.raises((IntegrityError, FormatError)):
            decompress_round(tampered, SyncState.initial(trace.layers), params)

    @pytest.mark.parametrize("variant", [VARIANT_FLIP, VARIANT_KERNEL])
    def test_round_one_sign_bitmap_rejected(self, variant):
        # Round 1 has no previous signs, so the client never sends a bitmap
        # then; one on the wire is tampering, not a prediction to use.
        trace = structured_trace(seed=22, rounds=1)
        params = make_params(backend="store")
        payload, _ = compress_round(trace.rounds[0], SyncState.initial(trace.layers), params)
        n = trace.layers[0].kernel_count
        bitmap = SignBitmap(variant, flip=True, kernel_count=n,
                            level1=np.ones(n, bool), level2=np.ones(n, bool))
        # Store tag, blob tag u8, flags u8, mu f32, sigma f32, delta f64, then
        # the bitmap's tag byte ("none"). The crafted blob carries a valid CRC.
        blob = payload.blobs[0]
        assert blob[:2] == b"S\x01" and blob[19:20] == b"\x00"
        inner = blob[1:19] + encode_bitmap(bitmap) + blob[20:-4]
        tampered = replace(payload, blobs=[lossless_compress(inner, "store")] + payload.blobs[1:])
        with pytest.raises(IntegrityError, match="sign bitmap in round 1"):
            decompress_round(tampered, SyncState.initial(trace.layers), params)
        with pytest.raises(IntegrityError, match="sign bitmap in round 1"):
            describe_payload(tampered, trace.layers)

    def test_kernel_count_mismatch(self):
        # A round-2 kernel bitmap one kernel short of the layer's count. The
        # blob parser, which both readers run, refuses it before any bins
        # are decoded. The crafted blob carries a valid CRC.
        trace = structured_trace(seed=23, rounds=2)
        params = make_params(backend="store")
        client = SyncState.initial(trace.layers)
        _, client = compress_round(trace.rounds[0], client, params)
        payload, infos, _ = encode_round(trace.rounds[1], client, params)
        spec, blob = trace.layers[0], payload.blobs[0]
        # Store tag, blob tag u8, flags u8, mu f32, sigma f32, delta f64, then
        # the bitmap; a stored blob ends with its CRC32.
        end = 19 + infos[0].bitmap_bytes
        bitmap = decode_bitmap(ByteReader(blob[19:end]))
        level1 = bitmap.level1[:-1]
        short = SignBitmap(VARIANT_KERNEL, kernel_count=level1.size, level1=level1,
                           level2=bitmap.level2[:int(level1.sum())])
        blob = lossless_compress(blob[1:19] + encode_bitmap(short) + blob[end:-4], "store")
        tampered = replace(payload, blobs=[blob] + payload.blobs[1:])
        with pytest.raises(IntegrityError, match=f"bitmap covers {spec.kernel_count - 1} kernels"):
            describe_payload(tampered, trace.layers)

    def test_describe_blob_checks_literals_like_decode(self):
        # A bound far below float32 resolution turns every element into a
        # literal; the four bytes before a stored blob's state digest and CRC
        # are then a literal. The crafted blob carries a valid CRC.
        trace = structured_trace(seed=18, rounds=1)
        params = make_params(value=1e-30, backend="store")
        payload, _ = compress_round(trace.rounds[0], SyncState.initial(trace.layers), params)
        spec = trace.layers[0]
        assert describe_payload(payload, trace.layers)[0].literal_count == spec.numel
        inner = payload.blobs[0][1:-4]
        blob = lossless_compress(
            inner[:-8] + np.array([np.nan], dtype="<f4").tobytes() + inner[-4:], "store"
        )
        tampered = replace(payload, blobs=[blob] + payload.blobs[1:])
        with pytest.raises(DataError):
            describe_payload(tampered, trace.layers)
        with pytest.raises(DataError):
            decompress_round(tampered, SyncState.initial(trace.layers), params)

    # 1e308 is finite, but its bin width 2 * delta is not.
    @pytest.mark.parametrize("delta", [math.inf, math.nan, 1e308])
    def test_non_finite_wire_delta_rejected(self, delta):
        trace = structured_trace(seed=19, rounds=1)
        params = make_params(backend="store")
        payload, _ = compress_round(trace.rounds[0], SyncState.initial(trace.layers), params)
        # Store tag, blob tag u8, flags u8, mu f32, sigma f32, then delta f64.
        # The crafted blob carries a valid CRC.
        inner = bytearray(payload.blobs[0][1:-4])
        assert payload.blobs[0][:2] == b"S\x01"
        inner[10:18] = struct.pack("<d", delta)
        blob = lossless_compress(bytes(inner), "store")
        tampered = replace(payload, blobs=[bytes(blob)] + payload.blobs[1:])
        with pytest.raises(IntegrityError, match="delta"):
            describe_payload(tampered, trace.layers)
        with pytest.raises(IntegrityError, match="delta"):
            decompress_round(tampered, SyncState.initial(trace.layers), params)


    def test_inflation_bomb_rejected_within_memory(self):
        # 64 MiB of zeros deflate to about 65 KB. A 64-element lossy layer's
        # inner blob holds at most about 1 MiB, so inflation stops there.
        layers = (LayerSpec("fc", (8, 8)),)
        trace = synth_trace(SynthConfig(seed=20, layers=layers, rounds=1))
        params = make_params(lossy_threshold=0)
        payload, _ = compress_round(trace.rounds[0], SyncState.initial(layers), params)
        bomb = lossless_compress(bytes(64 << 20))
        assert len(bomb) < 70_000
        tampered = replace(payload, blobs=[bomb])
        for decode in (
            lambda: describe_payload(tampered, layers),
            lambda: decompress_round(tampered, SyncState.initial(layers), params),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(IntegrityError, match="'fc'.*inflates past"):
                    decode()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20


class TestFullBatchPath:
    def test_flip_bit_exercised(self):
        trace = structured_trace(seed=17, rounds=6, mode="full_batch")
        params = make_params(full_batch=True, value=1e-2)
        flips = []
        state = SyncState.initial(trace.layers)
        server = SyncState.initial(trace.layers)
        cap = pipeline._max_inner_bytes(trace.layers[0].numel)
        from gradzip.codec import lossless_decompress
        from gradzip.predictor import decode_bitmap
        from gradzip.trace import ByteReader
        for tensors in trace.rounds:
            payload, state = compress_round(tensors, state, params)
            inner = lossless_decompress(payload.blobs[0], cap)
            reader = ByteReader(inner, truncation_error=IntegrityError)
            tag, flags = reader.unpack("<BB")
            reader.take(16)  # mu f32, sigma f32, delta f64
            bitmap = decode_bitmap(reader)
            flips.append((bitmap.variant, bitmap.flip))
            _, server = decompress_round(payload, server, params)
            assert state.to_bytes() == server.to_bytes()
        # Round 1 sends no prediction; the oscillating trace must flip later.
        assert flips[0][0] == "none"
        assert any(v == "flip_bit" and f for v, f in flips[1:])
        assert any(v == "flip_bit" and not f for v, f in flips[1:])


class TestStoreBackend:
    def test_roundtrip_with_store(self):
        trace = structured_trace(seed=18, rounds=2)
        params = make_params(backend="store")
        for tensors, _, recons, client, server in run_lockstep(trace, params):
            assert client.to_bytes() == server.to_bytes()
            for g, r in zip(tensors, recons):
                err = float(np.abs(r.values.astype(np.float64) - g.values.astype(np.float64)).max())
                assert err <= 1e-2


class TestStateDigest:
    @pytest.mark.parametrize("part", ["mag", "prev_recon"])
    def test_server_state_bit_flip_names_round_and_layer(self, part):
        # One bit of the server's state, flipped before round 2, makes its
        # state after round 2 differ from the client's: the blob's state
        # digest catches it in decode_payload, without a client to compare.
        trace = structured_trace(seed=25, rounds=2)
        params = make_params()
        client = SyncState.initial(trace.layers)
        server = SyncState.initial(trace.layers)
        p1, client = compress_round(trace.rounds[0], client, params)
        p2, client = compress_round(trace.rounds[1], client, params)
        _, _, server = decode_payload(p1, server, params.predict)
        layer = 1  # "fc", a lossy layer
        arr = server.memory[layer] if part == "mag" else server.prev_recon[layer]
        # The exponent's top bit: 0.0 becomes 2.0, so the change cannot round away.
        arr.view(np.uint8)[arr.itemsize - 1] ^= 0x40
        mismatch = r"layer 'fc': client/server state mismatch at round 2"
        with pytest.raises(ProtocolError, match=mismatch):
            decode_payload(p2, server, params.predict)

    def test_wrong_beta_is_a_state_mismatch(self):
        # The predictor parameters travel in the stream header; a server that
        # decodes with another beta disagrees with the client on the state.
        trace = structured_trace(seed=26, rounds=2)
        params = make_params()
        client = SyncState.initial(trace.layers)
        server = SyncState.initial(trace.layers)
        wrong = PredictParams(beta=0.3)
        for r, tensors in enumerate(trace.rounds):
            payload, client = compress_round(tensors, client, params)
            if r == 0:
                _, _, server = decode_payload(payload, server, wrong)
                continue
            mismatch = r"layer 'conv1': client/server state mismatch at round 2"
            with pytest.raises(ProtocolError, match=mismatch):
                decode_payload(payload, server, wrong)

    @pytest.mark.parametrize("mode,full_batch,prediction,backend", [
        ("mini_batch", False, True, "default"),
        ("mini_batch", False, True, "store"),
        ("mini_batch", False, False, "default"),
        ("full_batch", True, True, "default"),
    ])
    def test_encoder_blob_info_equals_describe_blob(self, mode, full_batch, prediction, backend):
        trace = structured_trace(seed=27, rounds=4, mode=mode)
        params = make_params(full_batch=full_batch, prediction=prediction, backend=backend)
        state = SyncState.initial(trace.layers)
        for tensors in trace.rounds:
            payload, infos, state = pipeline.encode_round(tensors, state, params)
            assert infos == describe_payload(payload, trace.layers)
        assert {i.tag for i in infos} == {pipeline.TAG_LOSSLESS, pipeline.TAG_LOSSY}

    def test_lossy_blob_ends_in_the_state_digest(self):
        import zlib

        from gradzip.codec import lossless_decompress

        trace = structured_trace(seed=28, rounds=2)
        params = make_params()
        state = SyncState.initial(trace.layers)
        cap = pipeline._max_inner_bytes(trace.layers[0].numel)
        for tensors in trace.rounds:
            payload, state = compress_round(tensors, state, params)
            inner = lossless_decompress(payload.blobs[0], cap)
            crc = zlib.crc32(state.prev_recon[0].tobytes(), zlib.crc32(state.memory[0].tobytes()))
            assert inner[-4:] == struct.pack("<I", crc)


class TestLayerDriver:
    LAYERS = (LayerSpec("conv1", (16, 8, 3, 3)), LayerSpec("fc", (64, 48)))

    @staticmethod
    def fc_faults(inner, info):
        # Round 1 inner blob: tag u8, flags u8, mu f32, sigma f32, delta f64,
        # the bitmap's tag byte ("none") at 18, then the Huffman block: min
        # symbol i32 at 19, table span u32 at 23. The stream ends with the
        # literal section (count u32, mask, values) and the state digest u32.
        assert inner[18] == 0
        span = inner[:23] + struct.pack("<I", (1 << 20) + 1) + inner[27:]
        tag = inner[:18] + bytes([9]) + inner[19:]
        cut = inner[:len(inner) - 4 - 4 * info.literal_count - 10]
        return [
            (span, IntegrityError, "Huffman table span 1048577 too large"),
            (tag, FormatError, "unknown bitmap tag 9"),
            (cut, IntegrityError, "truncated input"),
        ]

    def test_faults_below_the_pipeline_name_their_layer(self):
        # Each crafted fc blob, re-wrapped as a stored blob with a valid CRC32,
        # trips a check in the codec, the predictor or the byte reader. Both
        # readers raise the same class and message, which names the layer.
        from gradzip.codec import lossless_decompress

        trace = synth_trace(SynthConfig(seed=29, layers=self.LAYERS, rounds=1))
        params = make_params(backend="store")
        payload, infos, _ = encode_round(trace.rounds[0], SyncState.initial(trace.layers), params)
        cap = pipeline._max_inner_bytes(self.LAYERS[1].numel)
        inner = lossless_decompress(payload.blobs[1], cap)
        for crafted, cls, message in self.fc_faults(inner, infos[1]):
            tampered = replace(payload, blobs=[payload.blobs[0], lossless_compress(crafted, "store")])
            errors = []
            for read in (
                lambda: describe_payload(tampered, trace.layers),
                lambda: decode_payload(tampered, SyncState.initial(trace.layers), params.predict),
            ):
                with pytest.raises(cls) as exc:
                    read()
                errors.append(str(exc.value))
                assert type(exc.value.__cause__) is cls
            assert errors[0] == errors[1]
            assert errors[0].startswith("layer 'fc': " + message)

    def test_encoder_names_both_layers_of_a_swap(self):
        trace = synth_trace(SynthConfig(seed=29, layers=self.LAYERS, rounds=1))
        swapped = trace.rounds[0][::-1]
        with pytest.raises(UsageError, match=r"^layer 'conv1': gradient is for layer 'fc'$"):
            encode_round(swapped, SyncState.initial(trace.layers), make_params())

    def test_other_exceptions_pass_through(self):
        def step(i, item):
            raise MemoryError("no room")

        with pytest.raises(MemoryError, match=r"^no room$"):
            pipeline._each_layer(self.LAYERS, [0], [b""], step)
