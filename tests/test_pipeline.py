import math
import struct

import numpy as np
import pytest

from gradzip.codec import DEFAULT_BIN_CAP, ErrorBoundConfig
from gradzip.errors import DataError, FormatError, IntegrityError, ProtocolError
from gradzip.pipeline import (
    CompressedPayload,
    PipelineParams,
    SyncState,
    compress_round,
    decode_payload,
    decompress_round,
    describe_blob,
    describe_payload,
    frame_payload,
    iter_payloads,
    parse_payload,
    spec_digest,
)
from gradzip.predictor import MagPredictorState, PredictParams
from gradzip.trace import GradientTensor, LayerSpec, SynthConfig, synth_trace


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
    """Run client and server side by side; return per-round artifacts."""
    client = SyncState.initial(trace.layers)
    server = SyncState.initial(trace.layers)
    results = []
    for tensors in trace.rounds:
        payload, client = compress_round(tensors, client, params)
        wire = frame_payload(payload)
        recons, server = decompress_round(parse_payload(wire), server, params)
        results.append((tensors, payload, recons, client, server))
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

    def test_small_layer_leaves_memory_untouched(self):
        spec = LayerSpec("bias", (10,))
        state = SyncState.initial([spec])
        params = make_params(lossy_threshold=1024)
        g = GradientTensor(spec, np.ones(10, dtype=np.float32))
        _, new_state = compress_round([g], state, params)
        assert new_state.mag[0] is state.mag[0]


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
                [MagPredictorState(np.full(spec.numel, -1e6), initialized=True)],
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

    def test_decode_payload_describes_the_blobs_it_parsed(self):
        trace = structured_trace(seed=10, rounds=3)
        params = make_params()
        server = SyncState.initial(trace.layers)
        for tensors, payload, recons, _, _ in run_lockstep(trace, params):
            got, infos, server = decode_payload(payload, server, params.predict)
            assert infos == describe_payload(payload, trace.layers)
            for a, b in zip(got, recons):
                assert a.values.tobytes() == b.values.tobytes()


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
        payload = self.make_payload()
        bumped = CompressedPayload(
            payload.client_id, payload.round, payload.spec_digest,
            payload.blobs, version=payload.version + 1,
        )
        with pytest.raises(FormatError):
            parse_payload(frame_payload(bumped))

    def test_trailing_bytes(self):
        raw = frame_payload(self.make_payload()) + b"x"
        with pytest.raises(FormatError):
            parse_payload(raw)

    def test_truncation(self):
        raw = frame_payload(self.make_payload())
        with pytest.raises(FormatError):
            parse_payload(raw[: len(raw) - 5])

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
        tampered = CompressedPayload(
            payload.client_id, payload.round, payload.spec_digest,
            [bytes(blob)] + payload.blobs[1:],
        )
        with pytest.raises((IntegrityError, FormatError)):
            decompress_round(tampered, SyncState.initial(trace.layers), params)

    def test_describe_blob_checks_literals_like_decode(self):
        # A bound far below float32 resolution turns every element into a
        # literal; the last four bytes of a stored blob are then a literal.
        trace = structured_trace(seed=18, rounds=1)
        params = make_params(value=1e-30, backend="store")
        payload, _ = compress_round(trace.rounds[0], SyncState.initial(trace.layers), params)
        spec = trace.layers[0]
        assert describe_blob(payload.blobs[0], spec).literal_count == spec.numel
        blob = payload.blobs[0][:-4] + np.array([np.nan], dtype="<f4").tobytes()
        tampered = CompressedPayload(
            payload.client_id, payload.round, payload.spec_digest,
            [blob] + payload.blobs[1:],
        )
        with pytest.raises(DataError):
            describe_blob(blob, spec)
        with pytest.raises(DataError):
            decompress_round(tampered, SyncState.initial(trace.layers), params)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_non_finite_wire_delta_rejected(self, delta):
        trace = structured_trace(seed=19, rounds=1)
        params = make_params(backend="store")
        payload, _ = compress_round(trace.rounds[0], SyncState.initial(trace.layers), params)
        spec = trace.layers[0]
        # Store tag, blob tag u8, flags u8, mu f32, sigma f32, then delta f64.
        blob = bytearray(payload.blobs[0])
        assert blob[:2] == b"S\x01"
        blob[11:19] = struct.pack("<d", delta)
        tampered = CompressedPayload(
            payload.client_id, payload.round, payload.spec_digest,
            [bytes(blob)] + payload.blobs[1:],
        )
        with pytest.raises(IntegrityError, match="delta"):
            describe_blob(bytes(blob), spec)
        with pytest.raises(IntegrityError, match="delta"):
            decompress_round(tampered, SyncState.initial(trace.layers), params)


class TestFullBatchPath:
    def test_flip_bit_exercised(self):
        trace = structured_trace(seed=17, rounds=6, mode="full_batch")
        params = make_params(full_batch=True, value=1e-2)
        flips = []
        state = SyncState.initial(trace.layers)
        server = SyncState.initial(trace.layers)
        from gradzip.codec import lossless_decompress
        from gradzip.predictor import decode_bitmap
        from gradzip.trace import ByteReader
        for tensors in trace.rounds:
            payload, state = compress_round(tensors, state, params)
            inner = lossless_decompress(payload.blobs[0])
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
