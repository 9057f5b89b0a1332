import csv
import io

import numpy as np
import pytest

from gradzip.codec import ErrorBoundConfig
from gradzip.errors import IntegrityError, ProtocolError, UsageError
from gradzip.flsim import (
    CommModel,
    SimConfig,
    break_even_bandwidth,
    check_bounds,
    check_sync,
    client_rounds,
    comm_times,
    compare_modes,
    reports_to_csv,
    run_simulation,
    verified_rounds,
)
from gradzip.pipeline import (
    TAG_LOSSY,
    PipelineParams,
    SyncState,
    compress_round,
    decode_payload,
    describe_payload,
    frame_payload,
)
from gradzip.predictor import PredictParams
from gradzip.trace import (
    GradientTensor,
    GradientTrace,
    LayerSpec,
    SynthConfig,
    synth_trace,
)


def sim_layers():
    return (
        LayerSpec("conv1", (8, 8, 3, 3)),
        LayerSpec("fc", (64, 32)),
        LayerSpec("bias", (16,)),
    )


def make_cfg(nclients=2, rounds=4, seed=100, bandwidths=(1e7,), **params_kw):
    traces = tuple(
        synth_trace(SynthConfig(
            seed=seed + k, layers=sim_layers(), rounds=rounds,
            magnitude_decay=0.97, noise_level=0.3, target_sign_consistency=0.8,
        ))
        for k in range(nclients)
    )
    defaults = dict(
        predict=PredictParams(),
        bound=ErrorBoundConfig("relative", 1e-2),
        lossy_threshold=64,
    )
    defaults.update(params_kw)
    return SimConfig(
        traces=traces,
        params=PipelineParams(**defaults),
        bandwidths_bps=bandwidths,
        fixed_times=(0.05, 0.02),
    )


class TestCommTimes:
    def test_worked_example(self):
        m = CommModel(
            s_bytes=100e6, sprime_bytes=100e6 / 20, bandwidth_bps=10e6,
            t_comp_s=0.6, t_decomp_s=0.4,
        )
        t_ori, t_comm, ratio = comm_times(m)
        assert t_ori == pytest.approx(80.0, rel=1e-9)
        assert t_comm == pytest.approx(5.0, rel=1e-9)
        assert ratio == pytest.approx(0.0625, rel=1e-9)

    def test_identity_compression(self):
        m = CommModel(1e6, 1e6, 1e6, 0.0, 0.0)
        _, _, ratio = comm_times(m)
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_eq2_decomposition(self):
        # ratio must equal codec_time/t_ori + 1/CR.
        rng = np.random.default_rng(61)
        for _ in range(50):
            s = float(rng.uniform(1e5, 1e9))
            cr = float(rng.uniform(1.1, 50))
            b = float(rng.uniform(1e6, 1e9))
            tc, td = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
            m = CommModel(s, s / cr, b, tc, td)
            t_ori, t_comm, ratio = comm_times(m)
            assert t_comm == pytest.approx(tc + 8 * (s / cr) / b + td, rel=1e-9)
            assert ratio == pytest.approx((tc + td) / t_ori + 1 / cr, rel=1e-9)

    def test_ratio_monotone_in_cr(self):
        prev = None
        for cr in (1.5, 2, 5, 10, 20, 50, 100):
            m = CommModel(1e8, 1e8 / cr, 1e7, 0.5, 0.5)
            ratio = comm_times(m)[2]
            if prev is not None:
                assert ratio < prev
            prev = ratio

    def test_validation(self):
        with pytest.raises(UsageError):
            CommModel(0, 1, 1, 0, 0)
        with pytest.raises(UsageError):
            CommModel(1, 1, 0, 0, 0)
        with pytest.raises(UsageError):
            CommModel(1, 1, 1, -1, 0)
        inf, nan = float("inf"), float("nan")
        for args in [(inf, 1, 1, 0, 0), (1, nan, 1, 0, 0), (1, 1, inf, 0, 0),
                     (1, 1, nan, 0, 0), (1, 1, 1, inf, 0), (1, 1, 1, 0, nan)]:
            with pytest.raises(UsageError):
                CommModel(*args)


class TestBreakEven:
    def test_closed_form(self):
        assert break_even_bandwidth(1e6, 2.0, 1.0) == pytest.approx(4e6)

    def test_infinite_cr_limit(self):
        got = break_even_bandwidth(1e6, 1e12, 1.0)
        assert got == pytest.approx(8e6, rel=1e-9)

    def test_no_breakeven_below_one(self):
        with pytest.raises(UsageError):
            break_even_bandwidth(1e6, 1.0, 1.0)
        with pytest.raises(UsageError):
            break_even_bandwidth(1e6, 0.5, 1.0)

    def test_codec_time_must_be_positive_and_finite(self):
        for t in (0.0, float("inf"), float("nan")):
            with pytest.raises(UsageError):
                break_even_bandwidth(1e6, 2.0, t)

    def test_breakeven_makes_ratio_one(self):
        s, cr, codec = 95.6e6, 14.98, 1.3
        b_star = break_even_bandwidth(s, cr, codec)
        m = CommModel(s, s / cr, b_star, codec / 2, codec / 2)
        assert comm_times(m)[2] == pytest.approx(1.0, rel=1e-9)


class TestRunSimulation:
    def test_multiclient_rounds_pass_invariants(self):
        cfg = make_cfg(nclients=4, rounds=6)
        reports = run_simulation(cfg)
        assert len(reports) == 6
        for rep in reports:
            assert len(rep.clients) == 4
            assert rep.mean_cr > 0
            for c in rep.clients:
                assert c.cr > 0
                for ls in c.layers:
                    if ls.lossy:
                        assert ls.max_err <= ls.delta

    def test_fixed_times_deterministic(self):
        cfg = make_cfg(nclients=2, rounds=3)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        for ra, rb in zip(a, b):
            assert ra.mean_cr == rb.mean_cr
            for ca, cb in zip(ra.clients, rb.clients):
                assert ca.sprime_bytes == cb.sprime_bytes
                assert ca.t_comp_s == cb.t_comp_s

    def test_measured_times_positive(self):
        cfg = make_cfg(nclients=1, rounds=2)
        cfg = SimConfig(cfg.traces, cfg.params, cfg.bandwidths_bps, None, fixed_times=None)
        reports = run_simulation(cfg)
        for rep in reports:
            for c in rep.clients:
                assert c.t_comp_s > 0
                assert c.t_decomp_s > 0

    def test_comm_rows_per_bandwidth(self):
        cfg = make_cfg(nclients=1, rounds=2, bandwidths=(1e6, 1e7, 1e8, 1e9))
        reports = run_simulation(cfg)
        for rep in reports:
            assert [r.bandwidth_bps for r in rep.comm] == [1e6, 1e7, 1e8, 1e9]
            # With fixed codec time and CR, the faster the link, the larger
            # the share of t_comm the codec time becomes, so ratio grows.
            ratios = [r.ratio for r in rep.comm]
            assert ratios == sorted(ratios)

    def test_rounds_cap(self):
        cfg = make_cfg(rounds=5)
        capped = SimConfig(cfg.traces, cfg.params, (), 3, (0.0, 0.0))
        assert len(run_simulation(capped)) == 3
        with pytest.raises(UsageError, match="rounds"):
            run_simulation(SimConfig(cfg.traces, cfg.params, (), 0, (0.0, 0.0)))

    def test_mismatched_layer_tables_rejected(self):
        t1 = synth_trace(SynthConfig(seed=1, layers=sim_layers(), rounds=2))
        t2 = synth_trace(SynthConfig(seed=2, layers=(LayerSpec("x", (256,)),), rounds=2))
        with pytest.raises(UsageError):
            SimConfig((t1, t2), make_cfg().params, (), None, (0.0, 0.0))

    def test_round_not_matching_the_layer_table_rejected(self):
        # GradientTrace checks no round against its layers: encode_round
        # rejects a wrong-spec tensor, naming the layer, and a short round.
        cfg = make_cfg(nclients=1, rounds=3)
        layers, rounds = cfg.traces[0].layers, [list(r) for r in cfg.traces[0].rounds]

        def simulate():
            trace = GradientTrace(layers, rounds)
            return run_simulation(SimConfig((trace,), cfg.params, (), None, (0.0, 0.0)))

        rounds[1][1] = GradientTensor(LayerSpec("fc", (32, 64)), rounds[1][1].values)
        with pytest.raises(UsageError, match="'fc'"):
            simulate()
        rounds[1] = rounds[1][:2]
        with pytest.raises(UsageError, match="2 tensors for 3 layers"):
            simulate()


def one_verified_round(rounds=2):
    """Client and server after ``rounds`` rounds, with the last round's artifacts."""
    cfg = make_cfg(nclients=1, rounds=rounds)
    client = SyncState.initial(list(sim_layers()))
    server = SyncState.initial(list(sim_layers()))
    for tensors in cfg.traces[0].rounds:
        payload, client = compress_round(tensors, client, cfg.params, client_id=3)
        recons, infos, server = decode_payload(payload, server, cfg.params.predict)
    return tensors, recons, payload, infos, client, server


def copy_state(state):
    return SyncState(
        state.layers,
        [m.copy() for m in state.memory],
        [r.copy() for r in state.prev_recon],
        state.round,
    )


def just_past_bound(orig, delta):
    """Smallest float32 above ``orig`` whose distance from it exceeds delta."""
    v = np.float32(orig + delta)
    while float(v) - orig <= delta:
        v = np.nextafter(v, np.float32(np.inf))
    return v


class TestVerifyRound:
    # A round's two checks: check_sync on the two states, check_bounds on
    # the reconstructions.
    def test_clean_round_row(self):
        tensors, recons, payload, infos, client, server = one_verified_round()
        check_sync(client, server, payload)
        stats = check_bounds(tensors, recons, payload, infos)
        assert [ls.layer for ls in stats] == [s.name for s in sim_layers()]
        assert sum(ls.s_bytes for ls in stats) == 4 * sum(s.numel for s in sim_layers())
        assert [ls.sprime_bytes for ls in stats] == [i.wire_bytes for i in infos]

    def test_one_ulp_past_bound_names_round_and_layer(self):
        tensors, recons, payload, infos, client, server = one_verified_round()
        layer = 1  # "fc", a lossy layer
        info = describe_payload(payload, sim_layers())[layer]
        assert info.tag == TAG_LOSSY
        orig = float(tensors[layer].values[5])
        past = just_past_bound(orig, info.delta)
        at_bound = np.nextafter(past, np.float32(-np.inf))
        assert float(at_bound) - orig <= info.delta < float(past) - orig
        for value, ok in ((at_bound, True), (past, False)):
            bumped = list(recons)
            values = recons[layer].values.copy()
            values[5] = value
            bumped[layer] = GradientTensor(recons[layer].spec, values)
            if ok:
                check_bounds(tensors, bumped, payload, infos)
                continue
            with pytest.raises(IntegrityError, match=r"round 2, client 3, layer 'fc'"):
                check_bounds(tensors, bumped, payload, infos)

    @pytest.mark.parametrize("layer", [1, 2])  # "fc" (lossy), "bias" (lossless)
    def test_nan_in_a_reconstruction_names_round_and_layer(self, layer):
        # A NaN error compares false with any limit: it must still fail. The
        # NaN is written after the tensor's own check has run.
        tensors, recons, payload, infos, _, _ = one_verified_round()
        bad = list(recons)
        bad[layer] = GradientTensor(recons[layer].spec, recons[layer].values.copy())
        bad[layer].values[3] = np.nan
        name = sim_layers()[layer].name
        with pytest.raises(IntegrityError, match=rf"round 2, client 3, layer '{name}': nan > "):
            check_bounds(tensors, bad, payload, infos)

    @pytest.mark.parametrize("part", ["mag", "prev_recon"])
    def test_flipped_server_state_bit_names_layer(self, part):
        _, _, payload, _, client, server = one_verified_round()
        server = copy_state(server)
        layer = 2 if part == "prev_recon" else 0  # "bias" / "conv1"
        arr = server.memory[layer] if part == "mag" else server.prev_recon[layer]
        arr.view(np.uint8)[3] ^= 0x01
        name = sim_layers()[layer].name
        with pytest.raises(ProtocolError, match=rf"round 2, client 3, layer '{name}'"):
            check_sync(client, server, payload)


class TestVerifiedRounds:
    def test_frames_and_rows_match_a_hand_driven_round(self):
        cfg = make_cfg(nclients=1, rounds=3)
        trace = cfg.traces[0]
        driver = verified_rounds(trace.layers, trace.rounds, cfg.params, 2, (0.5, 0.25))
        client = SyncState.initial(trace.layers)
        server = SyncState.initial(trace.layers)
        steps = 0
        for tensors, (wire, recons, row) in zip(trace.rounds, driver):
            payload, client = compress_round(tensors, client, cfg.params, client_id=2)
            want, _, server = decode_payload(payload, server, cfg.params.predict)
            assert wire == frame_payload(payload)
            assert [r.values.tobytes() for r in recons] == [r.values.tobytes() for r in want]
            assert (row.client, row.sprime_bytes) == (2, len(wire))
            assert (row.t_comp_s, row.t_decomp_s) == (0.5, 0.25)
            steps += 1
        assert steps == 3

    def test_times_measured_without_fixed_times(self):
        cfg = make_cfg(nclients=1, rounds=2)
        trace = cfg.traces[0]
        for _, _, row in verified_rounds(trace.layers, trace.rounds, cfg.params):
            assert row.t_comp_s > 0.0 and row.t_decomp_s > 0.0

    def test_server_state_divergence_names_round_and_layer(self, monkeypatch):
        from gradzip import flsim

        real = flsim.decode_payload

        def diverging(payload, state, predict):
            recons, infos, server = real(payload, state, predict)
            server.memory[0].view(np.uint8)[3] ^= 0x01
            return recons, infos, server

        monkeypatch.setattr(flsim, "decode_payload", diverging)
        cfg = make_cfg(nclients=1, rounds=2)
        trace = cfg.traces[0]
        with pytest.raises(ProtocolError, match=r"round 1, client 0, layer 'conv1'"):
            list(verified_rounds(trace.layers, trace.rounds, cfg.params))

    def test_bounds_checked_once_per_round(self, monkeypatch):
        # The client checks its own reconstruction; the state comparison
        # proves the server's bitwise the same, so it is not checked again.
        from gradzip import flsim

        calls = []
        real = flsim.check_bounds
        monkeypatch.setattr(flsim, "check_bounds", lambda *a: calls.append(a) or real(*a))
        cfg = make_cfg(nclients=1, rounds=3)
        trace = cfg.traces[0]
        assert len(list(verified_rounds(trace.layers, trace.rounds, cfg.params))) == 3
        assert len(calls) == 3


class TestClientRounds:
    def test_frames_rows_and_states_match_the_verified_driver(self):
        # The client alone writes the same frames, and its rows (bounds
        # checked on its own reconstruction) equal the verified driver's.
        cfg = make_cfg(nclients=1, rounds=3)
        trace = cfg.traces[0]
        fixed = (0.5, 0.25)
        # The client's state is valid until its next step, so the two are
        # compared step by step.
        alone = client_rounds(trace.layers, trace.rounds, cfg.params, 2, fixed)
        mirrored = verified_rounds(trace.layers, trace.rounds, cfg.params, 2, fixed)
        steps = 0
        for (wire, row, client), (want_wire, recons, want_row) in zip(alone, mirrored):
            steps += 1
            assert wire == want_wire
            assert row == want_row
            assert [r.tobytes() for r in client.prev_recon] == [
                r.values.tobytes() for r in recons
            ]
        assert steps == 3 and next(alone, None) is None and next(mirrored, None) is None

    def test_bound_violation_names_round_and_layer(self, monkeypatch):
        # The bound is checked on the client's reconstruction, as compress
        # checks it: a reconstruction past its bound raises IntegrityError.
        from gradzip import pipeline

        cfg = make_cfg(nclients=1, rounds=2)
        trace = cfg.traces[0]
        real = pipeline.quantize

        def off_by_much(original, ghat, delta, out=None):
            stream, recon32 = real(original, ghat, delta, out)
            recon32[0] += np.float32(4 * delta)
            return stream, recon32

        monkeypatch.setattr(pipeline, "quantize", off_by_much)
        with pytest.raises(IntegrityError, match=r"round 1, client 0, layer 'conv1'"):
            list(client_rounds(trace.layers, trace.rounds, cfg.params))

    @pytest.mark.parametrize("r", [1, 2])
    def test_inf_put_into_a_lossless_gradient_names_round_and_layer(self, r):
        # A GradientTensor is checked when it is made; one written to after
        # that reaches the encoder, which sends a lossless layer as it is.
        # The bound check refuses the inf it reconstructs.
        cfg = make_cfg(nclients=1, rounds=2)
        trace = cfg.traces[0]
        trace.rounds[r - 1][2].values[4] = np.inf  # "bias", lossless
        with pytest.raises(IntegrityError, match=rf"round {r}, client 0, layer 'bias'"):
            list(client_rounds(trace.layers, trace.rounds, cfg.params))

    def test_compress_time_measured_decompress_time_zero(self):
        cfg = make_cfg(nclients=1, rounds=2)
        trace = cfg.traces[0]
        for _, row, _ in client_rounds(trace.layers, trace.rounds, cfg.params):
            assert row.t_comp_s > 0.0 and row.t_decomp_s == 0.0


class TestStateTensors:
    def test_each_state_wraps_its_reconstructions_once(self, monkeypatch):
        # Every round hands out the same GradientTensors over the state's
        # arrays: at most one is made per layer per state, however many
        # rounds run.
        cfg = make_cfg(nclients=1, rounds=4)
        trace = cfg.traces[0]
        client = SyncState.initial(trace.layers)
        payloads = []
        for tensors in trace.rounds:
            payload, client = compress_round(tensors, client, cfg.params)
            payloads.append(payload)
        made = []
        real = GradientTensor.__post_init__
        monkeypatch.setattr(
            GradientTensor, "__post_init__", lambda self: made.append(self) or real(self)
        )
        server = SyncState.initial(trace.layers)
        handed = [decode_payload(p, server, cfg.params.predict)[0] for p in payloads]
        assert len(made) <= len(trace.layers)
        for recons in handed:
            assert recons is not server.recons
            assert all(r is s for r, s in zip(recons, server.recons))
            assert all(r.values is a for r, a in zip(recons, server.prev_recon))
        made.clear()
        steps = list(client_rounds(trace.layers, trace.rounds, cfg.params))
        assert len(steps) == 4
        assert len(made) <= len(trace.layers)


class TestCompareModes:
    def test_structured_trace_prediction_wins(self):
        cfg = make_cfg(nclients=1, rounds=6, seed=200)
        rows = compare_modes(cfg, [ErrorBoundConfig("relative", 3e-2)])
        assert len(rows) == 1
        assert rows[0].gain > 1.0

    def test_white_noise_not_catastrophic(self):
        rng_layers = sim_layers()
        # Unstructured signs and flat magnitudes: prediction has nothing to use.
        trace = synth_trace(SynthConfig(
            seed=300, layers=rng_layers, rounds=4, magnitude_decay=1.0,
            noise_level=1.5, target_sign_consistency=0.5,
        ))
        params = PipelineParams(
            predict=PredictParams(), bound=ErrorBoundConfig("relative", 1e-2),
            lossy_threshold=64,
        )
        cfg = SimConfig((trace,), params, (), None, (0.0, 0.0))
        rows = compare_modes(cfg)
        assert rows[0].gain >= 0.95

    def test_all_zero_trace_degenerate_but_sane(self):
        layers = [LayerSpec("fc", (64, 32))]
        rounds = [
            [GradientTensor(layers[0], np.zeros(2048, dtype=np.float32))]
            for _ in range(3)
        ]
        trace = GradientTrace(layers, rounds)
        params = PipelineParams(
            predict=PredictParams(), bound=ErrorBoundConfig("absolute", 1e-2),
            lossy_threshold=64,
        )
        cfg = SimConfig((trace,), params, (), None, (0.0, 0.0))
        rows = compare_modes(cfg)
        assert 0.5 <= rows[0].gain <= 2.0


class TestReportCsv:
    def test_schema_and_row_counts(self, tmp_path):
        nclients, rounds, nbw = 2, 3, 2
        cfg = make_cfg(nclients=nclients, rounds=rounds, bandwidths=(1e6, 1e8))
        reports = run_simulation(cfg)
        p = tmp_path / "report.csv"
        with open(p, "w", newline="") as fh:
            reports_to_csv(reports, fh)
        # One pass over any iterable writes the same bytes as the list.
        streamed = io.StringIO()
        reports_to_csv((rep for rep in reports), streamed)
        assert streamed.getvalue() == p.read_text()
        with open(p) as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[:3] == ["round", "client", "layer"]
        nlayers = len(sim_layers())
        # Measured codec times are nonzero and compression wins, so every
        # round also gets one break-even row, written after all rounds.
        want = rounds * (nclients * (nlayers + 1) + nbw)
        assert len(body) == want + rounds
        marks = body[want:]
        assert [r[:3] for r in marks] == [[str(t), "all", "break_even"] for t in range(1, rounds + 1)]
        for r, rep in zip(marks, reports):
            cr, bstar = rep.break_even
            assert r[5] == f"{cr:.6g}" and r[11] == f"{bstar:.6g}"
        agg = [r for r in body[:want] if r[1] == "all"]
        assert len(agg) == rounds * nbw
        for r in agg:
            assert r[11] != "" and r[13] != "" and r[14] != ""
