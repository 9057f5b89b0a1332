"""Acceptance suite: one verdict line per headline guarantee.

Each test prints a single ``[Cxx] PASS/FAIL`` line on the live terminal
(bypassing pytest capture) and then asserts, so a plain ``pytest -v`` run
shows the whole scorecard. Covered: the elementwise error bound, bitwise
client/server synchronization, predictor formula oracles, bitmap overhead,
measured compression-ratio gain from prediction, residual entropy reduction,
the communication-time model, codec roundtrip identities, and a reported
break-even bandwidth estimate.
"""

import math
import time

import numpy as np
import pytest

from gradzip.codec import (
    BACKEND_DEFAULT,
    BACKEND_STORE,
    MODE_RELATIVE,
    ErrorBoundConfig,
    decode_block,
    entropy_decode,
    entropy_encode,
    lossless_compress,
    lossless_decompress,
    resolve_bound,
)
from gradzip.flsim import (
    CommModel,
    SimConfig,
    break_even_bandwidth,
    comm_times,
    compare_modes,
)
from gradzip.pipeline import (
    TAG_LOSSY,
    PipelineParams,
    SyncState,
    _max_inner_bytes,
    compress_round,
    decompress_round,
    describe_payload,
    frame_payload,
    parse_payload,
)
from gradzip.predictor import (
    PredictParams,
    bitmap_overhead_ratio,
    decode_bitmap,
    encode_bitmap,
    gradient_correlation,
    predict_magnitude,
    predict_signs,
    sign_consistency,
)
from gradzip.trace import (
    MODE_FULL_BATCH,
    MODE_MINI_BATCH,
    ByteReader,
    GradientTensor,
    LayerSpec,
    SynthConfig,
    synth_trace,
)


def _report(capsys, cid, ok, detail):
    with capsys.disabled():
        print(f"\n[{cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid} failed: {detail}"


def _empirical_entropy(symbols):
    _, counts = np.unique(symbols, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


# The structured-trace settings shared by the gain and entropy checks.
STRUCTURED_LAYERS = (
    LayerSpec("conv1", (32, 16, 3, 3)),
    LayerSpec("conv2", (64, 32, 3, 3)),
    LayerSpec("conv3", (64, 64, 3, 3)),
    LayerSpec("fc", (64, 64)),
)


def structured_trace(seed=1234, rounds=8):
    return synth_trace(SynthConfig(
        seed=seed, layers=STRUCTURED_LAYERS, rounds=rounds,
        magnitude_decay=0.99, noise_level=0.3, target_sign_consistency=0.8,
    ))


def _random_layer_table(rng):
    layers = []
    for j in range(int(rng.integers(1, 4))):
        pick = int(rng.integers(3))
        if pick == 0:
            shape = (int(rng.integers(4, 25)), int(rng.integers(2, 13)), 3, 3)
        elif pick == 1:
            shape = (int(rng.integers(8, 97)), int(rng.integers(8, 65)))
        else:
            shape = (int(rng.integers(8, 2049)),)
        layers.append(LayerSpec(f"layer{j}", shape))
    return tuple(layers)


def test_c01_error_bound_never_violated(capsys):
    rng = np.random.default_rng(20240801)
    eps_cycle = (1e-3, 1e-2, 3e-2, 5e-2)
    n_traces = 104
    checked = 0
    violations = 0
    delta_mismatches = 0
    t_start = time.perf_counter()
    for i in range(n_traces):
        mode = MODE_FULL_BATCH if i % 2 else MODE_MINI_BATCH
        layers = _random_layer_table(rng)
        trace = synth_trace(SynthConfig(
            seed=int(rng.integers(1 << 31)),
            layers=layers,
            rounds=int(rng.integers(2, 5)),
            magnitude_decay=float(rng.uniform(0.9, 1.0)),
            noise_level=float(rng.uniform(0.1, 0.6)),
            target_sign_consistency=float(rng.uniform(0.5, 0.95)),
            oscillation_period=int(rng.integers(1, 4)),
            mode=mode,
        ))
        params = PipelineParams(
            predict=PredictParams(full_batch=mode == MODE_FULL_BATCH),
            bound=ErrorBoundConfig(MODE_RELATIVE, eps_cycle[i % 4]),
            lossy_threshold=64,
            backend=BACKEND_STORE if i % 7 == 0 else BACKEND_DEFAULT,
            prediction_enabled=i % 4 != 3,
        )
        client = SyncState.initial(list(layers))
        server = SyncState.initial(list(layers))
        for tensors in trace.rounds:
            payload, client = compress_round(tensors, client, params)
            recons, server = decompress_round(payload, server, params)
            infos = describe_payload(payload, layers)
            for g, recon, info in zip(tensors, recons, infos):
                diff = np.abs(recon.values.astype(np.float64)
                              - g.values.astype(np.float64))
                if info.tag == TAG_LOSSY:
                    violations += int((diff > info.delta).sum())
                    # The wire bound must equal the bound resolved from the
                    # original tensor, not a stale or re-scaled copy.
                    if info.delta != resolve_bound(params.bound, g):
                        delta_mismatches += 1
                else:
                    violations += int((diff != 0.0).sum())
                checked += diff.size
    elapsed = time.perf_counter() - t_start
    ok = violations == 0 and delta_mismatches == 0 and elapsed < 120.0
    _report(capsys, "C01", ok,
            f"{checked} values over {n_traces} randomized traces (both modes, "
            f"eps 1e-3..5e-2): {violations} bound violations, "
            f"{delta_mismatches} delta mismatches, {elapsed:.1f}s")


def test_c02_client_server_bitwise_sync(capsys):
    layers = (
        LayerSpec("conv1", (16, 8, 3, 3)),
        LayerSpec("conv2", (16, 16, 3, 3)),
        LayerSpec("fc", (64, 32)),
        LayerSpec("bias", (10,)),
    )
    mismatches = 0
    rounds_checked = 0
    for mode in (MODE_MINI_BATCH, MODE_FULL_BATCH):
        params = PipelineParams(
            predict=PredictParams(full_batch=mode == MODE_FULL_BATCH),
            bound=ErrorBoundConfig(MODE_RELATIVE, 1e-2),
        )
        for k in range(4):
            trace = synth_trace(SynthConfig(
                seed=100 + k, layers=layers, rounds=10, mode=mode,
                oscillation_period=3,
            ))
            client = SyncState.initial(list(layers))
            server = SyncState.initial(list(layers))
            for tensors in trace.rounds:
                payload, client = compress_round(tensors, client, params,
                                                 client_id=k)
                wire = frame_payload(payload)
                _, server = decompress_round(parse_payload(wire), server, params)
                rounds_checked += 1
                if client.to_bytes() != server.to_bytes():
                    mismatches += 1
    _report(capsys, "C02", mismatches == 0,
            f"4 clients x 10 rounds, both training modes, framed bytes as the "
            f"only channel: {mismatches} state mismatches in {rounds_checked} "
            f"round checks")


def _consistency_oracle(kernel):
    t = len(kernel)
    pos = sum(1 for v in kernel if v > 0)
    neg = sum(1 for v in kernel if v < 0)
    zero = t - pos - neg
    half = math.ceil(t / 2)
    if t == half:
        return 1.0
    raw = (max(pos, neg) + zero - half) / (t - half)
    return min(1.0, max(0.0, raw))


def _naive_correlation(a, b):
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) * float(x) for x in a))
    nb = math.sqrt(sum(float(y) * float(y) for y in b))
    return dot / (na * nb)


def test_c03_consistency_and_correlation_oracles(capsys):
    rng = np.random.default_rng(7)
    n_kernels = 10_000
    exact = 0
    for _ in range(n_kernels):
        t = int(rng.integers(1, 26))
        signs = rng.choice((-1.0, 0.0, 1.0), size=t, p=(0.4, 0.2, 0.4))
        kernel = signs * rng.uniform(0.1, 2.0, size=t)
        if sign_consistency(kernel) == _consistency_oracle(kernel):
            exact += 1
    n_pairs = 2_000
    corr_worst = 0.0
    for _ in range(n_pairs):
        n = int(rng.integers(1, 300))
        a = rng.normal(size=n)
        b = rng.normal(size=n) + float(rng.uniform(-1.0, 1.0)) * a
        corr_worst = max(corr_worst,
                         abs(gradient_correlation(a, b) - _naive_correlation(a, b)))
    ok = exact == n_kernels and corr_worst <= 1e-6
    _report(capsys, "C03", ok,
            f"sign consistency exact on {exact}/{n_kernels} random kernels; "
            f"correlation within {corr_worst:.2e} of the naive evaluator "
            f"over {n_pairs} pairs (bound 1e-6)")


def test_c04_magnitude_predictor_hand_trace(capsys):
    memory = np.zeros(3)
    pred = predict_magnitude(
        np.array([1.0, 2.0, 3.0]), 1.0, 0.5, memory, PredictParams(beta=0.5),
    )
    want = np.array([0.6938, 1.0, 1.3062])
    worst = float(np.max(np.abs(pred - want)))
    mem_ok = np.allclose(memory, [-0.6124, 0.0, 0.6124], rtol=0, atol=5e-5)
    ok = worst <= 1e-4 and mem_ok
    _report(capsys, "C04", ok,
            f"prev [1,2,3], beta 0.5, mu 1, sigma 0.5 -> "
            f"{np.round(pred, 5).tolist()}, max deviation {worst:.2e} from "
            f"[0.6938, 1.0, 1.3062] (bound 1e-4); memory "
            f"{np.round(memory, 5).tolist()}, within 5e-5 of [-0.6124, 0, 0.6124]: {mem_ok}")


def test_c05_bitmap_overhead_formula(capsys):
    spec = LayerSpec("conv", (64, 32, 3, 3))
    rng = np.random.default_rng(11)
    dominant = rng.choice((-1.0, 1.0), size=spec.kernel_count)
    flip = rng.random((spec.kernel_count, spec.kernel_size)) < 0.15
    vals = np.where(flip, -dominant[:, None], dominant[:, None])
    vals = vals * rng.uniform(0.5, 1.5, (spec.kernel_count, spec.kernel_size))
    g = GradientTensor(spec, vals.reshape(-1).astype(np.float32))
    _, bitmap = predict_signs(g, None, PredictParams(tau=0.5))
    p_measured = bitmap.predicted_count / spec.kernel_count
    payload_bits = 8 * (len(encode_bitmap(bitmap)) - 5)  # minus tag + count
    bits_per_value = payload_bits / spec.numel
    formula = (1.0 + p_measured) / spec.kernel_size
    rel = abs(bits_per_value - formula) / formula

    percent = 100.0 * bitmap_overhead_ratio(0.6, 32, 9, 1.2)
    example_ok = abs(percent - 0.463) < 5e-5
    ok = rel <= 0.01 and example_ok
    _report(capsys, "C05", ok,
            f"measured bitmap {bits_per_value:.5f} bits/value vs (1+P)/K = "
            f"{formula:.5f} at P={p_measured:.3f} (rel err {100 * rel:.3f}%, "
            f"bound 1%); P=0.6, b=32, K=9, R=1.2 -> {percent:.5f}% "
            f"(want 0.463%)")


def test_c06_prediction_gain(capsys):
    t_start = time.perf_counter()
    cfg = SimConfig(
        traces=(structured_trace(),),
        params=PipelineParams(predict=PredictParams(),
                              bound=ErrorBoundConfig(MODE_RELATIVE, 1e-2)),
        fixed_times=(0.0, 0.0),
    )
    eps = (1e-3, 1e-2, 3e-2, 5e-2)
    rows = compare_modes(cfg, [ErrorBoundConfig(MODE_RELATIVE, v) for v in eps])
    gains = {row.eb_value: row.gain for row in rows}
    elapsed = time.perf_counter() - t_start
    ok = (all(gains[v] >= 1.05 for v in (1e-2, 3e-2, 5e-2))
          and gains[3e-2] >= gains[1e-3]
          and elapsed < 300.0)
    detail = ", ".join(f"eps {v:g}: {gains[v]:.3f}x" for v in eps)
    _report(capsys, "C06", ok,
            f"prediction-on/off CR gain on the structured trace: {detail} "
            f"(need >= 1.05x above 1e-3, rising trend; {elapsed:.1f}s)")


def _pooled_bins(trace, params):
    client = SyncState.initial(list(trace.layers))
    chunks = []
    for tensors in trace.rounds:
        payload, client = compress_round(tensors, client, params)
        lossy = [spec for spec, lossless in zip(trace.layers, payload.lossless) if not lossless]
        for spec, blob in zip(lossy, payload.blobs):
            inner = lossless_decompress(blob, _max_inner_bytes(spec.numel))
            reader = ByteReader(inner)
            assert reader.unpack("<B") == (TAG_LOSSY,)
            reader.unpack("<Bffd")
            decode_bitmap(reader)
            chunks.append(entropy_decode(decode_block(reader), spec.numel))
    return np.concatenate(chunks)


def test_c07_bin_entropy_reduction(capsys):
    trace = structured_trace()
    entropies = {}
    for enabled in (True, False):
        params = PipelineParams(
            predict=PredictParams(),
            bound=ErrorBoundConfig(MODE_RELATIVE, 3e-2),
            prediction_enabled=enabled,
        )
        entropies[enabled] = _empirical_entropy(_pooled_bins(trace, params))
    ok = entropies[True] < entropies[False]
    _report(capsys, "C07", ok,
            f"pooled quantization-bin entropy at eps 3e-2: "
            f"{entropies[True]:.4f} bits/symbol with prediction, "
            f"{entropies[False]:.4f} without")


def test_c08_communication_model(capsys):
    t_ori, t_comm, ratio = comm_times(CommModel(
        s_bytes=100e6, sprime_bytes=100e6 / 20.0, bandwidth_bps=10e6,
        t_comp_s=0.5, t_decomp_s=0.5,
    ))
    rel_ori = abs(t_ori - 80.0) / 80.0
    rel_comm = abs(t_comm - 5.0) / 5.0
    rel_ratio = abs(ratio - 0.0625) / 0.0625
    ratios = []
    for cr in np.linspace(1.01, 100.0, 250):
        _, _, r = comm_times(CommModel(100e6, 100e6 / cr, 10e6, 0.5, 0.5))
        ratios.append(r)
    monotone = bool(np.all(np.diff(ratios) < 0.0))
    ok = max(rel_ori, rel_comm, rel_ratio) <= 1e-9 and monotone
    _report(capsys, "C08", ok,
            f"S=100 MB, B=10 Mbit/s, CR=20, codec 1 s -> t_comm {t_comm:.10g} s "
            f"(want 5), ratio {ratio:.10g} (want 0.0625), worst rel err "
            f"{max(rel_ori, rel_comm, rel_ratio):.1e}; ratio strictly "
            f"decreasing over a 250-point CR grid: {monotone}")


@pytest.mark.slow
def test_c09_codec_roundtrips(capsys):
    rng = np.random.default_rng(99)
    n_arrays = 100_000
    sizes = rng.integers(1, 33, size=n_arrays)
    sizes[:40] = 100_000  # long streams with varied distributions
    sizes[40:60] = 0      # empty blocks must roundtrip too
    entropy_bad = 0
    total_syms = 0
    worst_excess = 0.0
    for i, size in enumerate(sizes):
        size = int(size)
        if size >= 1000:
            kind = i % 4
            if kind == 0:
                a = rng.integers(-64, 65, size=size).astype(np.int32)
            elif kind == 1:
                mags = rng.geometric(0.25, size=size) - 1
                a = (mags * rng.choice((-1, 1), size=size)).astype(np.int32)
            elif kind == 2:
                a = np.zeros(size, dtype=np.int32)
                idx = rng.integers(0, size, size=size // 50)
                a[idx] = rng.integers(-500, 501, size=idx.size)
            else:
                a = np.full(size, int(rng.integers(-1000, 1000)), dtype=np.int32)
        else:
            span = int(rng.integers(1, 9))
            a = rng.integers(-span, span + 1, size=size).astype(np.int32)
        block = entropy_encode(a)
        if not np.array_equal(entropy_decode(block, size), a):
            entropy_bad += 1
        total_syms += size
        if size >= 1000:
            excess = block.bit_count / size - _empirical_entropy(a)
            worst_excess = max(worst_excess, excess)

    payloads = [
        b"",
        b"\x00",
        bytes(4096),
        b"\xff" * 4096,
        rng.integers(0, 256, size=65536, dtype=np.uint8).tobytes(),
        b"abc123" * 5000,
    ]
    lossless_bad = 0
    for data in payloads:
        for backend in (BACKEND_DEFAULT, BACKEND_STORE):
            if lossless_decompress(lossless_compress(data, backend), len(data)) != data:
                lossless_bad += 1
    ok = entropy_bad == 0 and lossless_bad == 0 and worst_excess <= 1.0
    _report(capsys, "C09", ok,
            f"{n_arrays} entropy roundtrips ({total_syms} symbols): "
            f"{entropy_bad} mismatches; {2 * len(payloads)} lossless "
            f"roundtrips: {lossless_bad} mismatches; worst mean code length "
            f"excess over entropy {worst_excess:.4f} bits (bound 1.0)")


def test_c10_break_even_report(capsys):
    layers = (
        LayerSpec("conv1", (64, 32, 3, 3)),
        LayerSpec("conv2", (64, 64, 3, 3)),
        LayerSpec("fc", (256, 128)),
    )
    trace = synth_trace(SynthConfig(seed=5, layers=layers, rounds=4))
    params = PipelineParams(predict=PredictParams(),
                            bound=ErrorBoundConfig(MODE_RELATIVE, 1e-2))
    warm_c = SyncState.initial(list(layers))
    warm_s = SyncState.initial(list(layers))
    payload, _ = compress_round(trace.rounds[0], warm_c, params)
    decompress_round(payload, warm_s, params)

    client = SyncState.initial(list(layers))
    server = SyncState.initial(list(layers))
    payloads = []
    t0 = time.perf_counter()
    for tensors in trace.rounds:
        payload, client = compress_round(tensors, client, params)
        payloads.append(payload)
    for payload in payloads:
        _, server = decompress_round(payload, server, params)
    codec_elapsed = time.perf_counter() - t0

    rate = trace.total_bytes() / codec_elapsed  # bytes/s, compress + decompress
    s_bytes = 95.6e6
    bstar = break_even_bandwidth(s_bytes, 14.98, s_bytes / rate)
    mbps = bstar / 1e6
    within = 62.0 <= mbps <= 6200.0
    ok = math.isfinite(mbps) and mbps > 0.0
    _report(capsys, "C10", ok,
            f"measured codec throughput {8.0 * rate / 1e6:.0f} Mbit/s -> "
            f"break-even {mbps:.0f} Mbit/s for a 95.6 MB update at CR 14.98; "
            f"within one order of magnitude of the 620 Mbit/s reference: "
            f"{'yes' if within else 'no'} (reported, not asserted)")
