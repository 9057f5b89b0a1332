"""Error-bounded lossy compression for federated-learning gradient updates.

The package is organized as a four-stage codec (predict, quantize, entropy
code, lossless backend) wrapped in a round-based client/server pipeline,
plus a synthetic trace generator, a communication-time simulator, and a
command line front end.
"""

from .codec import (
    DEFAULT_BIN_CAP,
    MODE_ABSOLUTE,
    MODE_RELATIVE,
    ErrorBoundConfig,
    HuffmanBlock,
    QuantizedStream,
    dequantize,
    entropy_decode,
    entropy_encode,
    lossless_compress,
    lossless_decompress,
    quantize,
    resolve_bound,
)
from .errors import (
    DataError,
    FormatError,
    GradzipError,
    IntegrityError,
    ProtocolError,
    UsageError,
)
from .flsim import (
    CommModel,
    ModeComparison,
    RoundReport,
    SimConfig,
    break_even_bandwidth,
    client_rounds,
    comm_times,
    compare_modes,
    reports_to_csv,
    run_simulation,
    verified_rounds,
)
from .pipeline import (
    CompressedPayload,
    PipelineParams,
    SyncState,
    compress_round,
    decode_payload,
    decompress_round,
    describe_blob,
    encode_round,
    frame_payload,
    iter_payloads,
    parse_payload,
)
from .predictor import (
    PredictParams,
    SignBitmap,
    SignTensor,
    bitmap_overhead_ratio,
    decode_bitmap,
    encode_bitmap,
    gradient_correlation,
    predict_magnitude,
    predict_signs,
    reconstruct_signs,
    sign_consistency,
)
from .trace import (
    MODE_FULL_BATCH,
    MODE_MINI_BATCH,
    GradientTensor,
    GradientTrace,
    LayerSpec,
    SynthConfig,
    abs_stats,
    load_trace,
    synth_rounds,
    synth_trace,
    write_trace,
)

__version__ = "0.1.0"
