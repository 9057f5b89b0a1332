"""Error-bounded lossy compression for federated-learning gradient updates.

The package is organized as a four-stage codec (predict, quantize, entropy
code, lossless backend) wrapped in a round-based client/server pipeline,
plus a synthetic trace generator, a communication-time simulator, and a
command line front end. It exports what README's "Library use" imports and
the error classes; everything else is imported from its module.
"""

from .codec import ErrorBoundConfig
from .errors import (
    DataError,
    FormatError,
    GradzipError,
    IntegrityError,
    ProtocolError,
    UsageError,
)
from .flsim import verified_rounds
from .pipeline import (
    PipelineParams,
    SyncState,
    compress_round,
    decode_payload,
    frame_payload,
    parse_payload,
)
from .predictor import PredictParams
from .trace import GradientTensor, LayerSpec

__version__ = "0.1.0"
