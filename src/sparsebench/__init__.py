"""Fixed-point sparse DNN inference engines with a DRAM cost model.

Two sparsity schemes around one 16-bit fixed-point core: zero-skipping
convolution over bitmap-compressed feature maps, and delta-threshold
GRU inference that only propagates significant changes. A burst/row
DRAM model prices the resulting memory traffic.
"""

from .codec import (SparseFeatureMap, SparsityStats, decode_sm, encode_delta,
                    encode_sm, load_smfm, measure_sparsity, save_smfm)
from .conv import (ConvLayerSpec, LayerRunResult, conv_dense_oracle,
                   conv_zeroskip, fused_relu_pool, run_network)
from .errors import (EquivalenceFailure, MalformedStream, MissingArtifact,
                     ShapeMismatch, SparseBenchError, Underdetermined)
from .fxp import OpCounter, Q2_14, Q8_8, QFormat, QTensor, load_qt, save_qt
from .gru import (GruLayerSpec, LayerState, StepStats, delta_mxv_accumulate,
                  run_layer, run_sequence)
from .memmodel import (MemConfig, MemCostReport, cost_trace, random_vs_burst_ratio,
                       schedule_dense_weight_stream, solve_budget)
from .trace import AccessTrace

__version__ = "0.1.0"
