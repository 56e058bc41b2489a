"""Spiking substrate: neurons, surrogate gradients, encoders, networks."""

from .analysis import (
    first_spike_latency,
    layer_summary,
    record_spike_raster,
    spikes_per_step,
    synchrony_index,
    temporal_sparsity,
)
from .encoding import (
    DirectEncoder,
    Encoder,
    PassthroughEncoder,
    PoissonEncoder,
    TTFSEncoder,
)
from .event_driven import (
    EventCounts,
    EventDrivenNetwork,
    conv_fanout_map,
)
from .neurons import (
    IFNeuron,
    LIFNeuron,
    SpikingNeuron,
    fused_spike_scan,
    spike_function,
)
from .pooling import SpikingMaxPool
from .network import (
    SpikingModule,
    SpikingNetwork,
    SpikingResidualBlock,
    SpikingSequential,
    StepWrapper,
    TemporalDropout,
    apply_fused,
    fold_time,
    tile_time,
    unfold_time,
)
from .stdp import STDPConfig, STDPLearner, run_stdp_session
from .surrogate import (
    arctan_surrogate,
    available_surrogates,
    boxcar,
    fast_sigmoid,
    get_surrogate,
    triangle,
)

__all__ = [
    "DirectEncoder",
    "first_spike_latency",
    "layer_summary",
    "record_spike_raster",
    "spikes_per_step",
    "synchrony_index",
    "temporal_sparsity",
    "Encoder",
    "EventCounts",
    "EventDrivenNetwork",
    "IFNeuron",
    "PassthroughEncoder",
    "conv_fanout_map",
    "LIFNeuron",
    "PoissonEncoder",
    "STDPConfig",
    "STDPLearner",
    "run_stdp_session",
    "SpikingMaxPool",
    "SpikingModule",
    "SpikingNetwork",
    "SpikingNeuron",
    "SpikingResidualBlock",
    "SpikingSequential",
    "StepWrapper",
    "TTFSEncoder",
    "TemporalDropout",
    "apply_fused",
    "arctan_surrogate",
    "available_surrogates",
    "boxcar",
    "fast_sigmoid",
    "fold_time",
    "fused_spike_scan",
    "get_surrogate",
    "spike_function",
    "tile_time",
    "unfold_time",
    "triangle",
]
