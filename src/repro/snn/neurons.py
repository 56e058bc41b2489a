"""Spiking neuron models: IF and LIF with scaled spike amplitude.

Dynamics follow Eqs. (2)-(4) of the paper with the Eq. (8) output
scaling that the proposed conversion introduces:

    U_tmp(t) = lambda * U(t-1) + I(t)          # leaky integration
    S(t)     = beta * V^th   if U_tmp(t) > V^th else 0
    U(t)     = U_tmp(t) - V^th * 1{spike}      # soft reset by threshold

Notes
-----
- The *reset* subtracts the threshold ``V^th`` (not the scaled output
  ``beta V^th``): ``beta`` only rescales what downstream layers see and
  can be absorbed into their weights (Section III-B), so it must not
  alter the neuron's internal charge bookkeeping.
- ``V^th`` and ``lambda`` are trainable parameters (jointly fine-tuned
  with the weights during SGL, following DIET-SNN); the surrogate
  gradient routes credit through the Heaviside.
- With ``lambda = 1`` the model is the Integrate-and-Fire neuron used
  for conversion; SGL may then learn per-layer leaks.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..nn.module import Module, Parameter
from ..tensor import GradMode, Tensor
from .surrogate import SurrogateFn, get_surrogate


def spike_function(
    u_temp: Tensor,
    v_threshold: Tensor,
    beta: float,
    surrogate: SurrogateFn,
) -> Tensor:
    """Differentiable (via surrogate) spike emission.

    Forward: ``beta * v_th * 1{u > v_th}``.

    Backward:
    - w.r.t. ``u``: the surrogate window ``g(u, v_th)`` (the paper uses
      a boxcar equal to 1 on ``[0, 2 v_th]``);
    - w.r.t. ``v_th``: ``beta * 1{spike}`` from the amplitude term minus
      the surrogate window from the firing condition — raising the
      threshold raises each emitted spike's amplitude but suppresses
      marginal spikes.
    """
    v_th = float(v_threshold.data.reshape(-1)[0])
    if v_th <= 0:
        raise ValueError(f"spiking threshold must be positive, got {v_th}")
    fired = u_temp.data > v_th
    dtype = u_temp.data.dtype
    out = np.where(fired, dtype.type(beta * v_th), dtype.type(0.0))
    window = surrogate(u_temp.data, v_th)

    def bwd(g):
        gu = g * window
        gv = (g * (beta * fired.astype(g.dtype) - window)).sum()
        return (gu, np.full(v_threshold.data.shape, gv))

    return Tensor.from_op(out, (u_temp, v_threshold), bwd, "spike")


def _check_carried_shape(carried_shape, frame_shape) -> None:
    """A carried membrane must match the frame shape exactly — a mismatch
    means the stream changed batch geometry mid-flight, which has no
    meaningful continuation (and must not silently broadcast)."""
    if tuple(carried_shape) != tuple(frame_shape):
        raise ValueError(
            f"carried membrane shape {tuple(carried_shape)} does not match "
            f"frame shape {tuple(frame_shape)}"
        )


def _initial_membrane(initial_potential, frame_shape, dtype) -> np.ndarray:
    """Materialise the membrane entering the scan.

    A scalar fills a fresh frame-shaped membrane (cold start); an array
    is a carried membrane from a previous window (warm start) and must
    already match the frame shape (:func:`_check_carried_shape`).
    """
    if np.ndim(initial_potential) == 0:
        return np.full(frame_shape, initial_potential, dtype=dtype)
    carried = np.asarray(initial_potential, dtype=dtype)
    _check_carried_shape(carried.shape, frame_shape)
    return carried.copy()


def fused_spike_scan(
    current: Tensor,
    v_threshold: Tensor,
    leak: Tensor,
    beta: float,
    surrogate: SurrogateFn,
    timesteps: int,
    reset_mode: str = "soft",
    initial_potential: Union[float, np.ndarray] = 0.0,
) -> Tuple[Tensor, np.ndarray, float]:
    """Membrane dynamics over a time-folded batch as one differentiable op.

    ``current`` packs the per-step input currents time-major along the
    batch axis: row block ``t`` (rows ``t*N .. (t+1)*N``) is the current
    of step ``t``.  The forward pass runs the Eq. (2)-(4) recurrence as a
    vectorised scan over the ``T`` blocks (cheap elementwise work — the
    expensive GEMMs upstream already ran once on the folded batch) and the
    single backward function replays the scan in reverse, producing the
    same gradients BPTT accumulates through the step-major chain of
    ``spike_function`` / reset ops: the surrogate window routes credit at
    each step, residual membrane carries ``leak *`` gradient to the
    previous step, and threshold/leak receive their summed contributions.

    Returns ``(spikes, final_membrane, fired_total)``: the spike train in
    the same time-folded layout, the post-scan membrane ``U(T)`` (shape of
    one frame), and the total number of emitted spikes — the by-products
    :meth:`SpikingNeuron.forward_fused` needs for state and statistics.
    """
    data = current.data
    if timesteps <= 0 or data.shape[0] % timesteps:
        raise ValueError(
            f"time-folded batch of {data.shape[0]} rows is not divisible "
            f"by timesteps={timesteps}"
        )
    v_th = float(v_threshold.data.reshape(-1)[0])
    if v_th <= 0:
        raise ValueError(f"spiking threshold must be positive, got {v_th}")
    leak_val = float(leak.data.reshape(-1)[0])
    n = data.shape[0] // timesteps
    frames = data.reshape((timesteps, n) + data.shape[1:])
    dtype = data.dtype
    amp = dtype.type(beta * v_th)
    zero = dtype.type(0.0)

    # The surrogate windows and entering membranes exist only to serve
    # the backward scan — skip them entirely on inference passes.
    needs_grad = GradMode.is_enabled() and (
        current.requires_grad
        or v_threshold.requires_grad
        or leak.requires_grad
    )
    out = np.empty_like(frames)
    fired_all = np.empty(frames.shape, dtype=bool)

    if not needs_grad:
        # Inference fast path: update the membrane in place and skip the
        # surrogate windows / entering-membrane history entirely.  Every
        # elementwise op writes into a preallocated buffer — the spike
        # rows of ``out``, the ``fired_all`` rows, one reset temporary —
        # so the scan allocates nothing per step.
        u = _initial_membrane(initial_potential, frames.shape[1:], dtype)
        reset_tmp = None if beta == 1.0 else np.empty_like(u)
        for t in range(timesteps):
            if leak_val != 1.0:
                u *= dtype.type(leak_val)
            u += frames[t]
            fired = fired_all[t]
            np.greater(u, v_th, out=fired)
            np.multiply(fired, amp, out=out[t])
            if reset_mode == "soft":
                if beta == 1.0:
                    # amp == v_th: the spike row already is v_th * fired.
                    u -= out[t]
                else:
                    np.multiply(fired, dtype.type(v_th), out=reset_tmp)
                    u -= reset_tmp
            else:
                u[fired] = zero
        return Tensor(out.reshape(data.shape), dtype=dtype), u, float(fired_all.sum())

    windows = np.empty_like(frames)
    u_prev = np.empty_like(frames)  # membrane entering each step
    u = _initial_membrane(initial_potential, frames.shape[1:], dtype)
    for t in range(timesteps):
        u_prev[t] = u
        u_tmp = u * leak_val + frames[t]
        fired = u_tmp > v_th
        fired_all[t] = fired
        out[t] = np.where(fired, amp, zero)
        windows[t] = surrogate(u_tmp, v_th)
        if reset_mode == "soft":
            u = u_tmp - v_th * fired.astype(dtype)
        else:
            u = np.where(fired, zero, u_tmp)

    spikes = Tensor.from_op(
        out.reshape(data.shape),
        (current, v_threshold, leak),
        _fused_scan_backward(
            frames.shape, data.shape, windows, fired_all, u_prev,
            beta, leak_val, reset_mode,
            v_threshold, leak,
        ),
        "fused_spike_scan",
    )
    return spikes, u, float(fired_all.sum())


def _fused_scan_backward(
    frame_shape, flat_shape, windows, fired_all, u_prev,
    beta, leak_val, reset_mode, v_threshold, leak,
):
    """Reverse-time adjoint of the fused scan (one closure per forward)."""
    timesteps = frame_shape[0]

    def bwd(g):
        g_frames = g.reshape(frame_shape)
        grad_current = np.empty(frame_shape, dtype=g.dtype)
        gv = 0.0
        gleak = 0.0
        grad_u = None  # gradient w.r.t. the post-reset membrane U(t)
        for t in range(timesteps - 1, -1, -1):
            gs = g_frames[t]
            window = windows[t]
            fired = fired_all[t]
            g_utmp = gs * window
            if grad_u is not None:
                if reset_mode == "soft":
                    # U(t) = U_tmp(t) - V^th * 1{spike}: pass-through to
                    # U_tmp, minus the summed fired mask into V^th.
                    g_utmp = g_utmp + grad_u
                    gv -= float((grad_u * fired).sum())
                else:
                    # Hard reset detaches the fired branch.
                    g_utmp = g_utmp + np.where(fired, 0.0, grad_u)
            gv += float((gs * (beta * fired.astype(gs.dtype) - window)).sum())
            gleak += float((g_utmp * u_prev[t]).sum())
            grad_current[t] = g_utmp
            grad_u = leak_val * g_utmp
        return (
            grad_current.reshape(flat_shape),
            np.full(v_threshold.data.shape, gv, dtype=v_threshold.data.dtype)
            if v_threshold.requires_grad else None,
            np.full(leak.data.shape, gleak, dtype=leak.data.dtype)
            if leak.requires_grad else None,
        )

    return bwd


class SpikingNeuron(Module):
    """A layer of IF/LIF neurons sharing one threshold and leak.

    Parameters
    ----------
    v_threshold:
        Initial firing threshold ``V^th`` (after conversion this is
        ``alpha * mu`` for the layer).
    beta:
        Spike-amplitude scale from Eq. (8).  ``1.0`` recovers the plain
        IF neuron; the converter sets the per-layer optimum and can
        absorb it into downstream weights.
    leak:
        Membrane leak ``lambda``; ``1.0`` gives IF dynamics.
    trainable:
        Whether threshold and leak receive gradients during SGL.
    surrogate:
        Name of the surrogate gradient (default: the paper's boxcar).

    State
    -----
    ``membrane`` holds ``U(t)`` between calls; :meth:`reset_state`
    clears it (done automatically by the network at every new input).
    """

    def __init__(
        self,
        v_threshold: float = 1.0,
        beta: float = 1.0,
        leak: float = 1.0,
        trainable: bool = True,
        surrogate: str = "boxcar",
        initial_potential: float = 0.0,
        reset_mode: str = "soft",
    ) -> None:
        super().__init__()
        if v_threshold <= 0:
            raise ValueError("v_threshold must be positive")
        if beta <= 0:
            raise ValueError("beta must be positive")
        if not 0.0 <= leak <= 1.0:
            raise ValueError("leak must lie in [0, 1]")
        if reset_mode not in ("soft", "hard"):
            raise ValueError("reset_mode must be 'soft' or 'hard'")
        self.v_threshold = Parameter(np.array([float(v_threshold)]))
        self.leak = Parameter(np.array([float(leak)]))
        if not trainable:
            self.v_threshold.requires_grad = False
            self.leak.requires_grad = False
        self.beta = float(beta)
        # Non-zero initial membrane potential implements the bias shift
        # delta = V^th / 2T of Deng et al. [15] (a charge of V^th/2 at
        # t=0 shifts the average-rate staircase left by V^th/2T).
        self.initial_potential = float(initial_potential)
        # "soft" (reset-by-subtraction, Eq. 4) conserves residual charge
        # and is required for the rate-staircase equivalence the
        # conversion relies on; "hard" (reset-to-zero) discards it —
        # provided for comparison with the classic conversion
        # literature, where it is a known accuracy loss.
        self.reset_mode = reset_mode
        self.surrogate_name = surrogate
        self.surrogate = get_surrogate(surrogate)
        self.membrane: Optional[Tensor] = None
        # Spike statistics (populated when ``recording`` is on).
        self.recording = False
        self.spike_count = 0.0
        self.neuron_count = 0
        self.step_count = 0

    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        return float(self.v_threshold.data[0])

    @property
    def leak_value(self) -> float:
        return float(self.leak.data[0])

    def reset_state(self) -> None:
        self.membrane = None

    def reset_spike_stats(self) -> None:
        self.spike_count = 0.0
        self.neuron_count = 0
        self.step_count = 0

    def forward(self, current: Tensor) -> Tensor:
        """Advance one time step with input current ``I(t)``."""
        if self.membrane is None:
            membrane = Tensor(
                np.full_like(current.data, self.initial_potential)
            )
        else:
            membrane = self.membrane
            _check_carried_shape(membrane.data.shape, current.data.shape)
        u_temp = membrane * self.leak + current
        spikes = spike_function(u_temp, self.v_threshold, self.beta, self.surrogate)
        fired_mask = (spikes.data != 0.0).astype(current.data.dtype)
        if self.reset_mode == "soft":
            self.membrane = u_temp - self.v_threshold * Tensor(fired_mask)
        else:  # hard reset: zero the fired units, graph detached there
            from ..tensor import where

            self.membrane = where(
                fired_mask != 0.0, Tensor(np.zeros_like(u_temp.data)), u_temp
            )
        if self.recording:
            self.spike_count += float(fired_mask.sum())
            self.neuron_count = int(np.prod(current.data.shape[1:]))
            self.step_count += 1
        return spikes

    def forward_fused(self, current: Tensor, timesteps: int) -> Tensor:
        """Advance all ``timesteps`` steps over a time-folded batch.

        ``current`` packs the per-step currents time-major along the
        batch axis (``(T*N, ...)``; rows ``t*N..(t+1)*N`` are step ``t``).
        Equivalent to ``timesteps`` calls of :meth:`forward` on the
        unfolded frames — same spikes, same BPTT gradients — but the
        membrane recurrence runs as one vectorised scan.

        A non-``None`` ``membrane`` warm-starts the scan from the
        carried state (streaming windows keep membranes alive across
        forward calls).  The carried value enters as a constant:
        cross-window credit is truncated at the boundary, which matches
        the stepwise path's detached-membrane hand-off under streaming
        inference.
        """
        if self.membrane is None:
            initial = self.initial_potential
        else:
            initial = self.membrane.data
        spikes, final_membrane, fired_total = fused_spike_scan(
            current,
            self.v_threshold,
            self.leak,
            self.beta,
            self.surrogate,
            timesteps,
            reset_mode=self.reset_mode,
            initial_potential=initial,
        )
        # Expose the last-step membrane (detached) for post-hoc probes;
        # the in-graph recurrence lives inside the scan's backward.
        self.membrane = Tensor(final_membrane, dtype=final_membrane.dtype)
        if self.recording:
            self.spike_count += fired_total
            self.neuron_count = int(np.prod(current.data.shape[1:]))
            self.step_count += timesteps
        return spikes

    def extra_repr(self) -> str:
        return (
            f"v_th={self.threshold:.4f}, beta={self.beta:.4f}, "
            f"leak={self.leak_value:.4f}, surrogate={self.surrogate_name}"
        )


class IFNeuron(SpikingNeuron):
    """Integrate-and-Fire neuron (``leak = 1``), the conversion target."""

    def __init__(
        self,
        v_threshold: float = 1.0,
        beta: float = 1.0,
        trainable: bool = True,
        surrogate: str = "boxcar",
        initial_potential: float = 0.0,
    ) -> None:
        super().__init__(
            v_threshold=v_threshold,
            beta=beta,
            leak=1.0,
            trainable=trainable,
            surrogate=surrogate,
            initial_potential=initial_potential,
        )


class LIFNeuron(SpikingNeuron):
    """Leaky Integrate-and-Fire neuron with trainable leak."""
