"""Measurement-noise model for timed instruction sequences.

Real RDTSC-delimited measurements jitter for two reasons the attacks must
survive: short-scale pipeline/frequency noise (modelled as a truncated
Gaussian) and rare large outliers from interrupts or SMIs (modelled as
additive spikes).  Everything is driven by an explicit
``numpy.random.Generator`` so runs are reproducible.

Probe sweeps consume that generator in one of two fixed stream layouts:

* a quiet sweep draws its whole ``(rows, rounds)`` block in one
  :func:`sample_noise_array` call;
* a chaos sweep draws per row, under the sigma of that row's poll (a
  migration rescales it between two polls): one kernel call of shape
  ``(rounds,)`` per row.  :meth:`NoiseModel.sample_rows` issues a run
  of such rows -- a columnar window, or one row of the row loop -- with
  exactly that stream into one block and transforms the block once.
"""

import numpy as np


def sample_noise_array(rng, shape, sigma, spike_prob, spike_cycles):
    """The NoiseModel distribution, vectorized: max(0, N) + spikes.

    This is the one canonical vectorized noise kernel: a quiet sweep
    draws its whole ``(rows, rounds)`` block through it (via
    :meth:`NoiseModel.sample_array`), and :meth:`NoiseModel.sample_rows`
    -- the chaos path -- reproduces one call of it per row, so the
    engines' noise can never drift from each other (or from the scalar
    :meth:`NoiseModel.sample` distribution).  The RNG stream-consumption
    pattern is fixed -- one ``normal(shape)``, one ``random(shape)``
    spike draw, and one ``random(shape)`` spike-magnitude draw issued
    only when any spike fired -- so fixed-seed results are stable across
    callers.
    """
    noise = rng.normal(0.0, sigma, size=shape)
    spikes = rng.random(shape) < spike_prob
    if spikes.any():
        noise = noise + spikes * spike_cycles * (0.5 + rng.random(shape))
    return np.maximum(0, np.rint(noise))


class NoiseModel:
    """Additive, non-negative timing noise."""

    def __init__(self, rng, sigma=2.0, spike_prob=0.001, spike_cycles=400):
        self.rng = rng
        self.sigma = sigma
        self.spike_prob = spike_prob
        self.spike_cycles = spike_cycles

    def sample(self):
        """Draw one noise value in whole cycles (always >= 0)."""
        noise = self.rng.normal(0.0, self.sigma)
        if self.spike_prob > 0 and self.rng.random() < self.spike_prob:
            noise += self.spike_cycles * (0.5 + self.rng.random())
        return max(0, int(round(noise)))

    def sample_array(self, rng, shape):
        """Vectorized draw via the canonical kernel.

        ``rng`` is explicit (rather than ``self.rng``) because batched
        sweeps own their generator's stream layout; pass ``self.rng`` to
        share the model's stream.
        """
        return sample_noise_array(
            rng, shape, self.sigma, self.spike_prob, self.spike_cycles
        )

    def sample_rows(self, rng, rows, rounds):
        """The chaos-path draw: ``rows`` per-row kernel calls as one block.

        Values and RNG stream equal ``rows`` consecutive
        ``sample_noise_array(rng, (rounds,), ...)`` calls, one per sweep
        row: per row one ``standard_normal``, one ``random`` spike draw
        and, only if that row spiked, one ``random`` magnitude draw.
        Scaling, spikes, rounding and the clamp then run once over the
        block.  Returns an int64 ``(rows, rounds)`` array.
        """
        normal = np.empty((rows, rounds))
        uniform = np.empty((rows, rounds))
        magnitude = None
        for row, (z, u) in enumerate(zip(normal, uniform)):
            rng.standard_normal(out=z)
            rng.random(out=u)
            if min(u.tolist()) < self.spike_prob:
                if magnitude is None:
                    magnitude = np.zeros((rows, rounds))
                rng.random(out=magnitude[row])
        noise = normal * self.sigma
        if magnitude is not None:
            noise = noise + (uniform < self.spike_prob) * self.spike_cycles \
                * (0.5 + magnitude)
        return np.maximum(0, np.rint(noise)).astype(np.int64)

    def scaled(self, factor):
        """Return a copy with sigma scaled (e.g. noisy cloud neighbours)."""
        return NoiseModel(
            self.rng,
            sigma=self.sigma * factor,
            spike_prob=self.spike_prob,
            spike_cycles=self.spike_cycles,
        )
