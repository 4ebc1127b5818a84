"""Deterministic RNG substreams.

All randomness in the pipeline flows from one 64-bit seed through named
substreams, so runs are reproducible regardless of how work is scheduled.
A substream key is a stage code followed by small indices. `SeedSequence`
pads a key of fewer than four words with zeros, so (seed, a, b) and
(seed, a, b, 0) name the same stream.

The layout, recorded as RNG_LAYOUT in every manifest:

- (STAGE_PARAM_DRAW,): all parameter draws of an ensemble, one (count, p)
  block whose row k is member k's;
- (STAGE_CONDSIM, member): one conditional field draw, an ensemble member;
- (STAGE_FIELD_UNCOND, stage, member): one field draw with zero observed
  sites, for the purpose `stage` names (STAGE_SYNTH for a synthetic truth);
- (STAGE_MEANFIELD, member): one mean-field draw;
- (STAGE_SYNTH, 0): a synthetic transform stack's diurnal coefficients and
  site-mean scatter;
- (STAGE_EVAL, 0): the tie-breaks of one quantity's verdicts, drawn anew
  for each quantity (`verify.verdicts`): the truth's rank at each time,
  then its coverage rank.

A field draw's generator gives the high band and then the low band, each a
(2, K, m) block of real parts then imaginary parts in frequency order.
"""

import numpy as np

# Stage codes for substream keys.
STAGE_PARAM_DRAW = 1
STAGE_CONDSIM = 2
STAGE_MEANFIELD = 3
STAGE_SYNTH = 4
STAGE_EVAL = 5
STAGE_FIELD_UNCOND = 6

# names the layout above; a change to any seeded draw gives it a new name
RNG_LAYOUT = "per-member-v3"


# a string annotation: numpy.random then loads at the first draw, and `fit` draws none
def substream(seed: int, *key: int) -> "np.random.Generator":
    """Generator for the substream identified by (seed, *key).

    Deterministic: the same (seed, key) always yields the same stream, and
    keys that differ after the zero padding yield independent streams.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed), *map(int, key))))
