"""Deterministic RNG substreams.

All randomness in the pipeline flows from one 64-bit seed through named
substreams, so runs are reproducible regardless of how work is scheduled.
A substream key is a stage code followed by small indices. `SeedSequence`
pads a key of fewer than four words with zeros, so (seed, a, b) and
(seed, a, b, 0) name the same stream.

The layout below is recorded as RNG_LAYOUT in every manifest. Each key
has one owner, the one function that makes its generator, and the key's
first word is a stage code that no other function puts first:

- (STAGE_PARAM_DRAW,): all parameter draws of an ensemble, one (count, p)
  block whose row k is member k's (`whittle.sample_params`);
- (STAGE_CONDSIM, member): one conditional field draw, an ensemble member
  (`condsim.run_ensemble`);
- (STAGE_FIELD_UNCOND, STAGE_SYNTH, 0): the field draw of a synthetic
  truth, with zero observed sites (`synth.generate`);
- (STAGE_MEANFIELD, member): one mean-field draw (`meanfield.sample_means`);
- (STAGE_SYNTH, 0): a synthetic transform stack's diurnal coefficients and
  site-mean scatter (`synth.default_stack`);
- (STAGE_EVAL, 0): the tie-breaks of one quantity's verdicts, drawn anew
  for each quantity (`verify.verdicts`): the truth's rank at each time,
  then its coverage rank.

A field draw's generator, passed to `condsim.ConditionalSampler.draw`,
gives the high band and then the low band, each a (2, K, m) block of real
parts then imaginary parts in frequency order.
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
