"""Pseudo-random generators, sampling algorithms, and bias audits.

The library pairs textbook random-integer and random-sampling methods
(including the deliberately flawed ones found in statistical packages)
with exact combinatorial bounds and statistical experiments that make the
resulting biases visible and reproducible.
"""

from .errors import (
    DegenerateStreamError,
    InfeasibleSizeError,
    ScriptedExhaustedError,
    ShortStreamWarning,
    UnreachableValuesWarning,
)
from .generators import (
    RANDU,
    Generator,
    HashCounterGenerator,
    LcgGenerator,
    LcgParams,
    Mt19937Generator,
    ScriptedGenerator,
    Seed,
    WichmannHillGenerator,
    full_period,
    seed_generator,
)
from .integers import (
    IntDistribution,
    RandomSource,
    exact_distribution,
    floor_even_probability,
    randint_floor,
    randint_mask,
    randint_round,
)
from .sampling import (
    Sample,
    SampleSpec,
    ScriptedSource,
    cormen_sample,
    fisher_yates,
    pikk,
    random_indices,
    reservoir_r,
    vitter_z,
)

__version__ = "0.1.0"
