"""Gaussian-CGS constants shared by every formula in the package.

``CGS`` is a plain namespace of four class attributes, read as ``CGS.c``
and so on; it is never instantiated or configured.  The bounds on the
characteristic integration's steps and on the grid sizes live here too, so
that loading a config does not import the integrator.
"""

from __future__ import annotations


class CGS:
    """Fundamental constants in Gaussian-CGS units.

    c is the speed of light (cm/s), hbar the reduced Planck constant
    (erg*s), e the elementary charge (esu) and m the electron mass (g).
    """

    c = 2.99792458e10
    hbar = 1.054571817e-27
    e = 4.80320471257e-10
    m = 9.1093837015e-28


#: Minimum integration steps per spatial modulation period traversed.
MIN_STEPS_PER_PERIOD = 1000

#: Most steps per period a config may ask for.  Simpson's error on the
#: e^{+-iw'z/c} terms, (2 pi / n)**4 / 2880 of the span at n steps per
#: period, is 4.7e-19 here, far below rounding.
MAX_STEPS_PER_PERIOD = 2**15

#: Most probe offsets, and most time samples, a config may ask for: four
#: times 2**20 samples, whose ``evolve`` peaks at about 100 MB.
MAX_GRID_SAMPLES = 2**22

#: Most z.theta * grids.t.samples_per_period a config may ask for.  evolve
#: writes times from t0 = theta / w' in steps dt = 2 pi / (w' spp), and
#: pulse-stats refuses a step off by more than 1e-9 dt.  ulp(t0) reaches
#: that near theta * spp = 2 pi 1e-9 2**52 = 2.8e7; steps were refused
#: from 4.9e7, so this keeps about 5 times margin.
MAX_PLANE_SAMPLES = 10**7

#: Default half-width (rad/s) of the exclusion band around resonance poles.
#: The model is lossless, so denominators are left unregularized and
#: evaluation inside the band is refused instead.
DEFAULT_GUARD = 1e6
