"""Performance-set builders shared by the test modules.

``Performance`` rows and ``PerformanceSet.from_parts`` both normalize
through ``normalize_parts``, so a set built here is bit for bit the set
the same values give either way.
"""

from prtradeoff import PerformanceSet, sample_parts, uniform_spec


def roc_pset(points, prior=0.5):
    """The set of the ROC points (fpr, tpr) at the given positive prior."""
    q = 1.0 - prior
    return PerformanceSet.from_parts([(q * (1 - x), q * x, prior * (1 - y), prior * y) for x, y in points])


def random_pset(seed, n, spec=None):
    """n performances drawn from the family, uniform over the simplex unless given."""
    return PerformanceSet.from_parts(sample_parts(spec or uniform_spec(), seed, n))
