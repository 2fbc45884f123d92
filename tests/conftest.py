"""Hypothesis profiles for this suite.

``mutants`` is the profile ``tests/mutants.py`` runs under: a property that
fails under a mutant only has to fail, so the profile reuses and generates
examples but does not shrink the failing one.  Settings objects that the
test modules build inherit its phases.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))
