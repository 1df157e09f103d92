"""Hypothesis profiles of the test suite.

`tier1`, loaded by default, derives every property's draws from the test
itself (derandomize), so the suite's verdict depends only on the tree and
not on the example database or the clock.  `randomized` draws afresh from
the seed given as `--hypothesis-seed`; CI runs it so that new
counterexamples turn up, and each one found is replayed there and kept as
an `@example` row or a row of recorded draws.  Select it with
`--hypothesis-profile=randomized`.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("tier1")
