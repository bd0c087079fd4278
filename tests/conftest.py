"""Shared test setup: a derandomised hypothesis profile, so that the
property tests draw the same examples on every run and write no example
database."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                              max_examples=40)
    settings.load_profile("tier1")
