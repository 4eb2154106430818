"""Shared test set-up: one deterministic, small hypothesis profile, so the
property tests draw the same examples on every run and stay cheap."""

from hypothesis import settings

settings.register_profile("ptshannon", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("ptshannon")
