"""Hypothesis settings shared by every test module."""

from hypothesis import settings

# Property tests draw fresh examples on every run, so each run can find a new input.  A
# failing draw prints the @reproduce_failure blob that replays it in any checkout, not
# only in the one whose .hypothesis/ database recorded it.
settings.register_profile("tier1", print_blob=True)
settings.load_profile("tier1")
