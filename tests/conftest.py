import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests run the same examples on every run, and a slow machine
# does not fail them on time.
settings.register_profile("natwatch", derandomize=True, deadline=None)
settings.load_profile("natwatch")
# Opt in with --hypothesis-profile=wide: fresh random examples, many more.
settings.register_profile("wide", derandomize=False, deadline=None, max_examples=2000)
