"""Session-wide test setup."""

import sys

# When a property fails, Hypothesis's pytest plugin writes a failure patch
# through hypothesis.extra._patching, which imports libcst if it is
# installed. That import raises a DeprecationWarning, which -W error turns
# into an INTERNALERROR that ends the session before the remaining test
# files run. A None entry makes the import fail, so the plugin takes its
# "patch writer unavailable" path; the falsifying example is still printed.
sys.modules["hypothesis.extra._patching"] = None
