import os

from hypothesis import settings

# With CI set, hypothesis draws the same examples on every run and prints the blob
# that replays a failure, so a red CI run reproduces locally with CI=1.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
