"""``pytest bench/``: import ``repro`` from this checkout's ``src/``."""

from bench import use_src

use_src()
