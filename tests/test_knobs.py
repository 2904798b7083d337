"""The package's environment knobs are its deployment paths, nothing more.

A ``REPRO_*`` variable left in a shell changes what every inheriting
process runs, including the server a benchmark measures, so ``src/``
reads only the two variables that say where telemetry goes.
"""

import pathlib
import re

import repro

DEPLOYMENT_PATHS = {"REPRO_OBS_EXPORT", "REPRO_OBS_FLIGHTREC"}


def test_only_deployment_paths_are_environment_variables():
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    names = set()
    for path in src.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            text = path.read_text(encoding="utf-8", errors="ignore")
            names.update(re.findall(r"REPRO_[A-Z_]+", text))
    assert names == DEPLOYMENT_PATHS, (
        f"src/ reads {sorted(names)}; only {sorted(DEPLOYMENT_PATHS)} are "
        "allowed. Name the caller or the measurement that needs a new "
        "variable before adding it, and add it here."
    )
