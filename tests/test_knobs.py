"""The package's settable values, pinned so they do not grow back.

A ``REPRO_*`` variable left in a shell changes what every inheriting
process runs, including the server a benchmark measures, so ``src/``
reads only the two variables that say where telemetry goes.  The
compiled codec tier has two modes, ``off`` and ``always``, plus the
``verify`` cross-check.
"""

import dataclasses
import pathlib
import re

import repro
from repro.conformance.__main__ import build_parser
from repro.fastpath import FastPath
from repro.fastpath.policy import MODES

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


def test_fastpath_policy_is_a_mode_and_a_verify_flag():
    assert [field.name for field in dataclasses.fields(FastPath)] == ["mode", "verify"]
    assert MODES == ("off", "always")


def test_conformance_cli_offers_the_policy_modes_plus_verify():
    (action,) = [a for a in build_parser()._actions if "--fastpath" in a.option_strings]
    assert tuple(action.choices) == (*MODES, "verify")
