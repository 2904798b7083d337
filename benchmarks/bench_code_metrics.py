"""E5 — "typically, 50% or more of the code will deal with error checking
or other software control functions" (paper §1).

One impartial AST classifier measures the error-handling line fraction of
(a) the hand-coded sockets-style ARQ, (b) the DSL protocol *definitions*
(packet spec + machine builders — where the paper says protocol logic
should live), and (c) the ARQ role classes, the one copy of the driver
code that the simulator, the serve session manager and the socket
client all host.  Expected shape: baseline highest; pure definitions
near zero; roles in between.
"""

import inspect

from conftest import record_table

import repro.baseline.sockets_arq as baseline_module
from repro.analysis import measure_module, measure_source
from repro.protocols import arq


def definition_source():
    import repro.protocols.arq as arq_module

    pieces = [
        inspect.getsource(arq_module.build_sender_spec),
        inspect.getsource(arq_module.build_receiver_spec),
    ]
    return "\n".join(pieces)


def role_source():
    return inspect.getsource(arq.ArqSender) + inspect.getsource(arq.ArqReceiver)


def test_error_handling_density(benchmark):
    baseline_metrics = measure_module(baseline_module)
    definitions = measure_source(definition_source(), name="dsl definitions")
    roles = measure_source(role_source(), name="dsl roles")
    rows = [
        (
            "sockets-style baseline",
            baseline_metrics.code_lines,
            baseline_metrics.error_handling_lines,
            f"{baseline_metrics.error_fraction:.1%}",
        ),
        (
            "DSL protocol definitions",
            definitions.code_lines,
            definitions.error_handling_lines,
            f"{definitions.error_fraction:.1%}",
        ),
        (
            "DSL roles (IO glue)",
            roles.code_lines,
            roles.error_handling_lines,
            f"{roles.error_fraction:.1%}",
        ),
    ]
    record_table(
        "E5",
        "error-handling line fraction (one AST classifier for all)",
        ["body", "code lines", "error lines", "fraction"],
        rows,
        notes=(
            "paper claims >=50% for C sockets code; Python's exceptions "
            "compress that, but the ordering (baseline >> roles >> "
            "definitions ~ 0%) is the claim's shape"
        ),
    )
    assert definitions.error_fraction == 0.0
    assert baseline_metrics.error_fraction > definitions.error_fraction
    assert baseline_metrics.error_fraction > roles.error_fraction
    benchmark(measure_module, baseline_module)
