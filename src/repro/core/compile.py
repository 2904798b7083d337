"""Code generation: from a packet spec to standalone Python source.

Section 5 of the paper claims that "if an implementation is created from
the DSL, then it must operate correctly, simply by the properties obtained
from use of dependent type systems".  This module is the staging half of
that claim: :func:`generate_codec_source` emits a self-contained Python
module (no imports beyond the standard library, no dependency on
``repro``) implementing parse / build / verify / make functions for one
spec.  :func:`compile_spec` executes that source and hands back the
functions.

Because the generator walks the *same* spec the interpreted codec walks,
the two implementations are differentially testable: for every packet,
``generated.build == spec.encode`` and ``generated.parse == spec.decode``
(experiment E13 sweeps this and measures the speedup).  Checksums are not
generated at all: a module embeds the kernel source of each algorithm it
uses, the same source ``repro.wire.checksums`` defines the interpreter's
function from.

Generated modules contain:

* ``parse_<name>(data) -> dict`` — field values, raising ``ValueError`` on
  truncated or trailing data;
* ``build_<name>(values) -> bytes`` — verbatim encoding;
* ``verify_<name>(data) -> (dict, list)`` — the §3.4 receive gate in one
  pass: parses as ``parse_<name>`` does (raising where it raises), checks
  each checksum over the received bytes' own spans, then the constants,
  enums, reserved bits and staged symbolic constraints, and returns the
  values with the names of the violated constraints;
* ``make_<name>(kw) -> dict`` — ``PacketSpec.make`` in one function:
  fills defaults, normalizes lists and bytearrays, checks every value's
  type and range, and computes the checksums; it raises ``ValueError``
  (or ``KeyError`` for a missing value) wherever the interpreted ``make``
  raises.  It is the only generated function that computes checksums.

The gate checks every constraint ``PacketSpec`` generated itself, and the
user's symbolic constraints that cannot raise.  The rest
(:func:`residual_constraints`: callables, and predicates that divide or
name a non-integer field) are listed in the module docstring and run
interpreted after the gate.

A sealed machine spec compiles the same way, with the same expression
and predicate translation: :func:`generate_machine_source` emits one
``exec_<T>`` per transition and, where the transition fuses, a
``cohort_<T>`` array kernel that applies it to a whole cohort of
megasim machines with a gather, a hit mask and a scatter (guards
translate to masks: ``&``, ``|`` and ``~`` for ``and``, ``or`` and
``not``).  A transition fuses only where numpy's int64 arithmetic
provably gives Python's results.  The kernels use only operators and
array methods, so this module imports no numpy and compiling a machine
spec imports nothing new.  :func:`compile_machine` executes the source.
"""

from __future__ import annotations

import textwrap
from types import ModuleType
from typing import Any, Callable, Collection, Dict, List, NamedTuple, Optional, Tuple

from repro.core.fields import (
    Bytes,
    ChecksumField,
    Flag,
    Reserved,
    Struct,
    Switch,
    UInt,
    UIntList,
)
from repro.core.statemachine import StateInstance
from repro.core.symbolic import (
    BinOp,
    BoolOp,
    Comparison,
    Const,
    Expr,
    FieldRef,
    Not,
    Predicate,
    Var,
)
from repro.core.verified import Verified
from repro.wire.bits import ByteOrder

_HELPERS = '''
def _read_uint(data, bit, width):
    """Read ``width`` bits at ``bit`` (msb-first) as an unsigned int."""
    end = bit + width
    if end > len(data) * 8:
        raise ValueError("truncated: need %d bits, have %d" % (end, len(data) * 8))
    byte_end = (end + 7) >> 3
    chunk = int.from_bytes(data[bit >> 3:byte_end], "big")
    return (chunk >> ((byte_end << 3) - end)) & ((1 << width) - 1)


def _write_uint(out, bitlen, value, width):
    """Append ``width`` bits of ``value`` to bytearray ``out`` at ``bitlen``."""
    if value < 0 or value >> width:
        raise ValueError("value %r does not fit %d bits" % (value, width))
    end = bitlen + width
    if bitlen & 7 == 0 and width & 7 == 0:
        out += value.to_bytes(width >> 3, "big")
        return end
    byte_end = (end + 7) >> 3
    if len(out) < byte_end:
        out.extend(b"\\x00" * (byte_end - len(out)))
    first = bitlen >> 3
    shift = (byte_end << 3) - end
    span = int.from_bytes(out[first:byte_end], "big") | (value << shift)
    out[first:byte_end] = span.to_bytes(byte_end - first, "big")
    return end


def _patch_uint(out, bit, width, value):
    """Overwrite ``width`` bits of bytearray ``out`` at ``bit`` with ``value``."""
    if width <= 0:
        return
    end = bit + width
    first = bit >> 3
    byte_end = (end + 7) >> 3
    shift = (byte_end << 3) - end
    mask = ((1 << width) - 1) << shift
    span = int.from_bytes(out[first:byte_end], "big")
    out[first:byte_end] = ((span & ~mask) | ((value << shift) & mask)).to_bytes(
        byte_end - first, "big")
'''

class CodegenError(ValueError):
    """Raised when a spec uses features the generator does not stage."""


def _expr_code(expr: Expr, array: bool = False) -> str:
    """Translate a symbolic expression into a Python expression string.

    Variables read the ``values`` dict; with ``array``, an array kernel's
    one variable is its gathered value array ``v``.
    """
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, (Var, FieldRef)):
        if array:
            return "v"
        name = expr.name if isinstance(expr, Var) else expr.field_name
        return f"values[{name!r}]"
    if isinstance(expr, BinOp):
        left = _expr_code(expr.left, array)
        right = _expr_code(expr.right, array)
        return f"({left} {expr.op} {right})"
    raise CodegenError(f"cannot generate code for expression {expr!r}")


class _Layout(NamedTuple):
    """Static layout knowledge while walking fields."""

    static_bit: Optional[int]  # absolute bit offset if statically known
    alignment: Optional[int]  # offset % 8 if statically known


def _advance(layout: _Layout, width: Optional[int]) -> _Layout:
    if width is None:
        return _Layout(None, None)
    static_bit = layout.static_bit + width if layout.static_bit is not None else None
    alignment = (
        (layout.alignment + width) % 8 if layout.alignment is not None else None
    )
    return _Layout(static_bit, alignment)


def _check_checksum_alignment(spec: Any) -> None:
    """Generated checksum covers slice bytes; demand byte-aligned covers.

    The interpreted codec handles sub-byte covered regions; the generator
    deliberately does not, and refuses loudly instead of mis-slicing.
    """
    alignment: Optional[int] = 0
    alignments: Dict[str, Optional[int]] = {}
    for field in spec.fields:
        alignments[field.name] = alignment
        width = field.fixed_bit_width()
        if width is None:
            # Dynamic widths here are whole-byte (Bytes) or element-sized
            # lists; only sub-byte list elements break byte alignment.
            if isinstance(field, UIntList) and field.element_bits % 8 != 0:
                alignment = None
            continue
        if alignment is not None:
            alignment = (alignment + width) % 8
    for field in spec.fields:
        if not isinstance(field, ChecksumField):
            continue
        for covered in field.over or ():
            start = alignments.get(covered)
            covered_field = spec.field_map[covered]
            width = covered_field.fixed_bit_width()
            if start != 0 or (width is not None and width % 8 != 0):
                raise CodegenError(
                    f"spec {spec.name!r}: checksum {field.name!r} covers "
                    f"{covered!r}, which is not statically byte-aligned; "
                    "the code generator only stages byte-aligned covers"
                )


def _check_checksum_kernels(spec: Any) -> None:
    """Refuse checksum algorithms that have no kernel source to stage.

    A built-in algorithm carries the standalone source its interpreted
    function was defined from (``repro.wire.checksums``), and generated
    modules embed that same source.  An algorithm registered at run time
    is only a callable, which a standalone module cannot embed, so its
    specs stay on the interpreted tier.
    """
    for field in spec.fields:
        if isinstance(field, ChecksumField) and field.algorithm.source is None:
            raise CodegenError(
                f"spec {spec.name!r}: checksum {field.name!r} uses "
                f"{field.algorithm.name!r}, a registered algorithm with no "
                "kernel source for the code generator to stage"
            )


_EXACT_FIELD_TYPES = (UInt, Flag, Reserved, Bytes, UIntList, ChecksumField)


def _check_exact_field_types(spec: Any) -> None:
    """Refuse subclassed fields: their overrides cannot be staged.

    The generator emits code from a field's *declared structure*; a
    subclass may override ``encode``/``decode`` with arbitrary Python
    (test harnesses inject faults exactly this way), which generated
    code would silently ignore.  Refusing keeps compiled and interpreted
    tiers semantically identical.
    """
    for field in spec.fields:
        if type(field) not in _EXACT_FIELD_TYPES and not isinstance(
            field, (Struct, Switch)
        ):
            raise CodegenError(
                f"spec {spec.name!r}: field {field.name!r} is a "
                f"{type(field).__name__}, a subclass the code generator "
                "cannot stage faithfully"
            )


def _divides(node: Any) -> bool:
    """True when a symbolic predicate or expression divides or takes a modulus."""
    if isinstance(node, Not):
        return _divides(node.operand)
    if isinstance(node, (Comparison, BoolOp, BinOp)):
        return node.op in ("//", "%") or _divides(node.left) or _divides(node.right)
    return False


def residual_constraints(spec: Any) -> List[Any]:
    """The constraints of ``spec`` that its generated gate does not check.

    The gate checks every constraint ``PacketSpec`` generated itself
    (``spec.generated_constraint_names``) and each user constraint with a
    symbolic predicate that cannot raise.  The interpreter raises
    ``SymbolicError`` for a predicate that divides by zero or names a
    field with no integer value, so those stay residual, with every
    callable predicate: they run interpreted after the gate.
    """
    integer_fields = {field.name for field in spec.fields if field.is_integer_valued()}
    return [
        constraint
        for constraint in spec.constraints
        if constraint.name not in spec.generated_constraint_names
        and not (
            constraint.is_symbolic
            and constraint.predicate.free_variables() <= integer_fields
            and not _divides(constraint.predicate)
        )
    ]


def generate_codec_source(spec: Any) -> str:
    """Emit standalone Python source implementing ``spec``'s codec."""
    _check_exact_field_types(spec)
    _check_checksum_alignment(spec)
    _check_checksum_kernels(spec)
    name = spec.name.lower()
    kernels = {
        field.algorithm.name: field.algorithm.source
        for field in spec.fields
        if isinstance(field, ChecksumField)
    }
    residual = [constraint.name for constraint in residual_constraints(spec)]
    header = [
        f'"""Generated codec for packet spec {spec.name!r}.',
        "",
        "Produced by repro.core.compile.generate_codec_source; do not edit.",
    ]
    if residual:
        header.append(
            f"Residual (non-exportable) constraints: {residual} — "
            "these require the host DSL to check."
        )
    header.append('"""')
    sections = [
        _generate_parse(spec),
        _generate_build(spec),
        _generate_verify(spec, residual),
        _generate_make(spec),
    ]
    parts = [
        "\n".join(header),
        _HELPERS,
        "\n\n".join(kernels[algorithm] for algorithm in sorted(kernels)),
        *("\n".join(lines) + "\n" for lines in sections),
        f"parse = parse_{name}",
        f"build = build_{name}",
        f"verify = verify_{name}",
        f"make = make_{name}",
        f"residual = {tuple(residual)!r}",
        "",
    ]
    return "\n".join(parts)


def _groups(spec: Any) -> List[List[Any]]:
    """The spec's fields in wire order, each fusable run as one group."""
    groups: List[List[Any]] = []
    for field in spec.fields:
        if _is_fusable(field) and groups and _is_fusable(groups[-1][-1]):
            groups[-1].append(field)
        else:
            groups.append([field])
    return groups


def _is_fusable(field: Any) -> bool:
    """True for fixed-width big-endian scalars that can share one word read.

    Runs of such fields are lowered to a single bulk read (or write) of
    the combined width plus shift/mask extraction per field — the key
    speedup over per-field interpretive dispatch for header-style specs.
    """
    if isinstance(field, UInt):
        return field.byteorder is ByteOrder.BIG
    return isinstance(field, (Flag, Reserved, ChecksumField))


def _generate_parse(spec: Any) -> List[str]:
    name = spec.name.lower()
    lines = [
        f"def parse_{name}(data):",
        f'    """Parse bytes into a dict of {spec.name} field values."""',
    ]
    lines.extend(_parse_body(spec, ())[0])
    lines.append("    return values")
    return lines


def _parse_body(spec: Any, needed: Collection[int]) -> Tuple[List[str], Dict[int, str]]:
    """Statements parsing ``data`` into ``values``, and where fields begin.

    Boundary ``i`` is the bit offset at which field ``i`` starts, and
    boundary ``len(spec.fields)`` is the end of the packet.  For each
    boundary in ``needed`` the second result holds an expression for its
    offset, valid once the statements have run: a constant where the
    layout fixes it, else a local captured while parsing.
    """
    lines = ["    values = {}", "    bit = 0"]
    offsets: Dict[int, str] = {}
    layout = _Layout(0, 0)
    index = 0
    for group in _groups(spec):
        base = f"_at{index}"
        inner = 0
        captured = False
        for field in group:
            if index in needed:
                if layout.static_bit is not None:
                    offsets[index] = str(layout.static_bit + inner)
                else:
                    if not captured:
                        lines.append(f"    {base} = bit")
                        captured = True
                    offsets[index] = f"{base} + {inner}" if inner else base
            inner += field.fixed_bit_width() or 0
            index += 1
        if _is_fusable(group[0]):
            lines.extend(_parse_run(group, layout))
        else:
            lines.extend(_parse_field(spec, group[0], layout))
        for field in group:
            layout = _advance(layout, field.fixed_bit_width())
    lines.append("    if bit != len(data) * 8:")
    lines.append(
        "        raise ValueError('trailing data: %d bits unconsumed' % "
        "(len(data) * 8 - bit))"
    )
    if index in needed:
        end = layout.static_bit
        offsets[index] = "bit" if end is None else str(end)
    return lines, offsets


def _parse_run(run: List[Any], layout: _Layout) -> List[str]:
    """One bulk word read covering a run of fixed-width scalar fields."""
    total = sum(field.fixed_bit_width() for field in run)
    lines: List[str] = []
    if (
        layout.alignment == 0
        and total % 8 == 0
        and layout.static_bit is not None
    ):
        start = layout.static_bit // 8
        end = start + total // 8
        lines.append(f"    if len(data) < {end}:")
        lines.append(f"        raise ValueError('truncated at field {run[0].name}')")
        lines.append(f"    _w = int.from_bytes(data[{start}:{end}], 'big')")
    else:
        lines.append(f"    _w = _read_uint(data, bit, {total})")
    offset = total
    for field in run:
        width = field.fixed_bit_width()
        offset -= width
        source = f"(_w >> {offset})" if offset else "_w"
        if isinstance(field, Flag):
            lines.append(f"    values[{field.name!r}] = bool({source} & 1)")
        else:
            lines.append(
                f"    values[{field.name!r}] = {source} & {(1 << width) - 1:#x}"
            )
    lines.append(f"    bit += {total}")
    return lines


def _parse_field(spec: Any, field: Any, layout: _Layout) -> List[str]:
    name = field.name
    lines: List[str] = []
    width = field.fixed_bit_width()
    if isinstance(field, UInt) and field.byteorder is ByteOrder.LITTLE:
        assert width is not None
        lines.append(f"    values[{name!r}] = int.from_bytes(")
        lines.append(
            f"        _read_uint(data, bit, {width}).to_bytes({width // 8}, 'big'),"
        )
        lines.append("        'little')")
        lines.append(f"    bit += {width}")
        return lines
    if isinstance(field, Bytes):
        if field.is_greedy:
            lines.append("    if bit % 8:")
            lines.append("        raise ValueError('greedy field off byte boundary')")
            lines.append(f"    values[{name!r}] = bytes(data[bit // 8:])")
            lines.append("    bit = len(data) * 8")
            return lines
        length_code = _expr_code(field.length)
        lines.append(f"    _len = {length_code}")
        lines.append("    if _len < 0:")
        lines.append(f"        raise ValueError('negative length for {name}')")
        lines.append("    if bit % 8 == 0:")
        lines.append("        _start = bit // 8")
        lines.append("        if _start + _len > len(data):")
        lines.append(f"            raise ValueError('truncated at field {name}')")
        lines.append(f"        values[{name!r}] = bytes(data[_start:_start + _len])")
        lines.append("    else:")
        lines.append(
            f"        values[{name!r}] = bytes(_read_uint(data, bit + 8 * i, 8) "
            "for i in range(_len))"
        )
        lines.append("    bit += _len * 8")
        return lines
    if isinstance(field, UIntList):
        count_code = _expr_code(field.count)
        bits = field.element_bits
        lines.append(f"    _count = {count_code}")
        lines.append("    if _count < 0:")
        lines.append(f"        raise ValueError('negative count for {name}')")
        lines.append(
            f"    values[{name!r}] = tuple(_read_uint(data, bit + {bits} * i, "
            f"{bits}) for i in range(_count))"
        )
        lines.append(f"    bit += {bits} * _count")
        return lines
    raise CodegenError(
        f"spec {spec.name!r}: field {field!r} is not supported by the code "
        "generator (nested Struct/Switch specs must be compiled separately)"
    )


def _generate_build(spec: Any) -> List[str]:
    joined = _generate_build_join(spec)
    if joined is not None:
        return joined
    name = spec.name.lower()
    lines = [
        f"def build_{name}(values, _spans=None):",
        f'    """Encode {spec.name} field values verbatim to bytes."""',
        "    out = bytearray()",
        "    bitlen = 0",
    ]
    for group in _groups(spec):
        if _is_fusable(group[0]):
            lines.extend(_build_run(group))
        else:
            lines.extend(_build_field(spec, group[0]))
    lines.append("    return bytes(out)")
    return lines


def _generate_build_join(spec: Any) -> Optional[List[str]]:
    """Join-mode build for statically byte-aligned specs; None when not.

    The bytearray path above copies every payload twice: once into the
    accumulating buffer (``out.extend``) and once more at ``bytes(out)``.
    When every element of the spec is byte-aligned — fused scalar runs of
    whole-byte total width, whole-byte little-endian ints, and ``Bytes``
    fields — the build can instead collect immutable chunks and flush
    them with one ``b"".join``, so a payload's bytes are copied exactly
    once.  On memcpy-bound specs (UdpDatagram's 33 KB payloads) this is
    the difference between ~1.3x and ~2x over the interpreter.

    Field range checks and error messages are byte-for-byte those of the
    bytearray path; ``UIntList`` and sub-byte-aligned layouts fall back.
    """
    plan: List[Tuple[str, Any]] = []  # ("run", [fields]) | ("field", field)
    for group in _groups(spec):
        field = group[0]
        if _is_fusable(field):
            if sum(f.fixed_bit_width() for f in group) % 8 != 0:
                return None
            plan.append(("run", group))
        elif isinstance(field, (UInt, Bytes)):  # UInt here: little-endian
            plan.append(("field", field))
        else:
            return None  # UIntList (or future shapes): bytearray path
    name = spec.name.lower()
    lines = [
        f"def build_{name}(values, _spans=None):",
        f'    """Encode {spec.name} field values verbatim to bytes."""',
        "    _parts = []",
        "    bitlen = 0",
    ]
    for kind, payload in plan:
        if kind == "run":
            run = payload
            total = sum(f.fixed_bit_width() for f in run)
            lines.append("    _w = 0")
            for field in run:
                width = field.fixed_bit_width()
                lines.append(f"    _v = values[{field.name!r}]")
                if isinstance(field, Flag):
                    lines.append(
                        "    if not isinstance(_v, (bool, int)) "
                        "or _v not in (False, True, 0, 1):"
                    )
                    lines.append(
                        f"        raise ValueError('field {field.name}: value %r "
                        "does not fit 1 bits' % (_v,))"
                    )
                    lines.append("    _w = (_w << 1) | (1 if _v else 0)")
                    continue
                if isinstance(field, UInt):
                    lines.append(
                        "    if _v.__class__ is not int and "
                        "(not isinstance(_v, int) or _v.__class__ is bool):"
                    )
                    lines.append(
                        f"        raise ValueError('field {field.name}: expected "
                        "int, got %r' % (_v,))"
                    )
                elif isinstance(field, Reserved):
                    lines.append("    if _v is None:")
                    lines.append(f"        _v = {field.value}")
                lines.append(f"    if _v < 0 or _v >> {width}:")
                lines.append(
                    f"        raise ValueError('field {field.name}: value %r "
                    f"does not fit {width} bits' % (_v,))"
                )
                lines.append(f"    _w = (_w << {width}) | _v")
            lines.append(f"    _parts.append(_w.to_bytes({total // 8}, 'big'))")
            lines.append("    if _spans is not None:")
            offset = 0
            for field in run:
                width = field.fixed_bit_width()
                lines.append(
                    f"        _spans[{field.name!r}] = "
                    f"(bitlen + {offset}, bitlen + {offset + width})"
                )
                offset += width
            lines.append(f"    bitlen += {total}")
            continue
        field = payload
        if isinstance(field, UInt):  # little-endian whole-byte scalar
            width = field.fixed_bit_width()
            lines.append(f"    _v = values[{field.name!r}]")
            lines.append(
                "    if _v.__class__ is not int and "
                "(not isinstance(_v, int) or _v.__class__ is bool):"
            )
            lines.append(
                f"        raise ValueError('field {field.name}: expected int, "
                "got %r' % (_v,))"
            )
            lines.append(f"    if _v < 0 or _v >> {width}:")
            lines.append(
                f"        raise ValueError('field {field.name}: value %r does "
                f"not fit {width} bits' % (_v,))"
            )
            lines.append(
                f"    _parts.append(_v.to_bytes({width // 8}, 'little'))"
            )
            lines.append("    if _spans is not None:")
            lines.append(
                f"        _spans[{field.name!r}] = (bitlen, bitlen + {width})"
            )
            lines.append(f"    bitlen += {width}")
            continue
        # Bytes: appended as-is; b"".join copies it exactly once.
        lines.append(f"    _data = values[{field.name!r}]")
        if not field.is_greedy:
            length_code = _expr_code(field.length)
            lines.append(f"    if len(_data) != {length_code}:")
            lines.append(
                f"        raise ValueError('field {field.name}: length %d != "
                f"declared %d' % (len(_data), {length_code}))"
            )
        lines.append("    _parts.append(_data)")
        lines.append("    if _spans is not None:")
        lines.append(
            f"        _spans[{field.name!r}] = "
            "(bitlen, bitlen + len(_data) * 8)"
        )
        lines.append("    bitlen += len(_data) * 8")
    lines.append('    return b"".join(_parts)')
    return lines


def _build_run(run: List[Any]) -> List[str]:
    """Accumulate a run of fixed-width scalars into one bulk word write.

    Each field is range-checked individually so error messages still name
    the offending field, then shifted into a single accumulator flushed
    with one ``_write_uint`` call.
    """
    total = sum(field.fixed_bit_width() for field in run)
    lines: List[str] = ["    _start = bitlen", "    _w = 0"]
    for field in run:
        width = field.fixed_bit_width()
        lines.append(f"    _v = values[{field.name!r}]")
        if isinstance(field, Flag):
            # Same domain the interpreter's Flag.check_value accepts.
            lines.append(
                "    if not isinstance(_v, (bool, int)) "
                "or _v not in (False, True, 0, 1):"
            )
            lines.append(
                f"        raise ValueError('field {field.name}: value %r "
                "does not fit 1 bits' % (_v,))"
            )
            lines.append("    _w = (_w << 1) | (1 if _v else 0)")
            continue
        if isinstance(field, UInt):
            # UInt.check_value takes ints (subclasses included), not bools.
            lines.append(
                "    if _v.__class__ is not int and "
                "(not isinstance(_v, int) or _v.__class__ is bool):"
            )
            lines.append(
                f"        raise ValueError('field {field.name}: expected "
                "int, got %r' % (_v,))"
            )
        elif isinstance(field, Reserved):
            # Reserved.encode substitutes its fixed value for None.
            lines.append("    if _v is None:")
            lines.append(f"        _v = {field.value}")
        lines.append(f"    if _v < 0 or _v >> {width}:")
        lines.append(
            f"        raise ValueError('field {field.name}: value %r "
            f"does not fit {width} bits' % (_v,))"
        )
        lines.append(f"    _w = (_w << {width}) | _v")
    lines.append(f"    bitlen = _write_uint(out, bitlen, _w, {total})")
    lines.append("    if _spans is not None:")
    offset = 0
    for field in run:
        width = field.fixed_bit_width()
        lines.append(
            f"        _spans[{field.name!r}] = "
            f"(_start + {offset}, _start + {offset + width})"
        )
        offset += width
    return lines


def _build_field(spec: Any, field: Any) -> List[str]:
    name = field.name
    lines: List[str] = [f"    _start = bitlen"]
    width = field.fixed_bit_width()
    if isinstance(field, UInt) and field.byteorder is ByteOrder.LITTLE:
        assert width is not None
        lines.append(f"    _v = values[{name!r}]")
        lines.append(
            "    if _v.__class__ is not int and "
            "(not isinstance(_v, int) or _v.__class__ is bool):"
        )
        lines.append(
            f"        raise ValueError('field {name}: expected int, "
            "got %r' % (_v,))"
        )
        lines.append(f"    if _v < 0 or _v >> {width}:")
        lines.append(
            f"        raise ValueError('field {name}: value %r does not fit "
            f"{width} bits' % (_v,))"
        )
        lines.append(
            f"    _value = int.from_bytes(_v.to_bytes({width // 8}, "
            "'little'), 'big')"
        )
        lines.append(f"    bitlen = _write_uint(out, bitlen, _value, {width})")
    elif isinstance(field, Bytes):
        lines.append(f"    _data = values[{name!r}]")
        if not field.is_greedy:
            length_code = _expr_code(field.length)
            lines.append(f"    if len(_data) != {length_code}:")
            lines.append(
                f"        raise ValueError('field {name}: length %d != declared %d'"
                f" % (len(_data), {length_code}))"
            )
        lines.append("    if bitlen % 8 == 0:")
        lines.append("        out.extend(_data)")
        lines.append("        bitlen += len(_data) * 8")
        lines.append("    else:")
        lines.append("        for _byte in _data:")
        lines.append("            bitlen = _write_uint(out, bitlen, _byte, 8)")
    elif isinstance(field, UIntList):
        bits = field.element_bits
        count_code = _expr_code(field.count)
        lines.append(f"    _elements = values[{name!r}]")
        lines.append(f"    if len(_elements) != {count_code}:")
        lines.append(
            f"        raise ValueError('field {name}: count %d != declared %d'"
            f" % (len(_elements), {count_code}))"
        )
        lines.append("    for _element in _elements:")
        lines.append(f"        bitlen = _write_uint(out, bitlen, _element, {bits})")
    else:
        raise CodegenError(
            f"spec {spec.name!r}: field {field!r} is not supported by the "
            "code generator"
        )
    lines.append("    if _spans is not None:")
    lines.append(f"        _spans[{name!r}] = (_start, bitlen)")
    return lines


def _cover_runs(spec: Any, field: ChecksumField) -> List[Tuple[int, int]]:
    """The fields a checksum covers, as ``(first, last)`` index runs.

    Covered fields that sit next to each other on the wire form one
    contiguous byte range, so each run of them is a single slice.
    """
    position = {f.name: index for index, f in enumerate(spec.fields)}
    runs: List[Tuple[int, int]] = []
    for covered in field.over or ():
        index = position[covered]
        if runs and index == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], index)
        else:
            runs.append((index, index))
    return runs


def _cover_code(view: str, ranges: List[Tuple[str, str]]) -> str:
    """Source for the bytes a checksum covers: ``ranges`` of memoryview ``view``.

    A cover that is one byte range is handed to the kernel as that
    memoryview slice, without a copy; only covers with gaps are joined.
    """
    slices = [f"{view}[{start}:{end}]" for start, end in ranges]
    if len(slices) == 1:
        return slices[0]
    return f"b''.join(({', '.join(slices)}))"


def _byte_offset(bit_offset: str) -> str:
    """Source for the byte offset of a byte-aligned bit offset expression."""
    if bit_offset.isdigit():
        return str(int(bit_offset) // 8)
    if bit_offset.isidentifier():
        return f"{bit_offset} >> 3"
    return f"({bit_offset}) >> 3"


def _checksum_lines(spec: Any) -> List[str]:
    """``make_<name>``'s statements computing every checksum of ``values``.

    ``values`` holds complete values with each checksum still zero; the
    checksums are computed in field order, each over a buffer in which
    later checksums are still zero.
    """
    name = spec.name.lower()
    fields = spec.fields
    checksum_fields = [f for f in fields if isinstance(f, ChecksumField)]
    if not checksum_fields:
        return []
    lines = ["    spans = {}"]
    if len(checksum_fields) == 1:
        # No later checksum reads the buffer: no patch, so no copy.
        lines.append(f"    _b = memoryview(build_{name}(values, spans))")
    else:
        lines.append(f"    buf = bytearray(build_{name}(values, spans))")
        # A memoryview cover: zero-copy, and it tracks the _patch_uint
        # updates of earlier checksums (same-size patches never resize
        # the bytearray, so the exported view stays valid).
        lines.append("    _b = memoryview(buf)")
    for field in checksum_fields:
        if field.covers_whole_packet:
            lines.append("    cover = _b")
            lines.append("    # checksum field is still zero in buf, per over='*'")
        else:
            ranges = [
                (
                    f"spans[{fields[first].name!r}][0] // 8",
                    f"spans[{fields[last].name!r}][1] // 8",
                )
                for first, last in _cover_runs(spec, field)
            ]
            lines.append(f"    cover = {_cover_code('_b', ranges)}")
        lines.append(f"    _v = {field.algorithm.compute.__name__}(cover)")
        lines.append(f"    values[{field.name!r}] = _v")
        if field is not checksum_fields[-1]:
            lines.append(
                f"    _patch_uint(buf, spans[{field.name!r}][0], {field.bits}, _v)"
            )
    return lines


def _generate_verify(spec: Any, residual: Collection[str]) -> List[str]:
    """The receive gate: one parse, then every staged check of the spec.

    Each checksum is recomputed over the received bytes' own spans —
    re-encoding the decoded values gives those bytes back exactly, which
    is what the interpreted ``compute_one_checksum`` does — and an
    ``over="*"`` checksum over a copy with its own span zeroed.
    """
    name = spec.name.lower()
    fields = spec.fields
    position = {field.name: index for index, field in enumerate(fields)}
    checksum_fields = [f for f in fields if isinstance(f, ChecksumField)]
    covers = {
        field.name: _cover_runs(spec, field)
        for field in checksum_fields
        if not field.covers_whole_packet
    }
    needed = {position[f.name] for f in checksum_fields if f.covers_whole_packet}
    for runs in covers.values():
        for first, last in runs:
            needed.update((first, last + 1))
    body, offsets = _parse_body(spec, needed)
    lines = [
        f"def verify_{name}(data):",
        f'    """Parse and check {spec.name} bytes: (values, violated names)."""',
        *body,
        "    violated = []",
    ]
    if covers:
        lines.append("    _m = memoryview(data)")
    for field in checksum_fields:
        if field.covers_whole_packet:
            lines.append("    _z = bytearray(data)")
            lines.append(
                f"    _patch_uint(_z, {offsets[position[field.name]]}, {field.bits}, 0)"
            )
            cover = "_z"
        else:
            cover = _cover_code(
                "_m",
                [
                    (_byte_offset(offsets[first]), _byte_offset(offsets[last + 1]))
                    for first, last in covers[field.name]
                ],
            )
        lines.append(
            f"    if {field.algorithm.compute.__name__}({cover}) != "
            f"values[{field.name!r}]:"
        )
        lines.append(f"        violated.append('{field.name}_valid')")
    for field in fields:
        if isinstance(field, UInt):
            if field.const is not None:
                lines.append(f"    if values[{field.name!r}] != {field.const}:")
                lines.append(
                    f"        violated.append('{field.name}_is_{field.const}')"
                )
            if field.enum is not None:
                lines.append(
                    f"    if values[{field.name!r}] not in {set(field.enum)!r}:"
                )
                lines.append(f"        violated.append('{field.name}_in_enum')")
        elif isinstance(field, Reserved):
            # A decoded reserved field fails both its shape check and its
            # generated constraint, as in the interpreted walk.
            lines.append(f"    if values[{field.name!r}] != {field.value}:")
            lines.append(
                f"        violated += ('{field.name}_shape', "
                f"'{field.name}_is_{field.value}')"
            )
    for constraint in spec.constraints:
        if constraint.is_symbolic and constraint.name not in residual:
            lines.append(f"    if not {_predicate_code(constraint.predicate)}:")
            lines.append(f"        violated.append({constraint.name!r})")
    lines.append("    return values, violated")
    return lines


def _generate_make(spec: Any) -> List[str]:
    """``PacketSpec.make`` as one function over the keyword dict ``kw``.

    Each check admits exactly the values the interpreted ``make`` admits
    (its encode plus its shape re-check), so a value it rejects raises
    here too, and the caller re-runs the interpreter for the canonical
    error.
    """
    name = spec.name.lower()
    settable = [f.name for f in spec.fields if not isinstance(f, ChecksumField)]
    lines = [
        f"_SETTABLE = frozenset({settable!r})",
        "",
        "",
        f"def make_{name}(kw):",
        f'    """Complete {spec.name} keyword values: defaults, checks, checksums."""',
        "    if not _SETTABLE.issuperset(kw):",
        "        raise ValueError('a checksum or unknown field was supplied')",
        "    values = {}",
    ]
    for field in spec.fields:
        key = repr(field.name)
        fail = f"        raise ValueError('field {field.name}: value rejected')"
        if isinstance(field, ChecksumField):
            lines.append(f"    values[{key}] = 0")
            continue
        if isinstance(field, Reserved):
            lines.append(f"    _v = kw.get({key}, {field.value})")
            lines.append(f"    if not isinstance(_v, int) or _v != {field.value}:")
            lines.append(fail)
        elif isinstance(field, Flag):
            lines.append(f"    _v = kw[{key}]")
            lines.append(
                "    if not isinstance(_v, (bool, int)) "
                "or _v not in (False, True, 0, 1):"
            )
            lines.append(fail)
        elif isinstance(field, UInt):
            if field.const is None:
                lines.append(f"    _v = kw[{key}]")
            else:
                lines.append(f"    _v = kw.get({key}, {field.const})")
            lines.append(
                "    if _v.__class__ is not int and "
                "(not isinstance(_v, int) or _v.__class__ is bool):"
            )
            lines.append(fail)
            lines.append(f"    if _v < 0 or _v > {field.max_value}:")
            lines.append(fail)
        elif isinstance(field, Bytes):
            lines.append(f"    _v = kw[{key}]")
            lines.append("    if _v.__class__ is not bytes:")
            lines.append("        if isinstance(_v, bytearray):")
            lines.append("            _v = bytes(_v)")
            lines.append("        elif not isinstance(_v, bytes):")
            lines.append("    " + fail)
            if not field.is_greedy:
                lines.append(f"    if len(_v) != {_expr_code(field.length)}:")
                lines.append(fail)
        elif isinstance(field, UIntList):
            lines.append(f"    _v = kw[{key}]")
            lines.append("    if isinstance(_v, list):")
            lines.append("        _v = tuple(_v)")
            lines.append("    elif not isinstance(_v, tuple):")
            lines.append(fail)
            lines.append(f"    if len(_v) != {_expr_code(field.count)}:")
            lines.append(fail)
            lines.append("    for _e in _v:")
            lines.append(
                f"        if not isinstance(_e, int) or _e < 0 or _e >> {field.element_bits}:"
            )
            lines.append("    " + fail)
        else:
            raise CodegenError(
                f"spec {spec.name!r}: field {field!r} is not supported by the "
                "code generator"
            )
        lines.append(f"    values[{key}] = _v")
    lines.extend(_checksum_lines(spec))
    lines.append("    return values")
    return lines


def _predicate_code(predicate: Any, array: bool = False) -> str:
    """Translate a symbolic predicate into Python source.

    With ``array`` it is a mask over ``v``: ``&``, ``|`` and ``~``
    replace ``and``, ``or`` and ``not``.
    """
    if isinstance(predicate, Comparison):
        left = _expr_code(predicate.left, array)
        right = _expr_code(predicate.right, array)
        return f"({left} {predicate.op} {right})"
    if isinstance(predicate, BoolOp):
        left = _predicate_code(predicate.left, array)
        right = _predicate_code(predicate.right, array)
        op = ("&" if predicate.op == "and" else "|") if array else predicate.op
        return f"({left} {op} {right})"
    if isinstance(predicate, Not):
        operand = _predicate_code(predicate.operand, array)
        return f"(~{operand})" if array else f"(not {operand})"
    raise CodegenError(f"cannot generate code for predicate {predicate!r}")


class CompiledCodec(NamedTuple):
    """The callable surface of a generated codec module.

    ``residual`` names the constraints ``verify`` leaves to the
    interpreter (:func:`residual_constraints`); names, not the
    constraints, so the codec cache never holds a user predicate that
    might keep its spec alive.
    """

    parse: Callable[[bytes], Dict[str, Any]]
    build: Callable[..., bytes]
    verify: Callable[[bytes], Tuple[Dict[str, Any], List[str]]]
    make: Callable[[Dict[str, Any]], Dict[str, Any]]
    residual: Tuple[str, ...]
    source: str
    module: ModuleType


def compile_spec(spec: Any) -> CompiledCodec:
    """Generate, execute and return the staged codec for ``spec``."""
    source = generate_codec_source(spec)
    module = ModuleType(f"repro_generated_{spec.name.lower()}")
    exec(compile(source, module.__name__, "exec"), module.__dict__)
    return CompiledCodec(
        parse=module.parse,
        build=module.build,
        verify=module.verify,
        make=module.make,
        residual=module.residual,
        source=source,
        module=module,
    )


# -- machine specs -----------------------------------------------------------


def generate_machine_source(spec: Any) -> str:
    """Emit Python source running every transition of a sealed machine spec.

    ``exec_<T>(current, payload, inputs)`` runs transition ``T`` from the
    concrete state ``current``: it matches the source pattern, checks
    the inputs and the payload's evidence, evaluates the guard, and
    computes and normalizes the target.  It returns ``(target,
    bindings)``; ``False`` when the guard alone refused; ``None`` for any
    other refusal, whose canonical error the interpreted walk supplies.
    ``cohort_<T>`` is the whole transition as array operations over a
    cohort of population machines (:func:`_generate_cohort`), for each
    transition that fuses.

    The source names no state object: it matches a state by name and
    reaches a new one through ``current.state.machine``, so the module
    does not keep its spec alive in the weakly keyed compile cache.  A
    callable guard is bound in as ``_guard_<T>`` (so one that refers to
    its own spec does keep it alive).
    """
    sections = []
    cohorts = []
    for transition in spec.transitions:
        sections.append(_generate_exec(transition))
        cohort = _generate_cohort(transition)
        if cohort is not None:
            sections.append(cohort)
            cohorts.append(transition.name)
    names = [transition.name for transition in spec.transitions]
    parts = [
        f'"""Generated transitions for machine spec {spec.name!r}.',
        "",
        "Produced by repro.core.compile.generate_machine_source; do not edit.",
        '"""',
        "",
        *("\n".join(lines) + "\n" for lines in sections),
        "execs = {" + ", ".join(f"{n!r}: exec_{n}" for n in names) + "}",
        "cohorts = {" + ", ".join(f"{n!r}: cohort_{n}" for n in cohorts) + "}",
        "",
    ]
    return "\n".join(parts)


def _generate_exec(transition: Any) -> List[str]:
    """``exec_<T>``: one transition, from source match to normalized target."""
    name = transition.name
    source, target = transition.source, transition.target
    lines = [
        f"def exec_{name}(current, payload, inputs):",
        f'    """{name}: {source!r} -> {target!r}."""',
        "    state = current.state",
        f"    if state.name != {source.state.name!r}:",
        "        return None",
    ]
    if source.args:
        lines.append("    _v = current.values")
    first: Dict[str, int] = {}
    for index, arg in enumerate(source.args):
        if isinstance(arg, Var) and arg.name not in first:
            first[arg.name] = index
            continue
        if isinstance(arg, Var):
            lines.append(f"    if _v[{index}] != _v[{first[arg.name]}]:")
        elif isinstance(arg, Const):
            lines.append(f"    if _v[{index}] != {arg.value!r}:")
        else:
            raise CodegenError(
                f"transition {name!r}: source argument {arg} is neither a "
                "variable nor a constant"
            )
        lines.append("        return None")
    items = ", ".join(f"{var!r}: _v[{index}]" for var, index in first.items())
    lines.append(f"    values = {{{items}}}")
    if transition.inputs:
        declared = ", ".join(repr(n) for n in sorted(transition.inputs))
        lines.append(f"    if inputs.keys() != {{{declared}}}:")
        lines.append("        return None")
        for input_name in transition.inputs:
            lines.append(f"    _i = inputs[{input_name!r}]")
            lines.append("    if not isinstance(_i, int) or _i.__class__ is bool:")
            lines.append("        return None")
            lines.append(f"    values[{input_name!r}] = _i")
    else:
        lines.append("    if inputs:")
        lines.append("        return None")
    requires = transition.requires
    if requires is None:
        lines.append("    if payload is not None:")
    elif requires == "bytes":
        lines.append("    if not isinstance(payload, (bytes, bytearray)):")
    else:
        lines.append(
            "    if not isinstance(payload, _Verified) or "
            f"payload.certificate.spec_name != {requires.name!r}:"
        )
    lines.append("        return None")
    guard = transition.guard
    if isinstance(guard, Predicate):
        lines.append(f"    if not {_predicate_code(guard)}:")
        lines.append("        return False")
    elif guard is not None:
        lines.append(f"    if not _guard_{name}(values, payload):")
        lines.append("        return False")
    computed = []
    for index, (param, arg) in enumerate(zip(target.state.params, target.args)):
        code = _expr_code(arg)
        if param.bits is not None:
            lines.append(f"    _t{index} = ({code}) % {1 << param.bits}")
        else:
            lines.append(f"    _t{index} = {code}")
            lines.append(f"    if _t{index} < 0:")
            lines.append("        return None")
        computed.append(f"_t{index}")
    state = (
        "state"
        if target.state is source.state
        else f"state.machine.states[{target.state.name!r}]"
    )
    arguments = f"({', '.join(computed)},)" if computed else "()"
    lines.append(f"    return _StateInstance({state}, {arguments}), values")
    return lines


#: Array kernels keep every value strictly inside int64, where numpy's
#: integer ``+ - * // %`` and comparisons give Python's results.
_INT64 = 1 << 63


def _interval(node: Any, var: Optional[str], domain: Tuple[int, int]) -> Optional[Tuple[int, int]]:
    """The range of ``node`` while ``var`` ranges over ``domain``, or None.

    None wherever the node's array code might differ from Python's: a
    variable other than ``var``, a ``//`` or ``%`` by anything but a
    nonzero constant, a value of the node or of any subexpression outside
    int64, or a comparison that reads no variable (it would be a Python
    bool, and ``~True`` is ``-2``).  A predicate's range is ``(0, 1)``.
    """
    if isinstance(node, Const):
        low = high = node.value
    elif isinstance(node, Var) and node.name == var:
        low, high = domain
    elif isinstance(node, Not):
        return _interval(node.operand, var, domain)
    elif isinstance(node, (BinOp, Comparison, BoolOp)):
        left = _interval(node.left, var, domain)
        right = _interval(node.right, var, domain)
        if left is None or right is None:
            return None
        if not isinstance(node, BinOp):
            return (0, 1) if node.free_variables() else None
        if node.op in ("//", "%"):
            if not isinstance(node.right, Const) or node.right.value == 0:
                return None
            divisor = node.right.value
            if node.op == "//":
                ends = [left[0] // divisor, left[1] // divisor]
            else:  # Python's modulus takes the divisor's sign
                ends = [0, divisor - (1 if divisor > 0 else -1)]
        else:  # + - * over intervals: the extremes are at the corners
            ends = [node.evaluate_const(a, b) for a in left for b in right]
        low, high = min(ends), max(ends)
    else:
        return None
    return (low, high) if -_INT64 < low and high < _INT64 else None


def _generate_cohort(transition: Any) -> Optional[List[str]]:
    """``cohort_<T>``: the transition as array operations over a cohort, or None.

    ``cohort_<T>(indices, slab, states, target_sid)`` applies the
    transition to the machines at ``indices``, an int64 array of
    *distinct* indices into ``slab`` (the int64 parameter values) and
    ``states`` (the dense state ids).  It gathers the values once, builds
    one hit mask from the source constant and the guard, scatters the
    hits' targets modulo ``2**bits`` and, when the state changes, their
    new state id, and returns the indices that missed, so a population
    can fall through to the next transition of an event group.  The code
    is operators and array methods only, so this module needs no numpy.

    A transition fuses only where that array arithmetic provably equals
    Python's: no payload or inputs, at most one parameter on either end,
    each with ``bits``, a symbolic guard (or none), and an
    :func:`_interval` for the guard and the wrapped target over the
    source parameter's domain.  Population code runs the interpreted walk
    for the rest.
    """
    if transition.requires is not None or transition.inputs:
        return None
    source, target = transition.source, transition.target
    guard = transition.guard
    if len(source.args) > 1 or len(target.args) > 1:
        return None
    if guard is not None and not isinstance(guard, Predicate):
        return None
    for pattern in (source, target):
        if pattern.args and pattern.state.params[0].bits is None:
            return None
    var: Optional[str] = None
    domain = (0, 0)
    tests = []
    if source.args:
        domain = (0, (1 << source.state.params[0].bits) - 1)
        arg = source.args[0]
        if isinstance(arg, Var):
            var = arg.name
        elif _interval(arg, None, domain) is None:
            return None
        else:  # a Const: _generate_exec refuses every other argument
            tests.append(f"(v == {arg.value!r})")
    if guard is not None:
        if _interval(guard, var, domain) is None:
            return None
        tests.append(_predicate_code(guard, array=True))
    update = None
    if target.args:
        wrapped = BinOp("%", target.args[0], Const(1 << target.state.params[0].bits))
        if _interval(wrapped, var, domain) is None:
            return None
        update = _expr_code(wrapped, array=True)
    name = transition.name
    lines = [
        f"def cohort_{name}(indices, slab, states, target_sid):",
        f'    """{name}: {source!r} -> {target!r}."""',
    ]
    reads = update is not None and bool(target.args[0].free_variables())
    if tests or reads:
        lines.append("    v = slab[indices]")
    fired, misses = "indices", "indices[:0]"
    if tests:
        lines.append(f"    hit = {' & '.join(tests)}")
        lines.append("    fired = indices[hit]")
        fired, misses = "fired", "indices[~hit]"
        if reads:
            lines.append("    v = v[hit]")
    if update is not None:
        lines.append(f"    slab[{fired}] = {update}")
    if target.state is not source.state:
        lines.append(f"    states[{fired}] = target_sid")
    lines.append(f"    return {misses}")
    return lines


class CompiledMachine(NamedTuple):
    """The callable surface of a generated machine module, by transition name."""

    execs: Dict[str, Callable[..., Any]]
    cohorts: Dict[str, Callable[..., Any]]
    source: str
    module: ModuleType


def compile_machine(spec: Any) -> CompiledMachine:
    """Generate, execute and return the compiled transitions of ``spec``."""
    source = generate_machine_source(spec)
    module = ModuleType(f"repro_generated_machine_{spec.name.lower()}")
    module.__dict__.update(_StateInstance=StateInstance, _Verified=Verified)
    for transition in spec.transitions:
        if transition.guard is not None and not isinstance(
            transition.guard, Predicate
        ):
            setattr(module, f"_guard_{transition.name}", transition.guard)
    exec(compile(source, module.__name__, "exec"), module.__dict__)
    return CompiledMachine(
        execs=module.execs, cohorts=module.cohorts, source=source, module=module
    )
