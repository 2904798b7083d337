"""Code generation: from a packet spec to standalone Python source.

Section 5 of the paper claims that "if an implementation is created from
the DSL, then it must operate correctly, simply by the properties obtained
from use of dependent type systems".  This module is the staging half of
that claim: :func:`generate_codec_source` emits a self-contained Python
module (no imports beyond the standard library, no dependency on
``repro``) implementing parse / build / checksum / validate functions for
one spec.  :func:`compile_spec` executes that source and hands back the
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
* ``finalize_<name>(values) -> dict`` — computes checksum fields;
* ``validate_<name>(values) -> list`` — names of violated constraints
  (checksums, constants, enums, reserved bits; callable constraints are
  not exportable and are listed in the module docstring as residuals).
"""

from __future__ import annotations

import textwrap
from types import ModuleType
from typing import Any, Callable, Dict, List, NamedTuple, Optional

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
from repro.core.symbolic import BinOp, Const, Expr, FieldRef, Var
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


def _expr_code(expr: Expr, env_name: str = "values") -> str:
    """Translate a symbolic expression into a Python expression string."""
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, (Var, FieldRef)):
        name = expr.name if isinstance(expr, Var) else expr.field_name
        return f"{env_name}[{name!r}]"
    if isinstance(expr, BinOp):
        left = _expr_code(expr.left, env_name)
        right = _expr_code(expr.right, env_name)
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


def generate_codec_source(spec: Any) -> str:
    """Emit standalone Python source implementing ``spec``'s codec."""
    _check_exact_field_types(spec)
    _check_checksum_alignment(spec)
    _check_checksum_kernels(spec)
    name = spec.name.lower()
    parse_lines = _generate_parse(spec)
    build_lines = _generate_build(spec)
    finalize_lines = _generate_finalize(spec)
    validate_lines = _generate_validate(spec)
    kernels = {
        field.algorithm.name: field.algorithm.source
        for field in spec.fields
        if isinstance(field, ChecksumField)
    }
    residual = [
        constraint.name
        for constraint in spec.constraints
        if not constraint.is_symbolic and not constraint.name.endswith("_valid")
        and not constraint.name.startswith(tuple(f"{f.name}_is_" for f in spec.fields))
        and not constraint.name.endswith("_in_enum")
    ]
    header = [
        f'"""Generated codec for packet spec {spec.name!r}.',
        "",
        "Produced by repro.core.compile.generate_codec_source; do not edit.",
    ]
    if residual:
        header.append(
            f"Residual (non-exportable) constraints: {sorted(residual)} — "
            "these require the host DSL to check."
        )
    header.append('"""')
    parts = [
        "\n".join(header),
        _HELPERS,
        "\n\n".join(kernels[algorithm] for algorithm in sorted(kernels)),
        "\n".join(parse_lines),
        "",
        "\n".join(build_lines),
        "",
        "\n".join(finalize_lines),
        "",
        "\n".join(validate_lines),
        "",
        f"parse = parse_{name}",
        f"build = build_{name}",
        f"finalize = finalize_{name}",
        f"validate = validate_{name}",
        "",
    ]
    return "\n".join(parts)


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
        "    values = {}",
        "    bit = 0",
    ]
    layout = _Layout(0, 0)
    fields = list(spec.fields)
    index = 0
    while index < len(fields):
        field = fields[index]
        if _is_fusable(field):
            run = [field]
            while index + len(run) < len(fields) and _is_fusable(
                fields[index + len(run)]
            ):
                run.append(fields[index + len(run)])
            lines.extend(_parse_run(run, layout))
            for fused in run:
                layout = _advance(layout, fused.fixed_bit_width())
            index += len(run)
        else:
            lines.extend(_parse_field(spec, field, layout))
            layout = _advance(layout, field.fixed_bit_width())
            index += 1
    lines.append("    if bit != len(data) * 8:")
    lines.append(
        "        raise ValueError('trailing data: %d bits unconsumed' % "
        "(len(data) * 8 - bit))"
    )
    lines.append("    return values")
    return lines


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
    fields = list(spec.fields)
    index = 0
    while index < len(fields):
        field = fields[index]
        if _is_fusable(field):
            run = [field]
            while index + len(run) < len(fields) and _is_fusable(
                fields[index + len(run)]
            ):
                run.append(fields[index + len(run)])
            lines.extend(_build_run(run))
            index += len(run)
        else:
            lines.extend(_build_field(spec, field))
            index += 1
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
    fields = list(spec.fields)
    index = 0
    while index < len(fields):
        field = fields[index]
        if _is_fusable(field):
            run = [field]
            while index + len(run) < len(fields) and _is_fusable(
                fields[index + len(run)]
            ):
                run.append(fields[index + len(run)])
            if sum(f.fixed_bit_width() for f in run) % 8 != 0:
                return None
            plan.append(("run", run))
            index += len(run)
            continue
        if isinstance(field, UInt) and field.byteorder is ByteOrder.LITTLE:
            plan.append(("field", field))
        elif isinstance(field, Bytes):
            plan.append(("field", field))
        else:
            return None  # UIntList (or future shapes): bytearray path
        index += 1
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


def _cover_code(spec: Any, field: ChecksumField, view: str) -> str:
    """Source for the bytes a checksum covers, sliced from memoryview ``view``.

    Covered fields that sit next to each other on the wire form one
    contiguous byte range, so each run of them is a single slice.  A
    cover that is one run is handed to the kernel as that memoryview,
    without a copy; only covers with gaps are joined.
    """
    position = {f.name: index for index, f in enumerate(spec.fields)}
    runs: List[List[str]] = []
    for covered in field.over or ():
        if runs and position[covered] == position[runs[-1][-1]] + 1:
            runs[-1].append(covered)
        else:
            runs.append([covered])
    slices = [
        f"{view}[spans[{run[0]!r}][0] // 8:spans[{run[-1]!r}][1] // 8]"
        for run in runs
    ]
    if len(slices) == 1:
        return slices[0]
    return f"b''.join(({', '.join(slices)}))"


def _generate_finalize(spec: Any) -> List[str]:
    name = spec.name.lower()
    checksum_fields = [f for f in spec.fields if isinstance(f, ChecksumField)]
    lines = [
        f"def finalize_{name}(values):",
        f'    """Return values with every checksum field computed."""',
        "    work = dict(values)",
    ]
    if not checksum_fields:
        lines.append("    return work")
        return lines
    for field in checksum_fields:
        lines.append(f"    work[{field.name!r}] = 0")
    lines.append("    spans = {}")
    if len(checksum_fields) == 1:
        # No later checksum reads the buffer: no patch, so no copy.
        lines.append(f"    _b = memoryview(build_{name}(work, spans))")
    else:
        lines.append(f"    buf = bytearray(build_{name}(work, spans))")
        # A memoryview cover: zero-copy, and it tracks the _patch_uint
        # updates of earlier checksums (same-size patches never resize
        # the bytearray, so the exported view stays valid).
        lines.append("    _b = memoryview(buf)")
    for field in checksum_fields:
        if field.covers_whole_packet:
            lines.append("    cover = _b")
            lines.append("    # checksum field is still zero in buf, per over='*'")
        else:
            lines.append(f"    cover = {_cover_code(spec, field, '_b')}")
        lines.append(f"    _v = {field.algorithm.compute.__name__}(cover)")
        lines.append(f"    work[{field.name!r}] = _v")
        if field is not checksum_fields[-1]:
            lines.append(
                f"    _patch_uint(buf, spans[{field.name!r}][0], {field.bits}, _v)"
            )
    lines.append("    return work")
    return lines


def _generate_validate(spec: Any) -> List[str]:
    name = spec.name.lower()
    lines = [
        f"def validate_{name}(values):",
        f'    """Return the names of violated (exportable) constraints."""',
        "    violations = []",
    ]
    for field in spec.fields:
        if isinstance(field, ChecksumField):
            function = field.algorithm.compute.__name__
            lines.append("    spans = {}")
            if field.covers_whole_packet:
                lines.append(f"    buf = bytearray(build_{name}(values, spans))")
                lines.append(f"    _s, _e = spans[{field.name!r}]")
                lines.append("    _patch_uint(buf, _s, _e - _s, 0)")
                lines.append("    cover = memoryview(buf)")
            else:
                lines.append(f"    _b = memoryview(build_{name}(values, spans))")
                lines.append(f"    cover = {_cover_code(spec, field, '_b')}")
            lines.append(f"    if {function}(cover) != values[{field.name!r}]:")
            lines.append(f"        violations.append('{field.name}_valid')")
        elif isinstance(field, UInt):
            if field.const is not None:
                lines.append(
                    f"    if values[{field.name!r}] != {field.const}:"
                )
                lines.append(
                    f"        violations.append('{field.name}_is_{field.const}')"
                )
            if field.enum is not None:
                allowed = sorted(field.enum)
                lines.append(
                    f"    if values[{field.name!r}] not in {set(allowed)!r}:"
                )
                lines.append(
                    f"        violations.append('{field.name}_in_enum')"
                )
        elif isinstance(field, Reserved):
            lines.append(f"    if values[{field.name!r}] != {field.value}:")
            lines.append(
                f"        violations.append('{field.name}_is_{field.value}')"
            )
    for constraint in spec.constraints:
        if constraint.is_symbolic:
            code = _predicate_code(constraint.predicate)
            lines.append(f"    if not ({code}):")
            lines.append(f"        violations.append({constraint.name!r})")
    lines.append("    return violations")
    return lines


def _predicate_code(predicate: Any) -> str:
    """Translate a symbolic predicate into Python source."""
    from repro.core.symbolic import BoolOp, Comparison, Not

    if isinstance(predicate, Comparison):
        left = _expr_code(predicate.left)
        right = _expr_code(predicate.right)
        return f"({left} {predicate.op} {right})"
    if isinstance(predicate, BoolOp):
        left = _predicate_code(predicate.left)
        right = _predicate_code(predicate.right)
        return f"({left} {predicate.op} {right})"
    if isinstance(predicate, Not):
        return f"(not {_predicate_code(predicate.operand)})"
    raise CodegenError(f"cannot generate code for predicate {predicate!r}")


class CompiledCodec(NamedTuple):
    """The callable surface of a generated codec module."""

    parse: Callable[[bytes], Dict[str, Any]]
    build: Callable[..., bytes]
    finalize: Callable[[Dict[str, Any]], Dict[str, Any]]
    validate: Callable[[Dict[str, Any]], List[str]]
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
        finalize=module.finalize,
        validate=module.validate,
        source=source,
        module=module,
    )
