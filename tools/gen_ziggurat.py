#!/usr/bin/env python3
"""Regenerate ``src/repro/rnic/_ziggurat.py``, numpy's ziggurat tables.

numpy's ``Generator.standard_normal`` and ``standard_exponential`` use
the ziggurat method (Marsaglia & Tsang 2000) with six 256-entry tables
(``ki/wi/fi`` for the normal, ``ke/we/fe`` for the exponential).  The
bulk jitter replay in :mod:`repro.rnic.jitter` needs them bit for bit.
numpy ships them only compiled, as the local ``{ki,wi,fi,ke,we,fe}_double``
symbols in the ``.rodata`` of ``numpy/random/lib/libnpyrandom.a``; this
script reads the static archive and its ELF symbol tables directly (no
``nm``/``objdump`` needed)::

    python tools/gen_ziggurat.py
    python tools/gen_ziggurat.py --archive path/to/libnpyrandom.a

The package never runs this: the tables are committed, and the replay
checks itself against numpy's public calls before it is used.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import struct
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
MODULE = REPO / "src" / "repro" / "rnic" / "_ziggurat.py"
#: (symbol, element kind): ``ki``/``ke`` hold uint64 thresholds, the
#: rest doubles.
TABLES = (("ki_double", "Q"), ("wi_double", "d"), ("fi_double", "d"),
          ("ke_double", "Q"), ("we_double", "d"), ("fe_double", "d"))
ENTRIES = 256


def default_archive() -> pathlib.Path:
    """``libnpyrandom.a`` of the numpy this interpreter imports."""
    import numpy
    return pathlib.Path(numpy.__file__).parent / "random" / "lib" / \
        "libnpyrandom.a"


def archive_members(data: bytes):
    """Yield the member payloads of a System V / GNU ``ar`` archive."""
    if not data.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos = 8
    while pos + 60 <= len(data):
        header = data[pos:pos + 60]
        if header[58:60] != b"`\n":
            raise ValueError(f"bad ar member header at byte {pos}")
        size = int(header[48:58].decode("ascii").strip())
        yield data[pos + 60:pos + 60 + size]
        pos += 60 + size + (size & 1)


def elf_symbols(obj: bytes) -> tuple[str, dict[str, bytes]]:
    """The byte order (a ``struct`` prefix) of a 64-bit ELF relocatable
    object, and each defined symbol mapped to the bytes it covers in
    its section."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2:
        return "<", {}
    endian = "<" if obj[5] == 1 else ">"
    shoff, = struct.unpack_from(endian + "Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from(endian + "HH", obj, 0x3A)
    sections = [struct.unpack_from(endian + "IIQQQQIIQQ", obj,
                                   shoff + i * shentsize)
                for i in range(shnum)]
    symbols = {}
    for sh_type, offset, size, link, entsize in (
            (s[1], s[4], s[5], s[6], s[9]) for s in sections):
        if sh_type != 2:  # SHT_SYMTAB
            continue
        strtab_offset = sections[link][4]
        for start in range(offset, offset + size, entsize):
            name, _info, _other, shndx, value, sym_size = struct.unpack_from(
                endian + "IBBHQQ", obj, start)
            if not name or shndx == 0 or shndx >= shnum:
                continue
            end = obj.index(b"\0", strtab_offset + name)
            label = obj[strtab_offset + name:end].decode("ascii")
            base = sections[shndx][4] + value
            symbols[label] = obj[base:base + sym_size]
    return endian, symbols


def read_tables(archive: pathlib.Path) -> dict[str, tuple]:
    """The six tables from ``archive``, keyed by symbol name."""
    found = {}
    for member in archive_members(archive.read_bytes()):
        endian, symbols = elf_symbols(member)
        for name, kind in TABLES:
            if name in symbols and name not in found:
                raw = symbols[name]
                if len(raw) != 8 * ENTRIES:
                    raise ValueError(f"{name}: {len(raw)} bytes, "
                                     f"expected {8 * ENTRIES}")
                found[name] = struct.unpack(endian + kind * ENTRIES, raw)
    missing = [name for name, _ in TABLES if name not in found]
    if missing:
        raise ValueError(f"{archive}: no symbol {', '.join(missing)}")
    return found


def render(tables: dict[str, tuple], numpy_version: str) -> str:
    """The generated module's source.  Each table is one little-endian
    hex string, unpacked at import: 1,536 numeric literals would cost
    several milliseconds to compile on every uncached import."""
    lines = [
        '"""numpy\'s ziggurat tables, for the bulk jitter replay in',
        ":mod:`repro.rnic.jitter`.",
        "",
        "Generated by ``python tools/gen_ziggurat.py`` from the",
        "``{ki,wi,fi,ke,we,fe}_double`` symbols of numpy "
        f"{numpy_version}'s",
        "``numpy/random/lib/libnpyrandom.a``.  Do not edit.",
        '"""',
        "",
        "import struct",
        "",
        "",
        "def _table(kind: str, digits: str) -> tuple:",
        f'    return struct.unpack("<{ENTRIES}" + kind, bytes.fromhex(digits))',
    ]
    for name, kind in TABLES:
        digits = struct.pack(f"<{ENTRIES}{kind}", *tables[name]).hex()
        lines += ["", "", f'{name[:2].upper()} = _table("{kind}", (']
        lines += [f'    "{digits[i:i + 64]}"' for i in range(0, len(digits), 64)]
        lines.append("))")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--archive", type=pathlib.Path, default=None,
                        help="libnpyrandom.a to read (default: numpy's)")
    args = parser.parse_args(argv)
    import numpy
    archive = args.archive or default_archive()
    if not os.path.exists(archive):
        print(f"{archive}: not found", file=sys.stderr)
        return 2
    MODULE.write_text(render(read_tables(archive), numpy.__version__))
    print(f"wrote {MODULE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
