#!/usr/bin/env python3
"""Count the values lib/ exports and which files read them, from the
compiler's own index.

Run from the root of a checkout, after `dune build @check` (which
writes the .cmt of every library, executable and test):

    dune build @check && python3 tools/exports.py

Every `val` of `lib/**/*.mli` is one exported value. The script runs
`ocamlcmt -annot` on each .cmt under lib, bin, bench, perfbench,
examples and test, and matches every `int_ref` that resolves into a
`lib/**/*.mli` to the `val` declared at that byte offset. A reference
from the .ml beside the .mli is the module's own use; any other file
is a reader. It prints the number of exported values, the values no
other file reads and the values only test/ reads, and exits 1 when a
value outside EXCEPTIONS is read by no other file (or when a reference
could not be resolved, so the index would be incomplete).

Last it prints lib/'s code lines: the non-blank lines of
`lib/**/*.ml` and `lib/**/*.mli` that hold something outside comments.
"""

import glob
import os
import re
import subprocess
import sys

BUILD = os.path.join("_build", "default")
SOURCES = ["lib", "bin", "bench", "perfbench", "examples", "test"]

# Exported values that may stay unread by other files, with the reason.
EXCEPTIONS = {
    "Fig6.fraction_within": "the helper ROADMAP item 7's claim predicates "
    "need (share of Figure 6 draws within a bound of the optimum)",
}

LOCATION = re.compile(r'^"([^"]*)" \d+ \d+ \d+ "[^"]*" \d+ \d+ \d+$')
REF = re.compile(r'^  int_ref (.*) "([^"]*)" \d+ \d+ (\d+) "[^"]*" \d+ \d+ \d+$')
EXT_REF = re.compile(r"^  ext_ref (.*)$")
IDENT = re.compile(rb"[A-Za-z_][A-Za-z0-9_']*")


def blank_comments(data):
    """`data` with every byte of every comment turned into a space,
    newlines kept, so offsets do not move. Comments nest, and string
    literals are skipped inside and outside them, as the OCaml lexer
    reads them."""
    out = bytearray(data)
    i, n, depth = 0, len(data), 0
    while i < n:
        opens = data.startswith(b"(*", i)
        closes = depth > 0 and data.startswith(b"*)", i)
        if opens or closes:
            j = i + 2
        elif data[i : i + 1] == b'"':
            j = skip_string(data, i)
        elif depth == 0 and data.startswith(b"'\"'", i):
            j = i + 3
        else:
            j = i + 1
        if depth > 0 or opens:
            out[i:j] = bytes(b if b == 10 else 32 for b in data[i:j])
        depth += opens - closes
        i = j
    return bytes(out)


def mli_vals(path):
    """The `val`s of one interface: [(byte offset, qualified name)].

    A small scanner over the bytes with the comments blanked: string
    literals are skipped, `module X : sig ... end` nests the names.
    Offsets are byte offsets, as the compiler counts them (the
    interfaces hold UTF-8 such as Σ and γ)."""
    data = blank_comments(open(path, "rb").read())
    top = os.path.splitext(os.path.basename(path))[0].capitalize()
    vals, stack, pending = [], [top], None
    i, n = 0, len(data)
    while i < n:
        c = data[i : i + 1]
        if c == b'"':
            i = skip_string(data, i)
            continue
        if data.startswith(b"'\"'", i):
            i += 3
            continue
        m = IDENT.match(data, i)
        if not m or (i > 0 and IDENT.match(data[i - 1 : i])):
            i += 1
            continue
        word = m.group().decode()
        if word == "module":
            name = IDENT.match(data, skip_blank(data, m.end()))
            if name and name.group() == b"type":
                name = IDENT.match(data, skip_blank(data, name.end()))
            pending = name.group().decode() if name else None
        elif word == "sig":
            stack.append(pending or "_")
            pending = None
        elif word in ("struct", "object"):
            stack.append("_")
        elif word == "end" and len(stack) > 1:
            stack.pop()
        elif word in ("val", "external"):
            j = skip_blank(data, m.end())
            if data.startswith(b"(", j):
                name = data[j : data.index(b")", j) + 1].decode()
                name = "(" + name[1:-1].strip() + ")"
            else:
                name = IDENT.match(data, j).group().decode()
            vals.append((i, ".".join(stack + [name])))
        i = m.end()
    return vals


def code_lines(path):
    """Non-blank lines of one source file outside comments."""
    data = blank_comments(open(path, "rb").read())
    return sum(1 for line in data.split(b"\n") if line.strip())


def skip_string(data, i):
    i += 1
    while i < len(data) and data[i : i + 1] != b'"':
        i += 2 if data[i : i + 1] == b"\\" else 1
    return i + 1


def skip_blank(data, i):
    while i < len(data) and data[i : i + 1] in b" \t\r\n":
        i += 1
    return i


def cmt_files():
    # os.walk, not glob: dune keeps objects in dot directories.
    for src in SOURCES:
        for d, _, files in os.walk(os.path.join(BUILD, src)):
            yield from (os.path.join(d, f) for f in files if f.endswith(".cmt"))


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("exports: run from the root of the checkout", file=sys.stderr)
        return 2
    cmts = sorted(cmt_files())
    if not any(p.startswith(os.path.join(BUILD, "test")) for p in cmts):
        print("exports: no .cmt under _build; run `dune build @check` first",
              file=sys.stderr)
        return 2
    includes = []
    for d in sorted({os.path.dirname(p) for p in cmts}):
        includes += ["-I", d]

    exported = {}  # (mli, offset) -> qualified name
    mlis = set(glob.glob("lib/**/*.mli", recursive=True))
    for mli in sorted(mlis):
        for off, name in mli_vals(mli):
            exported[(mli, off)] = name
    lib_modules = {name.split(".")[0] for name in exported.values()}

    readers = {key: set() for key in exported}
    unresolved = set()
    for cmt in cmts:
        annot = subprocess.run(
            ["ocamlcmt"] + includes + ["-annot", "-o", "-", cmt],
            check=True, capture_output=True, text=True,
        ).stdout
        where = None
        for line in annot.splitlines():
            m = LOCATION.match(line)
            if m:
                where = m.group(1)
                continue
            m = REF.match(line)
            if m:
                mli, off = m.group(2), int(m.group(3))
                if mli in mlis:
                    if (mli, off) not in readers:
                        unresolved.add(f"{m.group(1)} -> {mli}:{off}")
                    elif where != mli[:-1]:
                        readers[(mli, off)].add(where)
                continue
            m = EXT_REF.match(line)
            if m and m.group(1).split(".")[0] in lib_modules:
                unresolved.add(f"{m.group(1)} (ext_ref in {where})")

    unread = sorted(exported[k] for k, r in readers.items() if not r)
    test_only = sorted(
        exported[k] for k, r in readers.items()
        if r and all(f.startswith("test/") for f in r)
    )
    print(f"exported vals: {len(exported)}")
    print(f"referenced by no other file: {len(unread)}")
    for name in unread:
        note = f"  (allowed: {EXCEPTIONS[name]})" if name in EXCEPTIONS else ""
        print(f"  {name}{note}")
    print(f"referenced only by tests: {len(test_only)}")
    for name in test_only:
        print(f"  {name}")
    ml = sum(code_lines(p) for p in glob.glob("lib/**/*.ml", recursive=True))
    mli = sum(code_lines(p) for p in mlis)
    print(f"lib code lines: {ml + mli} ({ml} in .ml, {mli} in .mli)")
    failed = False
    for ref in sorted(unresolved):
        print(f"exports: unresolved reference {ref}", file=sys.stderr)
        failed = True
    for name in unread:
        if name not in EXCEPTIONS:
            print(f"exports: {name} is exported but no other file reads it; "
                  "delete it or drop it from its .mli", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
