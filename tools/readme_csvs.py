"""Run the `quadnet` commands of README.md and print the sha256 of each CSV.

Each `quadnet ...` command of README's sh blocks runs with `--threads 1`
in a temporary directory, with the package taken from this checkout's
`src/`.  One line per command goes to standard output,
`<command> <csv name> <sha256>`, and its wall time to standard error.
Command names given as arguments limit the run to those commands:

    python3 tools/readme_csvs.py
    python3 tools/readme_csvs.py se-curve phase-diagram

A command that exits nonzero is reported with its exit code; the CSV it
still wrote is hashed.  The exit status is 1 if any command failed, or,
with `--diff`, if any CSV differs from DIR's or only one side has it.  After
the hashes, the line count of each module under `src/` and their total go
to standard error.

`--save DIR` copies each CSV into DIR, and the line counts into
`DIR/src_lines.json`.  `--diff DIR` compares each CSV with the one of the
same name in DIR and prints every row that changed,
`<csv name>:<line> <old row> -> <new row>`, then one summary line: how
many rows changed, the largest relative change of each numeric column
with its line, and every line where a `status`, `converged`, `failed`,
`steps`, `below_abs` or `below_rel` value flipped, or the `alpha_t_abs`
or `alpha_t_rel` of the `#` JSON header changed.  After the CSVs it
prints each module's line count against DIR's,
`src lines <module> <old> -> <new> (<delta>)`, the total last.  So
a change's moved rows and its line delta can be listed against a run of
its parent, and exit 0 says that every CSV is byte-identical:

    python3 tools/readme_csvs.py --save /tmp/before se-curve   # parent
    python3 tools/readme_csvs.py --diff /tmp/before se-curve   # change
"""

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_commands(text):
    """Argument lists of the `quadnet ...` lines of the sh blocks in text,
    continuation lines joined, without the leading `quadnet`."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["quadnet"]:
                commands.append(words[1:])
    return commands


def diff_rows(name, old, new):
    """Lines `<name>:<line> <old row> -> <new row>` for the rows that differ
    between the CSV texts old and new, line by line; a row only one of them
    has shows as `-` in the other."""
    return [
        f"{name}:{i} {a or '-'} -> {b or '-'}"
        for i, (a, b) in enumerate(
            itertools.zip_longest(old.splitlines(), new.splitlines()), start=1
        )
        if a != b
    ]


FLAG_COLUMNS = ("status", "converged", "failed", "steps", "below_abs", "below_rel")
HEADER_KEYS = ("alpha_t_abs", "alpha_t_rel")


def _header_values(line):
    """The `HEADER_KEYS` entries of the config in a `#` JSON header line;
    empty for a missing line or one that holds no JSON object."""
    try:
        config = json.loads(line[1:]).get("config", {}) if line else {}
    except (json.JSONDecodeError, AttributeError):
        return {}
    return {key: config[key] for key in HEADER_KEYS if key in config}


def _relative_change(old, new):
    """|new - old| / |old| of two CSV fields, None unless both are numbers;
    infinite where one side is not finite or old is zero and they differ."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0.0:
        return math.inf
    return abs(b - a) / abs(a)


def diff_summary(name, old, new):
    """One line on the CSV texts old and new, compared line by line:
    `<name>: <k> of <n> rows changed`, then the largest relative change of
    each other numeric column that moved with its line, then each flip of a
    `FLAG_COLUMNS` value as `<column> <old>-><new> (line <i>)`, and of a
    `HEADER_KEYS` value of a `#` header line the same way, in JSON."""
    columns, rows, changed, largest, flips = None, 0, 0, {}, []
    for i, (a, b) in enumerate(itertools.zip_longest(old.splitlines(), new.splitlines()), start=1):
        if (a or b or "#").startswith("#"):
            x, y = _header_values(a), _header_values(b)
            flips += [f"{key} {json.dumps(x.get(key))}->{json.dumps(y.get(key))} (line {i})"
                      for key in HEADER_KEYS if x.get(key) != y.get(key)]
            continue
        if columns is None:
            columns = next(csv.reader([b or a]))
            continue
        rows += 1
        if a == b:
            continue
        changed += 1
        if a is None or b is None:
            continue
        for col, x, y in zip(columns, next(csv.reader([a])), next(csv.reader([b]))):
            if col in FLAG_COLUMNS:
                if x != y:
                    flips.append(f"{col} {x}->{y} (line {i})")
                continue
            rel = _relative_change(x, y)
            if rel and rel > largest.get(col, (0.0,))[0]:
                largest[col] = (rel, i)
    out = f"{name}: {changed} of {rows} rows changed"
    if largest:
        out += "; largest relative change " + ", ".join(
            f"{col} {rel:.2g} (line {i})" for col, (rel, i) in largest.items())
    if flips:
        out += "; flips " + ", ".join(flips)
    return out


def line_counts(src):
    """Lines of each `*.py` module under the directory src, by dotted module
    name, in name order."""
    return {
        ".".join(path.relative_to(src).with_suffix("").parts): len(path.read_text().splitlines())
        for path in sorted(src.rglob("*.py"))
    }


LINE_COUNTS = "src_lines.json"


def line_delta(old, new):
    """Lines `src lines <module> <old> -> <new> (<delta>)` for every module
    of the line counts old or new (`line_counts`), a module only one side
    has counting 0 on the other, then the same for the total."""
    rows = [(name, old.get(name, 0), new.get(name, 0)) for name in sorted(old.keys() | new.keys())]
    rows.append(("total", sum(old.values()), sum(new.values())))
    return [f"src lines {name} {a} -> {b} ({b - a:+d})" for name, a, b in rows]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("commands", nargs="*", help="command names to run (default: all)")
    ap.add_argument("--save", type=pathlib.Path, metavar="DIR", help="copy each CSV into DIR")
    ap.add_argument("--diff", type=pathlib.Path, metavar="DIR",
                    help="print each row that differs from the CSV of the same name in DIR")
    args = ap.parse_args(argv)
    commands = readme_commands((ROOT / "README.md").read_text())
    unknown = set(args.commands) - {c[0] for c in commands}
    if unknown:
        ap.error(f"not a README command: {', '.join(sorted(unknown))}")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for command in commands:
            if args.commands and command[0] not in args.commands:
                continue
            out = command[command.index("--out") + 1]
            start = time.perf_counter()
            code = subprocess.run(
                [sys.executable, "-m", "quadnet.cli", *command, "--threads", "1"],
                cwd=tmp, env=env,
            ).returncode
            print(f"{command[0]}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
            csv = pathlib.Path(tmp) / out
            digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else "-"
            print(f"{command[0]} {out} {digest}" + (f" exit={code}" if code else ""), flush=True)
            if args.save and csv.exists():
                args.save.mkdir(parents=True, exist_ok=True)
                shutil.copy(csv, args.save / out)
            if args.diff:
                old = args.diff / out
                texts = [path.read_text() if path.exists() else "" for path in (old, csv)]
                for line in diff_rows(out, *texts):
                    print(line, flush=True)
                print(diff_summary(out, *texts), flush=True)
                failed |= old.exists() != csv.exists() or texts[0] != texts[1]
            failed |= code != 0
    counts = line_counts(ROOT / "src")
    print(f"src lines: {sum(counts.values())} total, "
          + ", ".join(f"{name} {n}" for name, n in counts.items()), file=sys.stderr)
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
        (args.save / LINE_COUNTS).write_text(json.dumps(counts, indent=1) + "\n")
    if args.diff:
        old = args.diff / LINE_COUNTS
        for line in line_delta(json.loads(old.read_text()) if old.exists() else {}, counts):
            print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
