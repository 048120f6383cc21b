"""Command-line front end: reports on pairs, lattices, marks, species and
idempotents, plus the full verification suite and the finite-field oracle
check.  This module parses arguments and formats reports; the library
computes them (the suites behind ``verify`` live in :mod:`ppring.idem`).

Exit codes: 0 when every requested verification passes, 1 on a verification
failure, 2 on a usage or configuration error, 3 on an I/O error (such as an
unwritable ``--out`` or a full stdout) and 4 on an internal error (an
unexpected exception, reported as one ``error: internal: ...`` line naming
where it was raised).  Errors go to stderr and write no report; ``--out``
replaces a regular file only with a whole report.
Identical configurations produce byte-identical reports.  The command-line
process ends through :func:`entry`, which flushes and leaves by
``os._exit``, so no ``atexit`` hook runs in it; :func:`main` returns the
exit code to callers in process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import random
import sys
from json.encoder import encode_basestring_ascii

from . import burnside as bd
from . import ffq, idem, species
from .grp import (DEFAULT_ORDER_CAP, FiniteGroup, GroupError, OrderCapExceeded,
                  Permutation, alternating, check_prime, close_generators, cyclic,
                  dihedral, direct_product, klein_four, quaternion8, symmetric)
from .lattice import subgroup_lattice
from .ppelem import default_conductor


class ParseError(Exception):
    """Raised for malformed group specifications."""


class UnknownName(ParseError):
    """Raised for group names outside the built-in list."""


MAX_SAMPLES = 100_000  # the most oracle samples of one run: each keeps about 1.4 KB


class RunConfig:
    """Everything one CLI invocation needs, in one deterministic bundle."""

    __slots__ = ("command", "group", "p", "fmt", "max_order", "oracle_n_cap",
                 "oracle_dim_cap", "samples", "seed", "out")

    def __init__(self, command: str, group: str = "", p: int = 2, fmt: str = "pretty",
                 max_order: int = DEFAULT_ORDER_CAP,
                 oracle_n_cap: int = ffq.DEFAULT_N_CAP,
                 oracle_dim_cap: int = ffq.DEFAULT_DIM_CAP, samples: int = 50,
                 seed: int = 0, out: str | None = None):
        self.command = command
        self.group = group
        self.p = p
        self.fmt = fmt
        self.max_order = max_order
        self.oracle_n_cap = oracle_n_cap
        self.oracle_dim_cap = oracle_dim_cap
        self.samples = samples
        self.seed = seed
        self.out = out
        check_prime(self.p)
        if self.max_order <= 0 or self.oracle_n_cap <= 0 or self.oracle_dim_cap <= 0:
            raise ParseError("caps must be positive")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ParseError(f"--samples must be between 1 and {MAX_SAMPLES}")


def _named_group(name: str, max_order: int) -> FiniteGroup:
    name = name.strip()
    if "x" in name:
        parts = name.split("x")
        if not all(part.strip() for part in parts):
            raise UnknownName(f"empty factor in group name {name!r}")
        group = _named_group(parts[0], max_order)
        for part in parts[1:]:
            group = direct_product(group, _named_group(part, max_order), max_order)
        return group
    numbered = name[1:].isascii() and name[1:].isdigit()  # isdigit alone takes any Unicode digit
    try:
        if numbered and name.startswith("C"):
            return cyclic(int(name[1:]), max_order)
        if numbered and name.startswith("S"):
            return symmetric(int(name[1:]), max_order)
        if numbered and name.startswith("A"):
            return alternating(int(name[1:]), max_order)
        if numbered and name.startswith("D"):
            return dihedral(int(name[1:]), max_order)
        if name == "Q8":
            return quaternion8(max_order)
        if name == "V4":
            return klein_four(max_order)
    except ValueError as exc:
        raise UnknownName(f"cannot build group {name!r}: {exc}") from exc
    raise UnknownName(f"unknown group name {name!r}")


def _json_int(value) -> int:
    """A JSON integer; floats, strings and booleans raise TypeError."""
    if type(value) is not int:
        raise TypeError(f"{json.dumps(value)} is not an integer")
    return value


def parse_group_spec(text: str, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from a name like ``S4`` / ``C2xC2`` or a JSON object
    ``{"degree": d, "generators": [[cycle, ...], ...]}`` (cycles are integer
    lists) or ``{"name": "S4"}``."""
    text = text.strip()
    if not text:
        raise ParseError("empty group specification")
    if text.startswith("{"):
        # ValueError covers JSONDecodeError and an integer literal past the
        # interpreter's digit limit; RecursionError, nesting too deep
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        if "name" in data:
            return _named_group(str(data["name"]), max_order)
        if "degree" not in data or "generators" not in data:
            raise ParseError("JSON group spec needs 'name' or 'degree'+'generators'")
        try:
            degree = _json_int(data["degree"])
            gens = [Permutation.from_cycles(degree, [tuple(map(_json_int, c)) for c in g])
                    for g in data["generators"]]
            return close_generators(degree, gens, max_order)
        except OrderCapExceeded:
            raise
        except (TypeError, ValueError, GroupError) as exc:
            raise ParseError(f"bad group spec: {exc}") from exc
    return _named_group(text, max_order)


# ---------------------------------------------------------------------------
# report assembly


def _subgroup_json(H) -> dict:
    elements = H.root.elements
    return {"order": H.order,
            "generators": [list(elements[g].images) for g in H.generators]}


def _pair_json(q) -> dict:
    return {
        "P": _subgroup_json(q.P),
        "lift": list(q.group.root.elements[q.lift].images),
        "s_order": q.s_order,
        "ps_order": q.ps.order,
        "stabilizer_order": q.stabilizer.order,
        "centralizer_order": q.centralizer_order,
    }


def cmd_pairs(config: RunConfig, G: FiniteGroup) -> tuple[bool, dict]:
    pairs = species.enumerate_pairs(G, config.p)
    return True, {
        "group_order": G.order,
        "p": config.p,
        "conductor": default_conductor(G, config.p),
        "pairs": [_pair_json(q) for q in pairs],
    }


def cmd_lattice(config: RunConfig, G: FiniteGroup) -> tuple[bool, dict]:
    lat = subgroup_lattice(G)
    rows = [{**_subgroup_json(H), "normal": H.is_normal_in(G), "mu_to_top": mu}
            for H, mu in zip(lat.subgroups, lat.mu_top)]
    return True, {
        "group_order": G.order,
        "subgroup_count": len(lat.subgroups),
        "class_count": len(lat.conjugacy_classes()),
        "subgroups": rows,
    }


def cmd_burnside(config: RunConfig, G: FiniteGroup) -> tuple[bool, dict]:
    lat = subgroup_lattice(G)
    reps = lat.class_reps()
    marks = [[bd.mark(G, L, K) for K in reps] for L in reps]
    idems = {}
    for i, H in enumerate(reps):
        e = bd.gluck_yoshida(G, H)
        idems[f"order_{H.order}_{i}"] = [
            {"subgroup": _subgroup_json(L), "coeff": str(c)}
            for L, c in e.sorted_terms()
        ]
    return True, {
        "class_orders": [H.order for H in reps],
        "table_of_marks": marks,
        "idempotents": idems,
    }


def cmd_species_table(config: RunConfig, G: FiniteGroup) -> tuple[bool, dict]:
    n = default_conductor(G, config.p)
    pairs = species.enumerate_pairs(G, config.p)
    gens = species.standard_generators(G, config.p, n)
    table = []
    for gen in gens:
        table.append([str(species.tau_generator(q, gen)) for q in pairs])
    return True, {
        "p": config.p,
        "conductor": n,
        "columns": [q.label() for q in pairs],
        "rows": [
            {"subgroup_order": g.subgroup.order,
             "character": list(g.exps),
             "values": row}
            for g, row in zip(gens, table)
        ],
    }


def cmd_idempotents(config: RunConfig, G: FiniteGroup) -> tuple[bool, dict]:
    reports = []
    ok = True
    for q in species.enumerate_pairs(G, config.p):
        rep = idem.idempotent_report(G, config.p, q)
        ok = ok and rep.delta_ok and rep.routes_agree
        reports.append({
            "pair": _pair_json(q),
            "element": rep.element.to_json(),
            "species": rep.species.to_json(),
            "delta_ok": rep.delta_ok,
            "routes_agree": rep.routes_agree,
        })
    return ok, {"p": config.p, "idempotents": reports, "all_ok": ok}


def cmd_verify(config: RunConfig, G: FiniteGroup) -> tuple[bool, dict]:
    checks = idem.identity_suite(G, config.p)
    ok = all(c["ok"] for c in checks)
    return ok, {
        "p": config.p,
        "checks": checks,
        "passed": sum(1 for c in checks if c["ok"]),
        "failed": sum(1 for c in checks if not c["ok"]),
        "all_ok": ok,
    }


def cmd_oracle_check(config: RunConfig, G: FiniteGroup) -> tuple[bool, dict]:
    n = default_conductor(G, config.p)
    F = ffq.build_field(config.p, n, config.oracle_n_cap)
    rng = random.Random(config.seed)
    pairs = species.enumerate_pairs(G, config.p)
    gens = species.standard_generators(G, config.p, n)
    results = []
    ok = True
    for _ in range(config.samples):
        q = rng.choice(pairs)
        gen = rng.choice(gens)
        expected = species.tau_generator(q, gen)
        got = ffq.oracle_tau(q, gen, F, config.oracle_dim_cap)
        agree = expected == got
        ok = ok and agree
        sample = {
            "pair": q.label(),
            "generator_subgroup_order": gen.subgroup.order,
            "character": list(gen.exps),
            "value": str(expected),
            "agree": agree,
        }
        if not agree:
            sample["oracle_value"] = str(got)
        results.append(sample)
    return ok, {
        "p": config.p,
        "field": {"p": F.p, "m": F.m, "n": F.n},
        "samples": results,
        "all_agree": ok,
    }


COMMANDS = {
    "pairs": cmd_pairs,
    "lattice": cmd_lattice,
    "burnside": cmd_burnside,
    "species-table": cmd_species_table,
    "idempotents": cmd_idempotents,
    "verify": cmd_verify,
    "oracle-check": cmd_oracle_check,
}


def _json_text(report: dict | list) -> str:
    """The bytes of ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``,
    written in chunks by :func:`_json_chunks` instead of through the
    pure-Python encoder that ``json.dumps`` falls back to under ``indent``."""
    out: list[str] = []
    _json_chunks(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _json_chunks(obj, newline: str, out: list[str]) -> None:
    """Append the indented JSON of a dict or list to ``out``; ``newline`` is
    the line break and indent that precede its closing bracket.  Dict keys
    are strings, as in every report (any other key raises TypeError)."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{" + inner
        for key in sorted(obj):
            head = f"{sep}{encode_basestring_ascii(key)}: "
            value = obj[key]
            if isinstance(value, (dict, list, tuple)):
                out.append(head)
                _json_chunks(value, inner, out)
            else:
                out.append(head + _json_scalar(value))
            sep = "," + inner
        out.append(newline + "}")
    else:
        if not obj:
            out.append("[]")
            return
        sep = "[" + inner
        for value in obj:
            if isinstance(value, (dict, list, tuple)):
                out.append(sep)
                _json_chunks(value, inner, out)
            else:
                out.append(sep + _json_scalar(value))
            sep = "," + inner
        out.append(newline + "]")


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def _format_report(config: RunConfig, report: dict) -> str:
    if config.fmt == "json":
        return _json_text(report)
    if config.fmt == "csv":
        return _format_csv(config, report)
    return _format_pretty(config, report)


def _format_csv(config: RunConfig, report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if config.command == "burnside":
        writer.writerow(["transitive_set"] + [f"|K|={o}" for o in report["class_orders"]])
        for order, row in zip(report["class_orders"], report["table_of_marks"]):
            writer.writerow([f"G/|{order}|"] + row)
    elif config.command == "species-table":
        writer.writerow(["subgroup_order", "character"] + report["columns"])
        for row in report["rows"]:
            writer.writerow([row["subgroup_order"], str(row["character"])]
                            + row["values"])
    elif config.command == "verify":
        writer.writerow(["check", "ok"])
        for c in report["checks"]:
            writer.writerow([c["check"], c["ok"]])
    else:
        return _json_text(report)
    return buf.getvalue()


def _format_pretty(config: RunConfig, report: dict) -> str:
    lines: list[str] = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in obj:
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                    lines.append("")
                else:
                    lines.append(f"{pad}- {v}")
        else:
            lines.append(f"{pad}{obj}")

    walk(report)
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one configuration; returns (exit code, report text)."""
    try:
        G = parse_group_spec(config.group, config.max_order)
    except (ParseError, GroupError) as exc:
        return 2, f"error: {exc}\n"
    try:
        handler = COMMANDS[config.command]
    except KeyError:
        return 2, f"error: unknown command {config.command!r}\n"
    try:
        ok, report = handler(config, G)
    except ffq.CapExceeded as exc:
        return 2, f"error: {exc}\n"
    return (0 if ok else 1), _format_report(config, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppring",
        description="Species and primitive idempotents of p-permutation rings, "
                    "in exact arithmetic.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--group", required=True,
                        help="group name (S4, C6, D8, Q8, A4, C2xC2, ...) or JSON spec")
    parser.add_argument("--p", type=int, default=2, help="the prime p")
    parser.add_argument("--format", dest="fmt", default="pretty",
                        choices=["json", "csv", "pretty"])
    parser.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP)
    parser.add_argument("--oracle-n-cap", type=int, default=ffq.DEFAULT_N_CAP)
    parser.add_argument("--oracle-dim-cap", type=int, default=ffq.DEFAULT_DIM_CAP)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write the report to a file")
    return parser


def _write_report(path: str, text: str) -> None:
    """Write the report to ``--out``.  A missing or regular-file target gets
    it whole or not at all: the text goes to a temporary file beside the
    target, which then replaces the target in one step, and on an error the
    temporary file is removed and any earlier target is kept.  Any other
    target (a symlink, a device such as /dev/stdout, a pipe) is written in
    place, through the link or into the device."""
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")  # refuses a file it did not create
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            config = RunConfig(
                command=args.command, group=args.group, p=args.p, fmt=args.fmt,
                max_order=args.max_order, oracle_n_cap=args.oracle_n_cap,
                oracle_dim_cap=args.oracle_dim_cap, samples=args.samples,
                seed=args.seed, out=args.out,
            )
        except (ParseError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        code, text = run(config)
    except Exception as exc:  # a fault of the program must not read as exit 1
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the frame that raised
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        print(f"error: internal: {type(exc).__name__}: {exc} (at {where})", file=sys.stderr)
        return 4
    if code == 2:
        sys.stderr.write(text)
        return code
    if config.out:
        try:
            _write_report(config.out, text)
        except OSError as exc:
            print(f"error: cannot write {config.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 3
    else:
        try:
            if sys.stdout is None:  # the process started with stdout closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            _report_unwritable(exc)
            return 3
    return code


def _report_unwritable(exc: OSError) -> None:
    print(f"error: cannot write the report: {exc.strerror or exc}", file=sys.stderr)


def entry() -> None:
    """Run :func:`main` on the command line and end the process with its
    exit code: flush stdout and stderr, then leave through ``os._exit``,
    which skips the interpreter's teardown of the memos (and so any
    ``atexit`` hook).  A failed flush of stdout exits 3."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        code = exc.code or 0
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        _report_unwritable(exc)
        code = 3
    with contextlib.suppress(AttributeError, OSError):  # stderr may be closed too
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
