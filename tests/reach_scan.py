"""Run the command line in process over a corpus of groups and fail on any
function or method of ``ppring`` that no run enters.

Usage: PYTHONPATH=src python tests/reach_scan.py

Every command runs in every format on each group and prime of ``CASES``,
and then on the error paths: a bad group, a bad prime, both caps exceeded,
an unwritable ``--out`` and a closed stdout.  The runs go through
``cli.main`` under ``sys.setprofile``, which records the code object of
each Python function entered.  A method that is also bound under a second
name in its class (``__radd__ = __add__``) is replaced, for the scan, by a
wrapper that records the name it was reached by, so an alias counts on its
own.

It exits 1, naming them, when a function of the package is never entered,
when an allowlisted function other than a ``__repr__`` is entered, when an
allowlisted name is no longer defined, or when a run exits with another
code than expected (0 on the corpus); it exits 0 otherwise.  Pytest
does not collect it: it takes a few seconds, so it runs in CI only.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys
import tempfile
import types

# (group, prime): the acceptance corpus, both oracle field shapes (F_p and
# F_(p^2), with p = 10^9 + 7), the trivial group and a p-group
CASES = [("S3", 2), ("S3", 3), ("D8", 2), ("C6", 2), ("C6", 3), ("A4", 2), ("S4", 2),
         ("S4", 3), ("Q8", 2), ("V4", 2), ("D8xC2", 2), ("A5", 2), ("C15", 3), ("C1", 2),
         ("C5", 13), ("S3", 1000000007)]
COMMANDS = ["pairs", "lattice", "burnside", "species-table", "idempotents", "verify",
            "oracle-check"]
FORMATS = ["json", "csv", "pretty"]

# functions kept although no run enters them, each with its reason
ALLOWED = {
    "__repr__": "a debugging view; some are entered through labels, others never",
    "clear_caches": "the library's one call that empties every memo, for its callers",
    "verify_E_decomposition": "covers only H = G; kept until a check of every H replaces it",
    "Cyclotomic.__init__": "parses rational coefficients for callers; the library builds "
                           "every value through Cyclotomic._new",
    "entry": "leaves the process through os._exit, so it runs only in a subprocess",
}

MODULES = ["__init__", "burnside", "cli", "cyclo", "ffq", "grp", "idem", "lattice",
           "ppelem", "species"]


def nested(code, qualname):
    """(code object, qualified name) of a function and of every named
    function defined in its body; comprehensions and lambdas are left out."""
    yield code, qualname
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            yield from nested(const, f"{qualname}.{const.co_name}")


def function_of(value):
    """The plain function behind a class or module attribute, or None."""
    if isinstance(value, (classmethod, staticmethod)):
        value = value.__func__
    elif isinstance(value, property):
        value = value.fget
    value = getattr(value, "__wrapped__", value)  # lru_cache
    return value if isinstance(value, types.FunctionType) else None


def package_functions():
    """(code object -> qualified name, [(class, attribute, function)]) over
    every module of the package; the list holds the aliases."""
    names, aliases = {}, []
    for module_name in MODULES:
        module = importlib.import_module(
            "ppring" if module_name == "__init__" else f"ppring.{module_name}")
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            fn = function_of(value)
            if fn is not None:
                names.update(nested(fn.__code__, f"{module_name}:{fn.__name__}"))
            elif isinstance(value, type):
                for name, member in vars(value).items():
                    fn = function_of(member)
                    if fn is None:
                        continue
                    if fn.__name__ != name:
                        aliases.append((value, name, fn))
                    else:
                        names.update(nested(fn.__code__,
                                            f"{module_name}:{value.__name__}.{name}"))
    return names, aliases


def run_corpus(main, out_dir):
    """Every command and format on every case, then the error paths; returns
    (argv, exit code, expected exit code) of each run that exited otherwise
    than expected."""
    runs = [([command, "--group", group, "--p", str(p), "--format", fmt, "--samples", "20"], 0)
            for group, p in CASES for command in COMMANDS for fmt in FORMATS]
    good = os.path.join(out_dir, "report.json")
    unwritable = os.path.join(out_dir, "missing", "report.json")
    runs += [(["pairs", "--group", "E8"], 2),  # unknown group
             (["pairs", "--group", '{"degree": 3, "generators": [[[0, 1.5]]]}'], 2),
             (["pairs", "--group", "S3", "--p", "4"], 2),  # not a prime
             (["pairs", "--group", "S5", "--max-order", "100"], 2),
             (["oracle-check", "--group", "C7", "--p", "2", "--oracle-n-cap", "5"], 2),
             (["pairs", "--group", "S3", "--out", good], 0),
             (["pairs", "--group", "S3", "--out", unwritable], 3)]
    wrong = [(argv, code, want) for argv, want in runs if (code := main(argv)) != want]
    stdout, sys.stdout = sys.stdout, None
    try:
        code = main(["pairs", "--group", "S3"])
    finally:
        sys.stdout = stdout
    if code != 3:
        wrong.append((["pairs", "--group", "S3", "(stdout closed)"], code, 3))
    return wrong


def scan():
    """(never entered, allowlisted but entered, allowlisted but not
    defined) as qualified names, and the runs that exited otherwise than
    expected."""
    from ppring import cli

    names, aliases = package_functions()
    reached_aliases = set()

    def recorder(cls, name, fn):
        key = f"{cls.__module__.rpartition('.')[2]}:{cls.__name__}.{name}"

        def alias(*args, **kwargs):
            reached_aliases.add(key)
            return fn(*args, **kwargs)
        return key, alias

    alias_keys = []
    for cls, name, fn in aliases:
        key, wrapper = recorder(cls, name, fn)
        alias_keys.append(key)
        setattr(cls, name, wrapper)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    try:
        with tempfile.TemporaryDirectory() as out_dir, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                wrong = run_corpus(cli.main, out_dir)
            finally:
                sys.setprofile(None)
    finally:
        for cls, name, fn in aliases:
            setattr(cls, name, fn)
    reached = {names[code] for code in entered if code in names} | reached_aliases
    every = set(names.values()) | set(alias_keys)

    def allowed(qualname):
        local = qualname.partition(":")[2]
        return local in ALLOWED or local.rpartition(".")[2] == "__repr__"

    missed = sorted(q for q in every - reached if not allowed(q))
    stale = sorted(q for q in every & reached
                   if allowed(q) and not q.endswith(".__repr__"))
    defined = {q.partition(":")[2] for q in every}
    gone = sorted(name for name in ALLOWED if name != "__repr__" and name not in defined)
    return missed, stale, gone, wrong


def main() -> int:
    missed, stale, gone, wrong = scan()
    for argv, code, want in wrong:
        print(f"exit {code}, expected {want}: {argv}")
    if missed:
        print(f"never entered by the command line: {missed}")
    if stale:
        print(f"allowlisted but entered, so no longer exempt: {stale}")
    if gone:
        print(f"allowlisted but no longer defined: {gone}")
    return 1 if missed or stale or gone or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
