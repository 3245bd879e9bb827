"""The CLI's argv table held to argparse; importable without pytest.

`check_table_against_argparse` runs each argv through `cli._parse` and
through argparse alone (`cli._argparse`), and requires the same outcome:
the same namespace (`vars()`), or the same exit code and output.  The
one intended difference: after an exact `--quiet` a usage error prints
nothing.  `tests/test_cli.py` runs it on every argv of up to 3 tokens
from `POOL` that the table reads, and on a sample of those it leaves to
argparse.  CI runs it one size up on every Python it tests, since
argparse reads odd argvs differently from version to version: on every
argv of up to 4 tokens that the table reads, and on a seeded sample of
4-token argvs.  Where pytest is missing, run the same as a script:

    PYTHONPATH=src:tests python -c 'import cli_argv; print(cli_argv.check_table_against_argparse(cli_argv.every(3)))'
"""

import contextlib
import io
import itertools

from cmtgraphs import cli

# Each option string, an abbreviation, `--opt=value`, help, the
# end-of-options marker, a negative number, the empty string, an int
# with an underscore, a built-in, an unknown name and a path.
POOL = ("--quiet", "--builtin", "--max-t", "--d", "--cm", "--cmt", "--max-total", "--out",
        "--max", "--d=3", "-h", "--", "-1", "", "3_0", "fig1", "nope", "graphs/g.graph")
# Every subcommand and an unknown one.
COMMANDS = (*cli._COMMANDS, "nope")


def every(tokens: int):
    """Every argv of a command from COMMANDS and up to `tokens` tokens from POOL, one by one."""
    return ([command, *rest] for command in COMMANDS for n in range(tokens + 1)
            for rest in itertools.product(POOL, repeat=n))


def sampled(rng, tokens: int, count: int) -> list[list[str]]:
    """`count` argvs of a command from COMMANDS and `tokens` tokens from POOL, drawn by `rng`."""
    return [[rng.choice(COMMANDS), *rng.choices(POOL, k=tokens)] for _ in range(count)]


def outcome(parse, argv: list[str]):
    """`vars()` of what `parse(argv)` returns, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def check_table_against_argparse(argvs) -> int:
    """Assert that `cli._parse` gives argparse's outcome on each argv; count those the table read."""
    read = 0
    for argv in argvs:
        expected = outcome(lambda a: cli._argparse(a, quiet=False), argv)
        table = cli._read_table(argv)
        if table is not None:
            read += 1
            assert table == expected, (argv, table, expected)
            continue
        if argv and argv[0] in cli._TABLE and "--quiet" in argv[1:] \
                and isinstance(expected, tuple) and expected[0] == 1:
            expected = (1, "", "")
        assert outcome(cli._parse, argv) == expected, (argv, expected)
    return read
