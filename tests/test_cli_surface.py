"""The command-line parser's surface, pinned option by option.

Each option of each subcommand is pinned as (option strings, dest, nargs,
choices, default, metavar, action kind, type, required).  Help text and the
order of options are free to change; nothing else is.
"""

import argparse

import pytest

from staytime.cli import _positive_int, build_parser

STORE, TRUE, BOOL = "_StoreAction", "_StoreTrueAction", "BooleanOptionalAction"


def opt(flag, kind=STORE, type=None, nargs=None, choices=None, default=None,
        metavar=None, required=False):
    """One option's pinned attributes; dest is the flag with dashes as
    underscores, and a BooleanOptionalAction also owns the --no- form."""
    strings = (flag, "--no-" + flag[2:]) if kind == BOOL else (flag,)
    if kind in (TRUE, BOOL):
        nargs = 0
    return (strings, flag[2:].replace("-", "_"), nargs, choices, default, metavar,
            kind, type, required)


OUT, CONFIG = opt("--out"), opt("--config")
DATA = opt("--data", required=True)
FORWARD_FILL = opt("--forward-fill", TRUE, default=False)
K, CV_SEED = opt("--k", type=int, default=5), opt("--cv-seed", type=int, default=0)
JOBS = opt("--jobs", type=_positive_int)

SYNTH = [
    opt("--seed", type=int),
    opt("--n-records", type=int),
    opt("--n-obs", type=int),
    opt("--n-dims", type=int),
    opt("--n-states", type=int),
    opt("--noise-variance", type=float),
    opt("--weight-width", type=float),
    opt("--weight-profile", choices={"coordinate", "index"}),
]

TRAIN = [
    opt("--model", choices={"ctr-d", "ctr-k", "ctr-n", "static"}),
    opt("--loss", choices={"squared", "combined"}),
    opt("--seed", type=int),
    opt("--epochs", type=int),
    opt("--batch-size", type=int),
    opt("--learning-rate", type=float),
    opt("--decay-init", type=float),
    opt("--decay-trainable", BOOL),
    opt("--segments", type=int),
    opt("--value-range", type=float, nargs=2, metavar=("MIN", "MAX")),
    opt("--auto-range", TRUE, default=None),
    opt("--n-bases", type=int),
    opt("--gamma", type=float),
    opt("--gamma-grid", type=float, nargs="+"),
    opt("--n-states", type=int),
    opt("--f-hidden", type=int, nargs="+"),
    opt("--g-hidden", type=int, nargs="+"),
    opt("--dropout", type=float),
    opt("--batchnorm", BOOL),
    opt("--patience", type=int),
    opt("--val-fraction", type=float),
    opt("--standardize", BOOL),
    opt("--normalize-ctr", BOOL),
]

SURFACE = {
    "generate": [CONFIG, OUT, *SYNTH],
    "featurize": [
        DATA, OUT, FORWARD_FILL,
        opt("--kind", choices={"grid", "kernel"}, default="grid"),
        opt("--segments", type=int),
        opt("--value-range", type=float, nargs=2, metavar=("MIN", "MAX")),
        opt("--clamp", TRUE, default=False),
        opt("--n-bases", type=int),
        opt("--gamma", type=float),
        opt("--seed", type=int),
        opt("--decay", type=float, default=1.0),
        opt("--normalize", TRUE, default=False),
        opt("--static", TRUE, default=False),
    ],
    "train": [DATA, OUT, CONFIG, FORWARD_FILL, *TRAIN],
    "evaluate": [DATA, OUT, CONFIG, FORWARD_FILL, K, CV_SEED, JOBS, *TRAIN],
    "bench": [
        CONFIG, OUT, K, CV_SEED, JOBS, *SYNTH,
        opt("--train-seed", type=int),
        opt("--epochs", type=int),
        opt("--patience", type=int),
        opt("--batch-size", type=int),
    ],
    "gradcheck": [
        opt("--seed", type=int),
        opt("--seeds", type=_positive_int, default=3),
        opt("--tolerance", type=float, default=1e-3),
        opt("--max-entries", type=_positive_int, default=60),
    ],
    "report": [opt("--bench", required=True), OUT],
}

# one argv per subcommand and the values it must parse to; every other
# option keeps its pinned default
SAMPLES = {
    "generate": (
        ["--seed", "3", "--n-states", "16", "--noise-variance", "0.5",
         "--weight-profile", "coordinate", "--out", "o"],
        {"seed": 3, "n_states": 16, "noise_variance": 0.5, "weight_profile": "coordinate",
         "out": "o"},
    ),
    "featurize": (
        ["--data", "d", "--kind", "kernel", "--value-range", "-2", "2.5", "--clamp",
         "--n-bases", "7", "--gamma", "0.5", "--seed", "4", "--decay", "0.9", "--static"],
        {"data": "d", "kind": "kernel", "value_range": [-2.0, 2.5], "clamp": True,
         "n_bases": 7, "gamma": 0.5, "seed": 4, "decay": 0.9, "static": True},
    ),
    "train": (
        ["--data", "d", "--model", "ctr-n", "--loss", "combined", "--seed", "1",
         "--g-hidden", "8", "4", "--gamma-grid", "0.1", "1", "--no-batchnorm",
         "--standardize", "--auto-range", "--value-range", "-1", "1", "--segments", "3",
         "--learning-rate", "0.01", "--forward-fill"],
        {"data": "d", "model": "ctr-n", "loss": "combined", "seed": 1, "g_hidden": [8, 4],
         "gamma_grid": [0.1, 1.0], "batchnorm": False, "standardize": True,
         "auto_range": True, "value_range": [-1.0, 1.0], "segments": 3,
         "learning_rate": 0.01, "forward_fill": True},
    ),
    "evaluate": (
        ["--data", "d", "--model", "ctr-k", "--k", "3", "--cv-seed", "2", "--jobs", "2",
         "--no-decay-trainable", "--f-hidden", "16", "--normalize-ctr", "--patience", "4"],
        {"data": "d", "model": "ctr-k", "k": 3, "cv_seed": 2, "jobs": 2,
         "decay_trainable": False, "f_hidden": [16], "normalize_ctr": True, "patience": 4},
    ),
    "bench": (
        ["--seed", "5", "--n-records", "90", "--k", "2", "--train-seed", "6", "--epochs", "2",
         "--patience", "1", "--batch-size", "16", "--jobs", "1", "--config", "c.json"],
        {"seed": 5, "n_records": 90, "k": 2, "train_seed": 6, "epochs": 2, "patience": 1,
         "batch_size": 16, "jobs": 1, "config": "c.json"},
    ),
    "gradcheck": (
        ["--seed", "2", "--seeds", "1", "--tolerance", "0.01", "--max-entries", "5"],
        {"seed": 2, "seeds": 1, "tolerance": 0.01, "max_entries": 5},
    ),
    "report": (["--bench", "b.json", "--out", "o"], {"bench": "b.json", "out": "o"}),
}


def subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, action.choices


def described(action) -> tuple:
    choices = None if action.choices is None else set(action.choices)
    return (tuple(action.option_strings), action.dest, action.nargs, choices, action.default,
            action.metavar, type(action).__name__, action.type, action.required)


def test_subcommands():
    assert set(subparsers()[1]) == set(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_options(command):
    actual = {a.option_strings[0]: described(a) for a in subparsers()[1][command]._actions
              if not isinstance(a, argparse._HelpAction)}
    expected = {row[0][0]: row for row in SURFACE[command]}
    assert sorted(actual) == sorted(expected)
    for flag, row in expected.items():
        assert actual[flag] == row, flag


@pytest.mark.parametrize("command", sorted(SAMPLES))
def test_sample_argv(command):
    argv, given = SAMPLES[command]
    parser, _ = subparsers()
    namespace = vars(parser.parse_args([command, *argv]))
    assert namespace.pop("func").__name__ == f"cmd_{command}"
    expected = {row[1]: row[4] for row in SURFACE[command]}
    assert namespace == {"command": command, **expected, **given}
