"""The parameter rules: each is written once, and the public constructors that
use a value refuse it, wrong-typed or out of range, as one ConfigurationError
naming it."""

import re
from pathlib import Path

import numpy as np
import pytest

import staytime
from staytime import (
    AdamState,
    ConfigurationError,
    DecayParameter,
    KernelBasisSet,
    Mlp,
    ObservationSequence,
    SegmentGrid,
    build_grid,
    compute_ctr_batch,
)

RECORDS = [ObservationSequence(np.array([[0.1, -0.2], [0.5, 0.3]]), np.array([1.0, 2.0]))]
ROWS = np.array([[0.1, -0.2], [0.5, 0.3], [-0.4, 0.9]])


@pytest.mark.parametrize("build, name", [
    (lambda: AdamState(lr=float("nan")), "lr"),
    (lambda: AdamState(eps=float("inf")), "eps"),
    (lambda: KernelBasisSet(ROWS, gamma="1"), "gamma"),
    (lambda: DecayParameter(True), "decay"),
    (lambda: compute_ctr_batch(RECORDS, build_grid((-1, 1), 2, n_dims=2), decay="0.9"), "decay"),
    (lambda: build_grid((-1, 1), 2.5, n_dims=2), "segments"),
    (lambda: SegmentGrid.fit(ROWS, 2.5), "segments"),
    (lambda: Mlp([2, 2.5, 1]), "layer_sizes"),
    (lambda: Mlp([2, 1], batchnorm="no"), "batchnorm"),
    (lambda: DecayParameter(0.9, trainable="no"), "trainable"),
], ids=["adam-lr-nan", "adam-eps-inf", "kernel-gamma-text", "decay-bool", "ctr-decay-text",
        "build-grid-float-segments", "grid-fit-float-segments", "mlp-float-width",
        "mlp-batchnorm-text", "decay-trainable-text"])
def test_constructor_refuses_bad_value(build, name):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(name)} must "):
        build()


# Each shared rule's message, matched whatever name it carries.  The
# event-time rule of sequences.py is a separate rule, on label arrays.
RULES = {
    "count": r"must be an integer of at least",
    "counts": r"must hold integers of at least",
    "positive finite": r"must be a \S+ finite number",
    "fraction": r"must lie in \[0, 1\)",
    "range": r"\(min, max\) pair or one per dimension",
    "bool": r"must be a bool",
    "decay": r"must lie in \(0, 1\]",
    "trainable decay": r"trainable \S+ must start strictly below 1",
}
SEPARATE = "event_time must be a positive finite number"


@pytest.mark.parametrize("rule", sorted(RULES))
def test_each_rule_message_written_once(rule):
    lines = [f"{path.name}:{i}"
             for path in sorted(Path(staytime.__file__).parent.glob("*.py"))
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(RULES[rule], line) and SEPARATE not in line]
    assert len(lines) == 1, lines
