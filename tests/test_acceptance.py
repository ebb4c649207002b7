"""Acceptance suite: ten independently stated criteria, one test each.

Run with -v for the one-line pass/fail verdict per criterion; each test also
prints its measured quantities so a red criterion carries its evidence.
Criterion 2 states a hard floor (mean C-index >= 0.90 for an oracle given the
true features) that the generator's signal-to-noise ratio provably cannot
reach; the assertion is kept as stated and the measured ceiling is pinned so
the run still guards against regressions.
"""

import time

import numpy as np

from staytime.cli import _bench_rows, main
from staytime.checkpoint import load_checkpoint, save_checkpoint
from staytime.errors import UndefinedResultError
from staytime.evaluation import (
    c_index,
    cross_validate,
    fold_assignments,
    kfold_cv,
    period_stratified_improvement,
    usable_cpus,
)
from staytime.nn import Mlp
from staytime.reports import period_csv, render_period_chart
from staytime.representation import compute_ctr, stay_times
from staytime.sequences import ObservationSequence
from staytime.states import (
    DiscreteStateFunction,
    KernelBasisSet,
    KernelStateFunction,
    NeuralStateFunction,
    build_grid,
)
from staytime.synthgen import SynthConfig, generate
from staytime.training import TrainConfig, combined_loss, gradient_check_model, train_model

from test_evaluation import c_index_oracle
from test_losses import combined_oracle

RUNTIME_BUDGET_SECONDS = 30 * 60

# measured once under the exact protocol below and pinned +/- 0.02; the
# stated 0.90 floor is asserted after the pin and is expected to stay red
ORACLE_CEILING_PIN = 0.824352


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" | {detail}" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{tail}")


def _slate_means(n_states: int) -> dict:
    cfg = SynthConfig(seed=0, n_records=1000, n_obs=10, n_states=n_states)
    synth = generate(cfg)
    slate = _bench_rows(cfg, {"seed": 0})
    reports = cross_validate(synth.dataset, [tc for _, tc in slate], k=5, seed=0,
                             jobs=usable_cpus())
    return {label: report.mean for (label, _), report in zip(slate, reports)}


def _soft_clause(m: dict) -> bool:
    wrong = max(m["CTR-D-Minus"], m["CTR-D-Plus"])
    return m["CTR-K"] > wrong and m["CTR-N"] > wrong


def test_criterion_01_synthetic_ordering(monkeypatch):
    # the slate's fits run in one worker per CPU, each on one BLAS thread,
    # so no CPU is oversubscribed whatever the test environment sets
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    t0 = time.perf_counter()
    means = _slate_means(25)
    soft_by_k = {25: _soft_clause(means)}
    for extra_k in (49, 100):
        if any(soft_by_k.values()):
            break
        soft_by_k[extra_k] = _soft_clause(_slate_means(extra_k))
    elapsed = time.perf_counter() - t0

    m = means
    true_on_top = (m["CTR-D-True"] >= m["CTR-D-Minus"]
                   and m["CTR-D-True"] >= m["CTR-D-Plus"])
    neural_margin = m["CTR-N"] >= m["Static"] + 0.03
    kernel_beats_static = m["CTR-K"] >= m["Static"]
    soft_somewhere = any(soft_by_k.values())
    in_budget = elapsed <= RUNTIME_BUDGET_SECONDS
    ok = all((true_on_top, neural_margin, kernel_beats_static,
              soft_somewhere, in_budget))

    detail = (", ".join(f"{k}={v:.4f}" for k, v in sorted(m.items()))
              + f", soft={soft_by_k}, elapsed={elapsed:.0f}s")
    _verdict(1, "synthetic ordering", ok, detail)
    assert true_on_top, f"true-grid model not on top: {m}"
    assert neural_margin, f"CTR-N margin over static below 0.03: {m}"
    assert kernel_beats_static, f"CTR-K under static: {m}"
    assert soft_somewhere, f"soft clause failed at every tried size: {soft_by_k}"
    assert in_budget, f"benchmark took {elapsed:.0f}s"


def test_criterion_02_signal_ceiling():
    cfg = SynthConfig(seed=0, n_records=1000, n_obs=10, n_states=25)
    synth = generate(cfg)
    data = synth.dataset
    state = DiscreteStateFunction(synth.grid)
    Z = np.stack([compute_ctr(s, state) for s in data.sequences])
    X = np.concatenate([Z, np.ones((len(Z), 1))], axis=1)
    y = data.event_times()
    cens = data.censor_mask()

    rng = np.random.default_rng(np.random.SeedSequence([0, 5]))
    scores = []
    for fold in fold_assignments(len(data), 5, rng):
        test = np.zeros(len(data), dtype=bool)
        test[fold] = True
        w, *_ = np.linalg.lstsq(X[~test], y[~test], rcond=None)
        scores.append(c_index(X[test] @ w, y[test], cens[test]))
    mean = float(np.mean(scores))

    pinned = abs(mean - ORACLE_CEILING_PIN) <= 0.02
    floor = mean >= 0.90
    _verdict(2, "signal ceiling", pinned and floor,
             f"oracle mean={mean:.6f}, pin={ORACLE_CEILING_PIN}+/-0.02, floor=0.90")
    assert pinned, f"oracle ceiling moved: {mean:.6f} vs pinned {ORACLE_CEILING_PIN}"
    assert floor, (
        f"stated floor 0.90 not reached: oracle given the true features measures "
        f"{mean:.6f}; the label noise alone caps the C-index near this value"
    )


def test_criterion_03_gradient_correctness():
    worst = {"f-only": 0.0, "end-to-end": 0.0}
    for seed in (0, 1, 2):
        synth = generate(SynthConfig(seed=seed, n_records=120, n_obs=6))
        f_only = gradient_check_model(
            synth.dataset,
            TrainConfig(model="ctr-d", seed=seed, segments=5,
                        value_range=(-1.0, 1.0), decay_trainable=False,
                        batch_size=32),
            max_entries=60,
        )
        end_to_end = gradient_check_model(
            synth.dataset,
            TrainConfig(model="ctr-n", seed=seed, batch_size=32),
            max_entries=60,
        )
        worst["f-only"] = max(worst["f-only"], max(f_only.values()))
        worst["end-to-end"] = max(worst["end-to-end"], max(end_to_end.values()))
    ok = worst["f-only"] < 1e-3 and worst["end-to-end"] < 1e-3
    _verdict(3, "gradient correctness", ok,
             f"max rel err f-only={worst['f-only']:.2e}, "
             f"end-to-end={worst['end-to-end']:.2e}, 3 seeds")
    assert worst["f-only"] < 1e-3
    assert worst["end-to-end"] < 1e-3


def test_criterion_04_mass_conservation():
    rng = np.random.default_rng(44)
    grid_state = DiscreteStateFunction(build_grid((-1.0, 1.0), 4, n_dims=3))
    kernel_state = KernelStateFunction(
        KernelBasisSet(rng.uniform(-1.0, 1.0, size=(30, 3)), gamma=3.0)
    )
    neural = NeuralStateFunction(
        Mlp([3, 12, 20], out_activation="softmax", dropout=0.0, rng=7)
    )
    worst = 0.0
    for i in range(1000):
        m = int(rng.integers(1, 13))
        seq = ObservationSequence(
            observations=rng.uniform(-1.0, 1.0, size=(m, 3)),
            durations=rng.uniform(0.05, 1.0, size=m),
        )
        lam = 1.0 if i % 2 == 0 else float(rng.uniform(0.8, 1.0))
        total = stay_times(seq, lam).sum()
        for state in (grid_state, kernel_state, neural):
            z = compute_ctr(seq, state, decay=lam)
            err = abs(z.sum() - total)
            worst = max(worst, err / total)
            assert err <= 1e-9 * total
    _verdict(4, "mass conservation", True,
             f"1000 sequences x 3 variants, worst rel err={worst:.2e}")


def test_criterion_05_c_index_oracle_equivalence():
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 100:
        n = int(rng.integers(5, 201))
        times = np.round(rng.uniform(0.5, 10.0, size=n), 1)
        censored = rng.random(n) < 0.3
        preds = np.round(rng.uniform(0.0, 10.0, size=n), 1)  # coarse: forces ties
        try:
            fast = c_index(preds, times, censored)
        except UndefinedResultError:
            continue
        slow = c_index_oracle(preds, times, censored)
        assert fast == slow, f"instance {checked}: {fast} != {slow}"
        checked += 1
    _verdict(5, "c-index oracle equivalence", True,
             "100 instances, censoring and prediction ties, exact equality")


def test_criterion_06_loss_oracle_equivalence():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(2, 41))
        times = np.round(rng.uniform(0.5, 8.0, size=b), 1)
        censored = rng.random(b) < 0.25
        preds = np.round(rng.normal(4.0, 2.0, size=b), 1)
        loss, _ = combined_loss(preds, times, censored)
        oracle, _ = combined_oracle(preds, times, censored)
        worst = max(worst, abs(loss - oracle))
        assert abs(loss - oracle) <= 1e-12
    tie_loss, _ = combined_loss(
        np.array([1.0, 1.0]), np.array([1.0, 2.0]), np.array([False, True])
    )
    exact_tie = tie_loss == 0.6931471805599453
    _verdict(6, "loss oracle equivalence", exact_tie,
             f"100 minibatches, worst gap={worst:.2e}, tie pair=ln 2 exact")
    assert exact_tie, f"tied pair cost {tie_loss!r}, expected -ln(1/2) exactly"


BENCH_ARGS = ["bench", "--seed", "5", "--n-records", "160", "--n-obs", "10",
              "--n-states", "25", "--k", "3", "--cv-seed", "2",
              "--epochs", "15", "--patience", "5", "--batch-size", "32"]

STABLE_ARTIFACTS = ("bench_report.json", "comparison.csv", "comparison.svg",
                    "period.csv", "period.svg")


def test_criterion_07_determinism(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(BENCH_ARGS + ["--out", str(a)]) == 0
    assert main(BENCH_ARGS + ["--out", str(b)]) == 0
    capsys.readouterr()
    identical = {
        name: (a / name).read_bytes() == (b / name).read_bytes()
        for name in STABLE_ARTIFACTS
    }

    synth = generate(SynthConfig(seed=5, n_records=120, n_obs=6))
    model = train_model(synth.dataset, TrainConfig(
        model="ctr-n", seed=3, epochs=8, batch_size=32, n_states=12,
        g_hidden=(8,), f_hidden=(8,), dropout=0.0, patience=4,
    ))
    first, second = tmp_path / "m1.npz", tmp_path / "m2.npz"
    save_checkpoint(model, first)
    reloaded = load_checkpoint(first)
    save_checkpoint(reloaded, second)
    bytes_roundtrip = first.read_bytes() == second.read_bytes()
    preds_bitwise = (model.predict(synth.dataset).tobytes()
                     == reloaded.predict(synth.dataset).tobytes())

    ok = all(identical.values()) and bytes_roundtrip and preds_bitwise
    _verdict(7, "determinism", ok,
             f"bench artifacts identical={all(identical.values())}, "
             f"checkpoint bytes={bytes_roundtrip}, eval bitwise={preds_bitwise}")
    assert all(identical.values()), f"artifact drift: {identical}"
    assert bytes_roundtrip
    assert preds_bitwise


def test_criterion_08_generator_statistics():
    n = 1000
    mean_bound = 4.0 * np.sqrt(0.1 / n)
    stats = []
    for seed in range(5):
        synth = generate(SynthConfig(seed=seed, n_records=n, n_obs=10, n_states=25))
        y = synth.dataset.event_times()
        residual = y - synth.noise_free
        stats.append((float(residual.mean()), float(residual.var())))
        assert abs(residual.mean()) <= mean_bound, f"seed {seed}: mean {residual.mean()}"
        assert 0.08 <= residual.var() <= 0.12, f"seed {seed}: var {residual.var()}"
        for seq in synth.dataset.sequences:
            x = seq.observations
            d = seq.gaps()
            assert np.all(x >= -1.0) and np.all(x < 1.0)
            assert np.all(d > 0.0) and np.all(d < 1.0)
    detail = ", ".join(f"s{i}: mean={m:+.4f} var={v:.4f}" for i, (m, v) in enumerate(stats))
    _verdict(8, "generator statistics", True, detail)


def test_criterion_09_representation_properties():
    rng = np.random.default_rng(99)

    # duration scaling: z is linear in the stay times (power-of-two factor
    # keeps float scaling exact; an odd factor gets a tight tolerance)
    state = DiscreteStateFunction(build_grid((-1.0, 1.0), 4, n_dims=3))
    for _ in range(50):
        m = int(rng.integers(1, 10))
        obs = rng.uniform(-1.0, 1.0, size=(m, 3))
        dur = rng.uniform(0.1, 1.0, size=m)
        base = compute_ctr(ObservationSequence(obs, durations=dur), state)
        doubled = compute_ctr(ObservationSequence(obs, durations=2.0 * dur), state)
        assert np.array_equal(doubled, 2.0 * base)
        odd = compute_ctr(ObservationSequence(obs, durations=3.7 * dur), state)
        np.testing.assert_allclose(odd, 3.7 * base, rtol=1e-12)

    # representation width tracks the state count, not the observation dims
    for d in (2, 26, 37):
        obs = rng.uniform(-1.0, 1.0, size=(6, d))
        seq = ObservationSequence(obs, durations=rng.uniform(0.1, 1.0, size=6))
        net = Mlp([d, 16, 100], out_activation="softmax", dropout=0.0, rng=int(d))
        z_n = compute_ctr(seq, NeuralStateFunction(net))
        bases = KernelBasisSet(rng.uniform(-1.0, 1.0, size=(100, d)), gamma=2.0)
        z_k = compute_ctr(seq, KernelStateFunction(bases))
        assert z_n.shape == (100,) and z_k.shape == (100,)

    # with no decay the accumulation is order-free
    for _ in range(50):
        m = int(rng.integers(2, 10))
        obs = rng.uniform(-1.0, 1.0, size=(m, 3))
        dur = rng.uniform(0.1, 1.0, size=m)
        perm = rng.permutation(m)
        z = compute_ctr(ObservationSequence(obs, durations=dur), state, decay=1.0)
        z_p = compute_ctr(ObservationSequence(obs[perm], durations=dur[perm]),
                          state, decay=1.0)
        np.testing.assert_allclose(z_p, z, rtol=1e-12, atol=1e-15)

    _verdict(9, "representation properties", True,
             "scaling exact at c=2, rtol 1e-12 at c=3.7; K=100 for D in {2,26,37}; "
             "permutation invariant at no decay")


def test_criterion_10_period_stratified_report(capsys):
    synth = generate(SynthConfig(seed=8, n_records=240, n_obs=10, n_states=25))
    fast = dict(seed=1, epochs=10, batch_size=32, patience=4, dropout=0.0,
                f_hidden=(16,))
    rep_n = kfold_cv(synth.dataset,
                     TrainConfig(model="ctr-n", n_states=16, g_hidden=(16,), **fast),
                     k=3, seed=4)
    rep_s = kfold_cv(synth.dataset, TrainConfig(model="static", **fast), k=3, seed=4)
    taus = [float(np.quantile(synth.dataset.periods(), q)) for q in (0.0, 0.3, 0.6, 0.9)]

    same = period_stratified_improvement(rep_n, rep_n, synth.dataset, taus)
    all_zero = all(x == 0.0 for diffs in same.fold_diffs for x in diffs)

    versus = period_stratified_improvement(rep_n, rep_s, synth.dataset, taus)
    csv_text = period_csv(versus.to_dict())
    svg_text = render_period_chart(versus.to_dict())
    rendered = (len(versus.thresholds) >= 3
                and len(csv_text.splitlines()) == len(versus.thresholds) + 1
                and svg_text.startswith("<svg"))

    ok = all_zero and rendered
    _verdict(10, "period-stratified report", ok,
             f"self-diff all zero={all_zero}, thresholds rendered={len(versus.thresholds)}")
    assert all_zero, "identical models must show exactly zero improvement everywhere"
    assert len(versus.thresholds) >= 3
    assert rendered
