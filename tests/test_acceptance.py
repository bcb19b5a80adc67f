"""Acceptance suite: eleven numbered criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist;
every test prints exactly one ``criterion NN <name>: PASS|FAIL`` line and
enforces the criterion's runtime budget. Criteria 1-4 and 7-10 are oracle
arithmetic and finish in seconds. Criteria 5, 6 and 11 train real models
on the synthetic corpus and together take a few minutes on one core.
"""

import functools
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from opscan import autodiff as ad
from opscan import checkpoint
from opscan import cli
from opscan import corpus as corpus_mod
from opscan import metrics
from opscan import model as M
from opscan import trainer as T
from opscan.autodiff import Parameter
from opscan.config import RunConfig
from opscan.disasm import disassemble
from opscan.opcodes import OPCODES
from opscan.synth import synth_records

from canon_table import CANON, PUSH_FIXTURE_HEX, PUSH_FIXTURE_TOKENS, canon_token
from gradcheck import grad_check, log_softmax, mul, sigmoid, sum_all, tanh
from helpers import encoder, kernel_step
from oracle_lstm import cell_scalar
from ref_eval import HEADLINE, HEADLINE_TOL_PP, REF_CM, auc_by_pair_counting


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)
    assert ok, line


# -- criterion 1: headline metrics from the reference confusion matrix -------


def test_criterion_01_metrics_oracle():
    t0 = time.perf_counter()
    rep = metrics.report(np.array(REF_CM))
    checks = [("accuracy", rep.accuracy, HEADLINE["accuracy"])]
    for i, c in enumerate(rep.per_class):
        checks.append((f"recall{i + 1}", c.recall, HEADLINE["recall"][i]))
        checks.append((f"precision{i + 1}", c.precision, HEADLINE["precision"][i]))
        checks.append((f"fbeta{i + 1}", c.fbeta, HEADLINE["fbeta"][i]))
    for key in ("recall", "precision", "fbeta"):
        checks.append((f"weighted_{key}", rep.weighted[key], HEADLINE[f"weighted_{key}"]))
    bad = [
        f"{name} {100 * got:.2f} vs {want}"
        for name, got, want in checks
        if abs(100 * got - want) > HEADLINE_TOL_PP
    ]
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "headline-metrics-oracle",
        not bad and elapsed < 1.0,
        "; ".join(bad) or f"{len(checks)} values within {HEADLINE_TOL_PP}pp, {elapsed:.2f}s",
    )


# -- criterion 2: weighted recall is accuracy, always -------------------------


def test_criterion_02_weighted_recall_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        cm = rng.integers(0, 200, size=(4, 4))
        if cm.sum() == 0:
            cm[0, 0] = 1
        supports = cm.sum(axis=1)
        gap = abs(metrics.weighted(metrics.recall_per_class(cm), supports) - metrics.accuracy(cm))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "weighted-recall-equals-accuracy",
        worst <= 1e-12 and elapsed < 1.0,
        f"1000 matrices, worst gap {worst:.1e}, {elapsed:.2f}s",
    )


# -- criterion 3: gradient correctness ----------------------------------------

PRIM_TOL = 1e-6
COMPOSITE_TOL = 1e-4
ALL_DROP = M.Dropouts(emb=0.2, input=0.25, hidden=0.25, weight=0.5, head=0.1)


def _param(rng, *shape, name):
    return Parameter(rng.normal(size=shape), name=name)


def _primitive_cases():
    """One scalar loss per differentiable op, built over fresh parameters."""
    rng = np.random.default_rng(3)
    cases = []

    a, b = _param(rng, 3, 4, name="a"), _param(rng, 4, 2, name="b")
    cases.append(("matmul", lambda: sum_all(ad.matmul(a, b)), [a, b]))

    c, d, e = _param(rng, 3, 4, name="c"), _param(rng, 4, name="d"), _param(rng, 3, 4, name="e")
    cases.append(("add-broadcast+mul", lambda: sum_all(mul(ad.add(c, d), e)), [c, d, e]))

    f = _param(rng, 2, 5, name="f")
    cases.append(("sigmoid", lambda: sum_all(sigmoid(f)), [f]))

    g = _param(rng, 2, 5, name="g")
    cases.append(("tanh", lambda: sum_all(tanh(g)), [g]))

    h = _param(rng, 2, 5, name="h")
    h.data[np.abs(h.data) < 0.2] += 0.5  # keep clear of the kink
    cases.append(("relu", lambda: sum_all(ad.relu(h)), [h]))

    k = _param(rng, 3, 5, name="k")
    kw = ad.Tensor(rng.normal(size=(3, 5)))
    cases.append(("log_softmax", lambda: sum_all(mul(log_softmax(k), kw)), [k]))

    emb = _param(rng, 7, 4, name="emb")
    ids = rng.integers(0, 7, size=(5, 2))
    cases.append(("embedding_lookup", lambda: sum_all(ad.embedding_lookup(emb, ids)), [emb]))

    p1, p2 = _param(rng, 3, 2, name="p1"), _param(rng, 3, 4, name="p2")
    cw = ad.Tensor(rng.normal(size=(3, 6)))
    cases.append(("concat", lambda: sum_all(mul(ad.concat([p1, p2], axis=-1), cw)), [p1, p2]))

    q = _param(rng, 6, 2, name="q")
    qw = ad.Tensor(rng.normal(size=(4, 3)))
    cases.append(
        ("reshape+transpose", lambda: sum_all(mul(ad.transpose(ad.reshape(q, (3, 4))), qw)), [q])
    )

    x1 = _param(rng, 4, 5, name="x1")
    drop = (rng.random((4, 5)) > 0.3).astype(float)
    cases.append(("apply_mask", lambda: sum_all(ad.apply_mask(x1, drop, 2.0)), [x1]))

    lengths = np.array([5, 3, 2])
    tmask = (np.arange(5)[:, None] < lengths[None, :]).astype(float)
    x2 = _param(rng, 5, 3, 4, name="x2")
    cases.append(("masked_mean_over_time", lambda: sum_all(ad.masked_mean_over_time(x2, tmask)), [x2]))

    x3 = _param(rng, 5, 3, 4, name="x3")
    cases.append(("masked_max_over_time", lambda: sum_all(ad.masked_max_over_time(x3, tmask)), [x3]))

    x4 = _param(rng, 5, 3, 4, name="x4")
    cases.append(("last_over_time", lambda: sum_all(ad.last_over_time(x4, lengths)), [x4]))

    logits = _param(rng, 6, 4, name="logits")
    targets = np.array([0, 2, 3, 9, 1, 9])
    cases.append(("cross_entropy", lambda: ad.cross_entropy(logits, targets, ignore_id=9), [logits]))

    return cases


def _redraw(params, rng, scale=0.7):
    for p in params:
        p.data[:] = rng.normal(scale=scale, size=p.shape)


def test_criterion_03_gradient_correctness():
    t0 = time.perf_counter()
    prim_errs = {}
    for name, loss_fn, params in _primitive_cases():
        prim_errs[name] = grad_check(loss_fn, params, eps=1e-5)
    worst_prim = max(prim_errs.values())

    def tiny_encoder(seed):
        return M.Encoder(
            7, emb_size=5, hidden_size=6, n_layers=2,
            dropouts=ALL_DROP, tie_last=True, dtype="f64", seed=seed,
        )

    lm = M.LanguageModel(tiny_encoder(0), vocab_hash=None, seed=1)
    _redraw(lm.parameters(), np.random.default_rng(42))
    lm_ids = np.random.default_rng(8).integers(0, 7, (2, 3))
    lm_targets = np.random.default_rng(9).integers(1, 7, (2, 3))

    def lm_loss():
        # fresh generator per call: identical dropout masks every evaluation
        loss, _ = lm.loss(lm_ids, lm_targets, rng=np.random.default_rng(123))
        return loss

    lstm_err = grad_check(lm_loss, lm.parameters(), eps=1e-5, max_coords=6)

    clf = M.Classifier(tiny_encoder(1), n_classes=4, head_hidden=8, vocab_hash=None, seed=2)
    _redraw(clf.parameters(), np.random.default_rng(43))
    rng = np.random.default_rng(10)
    clf_ids = rng.integers(1, 7, (6, 3))

    def clf_loss():
        return clf.loss(clf_ids, np.array([6, 4, 3]), np.array([0, 2, 3]),
                        rng=np.random.default_rng(77))

    head_err = grad_check(clf_loss, clf.parameters(), eps=1e-5, max_coords=6)

    bad = [f"{n} {e:.1e}" for n, e in prim_errs.items() if e > PRIM_TOL]
    if lstm_err > COMPOSITE_TOL:
        bad.append(f"2-step-lstm {lstm_err:.1e}")
    if head_err > COMPOSITE_TOL:
        bad.append(f"classifier-head {head_err:.1e}")
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        "gradient-correctness",
        not bad and elapsed < 30.0,
        "; ".join(bad)
        or f"{len(prim_errs)} primitives worst {worst_prim:.1e}, "
        f"lstm {lstm_err:.1e}, head {head_err:.1e}, {elapsed:.1f}s",
    )


# -- criterion 4: the LSTM kernel's step against the scalar-loop oracle -------


def test_criterion_04_lstm_cell_oracle():
    """kernels.lstm_seq_forward for one step (T = 1), with and without
    for_backward, against oracle_lstm.cell_scalar."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(100):
        B, D, H = (int(rng.integers(1, 5)) for _ in range(3))
        x = rng.normal(size=(B, D))
        h = rng.normal(size=(B, H))
        c = rng.normal(size=(B, H))
        wx = rng.normal(size=(D, 4 * H))
        wh = rng.normal(size=(H, 4 * H))
        bias = rng.normal(size=4 * H)
        h_ref, c_ref = cell_scalar(x, h, c, wx, wh, bias)
        for for_backward in (True, False):
            h_new, c_new = kernel_step(x, h, c, wx, wh, bias, for_backward)
            worst = max(worst, np.abs(h_new - h_ref).max(), np.abs(c_new - c_ref).max())
    z = np.zeros
    zero_ok = True
    for for_backward in (True, False):
        h0, c0 = kernel_step(z((2, 3)), z((2, 4)), z((2, 4)), z((3, 16)), z((4, 16)), z(16),
                             for_backward)
        zero_ok = zero_ok and bool(np.all(h0 == 0.0) and np.all(c0 == 0.0))
    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        "lstm-cell-oracle",
        worst <= 1e-12 and zero_ok and elapsed < 5.0,
        f"100 instances worst {worst:.1e}, zero-weight h'==0: {zero_ok}, {elapsed:.2f}s",
    )


# -- criteria 5 and 6: learning behaviour on the synthetic corpus -------------

DESK_DIMS = dict(emb_size=64, hidden_size=64, n_layers=3)
DESK_DROPS = M.Dropouts(emb=0.02, input=0.05, hidden=0.05, weight=0.1, head=0.0)
TARGET_FBETA = 0.95
CLF_BUDGET = 16  # epochs per arm in the transfer comparison


@pytest.fixture(scope="module")
def synth_env():
    """Synthetic corpus (4 planted motifs, 50 records/class, length 120±40),
    stratified 70/15/15, numericalized once for both learning criteria."""
    records = synth_records(per_class=50, seed=1, mean_len=120, jitter=40, plants=4,
                            dup_normals=0)
    split = corpus_mod.stratified_split(records, (0.70, 0.15, 0.15), seed=0)
    vocab = corpus_mod.build_vocab(split.train, min_freq=1)

    def ids_labels(recs):
        return [corpus_mod.numericalize(r.tokens, vocab) for r in recs], [r.label for r in recs]

    return SimpleNamespace(
        vocab=vocab,
        train=ids_labels(split.train),
        valid=ids_labels(split.valid),
        test=ids_labels(split.test),
    )


@pytest.fixture(scope="module")
def pretrained_lm(synth_env):
    """lm(s): seed s's pretrained LM, trained on first use and shared by
    criteria 5 and 6; each takes a fresh transfer_encoder copy of it."""
    @functools.cache
    def lm(s):
        enc = encoder(len(synth_env.vocab), dropouts=DESK_DROPS, seed=7 + s, **DESK_DIMS)
        model = M.LanguageModel(enc, vocab_hash=synth_env.vocab.content_hash(), seed=2 + s)
        T.train_lm(model, synth_env.train[0], synth_env.valid[0],
                   RunConfig(epochs=25, batch_size=16, bptt=70, max_lr=0.08, seed=2 + s))
        return model
    return lm


def _pretrained_clf(env, lm, s):
    return M.Classifier(M.transfer_encoder(lm(s), DESK_DROPS), n_classes=4, head_hidden=50,
                        vocab_hash=env.vocab.content_hash(), seed=30 + s)


def _random_clf(env, s):
    enc = encoder(len(env.vocab), dropouts=DESK_DROPS, seed=7 + s, **DESK_DIMS)
    return M.Classifier(enc, n_classes=4, head_hidden=50,
                        vocab_hash=env.vocab.content_hash(), seed=30 + s)


def _fine_tune(clf, env, epochs, seed):
    return T.train_clf(clf, env.train, env.valid,
                       RunConfig(epochs=epochs, batch_size=16, lr_hi=0.04, seed=seed))


def _epochs_to_target(history, budget):
    for entry in history:
        fb = entry.get("valid_fbeta")
        if fb is not None and fb >= TARGET_FBETA:
            return entry["epoch"]
    return budget + 1  # never reached within budget


def test_criterion_05_overfit_sanity(synth_env, pretrained_lm):
    t0 = time.perf_counter()
    clf = _pretrained_clf(synth_env, pretrained_lm, 0)
    _fine_tune(clf, synth_env, epochs=50, seed=3)
    _, train_rep = T.evaluate_classifier(clf, *synth_env.train, None)
    _, test_rep = T.evaluate_classifier(clf, *synth_env.test, None)
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        "overfit-sanity",
        train_rep.accuracy >= 0.95 and test_rep.accuracy >= 0.90 and elapsed < 600.0,
        f"train acc {train_rep.accuracy:.1%} (need >=95%), "
        f"held-out acc {test_rep.accuracy:.1%} (need >=90%), {elapsed:.0f}s",
    )


def test_criterion_06_transfer_benefit(synth_env, pretrained_lm):
    t0 = time.perf_counter()
    ratios = []
    for s in range(5):
        pre = _fine_tune(_pretrained_clf(synth_env, pretrained_lm, s), synth_env, CLF_BUDGET,
                         seed=3 + s)
        rnd = _fine_tune(_random_clf(synth_env, s), synth_env, CLF_BUDGET, seed=3 + s)
        ratios.append(
            _epochs_to_target(pre.history, CLF_BUDGET)
            / _epochs_to_target(rnd.history, CLF_BUDGET)
        )
    median = float(np.median(ratios))
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        "transfer-benefit",
        median <= 0.5 and elapsed < 1800.0,
        f"epochs-to-{TARGET_FBETA}-fbeta ratios {[f'{r:.2f}' for r in ratios]}, "
        f"median {median:.3f} (need <=0.5), {elapsed:.0f}s",
    )


# -- criterion 7: schedule identities -----------------------------------------


def test_criterion_07_schedule_identities():
    t0 = time.perf_counter()
    gaps = []
    for total, max_lr in ((100, 0.04), (7, 0.5)):
        sched = T.OneCycleSchedule(max_lr=max_lr, total_steps=total,
                                   warmup_frac=RunConfig().warmup_frac)
        gaps.append(abs(sched.lr(0) - max_lr / 25.0))
        gaps.append(abs(sched.lr(sched.warm_end) - max_lr))
        gaps.append(abs(sched.lr(total - 1) - max_lr / 1e4))
    worst = max(gaps)

    lrs = T.discriminative_lrs(3, RunConfig().lr_lo, RunConfig().lr_hi)
    expect = [0.0044, 0.013266, 0.04]
    rel = max(abs(got / want - 1.0) for got, want in zip(lrs, expect))
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        "schedule-identities",
        worst <= 1e-12 and rel < 5e-4 and len(lrs) == 3 and elapsed < 1.0,
        f"endpoint gap {worst:.1e}, lrs {[f'{v:.6g}' for v in lrs]} vs {expect}, {elapsed:.2f}s",
    )


# -- criterion 8: AUC against exhaustive pair counting ------------------------


def test_criterion_08_auc_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    trials = 0
    while trials < 500:
        n = int(rng.integers(2, 51))
        positive = rng.integers(0, 2, n).astype(bool)
        if positive.all() or not positive.any():
            continue
        if rng.random() < 0.5:
            scores = rng.normal(size=n)
        else:
            scores = rng.integers(0, 4, n) / 3.0  # coarse grid: plenty of ties
        fpr, tpr, _ = metrics.roc_curve(scores, positive)
        worst = max(worst, abs(metrics.auc(fpr, tpr) - auc_by_pair_counting(scores, positive)))
        trials += 1

    sep_scores = np.concatenate([np.full(20, 0.9), np.full(20, 0.1)])
    sep_pos = np.arange(40) < 20
    fpr, tpr, _ = metrics.roc_curve(sep_scores, sep_pos)
    perfect = metrics.auc(fpr, tpr)

    n = 10_000
    fpr, tpr, _ = metrics.roc_curve(rng.random(n), rng.integers(0, 2, n).astype(bool))
    coin = metrics.auc(fpr, tpr)
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        "auc-oracle",
        worst <= 1e-12 and perfect == 1.0 and abs(coin - 0.5) <= 0.05 and elapsed < 10.0,
        f"500 trials worst gap {worst:.1e}, perfect {perfect}, "
        f"label-independent {coin:.3f}, {elapsed:.1f}s",
    )


# -- criterion 9: disassembler conformance ------------------------------------


def test_criterion_09_disassembler_conformance():
    t0 = time.perf_counter()
    table_ok = OPCODES == CANON
    bad_bytes = [
        f"0x{byte:02x}"
        for byte in range(256)
        if disassemble(f"{byte:02x}") != [canon_token(byte)]
    ]
    spots = {0x01: "ADD", 0x05: "SDIV", 0x16: "AND"}
    spots_ok = all(disassemble(f"{b:02x}") == [name] for b, name in spots.items())
    push_ok = disassemble(PUSH_FIXTURE_HEX) == PUSH_FIXTURE_TOKENS
    elapsed = time.perf_counter() - t0
    _verdict(
        9,
        "disassembler-conformance",
        table_ok and not bad_bytes and spots_ok and push_ok and elapsed < 1.0,
        f"table match {table_ok}, 256 single bytes ({len(bad_bytes)} bad), "
        f"spot checks {spots_ok}, 32-byte push fixture {push_ok}, {elapsed:.2f}s",
    )


# -- criterion 10: dedup and stratified split arithmetic ----------------------


def test_criterion_10_dedup_and_split():
    t0 = time.perf_counter()
    with_dups = synth_records(per_class=30, seed=4, mean_len=120, jitter=40, plants=4,
                              dup_normals=6)
    deduped = corpus_mod.dedup_normals(with_dups)
    dedup_ok = (
        deduped == list(with_dups[:120])
        and sum(r.label < 3 for r in deduped) == 90
        and sum(r.label == 3 for r in deduped) == 30
    )

    sizes = (5801, 1461, 1207, 32408)
    big = [
        corpus_mod.ContractRecord(address=f"0x{i:040x}", tokens=("STOP",), label=label)
        for label, n in enumerate(sizes)
        for i in (label * 40_000 + j for j in range(n))
    ]
    split = corpus_mod.stratified_split(big, (0.70, 0.15, 0.15), seed=5)

    def counts(recs):
        out = [0, 0, 0, 0]
        for r in recs:
            out[r.label] += 1
        return out

    train_c, valid_c, test_c = counts(split.train), counts(split.valid), counts(split.test)
    floor_ok = all(
        train_c[i] == int(0.70 * n)
        and test_c[i] == int(0.15 * n)
        and valid_c[i] == n - train_c[i] - test_c[i]
        for i, n in enumerate(sizes)
    )
    target_counts = (870, 220, 181, 4860)
    test_ok = all(abs(test_c[i] - target_counts[i]) <= 1 for i in range(4))
    elapsed = time.perf_counter() - t0
    _verdict(
        10,
        "dedup-and-split",
        dedup_ok and floor_ok and test_ok and elapsed < 5.0,
        f"dedup exact {dedup_ok}, floor sizes {floor_ok}, "
        f"test counts {test_c} vs {list(target_counts)} +-1, {elapsed:.1f}s",
    )


# -- criterion 11: end-to-end determinism and checkpoint round-trip -----------

PIPELINE_CFG = {
    "emb_size": 16, "hidden_size": 16, "n_layers": 2, "head_hidden": 12,
    "p_emb": 0.02, "p_input": 0.05, "p_hidden": 0.05, "p_weight": 0.1, "p_head": 0.0,
    "batch_size": 8, "bptt": 20, "max_lr": 0.05, "lr_hi": 0.04, "seed": 0,
}


def _run_pipeline(root):
    """synth -> prep -> train-lm -> train-clf -> eval, all through the CLI."""
    root.mkdir(parents=True, exist_ok=True)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(PIPELINE_CFG))
    dirs = {name: root / name for name in ("synth", "prep", "lm", "clf", "eval")}
    common = ["--config", str(cfg_path)]
    steps = [
        ["synth", "--per-class", "12", *common, "--out", str(dirs["synth"])],
        ["prep", "--corpus", str(dirs["synth"] / "corpus.jsonl"), *common,
         "--out", str(dirs["prep"])],
        ["train-lm", "--data", str(dirs["prep"]), "--epochs", "2", *common,
         "--out", str(dirs["lm"])],
        ["train-clf", "--data", str(dirs["prep"]), "--lm", str(dirs["lm"] / "lm_best.ckpt"),
         "--epochs", "2", *common, "--out", str(dirs["clf"])],
        ["eval", "--checkpoint", str(dirs["clf"] / "clf_best.ckpt"),
         "--data", str(dirs["prep"]), *common, "--out", str(dirs["eval"])],
    ]
    for argv in steps:
        code = cli.main(argv)
        assert code == 0, f"{argv[0]} exited {code}"
    return dirs["eval"] / "metrics.json", dirs["clf"] / "clf_best.ckpt"


def test_criterion_11_determinism_and_round_trip(tmp_path):
    t0 = time.perf_counter()
    metrics_a, ckpt_a = _run_pipeline(tmp_path / "a")
    metrics_b, _ = _run_pipeline(tmp_path / "b")
    metrics_same = metrics_a.read_bytes() == metrics_b.read_bytes()

    model = checkpoint.load_checkpoint(ckpt_a)
    vocab = checkpoint.vocab_from_header(checkpoint.read_header(ckpt_a))
    resaved = tmp_path / "resaved.ckpt"
    checkpoint.save_checkpoint(model, resaved, vocab=vocab)
    ckpt_same = ckpt_a.read_bytes() == resaved.read_bytes()
    elapsed = time.perf_counter() - t0
    _verdict(
        11,
        "determinism-and-round-trip",
        metrics_same and ckpt_same and elapsed < 900.0,
        f"two runs metrics identical {metrics_same}, "
        f"save->load->save identical {ckpt_same}, {elapsed:.0f}s",
    )
