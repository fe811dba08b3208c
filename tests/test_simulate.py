import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfdmsim import simulate
from gfdmsim.channel import apply_channel, generate_channel
from gfdmsim.decoupling import verify_decomposition
from gfdmsim.detect import QPSK
from gfdmsim.simulate import (
    CSV_HEADER,
    SCHEMES,
    ConfigError,
    SimConfig,
    _chunk_size,
    _trial_rng,
    parse_config,
    parse_scheme,
    run_sweep,
    serialize_config,
    closed_form_cm,
    write_report,
)
from gfdmsim.waveform import dirichlet_filter, fast_modulate, rc_filter

from oracles import run_sweep_ref


def small_config(**kw):
    base = dict(
        scheme="proposed_dirichlet",
        n_subcarriers=8,
        n_subsymbols=2,
        n_tx=2,
        n_rx=2,
        snr_db=(0.0, 10.0),
        n_channels=3,
        n_blocks=3,
        seed=0,
    )
    base.update(kw)
    return SimConfig(**base)


# ------------------------------------------------------------- closed forms


def test_closed_form_proposed_full_scale():
    assert closed_form_cm("proposed", 256, 4, 2, 2) == (154624, 0)


def test_closed_form_ofdm_full_scale():
    assert closed_form_cm("ofdm", 1024, 1, 2, 2) == (13312, 0)


def test_closed_form_baseline_terms():
    cm_sqrd, cm_sic = closed_form_cm("baseline", 256, 4, 2, 2)
    n = 256 * 4 * 2
    assert cm_sqrd == 256**3 * 4**3 * 4 * 2 + 256**2 * 16 * 4 + n * (n + 1) * (2 * n + 1) // 6
    assert cm_sic == 256**2 * 4**2 * 4


def test_closed_form_dominant_ratio():
    base, _ = closed_form_cm("baseline", 256, 4, 2, 2)
    prop, _ = closed_form_cm("proposed", 256, 4, 2, 2)
    assert base / prop >= 1e4


def test_closed_form_accepts_sweep_scheme_names():
    assert closed_form_cm("proposed_dirichlet", 8, 2, 2, 2) == closed_form_cm("proposed", 8, 2, 2, 2)
    assert closed_form_cm("baseline_rc(0.9)", 8, 2, 2, 2) == closed_form_cm("baseline", 8, 2, 2, 2)
    assert closed_form_cm("baseline_dirichlet", 8, 2, 2, 2) == closed_form_cm("baseline", 8, 2, 2, 2)


def test_closed_form_errors():
    with pytest.raises(ValueError):
        closed_form_cm("magic", 8, 2, 2, 2)
    with pytest.raises(ValueError):
        closed_form_cm("proposed", 0, 2, 2, 2)


@pytest.mark.parametrize("dims", [(2.5, 1, 1, 1), (2, 1.0, 1, 1), (2, 1, "1", 1), (2, 1, 1, None)])
def test_closed_form_takes_integer_dimensions(dims):
    with pytest.raises(ValueError, match="must be an integer"):
        closed_form_cm("ofdm", *dims)
    assert closed_form_cm("ofdm", *(np.int64(2),) * 4) == closed_form_cm("ofdm", 2, 2, 2, 2)


def test_closed_form_is_integer_for_odd_dimensions():
    for k, m, t, r in [(3, 3, 3, 2), (5, 1, 1, 1), (7, 3, 2, 3)]:
        for scheme in ("ofdm", "baseline", "proposed"):
            cm_sqrd, cm_sic = closed_form_cm(scheme, k, m, t, r)
            assert isinstance(cm_sqrd, int) and isinstance(cm_sic, int)


# ------------------------------------------------------------ configuration


def test_parse_scheme_variants():
    assert parse_scheme("proposed_dirichlet") == ("proposed_dirichlet", None)
    assert parse_scheme("baseline_rc") == ("baseline_rc", 0.9)
    assert parse_scheme("baseline_rc(0.5)") == ("baseline_rc", 0.5)
    with pytest.raises(ConfigError):
        parse_scheme("baseline_rc(1.5)")
    with pytest.raises(ConfigError):
        parse_scheme("zf")


def test_parse_config_minimal_defaults(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(
        "scheme = proposed_dirichlet\nK = 8\nM = 2\nT = 2\nR = 2\n"
        "snr_db = 0, 10\nn_channels = 5\nn_blocks = 5\n"
    )
    cfg = parse_config(str(path))
    assert cfg.block_len == 16
    assert cfg.seed == 0


def test_parse_config_error_messages(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text("scheme = proposed_dirichlet\nturbo = on\n")
    with pytest.raises(ConfigError, match=r"sim\.cfg:2: unknown key 'turbo'"):
        parse_config(str(path))
    path.write_text("K = twelve\n")
    with pytest.raises(ConfigError, match=r"sim\.cfg:1: invalid value for K"):
        parse_config(str(path))
    path.write_text("scheme = proposed_dirichlet\nK = 8\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config(str(path))
    path.write_text("K = 8\nK = 4\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(str(path))
    path.write_bytes(b"K = 8\nM = \xff\n")
    with pytest.raises(ConfigError, match=r"sim\.cfg: not UTF-8 text"):
        parse_config(str(path))
    # the CP length and the constellation are fixed, not configured
    for line in ("L = 2", "constellation = qpsk"):
        path.write_text(f"scheme = proposed_dirichlet\nK = 8\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=rf"sim\.cfg:3: unknown key '{key}'"):
            parse_config(str(path))


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).parent.parent / "configs").glob("*.cfg")),
    ids=lambda p: p.name,
)
def test_shipped_configs_parse(path):
    cfg = parse_config(str(path))
    assert cfg.out == f"{path.stem}.csv"


def test_parse_config_flag_overrides(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(
        "scheme = proposed_dirichlet\nK = 8\nM = 2\nT = 2\nR = 2\n"
        "snr_db = 0\nn_channels = 5\nn_blocks = 5\nseed = 3\n"
    )
    cfg = parse_config(str(path), {"scheme": "ofdm", "M": "1", "snr_db": "[4, 8]"})
    assert cfg.scheme == "ofdm"
    assert cfg.snr_db == (4.0, 8.0)
    with pytest.raises(ConfigError, match=r"flag --snr_db"):
        parse_config(str(path), {"snr_db": "a,b"})
    assert parse_config(str(path), {"snr_db": "0, inf"}).snr_db == (0.0, math.inf)


@pytest.mark.parametrize(
    "snr,match",
    [
        ("1e400", "1e400 overflows to inf"),
        ("0,,4", "empty item"),
    ],
    ids=["overflow", "empty-item"],
)
def test_parse_config_rejects_bad_snr_lists(tmp_path, snr, match):
    # float() would read these as (inf,) and (0.0, 4.0) without a word
    path = tmp_path / "sim.cfg"
    path.write_text(
        "scheme = proposed_dirichlet\nK = 8\nM = 2\nT = 2\nR = 2\n"
        f"snr_db = {snr}\nn_channels = 5\nn_blocks = 5\n"
    )
    with pytest.raises(ConfigError, match=rf"sim\.cfg:6: invalid value for snr_db.*{match}"):
        parse_config(str(path))


def test_parse_config_accepts_byte_order_mark(tmp_path):
    text = (
        "scheme = proposed_dirichlet\nK = 8\nM = 2\nT = 2\nR = 2\n"
        "snr_db = 0\nn_channels = 5\nn_blocks = 5\n"
    )
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_config(str(marked)) == parse_config(str(plain))


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_subcarriers", 0),
        ("n_subsymbols", 0),
        ("n_tx", 0),
        ("n_rx", 0),
        ("n_channels", 0),
        ("n_blocks", 0),
        ("seed", -1),
        ("snr_db", (math.nan,)),
        ("snr_db", (-math.inf,)),
        ("snr_db", (-400.0,)),
    ],
)
def test_validate_rejects_out_of_range_dimensions(field, value):
    small_config()
    with pytest.raises(ConfigError):
        small_config(**{field: value})


@pytest.mark.parametrize(
    "scheme,alpha",
    [
        ("baseline_rc", 1.5),
        ("baseline_rc", -0.1),
        ("baseline_rc", math.nan),
        ("proposed_dirichlet", 0.5),
        ("baseline_dirichlet", 0.9),
    ],
)
def test_validate_rejects_misplaced_or_out_of_range_rolloff(scheme, alpha):
    small_config(scheme="baseline_rc", alpha=0.9)
    with pytest.raises(ConfigError, match="roll-off"):
        small_config(scheme=scheme, alpha=alpha)


def test_rolloff_fault_reads_the_same_from_a_file_and_the_constructor(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(
        "scheme = baseline_rc(1.5)\nK = 8\nM = 2\nT = 2\nR = 2\n"
        "snr_db = 0\nn_channels = 1\nn_blocks = 1\n"
    )
    message = "scheme 'baseline_rc' needs a roll-off in [0, 1], got 1.5"
    for build in (
        lambda: parse_config(str(path)),
        lambda: small_config(scheme="baseline_rc", alpha=1.5),
        lambda: parse_scheme("baseline_rc(1.5)"),
        lambda: closed_form_cm("baseline_rc(1.5)", 8, 2, 2, 2),
    ):
        with pytest.raises(ConfigError) as caught:
            build()
        assert str(caught.value) == message


def test_ofdm_requires_single_subsymbol():
    with pytest.raises(ConfigError, match="M = 1"):
        small_config(scheme="ofdm")


@pytest.mark.parametrize(
    "scheme,m,alpha,runs",
    [
        ("proposed_dirichlet", 2, None, False),
        ("ofdm", 1, None, False),
        ("baseline_dirichlet", 2, None, True),
        ("baseline_rc", 2, 0.9, True),
    ],
)
def test_fewer_rx_than_tx_antennas(scheme, m, alpha, runs):
    # the per-subcarrier receiver needs tall blocks; the baseline's MMSE
    # extension is tall for any R
    kw = dict(scheme=scheme, n_subsymbols=m, alpha=alpha, n_tx=2, n_rx=1,
              snr_db=(10.0,), n_channels=1, n_blocks=1)
    if runs:
        cfg = small_config(**kw)
        assert run_sweep(cfg)[0].symbols == 2 * cfg.block_len
    else:
        with pytest.raises(ConfigError, match="R >= T"):
            small_config(**kw)


@pytest.mark.parametrize("route", ["constructor", "replace"])
@pytest.mark.parametrize(
    "field, value, match",
    [
        ("n_channels", 2.5, "n_channels must be an integer, got 2.5"),
        ("n_tx", 2.0, "T must be an integer, got 2.0"),
        ("n_subcarriers", 2.0, "K must be an integer, got 2.0"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", None, "seed must be an integer, got None"),
        ("alpha", "0.5", "roll-off must be a real number"),
        ("snr_db", ("10",), "snr_db point must be a real number"),
        ("snr_db", (10**400,), "snr_db point must be a real number within the float range"),
        ("snr_db", 10.0, "snr_db must list SNR points"),
        ("snr_db", b"0", "snr_db must list SNR points, got b'0'"),
        ("snr_db", "0", "snr_db must list SNR points, got '0'"),
        ("n_channels", 0, "n_channels must be positive, got 0"),
        ("out", 5, "out must be a path string or None, got 5"),
        ("out", Path("x.csv"), f"out must be a path string or None, got {Path('x.csv')!r}"),
    ],
    ids=["float-channels", "float-T", "float-K", "float-seed", "no-seed", "text-rolloff",
         "text-snr", "huge-snr", "scalar-snr", "bytes-snr-list", "text-snr-list",
         "no-channels", "int-out", "path-out"],
)
def test_bad_field_is_rejected_when_the_config_is_built(route, field, value, match):
    # the mistyped values once passed the check and then died mid-sweep or in
    # the check itself; every route, dataclasses.replace too, checks them
    rc = dict(scheme="baseline_rc", alpha=0.9)
    cfg = small_config(**rc)
    with pytest.raises(ConfigError, match=re.escape(match)):
        if route == "replace":
            replace(cfg, **{field: value})
        else:
            small_config(**{**rc, field: value})


def test_numpy_and_bool_values_are_stored_as_plain_numbers(tmp_path):
    cfg = small_config(scheme="baseline_rc", alpha=np.float64(0.9), n_subcarriers=np.int64(4),
                       n_channels=np.uint8(2), n_blocks=True, snr_db=[np.float64(10.0), 20])
    plain = small_config(scheme="baseline_rc", alpha=0.9, n_subcarriers=4, n_channels=2,
                         n_blocks=1, snr_db=(10.0, 20.0))
    assert cfg == plain and hash(cfg) == hash(plain)
    assert [type(getattr(cfg, f)) for f in ("n_subcarriers", "n_channels", "n_blocks")] == [int] * 3
    assert type(cfg.alpha) is float and [type(s) for s in cfg.snr_db] == [float, float]
    path = tmp_path / "sim.cfg"
    path.write_text(serialize_config(cfg))
    assert parse_config(str(path)) == plain
    assert [rec.symbols for rec in run_sweep(cfg)] == [2 * 1 * 2 * 8] * 2


def test_readme_example_config_parses_and_round_trips(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    path = tmp_path / "sim.cfg"
    path.write_text(block, encoding="utf-8")
    cfg = parse_config(str(path))
    assert (cfg.scheme, cfg.block_len, cfg.snr_db, cfg.out) == (
        "proposed_dirichlet", 16, (0.0, 4.0, 8.0, 12.0, 16.0, 20.0), "results.csv"
    )
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert parse_config(str(path)) == cfg


@pytest.mark.parametrize(
    "out",
    ["r.csv", "a#b.csv", " lead.csv", "trail.csv ", "a\nb.csv", "a\rb.csv"],
    ids=["writable", "comment", "leading-space", "trailing-space", "line-feed", "carriage-return"],
)
def test_serialize_round_trip(tmp_path, out):
    cfg = small_config(scheme="baseline_rc", alpha=0.9, out=out, snr_db=(0.0, 4.5, float("inf")))
    if out != "r.csv":
        # the file would read back as another out, or not at all
        with pytest.raises(ConfigError, match=r"^out = .* cannot be written as a config line"):
            serialize_config(cfg)
        return
    path = tmp_path / "sim.cfg"
    path.write_text(serialize_config(cfg))
    assert path.read_text() == (
        "scheme = baseline_rc(0.9)\nK = 8\nM = 2\nT = 2\nR = 2\nsnr_db = 0.0, 4.5, inf\n"
        "n_channels = 3\nn_blocks = 3\nseed = 0\nout = r.csv\n"
    )
    assert parse_config(str(path)) == cfg


def _parse_text(text: str) -> SimConfig:
    # hypothesis runs the test body once per example, which tmp_path cannot follow
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sim.cfg")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return parse_config(path)


# any text, and text made of the characters the config format treats specially
_OUT = st.none() | st.text(alphabet=" \t#=\n\r\x85\u2028a.") | st.text()


def _valid(kw: dict) -> dict:
    # SimConfig keywords moved onto the cross-field constraints: M = 1 for
    # ofdm, R >= T for the per-subcarrier receiver, a roll-off for rc only
    scheme = kw["scheme"]
    return dict(
        kw,
        n_subsymbols=1 if scheme == "ofdm" else kw["n_subsymbols"],
        n_rx=kw["n_rx"] if scheme.startswith("baseline") else max(kw["n_rx"], kw["n_tx"]),
        alpha=kw["alpha"] if scheme == "baseline_rc" else None,
    )


_SNR_POINT = st.floats(min_value=-300.0, allow_nan=False)
# keywords of configs that construct: every scheme, with and without a
# roll-off, at dimensions 1-4 and SNR points from -300 dB up to +inf
_VALID = st.fixed_dictionaries(dict(
    scheme=st.sampled_from(SCHEMES),
    n_subcarriers=st.integers(1, 4),
    n_subsymbols=st.integers(1, 4),
    n_tx=st.integers(1, 4),
    n_rx=st.integers(1, 4),
    snr_db=st.lists(_SNR_POINT, min_size=1, max_size=3).map(tuple),
    n_channels=st.integers(1, 4),
    n_blocks=st.integers(1, 4),
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**70),
    out=_OUT,
)).map(_valid)
# anything the fields can be given: zero or negative dimensions and seeds,
# empty SNR lists or lists with nan, -inf, integers beyond the float range
# or strings, misplaced, out-of-range or mistyped roll-offs
_ANY = st.fixed_dictionaries(dict(
    scheme=st.sampled_from((*SCHEMES, "zf")),
    n_subcarriers=st.integers(-1, 4),
    n_subsymbols=st.integers(-1, 4),
    n_tx=st.integers(-1, 4),
    n_rx=st.integers(-1, 4),
    snr_db=st.lists(st.floats(), max_size=3).map(tuple)
    | st.lists(st.floats() | st.integers() | st.just("10"), max_size=3) | st.floats(),
    n_channels=st.integers(-1, 4),
    n_blocks=st.integers(-1, 4),
    alpha=st.none() | st.floats() | st.just("0.5"),
    seed=st.integers(-1, 2**70),
    out=_OUT,
))
# a config that constructs with one integer field given another type: the
# wrong kinds are rejected, numpy's integers and bools construct as ints
_MISTYPED = st.builds(
    lambda kw, name, value: {**kw, name: value},
    _VALID,
    st.sampled_from(
        ("n_subcarriers", "n_subsymbols", "n_tx", "n_rx", "n_channels", "n_blocks", "seed")
    ),
    st.sampled_from((2.0, 2.5, "2", None, (2,), True, np.int64(2), np.uint8(3))),
)


@settings(derandomize=True, database=None, max_examples=200)
@given(kw=_VALID | _ANY | _MISTYPED)
def test_config_is_rejected_or_round_trips(kw):
    try:
        cfg = SimConfig(**kw)
    except ConfigError:
        return
    try:
        text = serialize_config(cfg)
    except ConfigError as exc:
        # out is the only free text of a valid config
        assert str(exc).startswith("out = ")
        return
    assert _parse_text(text) == cfg


# values each key accepts (not every combination constructs), and junk
_GOOD_VALUES = {
    "scheme": (*SCHEMES, "baseline_rc(0.5)", "baseline_rc(1e-3)"),
    "K": ("1", "2", "3"),
    "M": ("1", "2"),
    "T": ("1", "2"),
    "R": ("1", "2", "3"),
    "snr_db": ("0", "0, 10", "[4, 8]", "inf", "-3.5, inf"),
    "n_channels": ("1", "2"),
    "n_blocks": ("1", "2"),
    "seed": ("0", "7", "123456789012345678901234567890"),
    "out": ("r.csv", "a b.csv", "", "dir/x.csv"),
}
_JUNK = st.sampled_from(
    ("", "0", "-1", "1.5", "nan", "-inf", "1e400", "0,,4", "zf", "baseline_rc(2)", "x = y", "# c")
) | st.text(max_size=8)
_EDITS = st.lists(
    st.tuples(
        st.sampled_from((*_GOOD_VALUES, "turbo", "L", "constellation")) | st.text(max_size=4),
        st.none() | _JUNK,
    ),
    max_size=3,
)


@settings(derandomize=True, database=None)
@given(
    values=st.fixed_dictionaries({key: st.sampled_from(v) for key, v in _GOOD_VALUES.items()}),
    edits=_EDITS,
)
def test_config_text_parses_or_raises_config_error(values, edits):
    # a valid config text, with lines dropped, replaced by junk or added
    for key, value in edits:
        if value is None:
            values.pop(key, None)
        else:
            values[key] = value
    try:
        cfg = _parse_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    except ConfigError:
        return
    assert _parse_text(serialize_config(cfg)) == cfg


# ------------------------------------------------------------------- sweeps


@pytest.mark.parametrize("k, m", [(8, 2), (8, 4), (16, 2)])
@pytest.mark.parametrize("rolloff", [0.9, 0.3, None])
@pytest.mark.parametrize("noise_power", [0.0, 0.1])
def test_stacked_front_end_matches_per_block_calls(k, m, rolloff, noise_power):
    # the sweep modulates and transmits a realization's blocks as one stack,
    # with or without an M-bin window; the stacked calls repeat every bit of
    # the one-block calls
    filt = dirichlet_filter(k, m) if rolloff is None else rc_filter(k, m, rolloff)
    n_tx, d, n_blocks = 2, k * m, 3
    rng = np.random.default_rng(k * 10 + m)
    ch = generate_channel(n_tx, 2, rng, d)
    sent = QPSK[rng.integers(0, len(QPSK), (n_blocks, n_tx * d))]
    x = fast_modulate(sent.reshape(-1, n_tx, d), filt)
    noise = [np.random.default_rng(b) for b in range(n_blocks)]
    stacked = apply_channel(x, ch, noise_power, noise)
    for b, block in enumerate(sent):
        x_b = fast_modulate(block.reshape(n_tx, d), filt)
        assert np.array_equal(x[b], x_b)
        y_b = apply_channel(x_b, ch, noise_power, np.random.default_rng(b))
        assert np.array_equal(stacked[b], y_b)


@pytest.mark.parametrize(
    "scheme, alpha, k, m, t, r, n_blocks",
    [
        ("proposed_dirichlet", None, 4, 2, 1, 3, 64),  # T = 1 with R = 3
        ("proposed_dirichlet", None, 1, 4, 2, 3, 100),  # K = 1
        ("ofdm", None, 8, 1, 2, 2, 64),  # M = 1 at small D
        ("baseline_dirichlet", None, 4, 2, 2, 2, 64),
        ("baseline_rc", 0.9, 2, 2, 1, 3, 64),
        ("proposed_dirichlet", None, 256, 4, 2, 2, 1),  # full_proposed's shape
        ("ofdm", None, 1024, 1, 2, 2, 1),  # full_ofdm's shape
        ("proposed_dirichlet", None, 8, 4, 2, 2, 20),  # desk_proposed's shape
    ],
)
def test_chunked_sweep_matches_one_realization_at_a_time(scheme, alpha, k, m, t, r, n_blocks):
    # shapes off the reference grid and at the paper's block length, with two
    # whole chunks and a remainder chunk of one realization, noisy and noiseless
    cfg = SimConfig(scheme=scheme, alpha=alpha, n_subcarriers=k, n_subsymbols=m, n_tx=t,
                    n_rx=r, snr_db=(6.0, math.inf), n_channels=1, n_blocks=n_blocks, seed=3)
    chunk = _chunk_size(cfg)
    assert chunk > 1
    cfg = replace(cfg, n_channels=2 * chunk + 1)
    got = [(rec.errors, rec.cm_sd, rec.sd_nodes) for rec in run_sweep(cfg)]
    assert got == [(rec.errors, rec.cm_sd, rec.sd_nodes) for rec in run_sweep_ref(cfg)]


@pytest.mark.parametrize("scheme", ["proposed_dirichlet", "baseline_dirichlet"])
def test_sweep_derives_no_noise_substream_at_infinite_snr(scheme, monkeypatch):
    # apply_channel draws no noise at +inf dB, so no generator is made for
    # it there; a finite point keeps one per block
    made = []

    def counting(seed, stream, *counters):
        made.append((stream, counters[0]))
        return _trial_rng(seed, stream, *counters)

    monkeypatch.setattr(simulate, "_trial_rng", counting)
    run_sweep(small_config(scheme=scheme, snr_db=(math.inf, 10.0), n_channels=3, n_blocks=2))
    assert [s_idx for stream, s_idx in made if stream == simulate._STREAM_NOISE] == [1] * 6


@pytest.mark.parametrize(
    "config, overrides, chunk",
    [
        # the benchmark's four workloads, as perfbench/run.py builds them
        ("desk_k8_m4", dict(scheme="proposed_dirichlet", snr_db="0, 4, 8, 12, 16, 20", n_blocks="20"), 6),
        ("full_k256_m4", dict(scheme="proposed_dirichlet", snr_db="16, 20", n_blocks="1"), 4),
        ("desk_k16_m2", dict(scheme="baseline_rc(0.9)", snr_db="0, 4, 8, 12, 16, 20", n_blocks="2"), 8),
        ("full_ofdm_k1024", dict(scheme="ofdm", snr_db="16, 20", n_blocks="1"), 4),
        # the CI smoke run's config as shipped: four chunks of 12 and one of 2
        ("desk_k8_m2", {}, 12),
    ],
)
def test_chunk_sizes_of_the_benchmark_workloads(config, overrides, chunk):
    # the sizes README, the CHUNK_ENTRIES comment and tier1.yml state
    path = Path(__file__).parent.parent / "configs" / f"{config}.cfg"
    assert _chunk_size(parse_config(str(path), overrides)) == chunk


def _traced_peak(cfg):
    """The most memory Python allocations held at once during ``run_sweep(cfg)``, in bytes."""
    tracemalloc.start()
    try:
        run_sweep(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_scale_chunk_keeps_its_memory_budget():
    # a full_proposed-shape sweep in two chunks of 4 factors both into one
    # workspace: the traced peak reads 3.86 MB (4.35 MB with the front
    # end's stacks held through the factorization, 7.27 MB when each
    # chunk's factors were allocated, 1.96 MB at one realization per
    # chunk); the bound is the 4.35 MB peak plus 20 %, which another live
    # chunk-sized stack exceeds: the per-realization block list held
    # through the factorization (5.40 MB) or a factorization that
    # allocates its own Q and R (8.32 MB)
    cfg = SimConfig(scheme="proposed_dirichlet", n_subcarriers=256, n_subsymbols=4, n_tx=2,
                    n_rx=2, snr_db=(20.0,), n_channels=8, n_blocks=1)
    assert _chunk_size(cfg) == 4
    assert _traced_peak(cfg) < 5.2e6


def test_full_ofdm_chunk_keeps_its_memory_budget():
    # a full_ofdm-shape sweep, 2048 first-descent entries per realization
    # (1024 subproblems of 2 levels), runs in two chunks of 4 and a
    # remainder of 1, and its front end's stacks and channels are gone
    # before the factorization: the traced peak read 2.55 MB (3.05 MB with
    # the front end held through the chunk, 4.59 MB in chunks of 8, 5.65 MB
    # with both); the bound is that peak plus 20 %, which chunks of 8 exceed
    cfg = SimConfig(scheme="ofdm", n_subcarriers=1024, n_subsymbols=1, n_tx=2, n_rx=2,
                    snr_db=(20.0,), n_channels=9, n_blocks=1)
    assert _chunk_size(cfg) == 4
    assert _traced_peak(cfg) < 3.07e6


def test_desk_chunk_keeps_its_memory_budget():
    # a desk_proposed-shape sweep, 1280 first-descent entries per
    # realization (20 blocks of 8 subproblems of 8 levels), runs in two
    # chunks of 6 and a remainder of 1, and its traced peak falls inside the
    # first descent: it read 1.59 MB (2.77 MB in chunks of 12); the bound is
    # that peak plus 20 %, which chunks of 12 exceed
    cfg = SimConfig(scheme="proposed_dirichlet", n_subcarriers=8, n_subsymbols=4, n_tx=2,
                    n_rx=2, snr_db=(20.0,), n_channels=13, n_blocks=20)
    assert _chunk_size(cfg) == 6
    assert _traced_peak(cfg) < 1.91e6


@pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 7])
def test_substreams_are_those_of_the_seed_sequence_of_the_key(seed):
    # the key goes to SeedSequence as one word array; each value must split
    # into the words SeedSequence makes of an int, so no stream moves
    for stream, counters in ((0, (0, 0)), (1, (3, 7)), (2, (5, 2**32 + 1, 19))):
        ref = np.random.default_rng(np.random.SeedSequence([seed, stream, *counters]))
        got = _trial_rng(seed, stream, *counters)
        assert got.integers(0, 2**63, 16).tolist() == ref.integers(0, 2**63, 16).tolist()
        assert got.standard_normal(4).tobytes() == ref.standard_normal(4).tobytes()


# SNR points at, beyond and far beyond the -300 dB floor, and any finite one
_SWEEP_SNR = st.sampled_from((-1e308, -4000.0, -300.0, 0.0, math.inf, 1e308)) | st.floats(
    allow_nan=False, allow_infinity=False
)
# every scheme, baseline_rc with a roll-off, on one channel of one or two
# blocks, as drawn or moved by _valid onto constraints a config accepts;
# M <= 3 and T <= 2 keep M·T <= 6, since at very low SNR the search is
# near-exhaustive (about 4^(M·T) nodes per subcarrier)
_SWEEP = st.fixed_dictionaries(dict(
    scheme=st.sampled_from(SCHEMES),
    n_subcarriers=st.integers(1, 3),
    n_subsymbols=st.integers(1, 3),
    n_tx=st.integers(1, 2),
    n_rx=st.integers(1, 3),
    snr_db=st.lists(_SWEEP_SNR, min_size=1, max_size=2).map(tuple),
    n_channels=st.just(1),
    n_blocks=st.integers(1, 2),
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64),
))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(kw=_SWEEP | _SWEEP.map(_valid))
def test_sweep_is_rejected_or_runs_deterministically(kw):
    try:
        cfg = SimConfig(**kw)
    except ConfigError:
        return
    first = [replace(r, wall_time=0.0) for r in run_sweep(cfg)]
    assert first == [replace(r, wall_time=0.0) for r in run_sweep(cfg)]
    assert [r.snr_db for r in first] == list(cfg.snr_db)
    assert all(0 <= r.errors <= r.symbols for r in first)
    if cfg.scheme in ("proposed_dirichlet", "ofdm"):
        filt = dirichlet_filter(cfg.n_subcarriers, cfg.n_subsymbols)
        ch = generate_channel(cfg.n_tx, cfg.n_rx, np.random.default_rng(cfg.seed), cfg.block_len)
        assert verify_decomposition(ch, filt) <= 1e-10


def test_sweep_random_guessing_at_very_low_snr():
    cfg = small_config(snr_db=(-100.0,), n_channels=20, n_blocks=20)
    rec = run_sweep(cfg)[0]
    assert rec.symbols >= 10_000
    assert abs(rec.ser - 0.75) < 0.02


def test_sweep_noiseless_is_error_free():
    for scheme in ("proposed_dirichlet", "baseline_dirichlet", "baseline_rc"):
        cfg = small_config(scheme=scheme, alpha=0.9 if scheme == "baseline_rc" else None,
                           snr_db=(float("inf"),))
        rec = run_sweep(cfg)[0]
        assert rec.errors == 0
    rec = run_sweep(small_config(scheme="ofdm", n_subcarriers=16, n_subsymbols=1,
                                 snr_db=(float("inf"),)))[0]
    assert rec.errors == 0


def test_sweep_is_deterministic():
    from dataclasses import replace

    cfg = small_config(snr_db=(6.0,))
    a = [replace(r, wall_time=0.0) for r in run_sweep(cfg)]
    b = [replace(r, wall_time=0.0) for r in run_sweep(cfg)]
    assert a == b


def test_sweep_records_carry_formula_counts():
    cfg = small_config(scheme="baseline_dirichlet", snr_db=(8.0,))
    rec = run_sweep(cfg)[0]
    assert rec.closed_form == closed_form_cm("baseline", 8, 2, 2, 2)
    assert rec.cm_sd > 0 and rec.sd_nodes > 0
    cm_sqrd, cm_sic = rec.closed_form
    assert rec.total_cm_avg == cm_sqrd / cfg.n_blocks + cm_sic + rec.cm_sd_avg


def test_sweep_exact_ml_beats_rc_baseline_at_low_snr():
    # paired sweeps (same seeds, channels, data, noise); pooled over a fixed
    # seed range the exact-ML Dirichlet receiver makes fewer symbol errors
    # than the near-ML receiver on the leaky RC filter
    total_p = total_r = 0
    for seed in range(5):
        base = dict(n_subcarriers=8, n_subsymbols=2, n_tx=2, n_rx=2,
                    snr_db=(4.0,), n_channels=10, n_blocks=10, seed=seed)
        total_p += run_sweep(SimConfig(scheme="proposed_dirichlet", **base))[0].errors
        total_r += run_sweep(SimConfig(scheme="baseline_rc", alpha=0.9, **base))[0].errors
    assert total_p <= total_r


# ------------------------------------------------------------------ reports


def test_write_report_rejects_empty(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        write_report([], str(path))
    assert not path.exists()


def test_write_report_single_record(tmp_path):
    rec = run_sweep(small_config(snr_db=(6.0,)))[0]
    path = tmp_path / "out.csv"
    write_report([rec], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "6"
    assert fields[1] == "proposed_dirichlet"
    assert fields[2] == "dirichlet"
    assert fields[3:7] == ["8", "2", "2", "2"]


def test_write_report_sorted_and_reproducible(tmp_path):
    cfg_a = small_config(snr_db=(10.0, 0.0))
    cfg_b = small_config(scheme="baseline_dirichlet", snr_db=(0.0, 10.0))
    records = run_sweep(cfg_a) + run_sweep(cfg_b)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(records, str(p1))
    write_report(list(reversed(records)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    rows = p1.read_text().splitlines()[1:]
    keys = [(float(r.split(",")[0]), r.split(",")[1]) for r in rows]
    assert keys == sorted(keys)
