"""Seeded Monte Carlo SER/complexity sweeps, closed-form operation counts, CSV reports.

A sweep is a pure function of its configuration: every random draw comes
from a counter-derived substream of the master seed, keyed by
(seed, purpose, snr index, channel index, block index). Channel and noise
draws do not depend on the detection scheme, so sweeps with different
schemes but the same seed see identical channels, data, and noise and can
be compared pairwise.

Complexity accounting follows the split used throughout: QR-factorization
and interference-cancellation counts come from closed-form complex-
multiplication formulas (evaluated in exact integer arithmetic), while
sphere-decoder work is measured during the run. Reports are per block, with
the factorization charged once per channel realization and amortized over
its blocks.
"""

import math
import numbers
import re
import time
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import channel as chan
from . import detect
from . import waveform
from .decoupling import compute_blocks, receive_transform
from .detect import QPSK

SCHEMES = ("baseline_dirichlet", "baseline_rc", "ofdm", "proposed_dirichlet")
# detected on the full matrix; the others (ofdm as M = 1) run the per-subcarrier receiver
_DENSE_SCHEMES = ("baseline_dirichlet", "baseline_rc")
DEFAULT_RC_ROLLOFF = 0.9
# A sweep's chunk of realizations keeps within three budgets. Its received
# samples (n_blocks*R*D per realization) fit in 2^14 complex entries
# (256 KB), as the front end's stacks grow with them. Its factored entries
# (K*MR*MT per realization for the per-subcarrier receiver, (RD + TD)*TD for
# the dense MMSE extension) fit in four times that, 2^16 (1 MiB), so that
# full_proposed, whose one realization's factors fill 2^14, still detects
# several realizations per call. The per-subcarrier receiver's first-descent
# state, one entry per subproblem and level (n_blocks*K*M*T per
# realization), fits in half of it, 2^13: the first descent is where the
# per-subcarrier sweeps peak, and past that budget its batched calls are
# paid off, so a larger chunk only holds more memory. On the benchmark's
# workloads that is 6 realizations per chunk on desk_proposed, 4 on
# full_proposed, 8 on desk_baseline_rc and 4 on full_ofdm.
CHUNK_ENTRIES = 1 << 14

# substream tags for the counter-based seed derivation
_STREAM_CHANNEL = 0
_STREAM_DATA = 1
_STREAM_NOISE = 2


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or violated constraints."""


def _check_rolloff(alpha: float | None) -> float:
    """``alpha``, the roll-off of a baseline_rc scheme; ConfigError unless it lies in [0, 1]."""
    if alpha is None or not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"scheme 'baseline_rc' needs a roll-off in [0, 1], got {alpha}")
    return alpha


def parse_scheme(text: str) -> tuple[str, float | None]:
    """Split a scheme spec like 'baseline_rc(0.9)' into (name, roll-off).

    Schemes without a roll-off return None; a bare 'baseline_rc' gets the
    default roll-off of 0.9.
    """
    text = text.strip()
    match = re.fullmatch(r"baseline_rc\(([^)]+)\)", text)
    if match:
        try:
            alpha = float(match.group(1))
        except ValueError:
            raise ConfigError(f"invalid roll-off in scheme '{text}'") from None
        return "baseline_rc", _check_rolloff(alpha)
    if text == "baseline_rc":
        return "baseline_rc", DEFAULT_RC_ROLLOFF
    if text in SCHEMES:
        return text, None
    raise ConfigError(f"unknown scheme '{text}' (expected one of {', '.join(SCHEMES)})")


@dataclass(frozen=True)
class SimConfig:
    """Everything a sweep depends on; two equal configs produce identical output."""

    scheme: str
    n_subcarriers: int
    n_subsymbols: int
    n_tx: int
    n_rx: int
    snr_db: tuple[float, ...]
    n_channels: int
    n_blocks: int
    alpha: float | None = None
    seed: int = 0
    out: str | None = None

    @property
    def block_len(self) -> int:
        return self.n_subcarriers * self.n_subsymbols

    def filter_label(self) -> str:
        if self.scheme == "baseline_rc":
            return f"rc({self.alpha:g})"
        return "dirichlet"

    def scheme_spec(self) -> str:
        if self.scheme == "baseline_rc":
            return f"baseline_rc({self.alpha!r})"
        return self.scheme

    def __post_init__(self):
        """Check every field and the cross-field constraints; raises ConfigError on violation.

        Integer fields are stored as Python ints (numpy's integers
        included), the SNR points and the roll-off as floats, and snr_db as
        a tuple, so a config that exists is one that :func:`run_sweep`
        completes.
        """
        for key, name in _KEYS.items():
            if _FIELDS[name].type is int:
                try:
                    value = waveform._integer(key, getattr(self, name))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from None
                object.__setattr__(self, name, value)
        for key in ("K", "M", "T", "R", "n_channels", "n_blocks"):
            value = getattr(self, _KEYS[key])
            if value < 1:
                raise ConfigError(f"{key} must be positive, got {value}")
        try:
            if isinstance(self.snr_db, (str, bytes, bytearray)):  # not a list of its characters
                raise TypeError
            snr_db = tuple(_real("snr_db point", snr) for snr in self.snr_db)
        except TypeError:
            raise ConfigError(f"snr_db must list SNR points, got {self.snr_db!r}") from None
        object.__setattr__(self, "snr_db", snr_db)
        if len(self.snr_db) == 0:
            raise ConfigError("snr_db must list at least one point")
        for snr in self.snr_db:
            # -300 dB is noise power 1e30, far from where the noise power or
            # the decoders' squared residuals overflow; nan and -inf fail too
            if not snr >= -300.0:
                raise ConfigError(f"snr_db points must be at least -300 dB or +inf, got {snr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme '{self.scheme}'")
        if self.scheme == "ofdm" and self.n_subsymbols != 1:
            raise ConfigError("scheme 'ofdm' requires M = 1")
        if self.scheme not in _DENSE_SCHEMES and self.n_rx < self.n_tx:
            raise ConfigError(
                f"scheme '{self.scheme}' requires R >= T (got R = {self.n_rx}, T = {self.n_tx}): "
                "its per-subcarrier sorted QR needs tall or square blocks"
            )
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _real("roll-off", self.alpha))
        if self.scheme != "baseline_rc" and self.alpha is not None:
            raise ConfigError(f"scheme '{self.scheme}' takes no roll-off, got {self.alpha}")
        if self.scheme == "baseline_rc":
            _check_rolloff(self.alpha)
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string or None, got {self.out!r}")


def _real(name: str, value) -> float:
    """``value`` as a float; ConfigError unless it is a real number within the float range."""
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{name} must be a real number within the float range, got {value!r}")


def _parse_snr_list(text: str) -> tuple[float, ...]:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")]
    if parts == [""]:
        raise ValueError("empty SNR list")
    if "" in parts:
        raise ValueError("empty item in SNR list")
    values = tuple(float(p) for p in parts)
    for p, value in zip(parts, values):
        # float() rounds a finite literal too large for a double to inf
        if math.isinf(value) and p.lstrip("+-").lower() not in ("inf", "infinity"):
            raise ValueError(f"{p} overflows to {value}")
    return values


# config key -> SimConfig field, in the order serialize_config writes them; a
# key is required unless its field has a default (seed and out), and parses
# as an integer when its field is an int
_KEYS = {
    "scheme": "scheme",
    "K": "n_subcarriers",
    "M": "n_subsymbols",
    "T": "n_tx",
    "R": "n_rx",
    "snr_db": "snr_db",
    "n_channels": "n_channels",
    "n_blocks": "n_blocks",
    "seed": "seed",
    "out": "out",
}
_FIELDS = {f.name: f for f in fields(SimConfig)}


def _typed(key: str, text: str, where: str):
    kind = _FIELDS[_KEYS[key]].type
    try:
        if kind is int:
            return int(text)
        if key == "snr_db":
            return _parse_snr_list(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid value for {key}: {text!r} ({exc})") from None


def parse_config(path: str, overrides: dict[str, str] | None = None) -> SimConfig:
    """Read a key-value config file, apply flag overrides, and build the checked SimConfig.

    The format is one ``key = value`` pair per line; '#' starts a comment.
    Allowed keys: scheme, K, M, T, R, snr_db, n_channels, n_blocks, seed,
    out; seed defaults to 0. Symbols are QPSK and the channel model is
    fixed by :func:`gfdmsim.channel.generate_channel` (max(1, D // 8) taps).
    Errors carry the offending file line or flag; a file that is not UTF-8
    text raises ConfigError too (a leading byte-order mark is skipped).
    Override values are taken as given, without comment stripping.
    """
    values: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: not UTF-8 text (cannot decode byte {exc.object[exc.start]:#04x})"
        ) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{where}: duplicate key '{key}'")
        values[key] = _typed(key, text.strip(), where)
    for key, text in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"flag --{key}: unknown key '{key}'")
        values[key] = _typed(key, str(text), f"flag --{key}")
    missing = sorted(
        key for key, name in _KEYS.items()
        if key not in values and _FIELDS[name].default is MISSING
    )
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    kwargs = {_KEYS[key]: value for key, value in values.items()}
    kwargs["scheme"], kwargs["alpha"] = parse_scheme(kwargs["scheme"])
    return SimConfig(**kwargs)


def serialize_config(cfg: SimConfig) -> str:
    """Config text that parses back to an identical SimConfig.

    Raises ConfigError for a text value that the format cannot hold: one
    with a '#', a line break, or leading or trailing white space.
    """
    lines = []
    for key, name in _KEYS.items():
        value = getattr(cfg, name)
        if key == "scheme":
            value = cfg.scheme_spec()
        elif key == "snr_db":
            value = ", ".join(repr(s) for s in value)
        elif value is None:
            continue
        text = str(value)
        if "#" in text or "\n" in text or "\r" in text or text != text.strip():
            raise ConfigError(f"{key} = {text!r} cannot be written as a config line")
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def closed_form_cm(scheme: str, k: int, m: int, t: int, r: int) -> tuple[int, int]:
    """Closed-form complex-multiplication counts (QR factorization, SIC).

    Evaluated in exact integer arithmetic for the detection of K*M*T symbols:

    * baseline: K^3 M^3 T^2 R + K^2 M^2 T R
                + (2 K^3 M^3 T^3 + 3 K^2 M^2 T^2 + K M T) / 6;
                SIC costs K^2 M^2 T^2.
    * proposed: K M^3 T^2 R + K M^2 T R + (K M^2 T^2 - K M T) / 2; no SIC.
    * ofdm:     the proposed count at (K*M, 1), i.e. D T^2 R + D T R + (D T^2 - D T) / 2.

    Raises ``ValueError`` unless every dimension is a positive integer
    (numpy's included).
    """
    k, m, t, r = (waveform._integer(key, v) for key, v in zip("KMTR", (k, m, t, r)))
    if min(k, m, t, r) < 1:
        raise ValueError("dimensions must be positive")
    if scheme in ("proposed", "baseline"):
        name = scheme
    else:
        name, _ = parse_scheme(scheme)
    if name == "ofdm":
        k, m = k * m, 1
    if name == "baseline" or name in _DENSE_SCHEMES:
        n = k * m * t
        sqrd_cm = k**3 * m**3 * t * t * r + k * k * m * m * t * r + n * (n + 1) * (2 * n + 1) // 6
        return sqrd_cm, k * k * m * m * t * t
    # proposed, proposed_dirichlet, or ofdm
    return (
        k * m**3 * t * t * r + k * m * m * t * r + (k * m * m * t * t - k * m * t) // 2,
        0,
    )


@dataclass(frozen=True)
class TrialRecord:
    """Measured outcome of one SNR point of the sweep run with `config`."""

    config: SimConfig
    snr_db: float
    errors: int
    cm_sd: int
    sd_nodes: int
    wall_time: float

    @property
    def symbols(self) -> int:
        cfg = self.config
        return cfg.n_channels * cfg.n_blocks * cfg.n_tx * cfg.block_len

    @property
    def ser(self) -> float:
        return self.errors / self.symbols

    @property
    def closed_form(self) -> tuple[int, int]:
        """The configured receiver's (cm_sqrd, cm_sic), from :func:`closed_form_cm`."""
        cfg = self.config
        return closed_form_cm(cfg.scheme, cfg.n_subcarriers, cfg.n_subsymbols, cfg.n_tx, cfg.n_rx)

    @property
    def cm_sd_avg(self) -> float:
        return self.cm_sd / (self.config.n_channels * self.config.n_blocks)

    @property
    def sd_nodes_avg(self) -> float:
        return self.sd_nodes / (self.config.n_channels * self.config.n_blocks)

    @property
    def total_cm_avg(self) -> float:
        # per-block total: factorization once per channel realization,
        # amortized over its blocks; SIC and sphere decoding per block
        cm_sqrd, cm_sic = self.closed_form
        return cm_sqrd / self.config.n_blocks + cm_sic + self.cm_sd_avg


def _trial_rng(seed: int, stream: int, *counters: int) -> np.random.Generator:
    """The generator of ``SeedSequence([seed, stream, *counters])``, from one word array.

    Each non-negative value is split into little-endian 32-bit words as
    ``SeedSequence`` splits an int (0 gives one word), so the entropy pool
    and every draw are those of the list; one uint32 array spares
    ``SeedSequence`` converting each value on its own.
    """
    words = []
    for value in (seed, stream, *counters):
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def _chunk_size(cfg: SimConfig) -> int:
    """Realizations per chunk: the most, at least one, that keep within every budget.

    The chunk's received samples (n_blocks*R*D per realization) fit in
    :data:`CHUNK_ENTRIES`, as its front end's stacks grow with them, and its
    factored entries in four times that, as the factors stay live through
    the chunk's detection. For the per-subcarrier receiver, its
    first-descent state (one entry per subproblem and level, n_blocks*K*M*T
    per realization) also fits in half of :data:`CHUNK_ENTRIES`: the first
    descent is where the per-subcarrier sweeps peak, and past that budget
    the batched stages' per-call cost is paid off and a larger chunk only
    holds more memory.
    """
    d, n_tx, n_rx = cfg.block_len, cfg.n_tx, cfg.n_rx
    budgets = [CHUNK_ENTRIES // (cfg.n_blocks * n_rx * d)]
    if cfg.scheme in _DENSE_SCHEMES:  # one MMSE extension at a time
        budgets.append(4 * CHUNK_ENTRIES // ((n_rx * d + n_tx * d) * n_tx * d))
    else:  # K blocks of MR x MT, and K subproblems of MT levels per block
        budgets.append(4 * CHUNK_ENTRIES // (d * cfg.n_subsymbols * n_rx * n_tx))
        budgets.append(CHUNK_ENTRIES // 2 // (cfg.n_blocks * n_tx * d))
    return max(1, min(budgets))


def run_sweep(cfg: SimConfig) -> list[TrialRecord]:
    """Run the configured Monte Carlo sweep and return one record per SNR point.

    Per SNR point: n_channels independent Rayleigh realizations, n_blocks
    uniformly drawn data blocks each, detection with the configured scheme,
    symbol-error and sphere-decoder counters accumulated. Output is a pure
    function of cfg. Each realization draws its channel, and each block its
    data and noise, from its own substream. The realizations run in chunks
    of :func:`_chunk_size` (at most :data:`CHUNK_ENTRIES` received samples,
    four times as many factored entries and, for the per-subcarrier
    receiver, half as many first-descent entries, one per subproblem and
    level, as the first descent is where its sweeps peak). Per chunk,
    :func:`gfdmsim.channel.generate_channel` draws each realization's
    channel, in index order, and one :func:`gfdmsim.waveform.fast_modulate`
    call modulates the chunk's blocks.
    :func:`gfdmsim.channel.apply_channel` then passes each realization's
    n_blocks blocks through its channel in one call, with one noise
    generator per block (none at +inf dB, where no noise is drawn). The
    dense baseline factors each realization's full matrix and calls
    :func:`gfdmsim.detect.detect_baseline_near_ml` on its blocks, one
    realization at a time. The per-subcarrier receiver (``proposed_dirichlet``
    and ``ofdm``) runs one :func:`gfdmsim.decoupling.receive_transform` call
    on the chunk, writes each realization's K blocks into a workspace of one
    chunk's Q and R stacks, allocated once per sweep, and drops the received
    samples and the channels; it then factors the blocks in place in one
    :func:`gfdmsim.detect.factorize_blocks` call and detects the chunk in
    one :func:`gfdmsim.detect.detect_proposed` call. Every block's result
    equals that of a one-block call bit for bit, so the chunk size changes
    no output.
    """
    k_sc, m_ss = cfg.n_subcarriers, cfg.n_subsymbols
    n_tx, n_rx, d = cfg.n_tx, cfg.n_rx, cfg.block_len
    if cfg.scheme == "baseline_rc":
        filt = waveform.rc_filter(k_sc, m_ss, cfg.alpha)
    else:
        filt = waveform.dirichlet_filter(k_sc, m_ss)
    dense = cfg.scheme in _DENSE_SCHEMES
    a_mat = waveform.build_transmitter_matrix(filt) if dense else None
    chunk = _chunk_size(cfg)
    if not dense:  # the per-subcarrier receiver's factors, reused by every chunk
        n_ws, rows, cols = min(chunk, cfg.n_channels), m_ss * n_rx, m_ss * n_tx
        q_ws = np.empty((n_ws, k_sc, rows, cols), dtype=complex)
        r_ws = np.empty((n_ws, k_sc, cols, cols), dtype=complex)
    blocks = range(cfg.n_blocks)
    records = []
    for s_idx, snr in enumerate(cfg.snr_db):
        noise_power = chan.snr_db_to_noise_power(snr)
        stats = detect.DetectionStats()
        errors = 0
        start = time.perf_counter()
        for first in range(0, cfg.n_channels, chunk):
            span = range(first, min(first + chunk, cfg.n_channels))
            chans = [
                chan.generate_channel(n_tx, n_rx, _trial_rng(cfg.seed, _STREAM_CHANNEL, s_idx, c), d)
                for c in span
            ]
            # each block draws its data and noise from its own substreams; a
            # generator is dropped once drawn, and none is made for noise
            # that apply_channel does not draw (+inf dB)
            sent = QPSK[np.stack([
                _trial_rng(cfg.seed, _STREAM_DATA, s_idx, c, b).integers(0, len(QPSK), size=n_tx * d)
                for c in span for b in blocks
            ])].reshape(len(span), cfg.n_blocks, n_tx * d)
            x = waveform.fast_modulate(sent.reshape(len(span), -1, n_tx, d), filt)
            y = np.stack([
                chan.apply_channel(x_c, ch, noise_power, [
                    _trial_rng(cfg.seed, _STREAM_NOISE, s_idx, c, b) for b in blocks
                ] if noise_power > 0.0 else None)
                for x_c, ch, c in zip(x, chans, span)
            ])
            del x
            if dense:
                d_hat = []
                for ch, y_c in zip(chans, y):
                    h_full = chan.assemble_full_matrix(ch, a_mat)
                    factor = detect.baseline_factorization(h_full, noise_power)
                    y_flat = y_c.reshape(cfg.n_blocks, -1)
                    d_hat.append(detect.detect_baseline_near_ml(y_flat, factor, m_ss * n_tx, stats))
            else:
                # the front end's stacks and the channels go before the
                # factorization, where the chunk's memory peaks
                ybar = receive_transform(y.reshape(-1, n_rx, d), filt)
                ybar = ybar.reshape(len(span), cfg.n_blocks, -1)
                q = q_ws[: len(span)]
                for q_c, ch in zip(q, chans):
                    q_c[...] = compute_blocks(ch, filt)
                del y, chans
                factors = detect.factorize_blocks(q, out=(q, r_ws[: len(span)]))
                d_hat = detect.detect_proposed(ybar, factors, filt, stats)
            errors += int(np.count_nonzero(np.asarray(d_hat) != sent))
        records.append(
            TrialRecord(
                config=cfg,
                snr_db=float(snr),
                errors=errors,
                cm_sd=stats.cm_count,
                sd_nodes=stats.sd_nodes_visited,
                wall_time=time.perf_counter() - start,
            )
        )
    return records


CSV_HEADER = (
    "snr_db,scheme,filter,K,M,T,R,ser,errors,symbols,"
    "cm_sqrd,cm_sic,cm_sd_avg,sd_nodes_avg,total_cm_avg"
)


def _g6(value: float) -> str:
    return format(value, ".6g")


def write_report(records: list[TrialRecord], path: str) -> None:
    """Write one CSV row per (SNR, scheme), sorted by SNR then scheme name.

    Floating-point columns use 6 significant digits; identical record lists
    produce byte-identical files. Raises on an empty record list without
    creating the file.
    """
    if not records:
        raise ValueError("no records to write")
    rows = sorted(records, key=lambda rec: (rec.snr_db, rec.config.scheme))
    lines = [CSV_HEADER]
    for rec in rows:
        cfg = rec.config
        cm_sqrd, cm_sic = rec.closed_form
        lines.append(
            ",".join(
                [
                    _g6(rec.snr_db),
                    cfg.scheme,
                    cfg.filter_label(),
                    str(cfg.n_subcarriers),
                    str(cfg.n_subsymbols),
                    str(cfg.n_tx),
                    str(cfg.n_rx),
                    _g6(rec.ser),
                    str(rec.errors),
                    str(rec.symbols),
                    str(cm_sqrd),
                    str(cm_sic),
                    _g6(rec.cm_sd_avg),
                    _g6(rec.sd_nodes_avg),
                    _g6(rec.total_cm_avg),
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
