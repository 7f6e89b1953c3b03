"""Synthetic labeled grasp episodes and the JSONL episode log format.

An episode follows a fixed phase timeline: no contact, force ramp, locked
plateau, a disturbance phase where sharp transients are superimposed on the
plateau, and release. Only locked-phase samples outside disturbance intervals
are labeled stable (1); everything else, including the calm gaps between
transients, is labeled 0.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidConfig, InvariantViolation, ParseError
from .tactile import DEFAULT_N_S, FingertipGeometry, TaxelFrame, aggregate_taxels

EPISODE_FORMAT = "gripwatch-episode"
EPISODE_VERSION = 1

# Mixing constant for deriving per-episode seeds from a base seed.
SEED_MIX = 1_000_003

# Ratio between the chatter std superimposed on a transient and its push
# magnitude; the chatter is what mainly excites the detail coefficients.
VIBRATION_RATIO = 0.3

_DIRECTIONS = {"downward": np.array([0.0, 0.0, -1.0]), "lateral": np.array([0.0, 1.0, 0.0])}


@dataclass(frozen=True)
class PhaseDurations:
    no_contact: float = 1.5
    ramp: float = 0.3
    locked: float = 13.0
    disturbance: float = 3.0
    release: float = 0.3

    def total(self) -> float:
        return self.no_contact + self.ramp + self.locked + self.disturbance + self.release


@dataclass(frozen=True)
class DisturbanceConfig:
    count: int = 6
    magnitude: float = 4.0
    duration_s: float = 0.45
    direction_mode: str = "random"  # random | downward | lateral


@dataclass(frozen=True)
class EpisodeConfig:
    seed: int = 0
    sample_rate_hz: float = 150.0
    phase_durations: PhaseDurations = field(default_factory=PhaseDurations)
    locked_force: tuple = (8.0, 0.8, 0.4)
    noise_std: float = 0.02
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)
    object_id: int = 1
    n_s: int = DEFAULT_N_S
    contact_taxels: int = 6
    fingertip_id: str = "ft0"

    def validate(self):
        p = self.phase_durations
        if self.sample_rate_hz <= 0:
            raise InvalidConfig("sample_rate_hz must be positive")
        if min(p.no_contact, p.ramp, p.locked, p.disturbance, p.release) < 0:
            raise InvalidConfig("phase durations must be non-negative")
        if self.noise_std < 0:
            raise InvalidConfig("noise_std must be non-negative")
        if self.disturbance.count < 0:
            raise InvalidConfig("disturbance.count must be non-negative")
        if self.disturbance.duration_s < 0:
            raise InvalidConfig("disturbance.duration_s must be non-negative")
        if self.disturbance.direction_mode not in ("random", "downward", "lateral"):
            raise InvalidConfig(
                f"unknown direction_mode {self.disturbance.direction_mode!r}"
            )
        if not 0 < self.contact_taxels <= self.n_s:
            raise InvalidConfig("contact_taxels must be in 1..n_s")


@dataclass(frozen=True)
class LabeledEpisode:
    """One fingertip's labeled series, held as read-only arrays.

    ``t`` (N,) timestamps, ``taxels`` (N, n_s, 3) raw taxel forces and
    ``labels`` (N,) 0/1 stability labels, one row per sample.
    """

    t: np.ndarray
    taxels: np.ndarray
    labels: np.ndarray
    fingertip_id: str
    metadata: EpisodeConfig | None = None

    def __post_init__(self):
        for name, dtype in (("t", float), ("taxels", float), ("labels", int)):
            array = np.asarray(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        if self.taxels.ndim != 3 or self.taxels.shape[2] != 3:
            raise InvariantViolation(f"taxels must be (N, n_s, 3), got {self.taxels.shape}")
        if self.t.shape != (len(self.taxels),) or self.labels.shape != self.t.shape:
            raise InvariantViolation(
                f"{len(self.taxels)} taxel rows, {self.t.shape} timestamps, "
                f"{self.labels.shape} labels"
            )

    @property
    def frames(self) -> list:
        """The samples as TaxelFrame objects, built anew on every access."""
        return [
            TaxelFrame(t, self.fingertip_id, taxels, label=label)
            for t, taxels, label in zip(self.t.tolist(), self.taxels, self.labels.tolist())
        ]

    @functools.cached_property
    def forces(self) -> tuple:
        """Read-only (f_tip (N, 3), f_a (N)) through the identity geometry,
        aggregated on first use."""
        f_tip, f_a = aggregate_taxels(
            self.taxels, FingertipGeometry.identity(self.taxels.shape[1])
        )
        f_tip.setflags(write=False)
        f_a.setflags(write=False)
        return f_tip, f_a


def _sample_index(t_seconds: float, rate: float) -> int:
    # ceil with a guard against float representation of exact products
    return math.ceil(round(t_seconds * rate, 6))


def generate_episode(config: EpisodeConfig) -> LabeledEpisode:
    """Generate one episode, deterministically from config.seed."""
    config.validate()
    p = config.phase_durations
    rate = config.sample_rate_hz
    n = _sample_index(p.total(), rate)
    rng = np.random.default_rng(config.seed)

    # Phase boundaries in sample indices (label transitions are exact).
    b_ramp = _sample_index(p.no_contact, rate)
    b_locked = _sample_index(p.no_contact + p.ramp, rate)
    b_dist = _sample_index(p.no_contact + p.ramp + p.locked, rate)
    b_release = _sample_index(p.no_contact + p.ramp + p.locked + p.disturbance, rate)

    locked = np.asarray(config.locked_force, dtype=float)
    force = np.zeros((n, 3))
    if b_locked > b_ramp:
        ramp_len = b_locked - b_ramp
        frac = (np.arange(ramp_len) + 1) / ramp_len
        force[b_ramp:b_locked] = frac[:, None] * locked
    force[b_locked:b_release] = locked
    if n > b_release:
        rel_len = n - b_release
        frac = 1.0 - (np.arange(rel_len) + 1) / rel_len
        force[b_release:] = frac[:, None] * locked

    # Disturbance transients: evenly spaced half-sine pushes with chatter,
    # centered within their slots in the disturbance phase.
    unstable_intervals = []
    d = config.disturbance
    # Fixed draw order keeps episodes bit-identical for a given seed:
    # directions first, then chatter, then taxel noise.
    directions = [_direction(d.direction_mode, rng) for _ in range(d.count)]
    chatter = rng.standard_normal(n)
    if d.count > 0 and p.disturbance > 0:
        slot = p.disturbance / d.count
        for j, direction in enumerate(directions):
            start_t = p.no_contact + p.ramp + p.locked + j * slot + max(
                0.0, (slot - d.duration_s) / 2
            )
            i0 = _sample_index(start_t, rate)
            i1 = min(_sample_index(start_t + min(d.duration_s, slot), rate), n)
            if i1 <= i0:
                continue
            u = (np.arange(i1 - i0) + 0.5) / (i1 - i0)
            envelope = np.sin(np.pi * u)
            push = d.magnitude * envelope
            force[i0:i1] += push[:, None] * direction
            # Stick-slip chatter modulates the grip force magnitude, so it is
            # applied along the plateau force direction and shows up in F_a
            # whatever the push direction is.
            grip_dir = locked / max(np.linalg.norm(locked), 1e-12)
            vib = VIBRATION_RATIO * d.magnitude * envelope * chatter[i0:i1]
            force[i0:i1] += vib[:, None] * grip_dir
            unstable_intervals.append((i0, i1))

    labels = np.zeros(n, dtype=int)
    labels[b_locked:b_dist] = 1
    for i0, i1 in unstable_intervals:
        labels[max(i0, b_locked): min(i1, b_dist)] = 0

    # Split the fingertip force across the contact patch, then add white
    # sensor noise on every taxel component.
    taxels = np.zeros((n, config.n_s, 3))
    taxels[:, : config.contact_taxels, :] = force[:, None, :] / config.contact_taxels
    if config.noise_std > 0:
        taxels += rng.normal(0.0, config.noise_std, size=taxels.shape)

    t = np.arange(n) / rate
    return LabeledEpisode(t, taxels, labels, config.fingertip_id, metadata=config)


def _direction(mode: str, rng) -> np.ndarray:
    if mode == "random":
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)
    return _DIRECTIONS[mode]


def generate_dataset(
    n_objects: int, episodes_per_object: int, base: EpisodeConfig
) -> list[LabeledEpisode]:
    """Generate n_objects * episodes_per_object episodes with per-object jitter.

    Object-level jitter (plateau force, noise level, disturbance magnitude) is
    drawn once from the base seed; episode seeds are mixed deterministically so
    episodes can be regenerated independently.
    """
    if n_objects < 1 or episodes_per_object < 1:
        raise InvalidConfig("n_objects and episodes_per_object must be >= 1")
    base.validate()
    jitter_rng = np.random.default_rng(base.seed)
    force_scale = jitter_rng.uniform(0.7, 1.3, size=n_objects)
    noise_scale = jitter_rng.uniform(0.6, 1.4, size=n_objects)
    magnitude_scale = jitter_rng.uniform(0.7, 1.3, size=n_objects)

    episodes = []
    index = 0
    for obj in range(n_objects):
        locked = tuple(float(c * force_scale[obj]) for c in base.locked_force)
        disturbance = replace(
            base.disturbance,
            magnitude=float(base.disturbance.magnitude * magnitude_scale[obj]),
        )
        for _ in range(episodes_per_object):
            cfg = replace(
                base,
                seed=base.seed * SEED_MIX + index,
                locked_force=locked,
                noise_std=float(base.noise_std * noise_scale[obj]),
                disturbance=disturbance,
                object_id=obj + 1,
                fingertip_id=base.fingertip_id,
            )
            episodes.append(generate_episode(cfg))
            index += 1
    return episodes


# --- JSONL episode log format ---


def _config_to_dict(config: EpisodeConfig) -> dict:
    return dataclasses.asdict(config)


def _config_from_dict(payload: dict) -> EpisodeConfig:
    payload = dict(payload)
    payload["phase_durations"] = PhaseDurations(**payload["phase_durations"])
    payload["disturbance"] = DisturbanceConfig(**payload["disturbance"])
    payload["locked_force"] = tuple(payload["locked_force"])
    return EpisodeConfig(**payload)


def save_episode_log(episode: LabeledEpisode, path) -> None:
    header = {"format": EPISODE_FORMAT, "version": EPISODE_VERSION}
    if len(episode.t):
        header["n_s"] = episode.taxels.shape[1]
    if episode.metadata is not None:
        header["config"] = _config_to_dict(episode.metadata)
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for t, taxels, label in zip(
            episode.t.tolist(), episode.taxels, episode.labels.tolist()
        ):
            fh.write(
                json.dumps(
                    {
                        "t": t,
                        "fingertip": episode.fingertip_id,
                        "taxels": taxels.tolist(),
                        "label": label,
                    }
                )
                + "\n"
            )


def load_episode_log(path) -> LabeledEpisode:
    """Parse an episode log, reporting the offending line on failure."""
    ts, taxel_rows, labels = [], [], []
    fingertip_id = None
    metadata = None
    n_s = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if lineno == 1:
                if not isinstance(record, dict):
                    raise ParseError("header is not a JSON object", line=lineno)
                if record.get("format") != EPISODE_FORMAT:
                    raise ParseError(
                        f"expected format {EPISODE_FORMAT!r}, got {record.get('format')!r}",
                        line=lineno,
                    )
                if record.get("version") != EPISODE_VERSION:
                    raise ParseError(
                        f"unsupported version {record.get('version')!r}", line=lineno
                    )
                n_s = record.get("n_s")
                if "config" in record:
                    try:
                        metadata = _config_from_dict(record["config"])
                    except (KeyError, TypeError) as exc:
                        raise ParseError(f"bad config echo: {exc}", line=lineno) from exc
                continue
            try:
                t = float(record["t"])
                fingertip = str(record["fingertip"])
                taxels = np.array(record["taxels"], dtype=float)
                label = int(record["label"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad frame record: {exc}", line=lineno) from exc
            if taxels.ndim != 2 or taxels.shape[1] != 3:
                raise ParseError(
                    f"taxels must be an n_s x 3 array, got shape {taxels.shape}",
                    line=lineno,
                )
            if n_s is None:
                n_s = taxels.shape[0]
            elif taxels.shape[0] != n_s:
                raise ParseError(
                    f"expected {n_s} taxel readings, found {taxels.shape[0]}",
                    line=lineno,
                )
            if label not in (0, 1):
                raise ParseError(f"label must be 0 or 1, got {label}", line=lineno)
            if fingertip_id is None:
                fingertip_id = fingertip
            elif fingertip != fingertip_id:
                raise ParseError(
                    f"fingertip {fingertip!r} differs from {fingertip_id!r}", line=lineno
                )
            if ts and t < ts[-1]:
                raise ParseError(f"timestamp {t} decreases below {ts[-1]}", line=lineno)
            ts.append(t)
            taxel_rows.append(taxels)
            labels.append(label)
    if not ts:
        raise ParseError("no frames")
    return LabeledEpisode(
        np.array(ts), np.stack(taxel_rows), np.array(labels), fingertip_id, metadata=metadata
    )
