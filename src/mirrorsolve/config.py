"""Declarative experiment configuration (flat key = value sections).

Config files use INI syntax with four sections; every key has a default, so
a minimal file only names the problem; an elliptic one (pde_coefficient)
also names rule2 or rule3, since rule1 needs a linear forward map::

    [problem]
    kind = entropy_integral     ; entropy_integral | pde_coefficient | smd_synthetic

    [rule]
    name = rule3                ; rule1 | rule2 | rule3

    [stopping]
    kind = discrepancy          ; discrepancy | apriori (floor(1 / delta) steps)

    [sweep]
    deltas = 5e-2, 5e-3, 5e-4   ; positive and finite, distinct as f"{delta:g}"
                                ; (the iterate-file tag); defaults to the
                                ; problem's, filled in when the config is
                                ; built
    seeds = 1, 2, 3, 4, 5       ; non-empty, nonnegative, no seed twice

A list's items are separated by commas (or spaces); an empty item
(``seeds = 1,,2``, a leading or a trailing comma) is refused, not dropped.

The grid size is the problem kind's, one per kind: n = 5000 for
entropy_integral, 64 for pde_coefficient and 50 for smd_synthetic
(``PROBLEM_DEFAULTS``); the code that builds the problem checks it.  tau
and eta are the problem setup's, and the step rules' constants
gamma0 = 1.98 and gamma_bar = 600 are fixed
(``experiments.GAMMA0``, ``experiments.GAMMA_BAR``); none of them is a
config key.

The ``[smd]`` section configures the stochastic study (kind smd_synthetic):
regularizer (entropy | elastic) and alpha (in [0, 1); the step sizes are
gamma (k+1)^(-alpha), so the default 0 is the constant schedule).  The
study's instance and horizon are fixed: 4 unit-norm blocks, instance seed
7, largest step gamma = 1.8 (below the step bound 4 sigma / L^2 = 2) and
10^4 steps, and the elastic net's beta = 0.3
(``PROBLEM_DEFAULTS["smd_synthetic"]``); none of them is a config key.  The
config checks alpha by building the regularizer and schedule that
``mirrorsolve sweep`` runs the study with
(:meth:`ExperimentConfig.smd_study`), so its range is stated once, by the
constructor that owns it, and a bad value fails before anything is written.

An unknown section or key raises ValueError, so a misspelt key cannot fall
back to its default unnoticed; so does a key the problem kind never reads:
``[smd]`` for the Landweber kinds, and ``[rule]``, ``[stopping]`` and
``[sweep] deltas`` for smd_synthetic.  ``[DEFAULT]`` is an unknown section
too, since configparser would copy its keys into every section.  A value
that does not convert (``seeds = 1, x``) or that a check rejects
(``seeds = -1``) raises ValueError naming the file, section and key; a file
configparser cannot read (a repeated key or section, no section header, a
byte that is not UTF-8) raises ValueError naming the file, and a path that
cannot be opened (missing, a directory, unreadable) raises the OS's own
error.  The CLI applies the same rules to the flags that replace a list by
their one value, whether or not the list holds it: ``sweep --delta`` must
be positive and finite, and ``--seed`` nonnegative; smd_synthetic has no
deltas, so ``--delta`` fails on it by name.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .regularizers import ElasticNet, EntropySimplex
from .smd import PolynomialSchedule

__all__ = ["ExperimentConfig", "parse_config", "PROBLEM_DEFAULTS"]

#: per-problem values: the kind's one grid size and its default deltas; the
#: stochastic study's block count, largest step, horizon, instance seed and
#: elastic-net beta are fixed here
PROBLEM_DEFAULTS = {
    "entropy_integral": dict(n=5000, deltas=(5e-2, 5e-3, 5e-4)),
    "pde_coefficient": dict(n=64, deltas=(1e-2, 1e-3, 1e-4)),
    "smd_synthetic": dict(n=50, deltas=(), blocks=4, gamma=1.8, k_max=10_000,
                          instance_seed=7, beta=0.3),
}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "entropy_integral"
    rule: str = "rule1"
    stopping: str = "discrepancy"
    deltas: tuple = None           # None: the problem's
    seeds: tuple = (1, 2, 3, 4, 5)
    # stochastic study
    smd_regularizer: str = "entropy"
    smd_alpha: float = 0.0         # 0: the constant schedule

    def __post_init__(self):
        if self.problem not in PROBLEM_DEFAULTS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.rule not in ("rule1", "rule2", "rule3"):
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.stopping not in ("discrepancy", "apriori"):
            raise ValueError(f"unknown stopping {self.stopping!r}")
        if self.smd_regularizer not in ("entropy", "elastic"):
            raise ValueError(f"unknown smd regularizer {self.smd_regularizer!r}")
        try:
            self.smd_study()
        except ValueError as exc:
            raise ValueError(f"[smd] {exc}") from None
        if not self.seeds:
            raise ValueError("[sweep] seeds is empty")
        if min(self.seeds) < 0:
            raise ValueError(f"[sweep] seeds must be nonnegative, got {self.seeds}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"[sweep] seeds repeat a seed: {self.seeds}")
        deltas = PROBLEM_DEFAULTS[self.problem]["deltas"] if self.deltas is None else self.deltas
        object.__setattr__(self, "deltas", tuple(deltas))  # frozen: set once, here
        if self.problem != "smd_synthetic":
            if not self.deltas:
                raise ValueError("[sweep] deltas is empty")
            if not all(0 < d < math.inf for d in self.deltas):
                raise ValueError(f"[sweep] deltas must be positive and finite, "
                                 f"got {self.deltas}")
            # two deltas with one iterate-file tag would write one file
            tags = [f"{d:g}" for d in self.deltas]
            if len(set(tags)) < len(tags):
                raise ValueError(f"[sweep] deltas repeat an iterate-file tag: {tags}")

    def smd_study(self) -> tuple:
        """The (regularizer, schedule) pair of the stochastic study; the
        schedule's largest step and the elastic net's beta are the study's
        fixed values, read when called."""
        study = PROBLEM_DEFAULTS["smd_synthetic"]
        reg = EntropySimplex() if self.smd_regularizer == "entropy" else ElasticNet(study["beta"])
        return reg, PolynomialSchedule(study["gamma"], self.smd_alpha)


def _items(conv):
    """The converter of a list whose items, separated by commas or spaces,
    ``conv`` converts; an empty list has none, but an empty item (``1,,2``,
    a leading or a trailing comma) is refused."""
    def convert(text: str) -> tuple:
        items = text.split(",")
        if text.strip() and not all(map(str.strip, items)):
            raise ValueError(f"empty item in {text!r}")
        return tuple(map(conv, " ".join(items).split()))
    return convert


#: (section, key) -> (converter, ExperimentConfig field); nothing else parses
_KEYS = {
    ("problem", "kind"): (str, "problem"),
    ("rule", "name"): (str, "rule"),
    ("stopping", "kind"): (str, "stopping"),
    ("sweep", "deltas"): (_items(float), "deltas"),
    ("sweep", "seeds"): (_items(int), "seeds"),
    ("smd", "regularizer"): (str, "smd_regularizer"),
    ("smd", "alpha"): (float, "smd_alpha"),
}


#: keys every problem kind reads; of the others, smd_synthetic reads only
#: those in [smd] and the Landweber kinds all but those
_SHARED_KEYS = {("problem", "kind"), ("sweep", "seeds")}


def _unread(cfg: ExperimentConfig, section: str, key: str) -> bool:
    """Whether the problem kind of ``cfg`` never reads (section, key)."""
    return ((section, key) not in _SHARED_KEYS
            and (section == "smd") != (cfg.problem == "smd_synthetic"))


def parse_config(path) -> ExperimentConfig:
    """Read an INI config; an unknown section or key (``[DEFAULT]`` too), a
    key the problem kind does not read, a value the config rejects, or a
    file configparser cannot read (a repeated key, no section header, a byte
    that is not UTF-8) raises ValueError, with a message that starts with
    the path.  A path that cannot be opened raises the OS's error for it:
    ``FileNotFoundError``, ``IsADirectoryError`` or ``PermissionError``."""
    # no header matches the empty default section, so [DEFAULT] is an
    # ordinary, unknown section instead of defaults for every section; values
    # are read as written, with no %-interpolation to fail outside the try
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section="",
                                   interpolation=None)
    # opened here, not by cp.read, which skips a path it cannot open: a
    # missing file, a directory or an unreadable one raises its own OSError
    with open(path, encoding="utf-8") as fh:
        try:
            cp.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None

    known = {section for section, _ in _KEYS}
    unknown = []
    kw = {}
    for section in cp.sections():
        if section not in known:
            unknown.append(f"section [{section}]")
            continue
        for key, text in cp.items(section):
            if (section, key) not in _KEYS:
                unknown.append(f"key {key!r} in [{section}]")
                continue
            conv, dest = _KEYS[section, key]
            try:
                kw[dest] = conv(text)
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
    if unknown:
        raise ValueError(f"{path}: unknown {', '.join(unknown)}")

    try:
        cfg = ExperimentConfig(**kw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    unused = [f"key {key!r} in [{section}]"
              for section in cp.sections() for key in cp.options(section)
              if _unread(cfg, section, key)]
    if unused:
        raise ValueError(f"{path}: kind {cfg.problem!r} does not read {', '.join(unused)}")
    return cfg
