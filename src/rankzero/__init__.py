"""Countable point sets of prescribed transfinite derived-set rank, the
entire functions whose zeros they seed, and certified numerical probes of
the resulting dilation families.

The package root exports the names of the README's library sketch; every
other name is imported from its module."""

from .evaluator import LogPolar, log_eval
from .pointset import Arc, build_rank_set, derive
from .probe import RatioPlus, non_c0_certificate
from .schedule import build_row_schedule

__version__ = "0.1.0"
