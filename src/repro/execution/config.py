"""The execution settings of an interpreted run, as one value.

:class:`ExecConfig` carries the settings from the CLI (or a Python
caller) to the engines: which interpreter runs, whether hot functions
promote to tier 2 and after how many invocations, and whether llva-san
checks memory.  Its constructor is the one validation rule every entry
point shares, and the value itself is the key of the decoded-module
cache, so a setting cannot be checked in one place and forgotten in
another.  ``--vectorize`` is not here: it is a build setting, a pass
over the module before any engine sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Tier-1 invocations before a function is promoted (0 = immediately).
DEFAULT_THRESHOLD = 16

ENGINES = ("reference", "fast")


@dataclass(frozen=True)
class ExecConfig:
    """How an interpreted run executes.

    Raises ``ValueError`` for a combination no engine runs.  With tier 2
    off the threshold is unused and reads as :data:`DEFAULT_THRESHOLD`,
    so two configs that run alike are equal and hash equal."""

    engine: str = "fast"
    tier2: bool = False
    tier2_threshold: int = DEFAULT_THRESHOLD
    sanitize: bool = False

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError("unknown engine {0!r}".format(self.engine))
        if self.tier2 and self.engine != "fast":
            raise ValueError(
                "tier2 requires the fast engine (engine=\"fast\")")
        if self.tier2 and self.sanitize:
            # Shadow-memory checking needs per-instruction fault sites,
            # which compiled code merges away.
            raise ValueError("--sanitize pins execution to tier 1; "
                             "--tier2 has no effect under llva-san")
        if self.tier2_threshold < 0:
            raise ValueError("the tier-2 threshold must be 0 or more, "
                             "not {0}".format(self.tier2_threshold))
        if not self.tier2:
            object.__setattr__(self, "tier2_threshold", DEFAULT_THRESHOLD)

    @classmethod
    def all(cls) -> Tuple["ExecConfig", ...]:
        """Every supported configuration: the reference engine, the fast
        engine, tier 2 forced (threshold 0) and at the default
        threshold, and both engines under llva-san."""
        return (
            cls(engine="reference"),
            cls(engine="fast"),
            cls(engine="fast", tier2=True, tier2_threshold=0),
            cls(engine="fast", tier2=True),
            cls(engine="reference", sanitize=True),
            cls(engine="fast", sanitize=True),
        )
