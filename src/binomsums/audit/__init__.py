"""Identity audit subsystem: grid config, registry, runner, reports.

The names exported here are the union of the ``__all__`` lists of the
three modules below."""

from __future__ import annotations

from . import config, registry, runner
from .config import *  # noqa: F403
from .registry import *  # noqa: F403
from .runner import *  # noqa: F403

__all__ = [*config.__all__, *registry.__all__, *runner.__all__]
