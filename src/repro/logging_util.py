"""Logging helpers.

The library logs under the ``repro`` namespace and never configures the
root logger; applications opt in via :func:`configure_logging` (or the
older :func:`enable_verbose_logging`).  :class:`JsonLineFormatter`
renders each record as one JSON object per line for log shippers.
"""

from __future__ import annotations

import json
import logging
import sys

LOGGER_NAME = "repro"

#: Names accepted by ``configure_logging(level=...)`` and the CLI.
LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record: ts, level, logger, msg."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload)


def get_logger(suffix: str | None = None) -> logging.Logger:
    """Return the library logger, optionally a dotted child."""
    name = LOGGER_NAME if suffix is None else f"{LOGGER_NAME}.{suffix}"
    return logging.getLogger(name)


def configure_logging(level: str = "info", json_lines: bool = False) -> None:
    """Attach a stderr handler to the library logger.

    Idempotent: a handler previously installed by this function (flagged
    with ``_repro_managed``) is replaced, so repeated calls — or a call
    after :func:`enable_verbose_logging` — never stack handlers.
    """
    if level not in LOG_LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {sorted(LOG_LEVELS)}"
        )
    logger = get_logger()
    logger.setLevel(LOG_LEVELS[level])
    for handler in [h for h in logger.handlers
                    if getattr(h, "_repro_managed", False)]:
        logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    if json_lines:
        handler.setFormatter(JsonLineFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
        )
    handler._repro_managed = True  # type: ignore[attr-defined]
    logger.addHandler(handler)


def enable_verbose_logging(level: int = logging.INFO) -> None:
    """Attach a stderr handler to the library logger (idempotent).

    Kept for backward compatibility; :func:`configure_logging` is the
    richer entry point.
    """
    logger = get_logger()
    logger.setLevel(level)
    if not any(isinstance(h, logging.StreamHandler) for h in logger.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
        )
        handler._repro_managed = True  # type: ignore[attr-defined]
        logger.addHandler(handler)

