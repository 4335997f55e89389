"""Tests for repro.utils.logging."""

import logging

from repro.utils.logging import enable_console_logging, get_logger


class TestGetLogger:
    def test_namespaced_under_repro(self):
        logger = get_logger("data.registry")
        assert logger.name == "repro.data.registry"

    def test_already_namespaced_kept(self):
        logger = get_logger("repro.train")
        assert logger.name == "repro.train"

    def test_root_has_null_handler(self):
        get_logger("anything")
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)


class TestEnableConsoleLogging:
    def test_attaches_and_replaces(self):
        first = enable_console_logging()
        second = enable_console_logging()
        root = logging.getLogger("repro")
        console = [h for h in root.handlers if getattr(h, "_repro_console", False)]
        assert console == [second]
        assert first not in root.handlers
        root.removeHandler(second)

