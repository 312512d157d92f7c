"""Minimal sectioned key = value configuration format.

Grammar (one construct per line):

    # comment                      blank lines and #-comments are ignored
    [section]                      section header; may contain spaces
    key = value                    inside a section; value runs to line end

Values keep their raw text; typed accessors convert on demand and report
the offending line on failure. Duplicate keys within a section, keys
outside any section and an item repeated within one list or mapping value
are errors, and so, once the reader is done, is any key it never read.
"""

from __future__ import annotations


class ConfigError(Exception):
    """Configuration file problem, with file/line context in the message."""


def first_repeat(items: list):
    """The first item that an earlier one equals, or None if all differ."""
    return next((item for k, item in enumerate(items) if item in items[:k]), None)


class Section:
    def __init__(self, name: str, source: str, line: int | None = None):
        self.name = name
        self.source = source
        self.line = line  # of the header; None for a section the file lacks
        self.entries: dict[str, tuple[str, int]] = {}
        self.read: set[str] = set()

    def error(self, key: str, message: str) -> ConfigError:
        """A ConfigError about ``key`` that names its file and line."""
        return ConfigError(f"{self.source}:{self.entries[key][1]}: key {key!r} {message}")

    def header_error(self, message: str) -> ConfigError:
        """A ConfigError about the section itself that names its header's line."""
        return ConfigError(f"{self.source}:{self.line}: section [{self.name}] {message}")

    def get_str(self, key: str, default: str | None = None) -> str | None:
        """``key``'s raw text, marked read; ``default`` if the section lacks it.
        The typed accessors below read through it."""
        if key not in self.entries:
            return default
        self.read.add(key)
        return self.entries[key][0]

    def _number(self, key: str, default, kind, expects: str):
        value = self.get_str(key)
        if value is None:
            return default
        try:
            return kind(value)
        except ValueError:
            raise self.error(key, f"expects {expects}, got {value!r}") from None

    def get_int(self, key: str, default: int | None = None) -> int | None:
        return self._number(key, default, int, "an integer")

    def get_float(self, key: str, default: float | None = None) -> float | None:
        return self._number(key, default, float, "a number")

    def get_list(self, key: str, default: list | None = None, kind=str,
                 expects: str = "a comma-separated list") -> list | None:
        """Comma-separated items converted by ``kind``, none of them repeated."""
        value = self.get_str(key)
        if value is None:
            return default
        try:
            items = [kind(item.strip()) for item in value.split(",") if item.strip()]
        except ValueError:
            raise self.error(key, f"expects {expects}") from None
        if not items:
            raise self.error(key, "expects a comma-separated list")
        repeated = first_repeat(items)
        if repeated is not None:
            raise self.error(key, f"lists {repeated!r} more than once")
        return items

    def get_mapping(self, key: str, default: dict[str, float] | None = None
                    ) -> dict[str, float] | None:
        """Parse ``name:number, name:number`` pairs."""
        value = self.get_str(key)
        if value is None:
            return default
        out: dict[str, float] = {}
        for item in value.split(","):
            item = item.strip()
            if not item:
                continue
            if ":" not in item:
                raise self.error(key, f"expects 'name:number' pairs, got {item!r}")
            name, _, num = item.partition(":")
            name = name.strip()
            if name in out:
                raise self.error(key, f"names {name!r} more than once")
            try:
                out[name] = float(num.strip())
            except ValueError:
                raise self.error(key, f"has a bad number for {name!r}") from None
        if not out:
            raise self.error(key, "is empty")
        return out


class ParsedConfig:
    def __init__(self, source: str):
        self.source = source
        self.sections: dict[str, Section] = {}

    def section(self, name: str) -> Section:
        if name not in self.sections:
            raise ConfigError(f"{self.source}: missing section [{name}]")
        return self.sections[name]

    def optional_section(self, name: str) -> Section:
        """The named section, or an empty one where every key takes its default."""
        return self.sections.get(name) or Section(name, self.source)

    def sections_with_prefix(self, prefix: str) -> list[Section]:
        return [s for n, s in self.sections.items() if n.startswith(prefix)]

    def reject_unread(self) -> None:
        """Fail on the first key, in file order, that no accessor has read."""
        unread = [(line, key, sec.name) for sec in self.sections.values()
                  for key, (_, line) in sec.entries.items() if key not in sec.read]
        if unread:
            line, key, name = min(unread)
            raise ConfigError(
                f"{self.source}:{line}: key {key!r} in section [{name}] is not "
                f"used (unknown, or overridden by another key)"
            )


def parse_config_text(text: str, source: str = "<config>") -> ParsedConfig:
    """Parse the sectioned key = value format; errors carry line numbers."""
    parsed = ParsedConfig(source)
    current: Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{source}:{lineno}: unterminated section header {raw!r}")
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{source}:{lineno}: empty section name")
            if name in parsed.sections:
                raise ConfigError(f"{source}:{lineno}: duplicate section [{name}]")
            current = Section(name, source, lineno)
            parsed.sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value' or '[section]', got {raw!r}"
            )
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in current.entries:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} in section [{current.name}]"
            )
        current.entries[key] = (value, lineno)
    return parsed


def parse_config_file(path: str) -> ParsedConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=path)
