"""colearn: a deterministic multi-agent simulator for consensus-driven
semi-supervised learning over time-varying directed networks."""

from .config import ConfigError, load_config, override

__version__ = "0.1.0"
