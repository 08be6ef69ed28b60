"""The repo benchmark (see bench/README.md); ``python -m bench.run``."""
