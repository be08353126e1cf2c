"""The repo benchmark (see bench/README.md); run it with ``python bench/run.py``."""
